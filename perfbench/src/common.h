// Shared plumbing for the perfbench workloads: clocks and percentiles, the
// result record printed as the final JSON line, process context, and the
// in-memory span recorder used by traced runs.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// "v1 v2 ..." with 3 decimals, for printing the samples behind a median.
std::string join(const std::vector<double>& values);

// Linear-interpolated percentile (p in [0, 100]) of `values`; 0 when empty.
double percentile(std::vector<double> values, double p);
inline double median(std::vector<double> values) { return percentile(std::move(values), 50); }

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string work_dir = ".bench_build/perfbench-run";  // checkpoints, span dumps
};

// Independent stream seed for one consumer of the workload seed.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t salt);

// FNV-1a, chainable through `h`.
std::uint64_t fnv1a(const void* data, std::size_t len,
                    std::uint64_t h = 0xcbf29ce484222325ULL);

// Peak resident set of this process (VmHWM), MiB.
double peak_rss_mb();
// Rewinds VmHWM to the current resident set (/proc/self/clear_refs "5").
void reset_peak_rss();

// What every result line is printed with: nproc, GTV_THREADS, gemm ISA,
// the 1-minute load average at start and calibration_ms().
std::string run_context();
// Time of a fixed serial loop (~20 ms): how fast a core of the host is
// running now. Context for comparing runs, not a metric.
double calibration_ms();

// Everything one run reports. Checks print as they are made; the final
// JSON line carries the metrics of the run's mode (end-to-end untraced,
// per-layer traced).
class Result {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  // Records a correctness check; a failed check makes the run incorrect.
  bool check(const std::string& name, bool ok, const std::string& detail = {});
  // Free-form `key: value` line on stdout (losses, digests, counts).
  void note(const std::string& key, const std::string& value) const;

  bool correct() const { return correct_; }
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  std::string json() const;

 private:
  struct Metric {
    std::string name;
    double value = 0;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  bool correct_ = true;
};

// In-memory span recorder for traced runs. Each span has a name, start,
// end, and the span open on the same thread when it began (its parent).
// Disabled by default: begin() then costs one relaxed load and returns 0.
class Spans {
 public:
  struct Span {
    std::uint32_t id = 0;
    std::uint32_t parent = 0;  // 0 = root
    std::string name;
    std::int64_t start_ns = 0;  // since recorder creation
    std::int64_t end_ns = 0;
    std::uint32_t thread = 0;
  };

  static Spans& instance();
  void set_enabled(bool enabled);
  bool enabled() const;

  std::uint32_t begin(const std::string& name);
  void end(std::uint32_t id);
  // Adds an already-finished root span (intervals that overlap on one
  // thread, such as pipelined requests, cannot nest on the span stack).
  void record(const std::string& name, Clock::time_point start, Clock::time_point end);

  // Per-name sums of duration and of self time (duration minus the time its
  // child spans cover), in ms.
  struct Totals {
    double total_ms = 0;
    double self_ms = 0;
    std::size_t count = 0;
  };
  std::map<std::string, Totals> totals() const;
  // Median duration of the spans called `name`, ms (0 when none).
  double median_ms(const std::string& name) const;
  std::vector<Span> snapshot() const;
  // Writes every span as a JSON array; returns false when the file cannot
  // be written.
  bool write(const std::string& path) const;

 private:
  Spans();
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // index = id - 1
  Clock::time_point origin_;
};

// Prints every span name's count, total ms and self ms, and writes the
// span dump to <work_dir>/spans-<workload>-<seed>.json.
void finish_spans(const Args& args, Result& result);

class SpanScope {
 public:
  explicit SpanScope(const std::string& name) : id_(Spans::instance().begin(name)) {}
  ~SpanScope() { Spans::instance().end(id_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  std::uint32_t id_;
};

}  // namespace perfbench
