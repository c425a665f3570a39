#include "common.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

#include "tensor/gemm.h"
#include "tensor/thread_pool.h"

namespace perfbench {

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

std::string join(const std::vector<double>& values) {
  std::string out;
  char item[32];
  for (double v : values) {
    std::snprintf(item, sizeof item, "%s%.3f", out.empty() ? "" : " ", v);
    out += item;
  }
  return out;
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t salt) {
  // splitmix64 finalizer over (seed, salt).
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL + salt * 0xbf58476d1ce4e5b9ULL + 1;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t fnv1a(const void* data, std::size_t len, std::uint64_t h) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

double calibration_ms() {
  // A fixed serial integer loop: its time tracks how fast this core runs
  // right now, independent of the program under test.
  const Clock::time_point t0 = Clock::now();
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  for (int i = 0; i < 20000000; ++i) x = x * 6364136223846793005ULL + 1442695040888963407ULL;
  volatile std::uint64_t sink = x;
  (void)sink;
  return ms_between(t0, Clock::now());
}

void reset_peak_rss() {
  std::ofstream("/proc/self/clear_refs") << "5";
}

std::string run_context() {
  std::string load = "unknown";
  std::ifstream loadavg("/proc/loadavg");
  if (loadavg) loadavg >> load;
  const char* threads = std::getenv("GTV_THREADS");
  std::ostringstream out;
  out << "nproc=" << std::thread::hardware_concurrency()
      << " GTV_THREADS=" << (threads != nullptr ? threads : "unset")
      << " pool_workers=" << gtv::ThreadPool::instance().worker_count()
      << " gemm_isa=" << gtv::detail::gemm_kernel_isa() << " loadavg_1m=" << load
      << " calibration_ms=" << calibration_ms();
  return out.str();
}

// --- Result --------------------------------------------------------------------

void Result::metric(const std::string& name, double value, const std::string& unit) {
  if (!std::isfinite(value)) {
    check("finite metric " + name, false);
    value = 0.0;
  }
  metrics_.push_back({name, value, unit});
}

bool Result::check(const std::string& name, bool ok, const std::string& detail) {
  std::printf("check %-44s %s%s%s\n", name.c_str(), ok ? "ok" : "FAILED",
              detail.empty() ? "" : "  ", detail.c_str());
  if (!ok) correct_ = false;
  return ok;
}

void Result::note(const std::string& key, const std::string& value) const {
  std::printf("%s: %s\n", key.c_str(), value.c_str());
}

std::string Result::json() const {
  std::ostringstream out;
  out << "{\"correct\": " << (correct_ ? "true" : "false") << ", \"attempted\": " << attempted
      << ", \"failed\": " << failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", metrics_[i].value);
    out << (i == 0 ? "" : ", ") << '"' << metrics_[i].name << "\": {\"value\": " << value
        << ", \"unit\": \"" << metrics_[i].unit << "\"}";
  }
  out << "}}";
  return out.str();
}

// --- Spans ---------------------------------------------------------------------

namespace {
std::atomic<bool> g_spans_enabled{false};
std::atomic<std::uint32_t> g_next_thread{1};
thread_local std::vector<std::uint32_t> t_open;  // open span ids, innermost last
thread_local std::uint32_t t_thread = 0;
}  // namespace

Spans::Spans() : origin_(Clock::now()) {}

Spans& Spans::instance() {
  static Spans spans;
  return spans;
}

void Spans::set_enabled(bool enabled) { g_spans_enabled.store(enabled); }
bool Spans::enabled() const { return g_spans_enabled.load(std::memory_order_relaxed); }

std::uint32_t Spans::begin(const std::string& name) {
  if (!enabled()) return 0;
  if (t_thread == 0) t_thread = g_next_thread.fetch_add(1);
  Span span;
  span.name = name;
  span.parent = t_open.empty() ? 0 : t_open.back();
  span.thread = t_thread;
  span.start_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - origin_).count();
  std::lock_guard<std::mutex> lock(mu_);
  span.id = static_cast<std::uint32_t>(spans_.size() + 1);
  spans_.push_back(std::move(span));
  t_open.push_back(spans_.back().id);
  return spans_.back().id;
}

void Spans::end(std::uint32_t id) {
  if (id == 0) return;
  const std::int64_t now =
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - origin_).count();
  if (!t_open.empty() && t_open.back() == id) t_open.pop_back();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.at(id - 1).end_ns = now;
}

void Spans::record(const std::string& name, Clock::time_point start, Clock::time_point end) {
  if (!enabled()) return;
  if (t_thread == 0) t_thread = g_next_thread.fetch_add(1);
  Span span;
  span.name = name;
  span.thread = t_thread;
  span.start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(start - origin_).count();
  span.end_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(end - origin_).count();
  std::lock_guard<std::mutex> lock(mu_);
  span.id = static_cast<std::uint32_t>(spans_.size() + 1);
  spans_.push_back(std::move(span));
}

std::vector<Spans::Span> Spans::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::map<std::string, Spans::Totals> Spans::totals() const {
  const std::vector<Span> spans = snapshot();
  std::vector<double> child_ms(spans.size() + 1, 0.0);
  for (const Span& s : spans) {
    if (s.parent != 0) child_ms[s.parent] += (s.end_ns - s.start_ns) / 1e6;
  }
  std::map<std::string, Totals> out;
  for (const Span& s : spans) {
    const double ms = (s.end_ns - s.start_ns) / 1e6;
    Totals& t = out[s.name];
    t.total_ms += ms;
    t.self_ms += ms - child_ms[s.id];
    ++t.count;
  }
  return out;
}

double Spans::median_ms(const std::string& name) const {
  std::vector<double> ms;
  for (const Span& s : snapshot()) {
    if (s.name == name) ms.push_back((s.end_ns - s.start_ns) / 1e6);
  }
  return median(ms);
}

void finish_spans(const Args& args, Result& result) {
  for (const auto& [name, t] : Spans::instance().totals()) {
    char text[160];
    std::snprintf(text, sizeof text, "count=%zu total_ms=%.3f self_ms=%.3f", t.count, t.total_ms,
                  t.self_ms);
    result.note("span " + name, text);
  }
  const std::string path =
      args.work_dir + "/spans-" + args.workload + "-" + std::to_string(args.seed) + ".json";
  result.check("span dump written", Spans::instance().write(path), path);
}

bool Spans::write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "[";
  const std::vector<Span> spans = snapshot();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out << (i == 0 ? "\n" : ",\n") << "{\"id\":" << s.id << ",\"parent\":" << s.parent
        << ",\"name\":\"" << s.name << "\",\"thread\":" << s.thread
        << ",\"start_us\":" << s.start_ns / 1000.0 << ",\"end_us\":" << s.end_ns / 1000.0
        << "}";
  }
  out << "\n]\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench
