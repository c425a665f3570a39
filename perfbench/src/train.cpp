// train-inproc and train-tcp: fixed-round split WGAN-GP training.
//
// Both run W warm-up rounds and then a fixed number of timed rounds. A
// traced run alternates untraced and traced rounds, so drift in the host's
// speed cancels out of the tracing-overhead comparison: untraced rounds
// give the phase medians and the round p50 reference, traced rounds carry
// the spans and the op profiler, and the first traced round's frames are
// recorded for the codec replay.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <memory>
#include <thread>

#include "core/gtv.h"
#include "core/node.h"
#include "core/partition.h"
#include "data/datasets.h"
#include "layers.h"
#include "net/tcp.h"
#include "obs/memory.h"
#include "obs/profiler.h"
#include "probe.h"
#include "serve/checkpoint.h"
#include "serve/daemon.h"
#include "serve/engine.h"
#include "workloads.h"

namespace perfbench {

namespace {

using gtv::core::GtvOptions;

constexpr std::size_t kWarmupRounds = 2;
constexpr std::size_t kClients = 2;
// setup_s is the median of this many set-ups. Fitting the encoders takes a
// data-dependent time, so each set-up draws its own table; the last one
// draws the workload's and is the one that trains.
constexpr int kSetupReps = 9;

std::uint64_t setup_data_seed(std::uint64_t data_seed, int rep) {
  return rep == kSetupReps - 1 ? data_seed : derive_seed(data_seed, 100 + rep);
}

struct TrainSpec {
  const char* dataset;
  std::size_t rows;
  bool exact_gp;
  double nominal_round_ms;  // sizes the timed rounds from --seconds
};

// train-inproc: paper defaults (exact GP), loan-shaped 2000 rows.
constexpr TrainSpec kInprocSpec{"loan", 2000, true, 330.0};
// train-tcp: the only mode NodeConfig::validate() accepts, covtype-shaped
// 4000 rows (every non-contributing client forwards all of them).
constexpr TrainSpec kTcpSpec{"covtype", 4000, false, 510.0};

// Untraced: the rounds that fit in --seconds at the nominal round time,
// and at least this many.
constexpr std::size_t kMinTimedRounds = 50;
std::size_t timed_rounds(const Args& args, const TrainSpec& spec) {
  const auto nominal = static_cast<std::size_t>(args.seconds * 1000.0 / spec.nominal_round_ms);
  return std::max(kMinTimedRounds, nominal);
}

// Traced: this many (untraced, traced) round pairs.
constexpr std::size_t kTracedPairs = 20;
constexpr std::size_t kTcpReferenceRounds = 20;  // in-process phases and p50 for tcp_overhead
// Traced serve prelude: round pairs of the trainer that makes the model.
constexpr std::size_t kPreludePairs = 4;
constexpr std::size_t kCheckedRounds = 3;        // untraced TCP-vs-inproc loss parity

bool traced_round(std::size_t r) { return r >= kWarmupRounds && (r - kWarmupRounds) % 2 == 1; }

// Spans and the op profiler switch together.
void set_tracing(bool on) {
  Spans::instance().set_enabled(on);
  gtv::obs::set_profiling_enabled(on);
}

GtvOptions options_for(const TrainSpec& spec) {
  GtvOptions options;  // paper defaults: e=5, batch 128, hidden 256, noise 128
  options.exact_gradient_penalty = spec.exact_gp;
  return options;
}

struct Shards {
  std::vector<gtv::data::Table> tables;
  std::vector<std::size_t> g_widths;
  std::vector<std::size_t> d_widths;
};

// Generates the table from the workload's data seed and splits its columns.
Shards make_shards(const TrainSpec& spec, const GtvOptions& options, std::uint64_t data_seed) {
  SpanScope span("data.gen");
  gtv::Rng rng(data_seed);
  Shards shards;
  shards.tables = split_columns(gtv::data::make_dataset(spec.dataset, spec.rows, rng), kClients);
  std::vector<std::size_t> feature_counts;
  for (const auto& t : shards.tables) feature_counts.push_back(t.n_cols());
  const auto ratios = gtv::core::ratio_vector(feature_counts);
  shards.g_widths = gtv::core::proportional_widths(options.generator_hidden, ratios);
  shards.d_widths = gtv::core::proportional_widths(options.gan.hidden, ratios);
  return shards;
}

struct SetupTimes {
  std::vector<double> total_s, data_ms, init_ms, connect_ms;
};

bool same_bits(const gtv::gan::RoundLosses& a, const gtv::gan::RoundLosses& b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

bool all_finite(const std::vector<gtv::gan::RoundLosses>& history) {
  for (const auto& l : history) {
    if (!std::isfinite(l.d_loss) || !std::isfinite(l.g_loss) || !std::isfinite(l.gp) ||
        !std::isfinite(l.wasserstein)) {
      return false;
    }
  }
  return true;
}

void note_losses(const Result& result, const std::vector<gtv::gan::RoundLosses>& history) {
  std::uint64_t digest = 0xcbf29ce484222325ULL;
  for (const auto& l : history) digest = fnv1a(&l, sizeof l, digest);
  char text[256];
  const gtv::gan::RoundLosses last = history.empty() ? gtv::gan::RoundLosses{} : history.back();
  std::snprintf(text, sizeof text,
                "rounds=%zu d_loss=%.9g g_loss=%.9g gp=%.9g wasserstein=%.9g digest=%016llx",
                history.size(), last.d_loss, last.g_loss, last.gp, last.wasserstein,
                static_cast<unsigned long long>(digest));
  result.note("losses", text);
}

// Operations and failures over a set of meters: logical transfers, and
// retries + timeouts + corrupt frames.
void account(Result& result, const std::vector<const gtv::net::TrafficMeter*>& meters,
             std::uint64_t* failed_transfers) {
  std::uint64_t messages = 0, failed = 0;
  for (const auto* m : meters) {
    const gtv::net::LinkStats t = m->total();
    messages += t.messages;
    failed += t.retries + t.timeouts + t.corrupt_frames;
  }
  result.attempted += messages;
  result.failed += failed;
  if (failed_transfers != nullptr) *failed_transfers = failed;
}

// Metrics shared by both training workloads over the untraced timed window.
struct WindowStats {
  double p50 = 0, p90 = 0, rows_per_s = 0, bytes_per_round = 0;
  std::uint64_t bytes = 0;
};

// Rounds per throughput block: rows_per_s is the median over blocks
// of consecutive rounds, so one slow stretch moves one block.
constexpr std::size_t kRowsBlock = 10;

WindowStats window_stats(const std::vector<double>& round_ms, const GtvOptions& options,
                         std::uint64_t bytes, std::size_t rounds) {
  WindowStats s;
  s.p50 = percentile(round_ms, 50);
  s.p90 = percentile(round_ms, 90);
  const double rows_per_round = static_cast<double>(options.gan.batch_size) *
                                static_cast<double>(options.gan.d_steps_per_round + 1);
  std::vector<double> blocks;
  for (std::size_t b = 0; (b + 1) * kRowsBlock <= round_ms.size(); ++b) {
    double ms = 0;
    for (std::size_t r = b * kRowsBlock; r < (b + 1) * kRowsBlock; ++r) ms += round_ms[r];
    blocks.push_back(rows_per_round * kRowsBlock / (ms / 1000.0));
  }
  s.rows_per_s = median(blocks);
  s.bytes = bytes;
  s.bytes_per_round = static_cast<double>(bytes) / rounds;
  return s;
}

void note_percentiles(const Result& result, const WindowStats& ws,
                      const std::vector<double>& round_ms) {
  char text[160];
  std::snprintf(text, sizeof text, "n=%zu p50=%.3f p90=%.3f max=%.3f", round_ms.size(), ws.p50,
                ws.p90, percentile(round_ms, 100));
  result.note("round_ms_percentiles", text);
}

void report_setup(Result& result, const SetupTimes& setup, bool trace) {
  result.note("setup_s_reps", join(setup.total_s));
  if (!setup.connect_ms.empty()) {
    result.note("setup_connect_ms", std::to_string(median(setup.connect_ms)));
  }
  if (!trace) {
    result.metric("setup_s", median(setup.total_s), "s");
  } else {
    result.metric("setup.load_ms", median(setup.data_ms), "ms");
    result.metric("setup.init_ms", median(setup.init_ms), "ms");
  }
}

void report_autograd(Result& result, const RunOptions& run, std::size_t rounds) {
  const auto ops = gtv::obs::Profiler::instance().snapshot();
  std::vector<std::pair<double, std::string>> ranked;
  for (const auto& [name, st] : ops) ranked.push_back({st.self_us / 1000.0 / rounds, name});
  std::sort(ranked.rbegin(), ranked.rend());
  std::string top;
  for (std::size_t i = 0; i < ranked.size() && i < 16; ++i) {
    char item[96];
    std::snprintf(item, sizeof item, "%s%s=%.2f", i == 0 ? "" : " ", ranked[i].second.c_str(),
                  ranked[i].first);
    top += item;
  }
  result.note("autograd_top_self_ms_per_round", top);
  for (const std::string& op : run.autograd_ops) {
    const auto it = ops.find(op);
    const double ms = it == ops.end() ? 0.0 : it->second.self_us / 1000.0 / rounds;
    result.metric("autograd." + op + ".self_ms", ms, "ms");
  }
}

void report_kernels(Result& result, const TrainSpec& spec, const GtvOptions& options,
                    std::uint64_t seed) {
  // The real path's widest product: every table row through a hidden layer.
  const KernelRates k = time_kernels(spec.rows, options.gan.hidden, options.gan.hidden,
                                     spec.rows, options.gan.hidden, seed);
  result.metric("tensor.gemm_gflops", k.gemm_gflops, "GFLOP/s");
  result.metric("tensor.eltwise_gbps", k.eltwise_gbps, "GB/s");
  result.metric("tensor.memcpy_gbps", k.memcpy_gbps, "GB/s");
}

// Rows each critic step uses on the real path (batch per client) over the
// rows forwarded (the contributor's batch plus every table row from each
// full-table forward).
double real_rows_used_frac(const GtvOptions& options, std::size_t rounds,
                           std::uint64_t full_table_frames, std::size_t table_rows) {
  const double steps = static_cast<double>(rounds * options.gan.d_steps_per_round);
  const double batch = static_cast<double>(options.gan.batch_size);
  const double used = steps * batch * kClients;
  const double forwarded = steps * batch + static_cast<double>(full_table_frames) * table_rows;
  return used / forwarded;
}

// core.*: per-round medians of the trainer's phase telemetry over `rounds`,
// and their share of `round_ms`, the median time of the same rounds.
// Returns that share.
double report_core(Result& result, const std::vector<gtv::obs::RoundTelemetry>& tel,
                   const std::vector<std::size_t>& rounds, double round_ms) {
  auto phase = [&](double gtv::obs::RoundTelemetry::*field) {
    std::vector<double> v;
    for (std::size_t r : rounds) v.push_back(tel.at(r).*field);
    return median(v);
  };
  using RT = gtv::obs::RoundTelemetry;
  const double cv = phase(&RT::cv_generation_ms), fake = phase(&RT::fake_forward_ms),
               real = phase(&RT::real_forward_ms), back = phase(&RT::critic_backward_ms),
               gp = phase(&RT::gradient_penalty_ms), gen = phase(&RT::generator_step_ms),
               shuf = phase(&RT::shuffle_ms);
  result.metric("core.cv_generation_ms", cv, "ms");
  result.metric("core.fake_forward_ms", fake, "ms");
  result.metric("core.real_forward_ms", real, "ms");
  result.metric("core.critic_backward_ms", back, "ms");
  result.metric("core.gradient_penalty_ms", gp, "ms");
  result.metric("core.generator_step_ms", gen, "ms");
  result.metric("core.shuffle_ms", shuf, "ms");
  // gradient_penalty is a sub-span of critic_backward: not added twice.
  const double coverage = (cv + fake + real + back + gen + shuf) / round_ms;
  result.metric("core.phase_coverage_frac", coverage, "ratio");
  return coverage;
}

// serve.*: the engine serving the model `trainer` holds, through a
// checkpoint written to the work dir, at the daemon's default batch cap.
void report_serve_of(Result& result, gtv::core::GtvTrainer& trainer, const Args& args) {
  const std::string path = args.work_dir + "/model-" + args.workload + "-" +
                            std::to_string(args.seed) + ".gtvk";
  trainer.save_checkpoint(path);
  gtv::serve::Synthesizer synth(gtv::serve::load_checkpoint(path));
  std::remove(path.c_str());
  report_serve_layer(result, synth, gtv::serve::DaemonOptions{}.max_batch,
                     derive_seed(args.seed, 4));
}

// The one party of an in-process trainer, probed through its transport.
std::unique_ptr<PartyProbe> probe_trainer(gtv::core::GtvTrainer& trainer,
                                          const GtvOptions& options, std::size_t rows) {
  auto probe = std::make_unique<PartyProbe>("trainer", options.gan.d_steps_per_round, rows);
  trainer.traffic().set_transport(std::make_shared<TimingTransport>(
      std::make_shared<gtv::net::InProcTransport>(), probe.get()));
  probe->attach_meter(&trainer.traffic());
  return probe;
}

// kWarmupRounds + `timed` rounds, each between two probe boundaries. A
// traced run alternates untraced and traced timed rounds, profiles the
// traced ones and records the frames of the first. Returns the timed
// rounds' times.
std::vector<double> drive_rounds(gtv::core::GtvTrainer& trainer, PartyProbe& probe,
                                 std::size_t timed, bool trace) {
  if (trace) probe.record_round(kWarmupRounds + 1);
  gtv::obs::Profiler::instance().reset();
  std::vector<double> round_ms;
  for (std::size_t r = 0; r < kWarmupRounds + timed; ++r) {
    if (trace) set_tracing(traced_round(r));
    probe.mark_boundary();
    const Clock::time_point t0 = Clock::now();
    {
      SpanScope span("core.train_round");
      trainer.train_round();
    }
    const double ms = ms_between(t0, Clock::now());
    if (r >= kWarmupRounds) round_ms.push_back(ms);
  }
  probe.mark_boundary();
  set_tracing(false);
  return round_ms;
}

// Untraced rounds among the timed ones of drive_rounds.
std::vector<std::size_t> untraced_rounds(std::size_t timed, bool trace) {
  std::vector<std::size_t> rounds;
  for (std::size_t r = kWarmupRounds; r < kWarmupRounds + timed; ++r) {
    if (!trace || !traced_round(r)) rounds.push_back(r);
  }
  return rounds;
}

void note_rounds(const Result& result, const std::vector<double>& round_ms) {
  std::string text;
  for (double ms : round_ms) text += (text.empty() ? "" : " ") + std::to_string(std::lround(ms));
  result.note("round_ms", text);
}

// Timed round times split by the alternation: even offsets untraced.
std::vector<double> every_other(const std::vector<double>& v, std::size_t offset) {
  std::vector<double> out;
  for (std::size_t i = offset; i < v.size(); i += 2) out.push_back(v[i]);
  return out;
}

// Tracing cost from the alternating rounds, and the recorded spans
// checked against the loop's clock for the same rounds.
void report_overhead(Result& result, const std::vector<double>& round_ms, double span_ms) {
  const double untraced = median(every_other(round_ms, 0));
  const double traced = median(every_other(round_ms, 1));
  result.metric("obs.trace_overhead_frac", traced / untraced - 1.0, "ratio");
  result.note("span_round_ms", std::to_string(span_ms));
  const double drift = span_ms / traced - 1.0;
  result.check("round spans reconcile with untraced p50 x (1 + overhead)",
               std::fabs(drift) <= 0.05,
               "span_median_ms=" + std::to_string(span_ms) + " drift=" + std::to_string(drift));
}

}  // namespace

std::vector<gtv::data::Table> split_columns(const gtv::data::Table& table, std::size_t clients) {
  std::vector<std::vector<std::size_t>> groups(clients);
  const std::size_t base = table.n_cols() / clients;
  std::size_t extra = table.n_cols() % clients;
  std::size_t cursor = 0;
  for (std::size_t g = 0; g < clients; ++g) {
    const std::size_t take = base + (extra > 0 ? 1 : 0);
    if (extra > 0) --extra;
    for (std::size_t c = 0; c < take; ++c) groups[g].push_back(cursor++);
  }
  return gtv::data::vertical_split(table, groups);
}

// ---------------------------------------------------------------------------
void run_train_inproc(const RunOptions& run, Result& result) {
  const Args& args = run.args;
  const TrainSpec& spec = kInprocSpec;
  const GtvOptions options = options_for(spec);
  const std::uint64_t data_seed = derive_seed(args.seed, 1);
  const std::uint64_t train_seed = derive_seed(args.seed, 2);
  Spans::instance().set_enabled(args.trace);

  SetupTimes setup;
  std::unique_ptr<gtv::core::GtvTrainer> trainer;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    trainer.reset();
    const Clock::time_point t0 = Clock::now();
    Shards shards = make_shards(spec, options, setup_data_seed(data_seed, rep));
    const Clock::time_point t1 = Clock::now();
    {
      SpanScope span("core.trainer_init");
      trainer = std::make_unique<gtv::core::GtvTrainer>(std::move(shards.tables), options,
                                                        train_seed);
    }
    const Clock::time_point t2 = Clock::now();
    setup.data_ms.push_back(ms_between(t0, t1));
    setup.init_ms.push_back(ms_between(t1, t2));
    setup.total_s.push_back(ms_between(t0, t2) / 1000.0);
  }
  Spans::instance().set_enabled(false);

  const std::unique_ptr<PartyProbe> probe_owner = probe_trainer(*trainer, options, spec.rows);
  PartyProbe& probe = *probe_owner;
  gtv::obs::reset_memory_peak();

  const std::size_t timed = args.trace ? 2 * kTracedPairs : timed_rounds(args, spec);
  const std::vector<double> round_ms = drive_rounds(*trainer, probe, timed, args.trace);

  const auto& history = trainer->history();
  result.check("losses finite", all_finite(history));
  note_losses(result, history);
  std::uint64_t failed_transfers = 0;
  account(result, {&trainer->traffic()}, &failed_transfers);
  result.check("wire bytes equal metered bytes",
               probe.live().payload_bytes_sent == trainer->traffic().total().bytes);

  // Counts cover every timed round; times only the untraced ones.
  const std::size_t window = timed;
  const std::size_t first = kWarmupRounds, last = kWarmupRounds + window;
  const PartyCounters d = delta(probe, first, last);
  const WindowStats ws = window_stats(args.trace ? every_other(round_ms, 0) : round_ms, options,
                                      d.meter_bytes, window);
  result.note("timed_rounds", std::to_string(window) + " (after " +
                                  std::to_string(kWarmupRounds) + " warm-up rounds)");
  result.note("bytes_timed_window", std::to_string(ws.bytes));
  note_rounds(result, round_ms);

  if (!args.trace) {
    report_setup(result, setup, false);
    result.metric("peak_rss_mb", peak_rss_mb(), "MiB");
    result.metric("op_ms_p50", ws.p50, "ms");
    note_percentiles(result, ws, round_ms);
    result.metric("rows_per_s", ws.rows_per_s, "rows/s");
    result.metric("bytes_per_op", ws.bytes_per_round, "B");
    return;
  }

  // --- per-layer (traced run) --------------------------------------------------
  Spans::instance().set_enabled(true);  // around the direct layer calls below
  const double coverage =
      report_core(result, trainer->telemetry(), untraced_rounds(window, true), ws.p50);
  result.check("core phases cover >= 90% of round p50", coverage >= 0.9,
               "coverage=" + std::to_string(coverage));
  result.metric("core.real_rows_used_frac",
                real_rows_used_frac(options, window, d.full_table_frames, spec.rows), "ratio");

  report_autograd(result, run, kTracedPairs);
  report_kernels(result, spec, options, derive_seed(args.seed, 3));
  result.metric("tensor.allocs_per_op", static_cast<double>(d.tensor_allocs) / window, "count");
  result.metric("tensor.mem_peak_mb", gtv::obs::memory_stats().peak_bytes / 1048576.0, "MiB");

  const double frames_per_op = static_cast<double>(d.frames_sent) / window;
  result.metric("net.frames_per_op", frames_per_op, "count");
  result.metric("net.send_ms_per_op", d.send_ms / window, "ms");
  result.metric("net.recv_wait_ms_per_op", d.recv_wait_ms / window, "ms");
  report_codec(result, probe.recorded(), frames_per_op);
  result.metric("net.failed_transfers", static_cast<double>(failed_transfers), "count");
  report_setup(result, setup, true);
  report_serve_of(result, *trainer, args);

  report_overhead(result, round_ms, Spans::instance().median_ms("core.train_round"));
  finish_spans(args, result);
}

// ---------------------------------------------------------------------------
namespace {

// One complete 4-party set over loopback TCP, owned by the benchmark.
struct TcpParties {
  std::shared_ptr<gtv::net::TcpTransport> server_t, driver_t;
  std::vector<std::shared_ptr<gtv::net::TcpTransport>> client_t;
  std::unique_ptr<gtv::core::ServerNode> server;
  std::vector<std::unique_ptr<gtv::core::ClientNode>> clients;
  std::unique_ptr<gtv::core::DriverNode> driver;
};

std::unique_ptr<TcpParties> connect_parties() {
  SpanScope span("net.connect");
  auto p = std::make_unique<TcpParties>();
  p->server_t = std::make_shared<gtv::net::TcpTransport>("server");
  const std::uint16_t server_port = p->server_t->listen(0);
  p->driver_t = std::make_shared<gtv::net::TcpTransport>("driver");
  const std::uint16_t driver_port = p->driver_t->listen(0);
  for (std::size_t i = 0; i < kClients; ++i) {
    auto t = std::make_shared<gtv::net::TcpTransport>("client" + std::to_string(i));
    t->connect_peer("server", "127.0.0.1", server_port);
    t->connect_peer("driver", "127.0.0.1", driver_port);
    p->client_t.push_back(std::move(t));
  }
  p->driver_t->connect_peer("server", "127.0.0.1", server_port);
  for (std::size_t i = 0; i < kClients; ++i) {
    const std::string peer = "client" + std::to_string(i);
    if (!p->driver_t->wait_for_peer(peer, 20000) || !p->server_t->wait_for_peer(peer, 20000)) {
      throw gtv::net::TransportError("perfbench: " + peer + " never connected");
    }
  }
  return p;
}

// Recv patience far above any round, and no retry: a wait that expires is
// a failure, not a slow round.
gtv::net::RetryPolicy tcp_retry_policy() {
  gtv::net::RetryPolicy policy;
  policy.recv_timeout_ms = 30000;
  policy.max_attempts = 2;
  return policy;
}

}  // namespace

void run_train_tcp(const RunOptions& run, Result& result) {
  const Args& args = run.args;
  const TrainSpec& spec = kTcpSpec;
  const GtvOptions options = options_for(spec);
  const std::size_t e = options.gan.d_steps_per_round;
  const std::uint64_t data_seed = derive_seed(args.seed, 1);
  const std::uint64_t train_seed = derive_seed(args.seed, 2);
  const std::size_t timed = args.trace ? 2 * kTracedPairs : timed_rounds(args, spec);
  const std::size_t total_rounds = kWarmupRounds + timed;

  gtv::core::NodeConfig config;
  config.options = options;
  config.n_clients = kClients;
  config.rounds = total_rounds;
  config.seed = train_seed;
  config.train_rows = spec.rows;
  config.validate();

  Spans::instance().set_enabled(args.trace);
  SetupTimes setup;
  std::unique_ptr<TcpParties> parties;
  Shards shards;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    parties.reset();
    const Clock::time_point t0 = Clock::now();
    shards = make_shards(spec, options, setup_data_seed(data_seed, rep));
    const Clock::time_point t1 = Clock::now();
    parties = connect_parties();
    const Clock::time_point t2 = Clock::now();
    {
      SpanScope span("core.trainer_init");
      parties->server =
          std::make_unique<gtv::core::ServerNode>(config, shards.g_widths, shards.d_widths);
      for (std::size_t i = 0; i < kClients; ++i) {
        parties->clients.push_back(std::make_unique<gtv::core::ClientNode>(
            config, i, shards.tables[i], shards.g_widths[i], shards.d_widths[i]));
      }
      parties->driver = std::make_unique<gtv::core::DriverNode>(config);
    }
    const Clock::time_point t3 = Clock::now();
    setup.data_ms.push_back(ms_between(t0, t1));
    setup.connect_ms.push_back(ms_between(t1, t2));
    setup.init_ms.push_back(ms_between(t2, t3));
    setup.total_s.push_back(ms_between(t0, t3) / 1000.0);
  }
  Spans::instance().set_enabled(false);

  // Probes: index 0 server, 1..n clients, n+1 driver.
  std::vector<std::unique_ptr<PartyProbe>> probes;
  auto wire = [&](const std::string& name, std::shared_ptr<gtv::net::TcpTransport> tcp,
                  gtv::net::TrafficMeter& meter, auto& node) {
    probes.push_back(std::make_unique<PartyProbe>(name, e, spec.rows));
    PartyProbe* probe = probes.back().get();
    node.set_transport(std::make_shared<TimingTransport>(std::move(tcp), probe));
    node.traffic().set_retry_policy(tcp_retry_policy());
    probe->attach_meter(&meter);
    if (args.trace) probe->record_round(kWarmupRounds + 1);
  };
  wire("server", parties->server_t, parties->server->traffic(), *parties->server);
  for (std::size_t i = 0; i < kClients; ++i) {
    wire("client" + std::to_string(i), parties->client_t[i], parties->clients[i]->traffic(),
         *parties->clients[i]);
  }
  wire("driver", parties->driver_t, parties->driver->traffic(), *parties->driver);
  PartyProbe& driver_probe = *probes.back();
  if (args.trace) {
    // The driver switches tracing at each of its round boundaries (index
    // total_rounds is the finish); the other parties follow within the
    // round, as they take its first command.
    driver_probe.on_boundary([](std::size_t index) { set_tracing(traced_round(index)); });
    gtv::obs::Profiler::instance().reset();
  }
  gtv::obs::reset_memory_peak();

  // Server and clients on their own threads, the driver on this one.
  std::vector<std::exception_ptr> errors(kClients + 2);
  std::vector<std::thread> threads;
  threads.emplace_back([&] {
    try {
      parties->server->run();
    } catch (...) {
      errors[0] = std::current_exception();
    }
  });
  for (std::size_t i = 0; i < kClients; ++i) {
    threads.emplace_back([&, i] {
      try {
        parties->clients[i]->run();
      } catch (...) {
        errors[i + 1] = std::current_exception();
      }
    });
  }
  std::vector<gtv::gan::RoundLosses> history;
  try {
    history = parties->driver->run();
  } catch (...) {
    errors[kClients + 1] = std::current_exception();
  }
  for (auto& t : threads) t.join();
  set_tracing(false);
  for (std::size_t i = 0; i < errors.size(); ++i) {
    if (errors[i]) {
      try {
        std::rethrow_exception(errors[i]);
      } catch (const std::exception& ex) {
        result.check("party " + probes[i]->party() + " ran to completion", false, ex.what());
      }
    }
  }
  if (!result.correct()) return;

  std::vector<const gtv::net::TrafficMeter*> meters{&parties->server->traffic()};
  for (auto& c : parties->clients) meters.push_back(&c->traffic());
  meters.push_back(&parties->driver->traffic());
  std::uint64_t failed_transfers = 0;
  account(result, meters, &failed_transfers);
  std::uint64_t wire_bytes = 0, metered = 0;
  for (const auto& p : probes) wire_bytes += p->live().payload_bytes_sent;
  for (const auto* m : meters) metered += m->total().bytes;
  result.check("wire bytes equal metered bytes", wire_bytes == metered);
  bool aligned = driver_probe.loss_receipts().size() == total_rounds * (e + 1);
  std::string seen = "loss_receipts=" + std::to_string(driver_probe.loss_receipts().size());
  for (const auto& p : probes) {
    aligned = aligned && p->boundaries().size() == total_rounds + 1;
    seen += " " + p->party() + "=" + std::to_string(p->boundaries().size());
  }
  result.check("every party saw every round boundary", aligned, seen);
  result.check("losses finite", all_finite(history) && history.size() == total_rounds);
  note_losses(result, history);
  if (!result.correct()) return;

  // Round r ends when the driver takes its generator-step loss.
  std::vector<double> round_ms;
  Clock::time_point prev = driver_probe.boundaries()[0].at;
  for (std::size_t r = 0; r < total_rounds; ++r) {
    const Clock::time_point end = driver_probe.loss_receipts()[(r + 1) * (e + 1) - 1];
    if (r >= kWarmupRounds) round_ms.push_back(ms_between(prev, end));
    prev = end;
  }
  const std::size_t window = timed;
  const std::size_t first = kWarmupRounds, last = kWarmupRounds + window;
  std::uint64_t bytes = 0;
  PartyCounters sum;
  for (const auto& p : probes) {
    const PartyCounters d = delta(*p, first, last);
    bytes += d.meter_bytes;
    sum.frames_sent += d.frames_sent;
    sum.send_ms += d.send_ms;
    sum.recv_wait_ms += d.recv_wait_ms;
    sum.full_table_frames += d.full_table_frames;
  }
  const WindowStats ws = window_stats(args.trace ? every_other(round_ms, 0) : round_ms, options,
                                      bytes, window);
  result.note("timed_rounds", std::to_string(window) + " (after " +
                                  std::to_string(kWarmupRounds) + " warm-up rounds)");
  result.note("bytes_timed_window", std::to_string(ws.bytes));
  note_rounds(result, round_ms);
  const PartyCounters driver_d = delta(driver_probe, first, last);
  parties.reset();  // close every socket before the in-process reference

  // The inproc==TCP invariant: an in-process trainer with the same config
  // reproduces the TCP losses bit for bit.
  const std::size_t ref_rounds =
      args.trace ? kWarmupRounds + kTcpReferenceRounds : kCheckedRounds;
  gtv::core::GtvTrainer reference(shards.tables, options, train_seed);
  std::vector<double> ref_ms;
  for (std::size_t r = 0; r < ref_rounds; ++r) {
    const Clock::time_point t0 = Clock::now();
    reference.train_round();
    if (r >= kWarmupRounds) ref_ms.push_back(ms_between(t0, Clock::now()));
  }
  bool parity = true;
  for (std::size_t r = 0; r < ref_rounds; ++r) parity = parity && same_bits(history[r], reference.history()[r]);
  result.check("tcp losses bit-identical to in-process trainer", parity,
               std::to_string(ref_rounds) + " rounds");

  if (!args.trace) {
    report_setup(result, setup, false);
    result.metric("peak_rss_mb", peak_rss_mb(), "MiB");
    result.metric("op_ms_p50", ws.p50, "ms");
    note_percentiles(result, ws, round_ms);
    result.metric("rows_per_s", ws.rows_per_s, "rows/s");
    result.metric("bytes_per_op", ws.bytes_per_round, "B");
    return;
  }

  // --- per-layer (traced run) --------------------------------------------------
  Spans::instance().set_enabled(true);  // around the direct layer calls below
  std::string parties_ms;
  for (const auto& p : probes) {
    const PartyCounters d = delta(*p, first, last);
    const double party_wall = ms_between(p->boundaries()[first].at, p->boundaries()[last].at);
    char item[96];
    std::snprintf(item, sizeof item, "%s%s busy=%.3f recv_wait=%.3f", parties_ms.empty() ? "" : " ",
                  p->party().c_str(), (party_wall - d.recv_wait_ms) / window,
                  d.recv_wait_ms / window);
    parties_ms += item;
  }
  result.note("party_ms_per_round", parties_ms);
  // The compute phases of this config, from the in-process reference.
  std::vector<std::size_t> ref_timed;
  for (std::size_t r = kWarmupRounds; r < ref_rounds; ++r) ref_timed.push_back(r);
  report_core(result, reference.telemetry(), ref_timed, median(ref_ms));
  result.metric("core.real_rows_used_frac",
                real_rows_used_frac(options, window, sum.full_table_frames, spec.rows), "ratio");
  report_autograd(result, run, kTracedPairs);
  report_kernels(result, spec, options, derive_seed(args.seed, 3));
  result.metric("tensor.allocs_per_op", static_cast<double>(driver_d.tensor_allocs) / window,
                "count");
  result.metric("tensor.mem_peak_mb", gtv::obs::memory_stats().peak_bytes / 1048576.0, "MiB");
  const double frames_per_op = static_cast<double>(sum.frames_sent) / window;
  result.metric("net.frames_per_op", frames_per_op, "count");
  result.metric("net.send_ms_per_op", sum.send_ms / window, "ms");
  result.metric("net.recv_wait_ms_per_op", sum.recv_wait_ms / window, "ms");
  std::vector<std::vector<std::uint8_t>> frames;
  for (const auto& p : probes) frames.insert(frames.end(), p->recorded().begin(), p->recorded().end());
  report_codec(result, frames, frames_per_op);
  result.note("tcp_overhead_ms_per_round", std::to_string(ws.p50 - median(ref_ms)));
  result.metric("net.failed_transfers", static_cast<double>(failed_transfers), "count");
  report_setup(result, setup, true);
  report_serve_of(result, reference, args);
  result.metric("obs.trace_overhead_frac",
                median(every_other(round_ms, 1)) / median(every_other(round_ms, 0)) - 1.0, "ratio");
  finish_spans(args, result);
}

// ---------------------------------------------------------------------------
void train_served_model(const RunOptions& run, Result& result, const std::string& ckpt_path) {
  const Args& args = run.args;
  const TrainSpec& spec = kInprocSpec;
  const GtvOptions options = options_for(spec);
  Shards shards = make_shards(spec, options, derive_seed(args.seed, 1));
  gtv::core::GtvTrainer trainer(std::move(shards.tables), options, derive_seed(args.seed, 2));
  if (!args.trace) {
    trainer.train_round();
  } else {
    const std::unique_ptr<PartyProbe> probe = probe_trainer(trainer, options, spec.rows);
    const std::size_t timed = 2 * kPreludePairs;
    const std::vector<double> round_ms = drive_rounds(trainer, *probe, timed, true);
    result.check("prelude losses finite", all_finite(trainer.history()));
    const PartyCounters d = delta(*probe, kWarmupRounds, kWarmupRounds + timed);
    report_core(result, trainer.telemetry(), untraced_rounds(timed, true),
                median(every_other(round_ms, 0)));
    result.metric("core.real_rows_used_frac",
                  real_rows_used_frac(options, timed, d.full_table_frames, spec.rows), "ratio");
    report_autograd(result, run, kPreludePairs);
  }
  trainer.save_checkpoint(ckpt_path, gtv::serve::hash_table(trainer.sample(64)));
}

}  // namespace perfbench
