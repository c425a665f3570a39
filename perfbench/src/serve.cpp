// serve: a paper-size checkpoint behind an in-process ServeDaemon on
// loopback TCP, driven by one load-generator thread over at most 4
// connections with seeded 50-row requests, in three phases:
//   solo  closed loop, 1 connection, 1 request in flight;
//   open  open loop at a fixed 320 req/s over 4 connections, each latency
//         timed from the request's due time;
//   sat   closed loop, 4 connections x 16 pipelined requests.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <deque>
#include <malloc.h>
#include <memory>
#include <thread>

#include "core/gtv.h"
#include "data/datasets.h"
#include "layers.h"
#include "net/tcp.h"
#include "obs/memory.h"
#include "probe.h"
#include "serve/checkpoint.h"
#include "serve/daemon.h"
#include "serve/engine.h"
#include "serve/protocol.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr std::size_t kRequestRows = 50;
constexpr std::size_t kConnections = 4;
constexpr std::size_t kSatDepth = 16;
constexpr double kOpenRate = 320.0;           // req/s: 16k rows/s, about half of capacity
constexpr int kRequestTimeoutMs = 10000;
constexpr int kSetupReps = 5;

struct PhaseSize {
  std::size_t warmup;
  std::size_t timed;
};

struct Sizes {
  PhaseSize solo, open, sat;
};
// Untraced: 2000 latencies per phase (two p99 blocks for the notes), and
// 20 sat blocks.
constexpr Sizes kUntraced{{50, 2000}, {100, 2000}, {200, 8000}};
// Traced: solo's timed requests alternate untraced/traced for the overhead.
constexpr Sizes kTraced{{50, 2000}, {100, 1000}, {200, 2000}};
// A p99 is taken per block of this many consecutive requests (10 beyond
// it) and the median over blocks is reported, so one stall moves one block.
constexpr std::size_t kP99Block = 1000;
// rows_per_s is the median sat rate over blocks of this many consecutive
// completions (~0.6 s each), so one stall moves one block.
constexpr std::size_t kSatBlock = 400;
// Traced: the frames of this many sat completions are recorded for the
// codec replay.
constexpr std::size_t kRecordRequests = 64;

struct Request {
  std::uint64_t id = 0;
  std::uint64_t seed = 0;
  Clock::time_point due{};   // open loop: schedule slot; closed loop: send time
  Clock::time_point sent{};
  std::vector<double> cells;
  std::uint64_t rows = 0;
};

struct Completed {
  std::uint64_t id = 0;
  std::uint64_t seed = 0;
  double latency_ms = 0;
  Clock::time_point done{};
  std::vector<double> cells;
  bool ok = false;
};

// One load-generator connection. Only the generator thread touches it.
struct Conn {
  std::string name, out, in;
  std::shared_ptr<gtv::net::TcpTransport> transport;
  std::shared_ptr<gtv::net::Transport> io;  // `transport` behind the generator's probe
  std::deque<Request> inflight;
};

struct Counters {
  std::uint64_t sent = 0, ok = 0, errored = 0, timed_out = 0;
  std::uint64_t bytes = 0;  // request payloads sent + reply payloads taken
};

class LoadGen {
 public:
  LoadGen(std::uint16_t port, std::uint64_t seed_base)
      : seed_base_(seed_base), probe_("gen", 1, 0) {
    for (std::size_t i = 0; i < kConnections; ++i) {
      Conn c;
      c.name = "gen" + std::to_string(i);
      c.out = c.name + "->" + gtv::serve::kServeParty;
      c.in = std::string(gtv::serve::kServeParty) + "->" + c.name;
      c.transport = std::make_shared<gtv::net::TcpTransport>(c.name);
      c.transport->connect_peer(gtv::serve::kServeParty, "127.0.0.1", port);
      c.io = std::make_shared<TimingTransport>(c.transport, &probe_);
      conns_.push_back(std::move(c));
    }
  }

  // Version check + model identity on every connection.
  std::uint64_t hello() {
    std::uint64_t hash = 0;
    for (Conn& c : conns_) {
      c.io->send(c.out, gtv::serve::encode_hello(gtv::serve::Hello{}));
      const auto payload = c.io->recv(c.in, kRequestTimeoutMs);
      hash = gtv::serve::decode_welcome(payload).model_hash;
    }
    return hash;
  }

  // Every frame the generator sends or takes goes through this probe; its
  // boundaries are marked by the phases.
  PartyProbe& probe() { return probe_; }

  std::uint64_t next_seed() const { return derive_seed(seed_base_, next_id_); }
  std::uint64_t next_id() const { return next_id_; }

  void send(std::size_t conn, std::uint64_t seed, Clock::time_point due) {
    Conn& c = conns_[conn];
    gtv::serve::SampleRequest req;
    req.request_id = next_id_++;
    req.n_rows = kRequestRows;
    req.seed = seed;
    Request r;
    r.id = req.request_id;
    r.seed = seed;
    r.due = due;
    r.sent = Clock::now();
    const std::vector<std::uint8_t> payload = gtv::serve::encode_sample_request(req);
    c.io->send(c.out, payload);
    c.inflight.push_back(std::move(r));
    ++counters_.sent;
    counters_.bytes += payload.size();
  }

  // Takes at most one message from `conn`, waiting up to timeout_ms.
  // Returns true when something arrived; finished requests go to `done`.
  bool poll(std::size_t conn, int timeout_ms, std::vector<Completed>& done,
            std::vector<std::size_t>* done_conns = nullptr) {
    Conn& c = conns_[conn];
    std::vector<std::uint8_t> payload;
    try {
      payload = c.io->recv(c.in, timeout_ms);
    } catch (const gtv::net::TimeoutError&) {
      return false;
    }
    counters_.bytes += payload.size();
    const Clock::time_point now = Clock::now();
    if (gtv::serve::peek_type(payload) == gtv::serve::MsgType::kError) {
      const auto err = gtv::serve::decode_error(payload);
      finish(c, err.request_id, now, false, done, conn, done_conns);
      return true;
    }
    gtv::serve::RowBatch batch = gtv::serve::decode_row_batch(payload);
    auto it = std::find_if(c.inflight.begin(), c.inflight.end(),
                           [&](const Request& r) { return r.id == batch.request_id; });
    if (it == c.inflight.end()) {
      ++counters_.errored;  // reply for no request in flight
      return true;
    }
    it->cells.insert(it->cells.end(), batch.cells.begin(), batch.cells.end());
    it->rows += batch.n_rows;
    if (batch.done) {
      const bool ok = it->rows == kRequestRows;
      finish(c, batch.request_id, now, ok, done, conn, done_conns);
    }
    return true;
  }

  // Connection holding the oldest request in flight, or -1.
  int oldest() const {
    int best = -1;
    for (std::size_t i = 0; i < conns_.size(); ++i) {
      if (conns_[i].inflight.empty()) continue;
      if (best < 0 || conns_[i].inflight.front().id < conns_[best].inflight.front().id) {
        best = static_cast<int>(i);
      }
    }
    return best;
  }

  bool idle() const { return oldest() < 0; }

  // Drops requests older than the timeout; they count as timed out.
  void expire(Clock::time_point now) {
    for (Conn& c : conns_) {
      while (!c.inflight.empty() &&
             ms_between(c.inflight.front().sent, now) > kRequestTimeoutMs) {
        c.inflight.pop_front();
        ++counters_.timed_out;
      }
    }
  }

  const Counters& counters() const { return counters_; }

 private:
  void finish(Conn& c, std::uint64_t id, Clock::time_point now, bool ok,
              std::vector<Completed>& done, std::size_t conn,
              std::vector<std::size_t>* done_conns) {
    auto it = std::find_if(c.inflight.begin(), c.inflight.end(),
                           [&](const Request& r) { return r.id == id; });
    if (it == c.inflight.end()) {
      ++counters_.errored;
      return;
    }
    Completed out;
    out.id = it->id;
    out.seed = it->seed;
    out.latency_ms = ms_between(it->due, now);
    out.done = now;
    out.cells = std::move(it->cells);
    out.ok = ok;
    if (ok) {
      ++counters_.ok;
      Spans::instance().record("serve.request", it->due, now);
    } else {
      ++counters_.errored;
    }
    c.inflight.erase(it);
    done.push_back(std::move(out));
    if (done_conns != nullptr) done_conns->push_back(conn);
  }

  std::vector<Conn> conns_;
  std::uint64_t seed_base_;
  std::uint64_t next_id_ = 1;
  Counters counters_;
  PartyProbe probe_;
};

// Everything behind one served model; members destroyed in reverse order,
// after shutdown() drained the daemon.
struct ServeStack {
  std::unique_ptr<gtv::serve::Synthesizer> synth;
  std::shared_ptr<gtv::net::TcpTransport> server;
  std::unique_ptr<gtv::serve::ServeDaemon> daemon;
  std::unique_ptr<LoadGen> gen;

  void shutdown() {
    if (daemon) daemon->drain();
    gen.reset();
    daemon.reset();
    server.reset();
  }
  ~ServeStack() { shutdown(); }
};

struct PhaseResult {
  std::vector<double> latency_ms;
  std::vector<double> late_ms;  // open loop: send time - due time
  std::vector<Completed> completed;
  double rows_per_s = 0;
  double batch_rows_mean = 0;
  double bytes_per_request = 0;  // solo: payload bytes both ways
  std::vector<double> block_rows_per_s;  // sat
};

double batch_rows(const gtv::serve::ServeStats& a, const gtv::serve::ServeStats& b) {
  const double batches = static_cast<double>(b.batches - a.batches);
  return batches > 0 ? static_cast<double>(b.rows - a.rows) / batches : 0.0;
}

// Closed loop, one connection, one request at a time. `probe_seed` is
// sent first (inside warm-up). With `alternate`, every second timed request
// is traced (spans on), so host drift cancels out of the overhead.
PhaseResult run_solo(LoadGen& gen, gtv::serve::ServeDaemon& daemon, PhaseSize size,
                     std::uint64_t probe_seed, bool alternate) {
  PhaseResult out;
  gtv::serve::ServeStats before{};
  std::uint64_t bytes_before = 0;
  std::vector<Completed> done;
  for (std::size_t i = 0; i < size.warmup + size.timed; ++i) {
    if (i == size.warmup) {
      before = daemon.stats();
      bytes_before = gen.counters().bytes;
    }
    if (alternate) Spans::instance().set_enabled(i >= size.warmup && (i - size.warmup) % 2 == 1);
    const std::uint64_t seed = i == 0 ? probe_seed : gen.next_seed();
    gen.send(0, seed, Clock::now());
    done.clear();
    while (done.empty() && gen.poll(0, kRequestTimeoutMs, done)) {
    }
    if (done.empty()) {
      gen.expire(Clock::now() + std::chrono::milliseconds(kRequestTimeoutMs + 1));
      continue;
    }
    if (i >= size.warmup) out.latency_ms.push_back(done[0].latency_ms);
    if (i == 0) out.completed.push_back(std::move(done[0]));
  }
  out.batch_rows_mean = batch_rows(before, daemon.stats());
  out.bytes_per_request =
      static_cast<double>(gen.counters().bytes - bytes_before) / static_cast<double>(size.timed);
  return out;
}

// Open loop: request k is due at t0 + k / rate, on connection k % 4.
PhaseResult run_open(LoadGen& gen, gtv::serve::ServeDaemon& daemon, PhaseSize size) {
  PhaseResult out;
  const std::size_t total = size.warmup + size.timed;
  const auto interval = std::chrono::duration<double>(1.0 / kOpenRate);
  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(5);
  auto due = [&](std::size_t k) {
    return t0 + std::chrono::duration_cast<Clock::duration>(interval * static_cast<double>(k));
  };
  gtv::serve::ServeStats before{};
  std::vector<Completed> done;
  const std::uint64_t first_timed_id = gen.next_id() + size.warmup;
  std::size_t k = 0;
  while (k < total || !gen.idle()) {
    Clock::time_point now = Clock::now();
    if (k < total && now >= due(k)) {
      if (k == size.warmup) before = daemon.stats();
      if (k >= size.warmup) out.late_ms.push_back(ms_between(due(k), now));
      gen.send(k % kConnections, gen.next_seed(), due(k));
      ++k;
      continue;
    }
    bool got = false;
    for (std::size_t c = 0; c < kConnections; ++c) {
      while (gen.poll(c, 0, done)) got = true;
    }
    if (got) continue;
    now = Clock::now();
    const int oldest = gen.oldest();
    const double until_due = k < total ? ms_between(now, due(k)) : 1e9;
    if (oldest >= 0 && until_due > 1.5) {
      gen.poll(static_cast<std::size_t>(oldest), 1, done);  // wakes on arrival
    } else if (oldest < 0 && until_due > 1.5) {
      std::this_thread::sleep_until(due(k) - std::chrono::milliseconds(1));
    } else {
      std::this_thread::yield();  // within 1.5 ms of a due send: spin
    }
    gen.expire(Clock::now());
  }
  // Ids are assigned in send order; the first `warmup` sends are warm-up.
  for (const Completed& c : done) {
    if (c.id >= first_timed_id) out.latency_ms.push_back(c.latency_ms);
  }
  out.batch_rows_mean = batch_rows(before, daemon.stats());
  return out;
}

// Closed loop, 4 connections x 16 in flight; `probe_seed` rides in the
// middle of the timed part. The generator's probe takes boundary 0 at the
// end of warm-up, 1 after kRecordRequests more completions and 2 at the end.
PhaseResult run_sat(LoadGen& gen, gtv::serve::ServeDaemon& daemon, PhaseSize size,
                    std::uint64_t probe_seed) {
  PhaseResult out;
  const std::size_t total = size.warmup + size.timed;
  const std::size_t probe_at = size.warmup + size.timed / 2;
  std::size_t sent = 0, completed = 0;
  auto send_next = [&](std::size_t conn) {
    const std::uint64_t seed = sent == probe_at ? probe_seed : gen.next_seed();
    gen.send(conn, seed, Clock::now());
    ++sent;
  };
  for (std::size_t d = 0; d < kSatDepth; ++d) {
    for (std::size_t c = 0; c < kConnections && sent < total; ++c) send_next(c);
  }
  gtv::serve::ServeStats before{};
  std::vector<Clock::time_point> marks;  // warm-up end, then each timed completion
  std::vector<Completed> done;
  std::vector<std::size_t> done_conns;
  while (!gen.idle()) {
    done.clear();
    done_conns.clear();
    gen.poll(static_cast<std::size_t>(gen.oldest()), 5, done, &done_conns);
    for (std::size_t c = 0; c < kConnections; ++c) {
      while (gen.poll(c, 0, done, &done_conns)) {
      }
    }
    for (std::size_t i = 0; i < done.size(); ++i) {
      ++completed;
      if (completed == size.warmup) {
        before = daemon.stats();
        gen.probe().mark_boundary();
      }
      if (completed == size.warmup + kRecordRequests) gen.probe().mark_boundary();
      if (completed >= size.warmup) marks.push_back(done[i].done);
      if (done[i].seed == probe_seed) out.completed.push_back(std::move(done[i]));
      if (sent < total) send_next(done_conns[i]);
    }
    gen.expire(Clock::now());
  }
  gen.probe().mark_boundary();
  std::vector<double> rates;
  for (std::size_t b = 0; (b + 1) * kSatBlock < marks.size(); ++b) {
    const double s = ms_between(marks[b * kSatBlock], marks[(b + 1) * kSatBlock]) / 1000.0;
    rates.push_back(static_cast<double>(kSatBlock * kRequestRows) / s);
  }
  out.rows_per_s = median(rates);
  out.block_rows_per_s = std::move(rates);
  out.batch_rows_mean = batch_rows(before, daemon.stats());
  return out;
}

std::vector<double> table_cells(const gtv::data::Table& t) {
  std::vector<double> cells;
  for (std::size_t r = 0; r < t.n_rows(); ++r) {
    for (std::size_t c = 0; c < t.n_cols(); ++c) cells.push_back(t.cell(r, c));
  }
  return cells;
}

double block_p99(const std::vector<double>& latency_ms) {
  std::vector<double> p99s;
  for (std::size_t b = 0; (b + 1) * kP99Block <= latency_ms.size(); ++b) {
    const auto from = latency_ms.begin() + static_cast<std::ptrdiff_t>(b * kP99Block);
    p99s.push_back(percentile({from, from + static_cast<std::ptrdiff_t>(kP99Block)}, 99));
  }
  return p99s.empty() ? percentile(latency_ms, 99) : median(p99s);
}

bool same_bytes(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() && std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

}  // namespace

void run_serve(const RunOptions& run, Result& result) {
  const Args& args = run.args;
  const Sizes& sizes = args.trace ? kTraced : kUntraced;
  const std::uint64_t probe_seed = derive_seed(args.seed, 7);

  // Untimed prelude: a paper-size model from training.
  const std::string ckpt_path =
      args.work_dir + "/serve-" + std::to_string(args.seed) + ".gtvk";
  train_served_model(run, result, ckpt_path);

  // peak_rss_mb and tensor.mem_peak_mb are the serving process's, not the
  // prelude trainer's: the heap the trainer freed goes back to the system
  // first, so the rewound peak does not depend on how much of it malloc kept.
  malloc_trim(0);
  reset_peak_rss();
  gtv::obs::reset_memory_peak();
  Spans::instance().set_enabled(args.trace);
  std::vector<double> setup_s, load_ms, synth_ms, connect_ms;
  std::unique_ptr<ServeStack> stack;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    stack.reset();
    stack = std::make_unique<ServeStack>();
    const Clock::time_point t0 = Clock::now();
    gtv::serve::Checkpoint ckpt;
    {
      SpanScope span("serve.ckpt_load");
      ckpt = gtv::serve::load_checkpoint(ckpt_path);
    }
    const Clock::time_point t1 = Clock::now();
    {
      SpanScope span("serve.synth_init");
      stack->synth = std::make_unique<gtv::serve::Synthesizer>(ckpt);
    }
    const Clock::time_point t2 = Clock::now();
    {
      SpanScope span("net.connect");
      stack->server = std::make_shared<gtv::net::TcpTransport>(gtv::serve::kServeParty);
      const std::uint16_t port = stack->server->listen(0);
      stack->daemon = std::make_unique<gtv::serve::ServeDaemon>(*stack->synth);
      stack->daemon->set_transport(stack->server);
      stack->daemon->start();
      stack->daemon->watch_peers(stack->server.get());
      stack->gen = std::make_unique<LoadGen>(port, derive_seed(args.seed, 8));
      const std::uint64_t hash = stack->gen->hello();
      if (rep == 0) result.note("model_hash", std::to_string(hash));
    }
    const Clock::time_point t3 = Clock::now();
    load_ms.push_back(ms_between(t0, t1));
    synth_ms.push_back(ms_between(t1, t2));
    connect_ms.push_back(ms_between(t2, t3));
    setup_s.push_back(ms_between(t0, t3) / 1000.0);
  }
  Spans::instance().set_enabled(false);
  LoadGen& gen = *stack->gen;
  gtv::serve::ServeDaemon& daemon = *stack->daemon;
  if (args.trace) gen.probe().record_round(0, true);

  PhaseResult solo = run_solo(gen, daemon, sizes.solo, probe_seed, args.trace);
  Spans::instance().set_enabled(false);
  PhaseResult open = run_open(gen, daemon, sizes.open);
  PhaseResult sat = run_sat(gen, daemon, sizes.sat, probe_seed);
  const gtv::serve::ServeStats stats = daemon.stats();
  const Counters n = gen.counters();
  const PartyCounters sat_d = delta(gen.probe(), 0, 2);
  std::vector<std::vector<std::uint8_t>> recorded = gen.probe().recorded();
  stack->shutdown();

  result.attempted = n.sent;
  result.failed = n.errored + n.timed_out;
  result.note("requests", "sent=" + std::to_string(n.sent) + " ok=" + std::to_string(n.ok) +
                              " errored=" + std::to_string(n.errored) +
                              " timed_out=" + std::to_string(n.timed_out) +
                              " daemon_requests=" + std::to_string(stats.requests) +
                              " daemon_errors=" + std::to_string(stats.errors));
  result.check("every request answered", n.ok == n.sent && stats.errors == 0);

  // Determinism contract: the probe seed alone == inside a sat batch ==
  // the in-process reference path.
  gtv::serve::Synthesizer reference(gtv::serve::load_checkpoint(ckpt_path));
  std::remove(ckpt_path.c_str());
  const std::vector<double> expect = table_cells(reference.sample(kRequestRows, probe_seed));
  const bool probes_seen = !solo.completed.empty() && !sat.completed.empty();
  result.check("probe seed: solo cells == sat-batch cells",
               probes_seen && same_bytes(solo.completed.front().cells, sat.completed.front().cells));
  result.check("probe seed: served cells == in-process sample",
               probes_seen && same_bytes(solo.completed.front().cells, expect));
  // The generator fell behind its schedule when more than 5% of sends left
  // over one inter-arrival interval late; such a run is invalid, not fast.
  const double late_p99 = percentile(open.late_ms, 99);
  const double late_frac =
      static_cast<double>(std::count_if(open.late_ms.begin(), open.late_ms.end(),
                                        [](double ms) { return ms > 1000.0 / kOpenRate; })) /
      static_cast<double>(std::max<std::size_t>(1, open.late_ms.size()));
  result.check("open loop kept its schedule (<= 5% of sends late)", late_frac <= 0.05,
               "late_frac=" + std::to_string(late_frac) +
                   " late_p99_ms=" + std::to_string(late_p99));
  auto spread = [](const std::vector<double>& v) {
    char text[160];
    std::snprintf(text, sizeof text, "n=%zu p50=%.3f p90=%.3f p99=%.3f block_p99=%.3f max=%.3f",
                  v.size(), percentile(v, 50), percentile(v, 90), percentile(v, 99),
                  block_p99(v), percentile(v, 100));
    return std::string(text);
  };
  result.note("solo_latency_ms", spread(solo.latency_ms));
  result.note("open_latency_ms", spread(open.latency_ms));
  char batches[160];
  std::snprintf(batches, sizeof batches, "solo=%.1f open=%.1f sat=%.1f rows/forward",
                solo.batch_rows_mean, open.batch_rows_mean, sat.batch_rows_mean);
  result.note("batch_rows_mean", batches);
  result.note("sat_block_rows_per_s", join(sat.block_rows_per_s));

  result.note("setup_s_reps", join(setup_s));
  result.note("setup_connect_ms", std::to_string(median(connect_ms)));
  result.note("bytes_per_request", std::to_string(solo.bytes_per_request));
  if (!args.trace) {
    result.metric("setup_s", median(setup_s), "s");
    result.metric("peak_rss_mb", peak_rss_mb(), "MiB");
    result.metric("op_ms_p50", percentile(solo.latency_ms, 50), "ms");
    result.metric("rows_per_s", sat.rows_per_s, "rows/s");
    result.metric("bytes_per_op", solo.bytes_per_request, "B");
    return;
  }

  // --- per-layer (traced run) --------------------------------------------------
  Spans::instance().set_enabled(true);  // around the direct layer calls below
  const std::size_t sat_batch =
      std::max<std::size_t>(1, static_cast<std::size_t>(std::lround(sat.batch_rows_mean)));
  const ServeLayer layer = report_serve_layer(result, reference, sat_batch, probe_seed);
  std::vector<double> solo_untraced, solo_traced;
  for (std::size_t i = 0; i < solo.latency_ms.size(); ++i) {
    (i % 2 == 0 ? solo_untraced : solo_traced).push_back(solo.latency_ms[i]);
  }
  char waits[160];
  std::snprintf(waits, sizeof waits, "solo=%.3f open=%.3f (latency p50 - plan - forward)",
                median(solo_untraced) - layer.plan_ms - layer.forward_ms,
                median(open.latency_ms) - layer.plan_ms - layer.forward_ms);
  result.note("queue_wait_ms", waits);
  result.note("gen_late_ms_p99", std::to_string(late_p99));
  result.metric("setup.load_ms", median(load_ms), "ms");
  result.metric("setup.init_ms", median(synth_ms), "ms");

  // The generator's hidden layer at the sat batch.
  const std::size_t hidden = gtv::core::GtvOptions{}.generator_hidden;
  const KernelRates k =
      time_kernels(sat_batch, hidden, hidden, sat_batch, hidden, derive_seed(args.seed, 3));
  result.metric("tensor.gemm_gflops", k.gemm_gflops, "GFLOP/s");
  result.metric("tensor.eltwise_gbps", k.eltwise_gbps, "GB/s");
  result.metric("tensor.memcpy_gbps", k.memcpy_gbps, "GB/s");
  // Per sat request, over the timed sat requests.
  const double requests = static_cast<double>(sizes.sat.timed);
  result.metric("tensor.allocs_per_op", static_cast<double>(sat_d.tensor_allocs) / requests,
                "count");
  result.metric("tensor.mem_peak_mb", gtv::obs::memory_stats().peak_bytes / 1048576.0, "MiB");
  const double frames_per_op =
      static_cast<double>(sat_d.frames_sent + sat_d.frames_fetched) / requests;
  result.metric("net.frames_per_op", frames_per_op, "count");
  result.metric("net.send_ms_per_op", sat_d.send_ms / requests, "ms");
  result.metric("net.recv_wait_ms_per_op", sat_d.recv_wait_ms / requests, "ms");
  report_codec(result, recorded, frames_per_op);
  result.metric("net.failed_transfers", static_cast<double>(result.failed), "count");

  const double overhead = median(solo_traced) / median(solo_untraced) - 1.0;
  result.metric("obs.trace_overhead_frac", overhead, "ratio");
  const double span_ms = Spans::instance().median_ms("serve.request");
  result.note("span_request_ms", std::to_string(span_ms));
  const double drift = span_ms / median(solo_traced) - 1.0;
  result.check("request spans reconcile with untraced p50 x (1 + overhead)",
               std::fabs(drift) <= 0.05,
               "span_median_ms=" + std::to_string(span_ms) + " drift=" + std::to_string(drift));
  finish_spans(args, result);
}

ServeLayer report_serve_layer(Result& result, gtv::serve::Synthesizer& synth,
                              std::size_t batch_rows, std::uint64_t seed) {
  const ServeLayer layer = time_serve_layer(synth, kRequestRows, batch_rows, seed);
  result.note("serve_layer_batch_rows", std::to_string(batch_rows));
  result.metric("serve.plan_ms", layer.plan_ms, "ms");
  result.metric("serve.forward_ms", layer.forward_ms, "ms");
  result.metric("serve.forward_rows_per_s", layer.forward_rows_per_s, "rows/s");
  return layer;
}

}  // namespace perfbench
