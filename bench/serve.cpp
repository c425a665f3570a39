// Serving-path load generator: trains one tiny model, starts a real TCP
// ServeDaemon on an ephemeral port, and sweeps concurrent client counts
// (1 / 8 / 64) against it. Each client issues a fixed series of seeded
// requests over its own connection, so higher levels measure what the
// batching queue buys: many requests coalesced into one generator
// forward instead of one forward (plus linger) per request.
//
// Emits one JSON object to stdout; scripts/check.sh (stage "serve") fails
// unless 64 clients get >=3x one client's rows/s. Exits nonzero when the
// determinism probe fails. Latency and throughput numbers for serving come
// from perfbench's `serve` workload. Schema (schema_version 1):
//   {"schema_version":1, "rows_per_request":N, "requests_per_client":N,
//    "deterministic":true,
//    "levels":[{"clients":1,"rows_per_sec":..,"p50_ms":..,"p99_ms":..,
//               "avg_batch_rows":..}, ...],
//    "speedup_64_vs_1":..}
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/gtv.h"
#include "data/datasets.h"
#include "data/table.h"
#include "net/tcp.h"
#include "serve/checkpoint.h"
#include "serve/daemon.h"
#include "serve/engine.h"

namespace gtv::bench {
namespace {

constexpr std::size_t kRowsPerRequest = 50;
constexpr std::size_t kRequestsPerClient = 10;

serve::Checkpoint train_checkpoint() {
  core::GtvOptions options;
  options.gan.noise_dim = 16;
  options.gan.batch_size = 16;
  options.gan.d_steps_per_round = 1;
  options.gan.hidden = 32;
  options.generator_hidden = 48;
  Rng rng(0xbe7cULL);
  const data::Table table = data::make_dataset("loan", 64, rng);
  std::vector<std::vector<std::size_t>> groups(2);
  for (std::size_t c = 0; c < table.n_cols(); ++c) {
    groups[c < (table.n_cols() + 1) / 2 ? 0 : 1].push_back(c);
  }
  core::GtvTrainer trainer(data::vertical_split(table, groups), options, 11);
  trainer.train(1);
  serve::Checkpoint ckpt = trainer.make_checkpoint();
  serve::Synthesizer synth(ckpt);
  ckpt.model_hash = serve::hash_table(synth.sample(64, ckpt.seed));
  return ckpt;
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] * (1.0 - frac) + values[hi] * frac;
}

struct LevelResult {
  std::size_t clients = 0;
  double rows_per_sec = 0;
  double p50_ms = 0;
  double p99_ms = 0;
  double avg_batch_rows = 0;
};

LevelResult run_level(serve::ServeDaemon& daemon, std::uint16_t port,
                      std::size_t n_clients, std::size_t level_tag) {
  const serve::ServeStats before = daemon.stats();
  std::vector<std::vector<double>> latencies(n_clients);
  std::vector<std::thread> threads;
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t c = 0; c < n_clients; ++c) {
    threads.emplace_back([&, c] {
      serve::ServeClient client("L" + std::to_string(level_tag) + "c" + std::to_string(c));
      client.connect("127.0.0.1", port);
      client.hello();
      for (std::size_t r = 0; r < kRequestsPerClient; ++r) {
        const auto rt0 = std::chrono::steady_clock::now();
        client.sample(kRowsPerRequest, 0x5eedULL + level_tag * 100000 + c * 100 + r);
        latencies[c].push_back(std::chrono::duration<double, std::milli>(
                                   std::chrono::steady_clock::now() - rt0)
                                   .count());
      }
    });
  }
  for (auto& t : threads) t.join();
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  const serve::ServeStats after = daemon.stats();

  LevelResult result;
  result.clients = n_clients;
  const std::size_t total_rows = n_clients * kRequestsPerClient * kRowsPerRequest;
  result.rows_per_sec = static_cast<double>(total_rows) / wall_s;
  std::vector<double> all;
  for (const auto& per_client : latencies) {
    all.insert(all.end(), per_client.begin(), per_client.end());
  }
  result.p50_ms = percentile(all, 50);
  result.p99_ms = percentile(all, 99);
  const std::uint64_t batches = after.batches - before.batches;
  result.avg_batch_rows =
      batches == 0 ? 0.0
                   : static_cast<double>(after.rows - before.rows) /
                         static_cast<double>(batches);
  return result;
}

int run() {
  const serve::Checkpoint ckpt = train_checkpoint();
  serve::Synthesizer synth(ckpt);

  auto transport = std::make_shared<net::TcpTransport>(serve::kServeParty);
  const std::uint16_t port = transport->listen(0);
  serve::DaemonOptions options;
  options.max_batch = 16384;
  // Throughput-tuned linger: long enough that a 64-client burst lands in
  // one generator forward even on a single-core box. The 1-client level
  // pays the same linger per request — that cost is exactly what the
  // batching queue amortizes.
  options.max_wait_us = 10000;
  options.recv_timeout_ms = 100;
  serve::ServeDaemon daemon(synth, options);
  daemon.set_transport(transport);
  daemon.start();
  daemon.watch_peers(transport.get());

  // Determinism probe: the same seed over two fresh connections must
  // deliver byte-identical cells regardless of what else is in flight.
  bool deterministic = true;
  {
    serve::ServeClient a("det0"), b("det1");
    a.connect("127.0.0.1", port);
    b.connect("127.0.0.1", port);
    a.hello();
    b.hello();
    deterministic = a.sample(kRowsPerRequest, 42).cells == b.sample(kRowsPerRequest, 42).cells;
  }

  const std::size_t levels[] = {1, 8, 64};
  std::vector<LevelResult> results;
  for (std::size_t i = 0; i < 3; ++i) {
    results.push_back(run_level(daemon, port, levels[i], i));
  }
  daemon.drain();

  std::printf("{\n \"schema_version\": 1,\n \"rows_per_request\": %zu,\n"
              " \"requests_per_client\": %zu,\n \"deterministic\": %s,\n \"levels\": [",
              kRowsPerRequest, kRequestsPerClient, deterministic ? "true" : "false");
  for (std::size_t i = 0; i < results.size(); ++i) {
    const LevelResult& r = results[i];
    std::printf("%s\n  {\"clients\": %zu, \"rows_per_sec\": %.1f, \"p50_ms\": %.3f, "
                "\"p99_ms\": %.3f, \"avg_batch_rows\": %.1f}",
                i == 0 ? "" : ",", r.clients, r.rows_per_sec, r.p50_ms, r.p99_ms,
                r.avg_batch_rows);
  }
  std::printf("\n ],\n \"speedup_64_vs_1\": %.2f\n}\n",
              results.back().rows_per_sec / results.front().rows_per_sec);
  return deterministic ? 0 : 1;
}

}  // namespace
}  // namespace gtv::bench

int main() { return gtv::bench::run(); }
