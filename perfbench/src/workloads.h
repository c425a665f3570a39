// The three perfbench workloads. Each fills `result` with the end-to-end
// metrics (untraced run) or the per-layer metrics (traced run), plus the
// correctness checks and failure accounting of its operations. Every
// workload reports every metric; an "op" is one training round or one
// served request.
#pragma once

#include <string>
#include <vector>

#include "common.h"
#include "data/table.h"
#include "layers.h"

namespace perfbench {

struct RunOptions {
  Args args;
  // Autograd ops whose self time a traced run reports (from BENCHMARK.json).
  std::vector<std::string> autograd_ops;
};

// Contiguous, even column split, client 0 first (as tools/gtv-node does).
std::vector<gtv::data::Table> split_columns(const gtv::data::Table& table, std::size_t clients);

// The serve workload's model: one round of paper-default training on
// loan-shaped rows (train-inproc's config), saved to `ckpt_path`. In a traced
// run it trains warm-up + alternating rounds and reports core.* and
// autograd.* of them, as train-inproc does.
void train_served_model(const RunOptions& run, Result& result, const std::string& ckpt_path);

// serve.*: Synthesizer::plan/run at one 50-row request and at `batch_rows`.
ServeLayer report_serve_layer(Result& result, gtv::serve::Synthesizer& synth,
                              std::size_t batch_rows, std::uint64_t seed);

void run_train_inproc(const RunOptions& run, Result& result);
void run_train_tcp(const RunOptions& run, Result& result);
void run_serve(const RunOptions& run, Result& result);

}  // namespace perfbench
