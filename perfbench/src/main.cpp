// perfbench — one run of one workload of the repository's benchmark.
//
//   perfbench --workload train-inproc|train-tcp|serve --seed N --seconds S
//             --trace 0|1 [--work-dir DIR] [--autograd-ops op1,op2,...]
//
// Prints the run context, every correctness check and the loss / request
// accounting, then as its last line one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {name: {value, unit}}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). Exits 1 when any check fails. perfbench/run.py builds this
// binary and is the command BENCHMARK.json names.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <sstream>
#include <string>

#include "common.h"
#include "workloads.h"

namespace {

[[noreturn]] void usage(const std::string& msg) {
  std::fprintf(stderr, "perfbench: %s\n", msg.c_str());
  std::fprintf(stderr,
               "usage: perfbench --workload train-inproc|train-tcp|serve --seed N "
               "--seconds S --trace 0|1 [--work-dir DIR] [--autograd-ops a,b,...]\n");
  std::exit(2);
}

perfbench::RunOptions parse(int argc, char** argv) {
  perfbench::RunOptions run;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      run.args.workload = value;
    } else if (flag == "--seed") {
      run.args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      run.args.seconds = std::atoi(value.c_str());
    } else if (flag == "--trace") {
      run.args.trace = value == "1";
    } else if (flag == "--work-dir") {
      run.args.work_dir = value;
    } else if (flag == "--autograd-ops") {
      std::stringstream list(value);
      std::string op;
      while (std::getline(list, op, ',')) {
        if (!op.empty()) run.autograd_ops.push_back(op);
      }
    } else {
      usage("unknown option " + flag);
    }
  }
  if (run.args.workload.empty()) usage("--workload is required");
  if (run.args.seconds < 1) usage("--seconds must be >= 1");
  return run;
}

}  // namespace

int main(int argc, char** argv) {
  const perfbench::RunOptions run = parse(argc, argv);
  perfbench::Result result;
  result.note("context", perfbench::run_context());
  result.note("run", "workload=" + run.args.workload + " seed=" + std::to_string(run.args.seed) +
                         " seconds=" + std::to_string(run.args.seconds) +
                         " trace=" + (run.args.trace ? "1" : "0"));
  try {
    if (run.args.workload == "train-inproc") {
      perfbench::run_train_inproc(run, result);
    } else if (run.args.workload == "train-tcp") {
      perfbench::run_train_tcp(run, result);
    } else if (run.args.workload == "serve") {
      perfbench::run_serve(run, result);
    } else {
      usage("unknown workload " + run.args.workload);
    }
  } catch (const std::exception& e) {
    result.check("workload ran to completion", false, e.what());
  }
  result.note("peak_rss_mb_at_exit", std::to_string(perfbench::peak_rss_mb()));
  result.note("calibration_ms_at_exit", std::to_string(perfbench::calibration_ms()));
  std::printf("%s\n", result.json().c_str());
  std::fflush(stdout);
  return result.correct() ? 0 : 1;
}
