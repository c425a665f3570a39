// Dense-kernel benchmark: the tiled gemm vs the seed (naive i-k-j) kernel.
//
// Emits one JSON object to stdout; scripts/check.sh (stage "kernels")
// validates it and fails unless the tiled kernel is >=2.5x the seed at 512^3.
// The seed kernel is compiled into this binary verbatim — including its row
// parallelization through gtv::parallel_for — so the speedup column
// isolates the tiling/packing/micro-kernel work from threading.
//
// Schema (schema_version 1):
//   {"schema_version":1, "isa":"avx2|portable", "threads":N,
//    "matmul":[{"n":512,"seed_ms":..,"tiled_ms":..,"seed_gflops":..,
//               "tiled_gflops":..,"speedup":..}, ...],
//    "variants":{"nt_ms":..,"tn_ms":..,"nn_ms":..},     // 512^3 each
//    "linear":{"fwd_ms":..,"fwd_bwd_ms":..},            // 256x128 -> 256
//    "train_round_ms":..,
//    "speedup_512":..}
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <vector>

#include "core/gtv.h"
#include "data/datasets.h"
#include "nn/module.h"
#include "tensor/gemm.h"
#include "tensor/tensor.h"
#include "tensor/thread_pool.h"

namespace gtv::bench {
namespace {

// The pre-rewrite Tensor::matmul inner loops, parallelized across rows the
// same way the seed was (zero-skip included: it is part of what was shipped
// and what the speedup is measured against).
Tensor seed_matmul(const Tensor& a, const Tensor& b) {
  Tensor out(a.rows(), b.cols());
  const std::size_t k = a.cols(), n = b.cols();
  const float* pa = a.data();
  const float* pb = b.data();
  float* pc = out.data();
  parallel_for(a.rows(), 8, [&](std::size_t r0, std::size_t r1) {
    for (std::size_t i = r0; i < r1; ++i) {
      for (std::size_t kk = 0; kk < k; ++kk) {
        const float aik = pa[i * k + kk];
        if (aik == 0.0f) continue;
        const float* brow = pb + kk * n;
        float* crow = pc + i * n;
        for (std::size_t j = 0; j < n; ++j) crow[j] += aik * brow[j];
      }
    }
  });
  return out;
}

volatile float g_sink = 0.0f;  // defeats dead-code elimination

template <typename F>
double time_ms(int iters, F&& fn) {
  fn();  // warm-up (pack buffers, pool spin-up, page faults)
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < iters; ++i) fn();
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(t1 - t0).count() / iters;
}

double gflops(std::size_t n, double ms) { return 2.0 * n * n * n / (ms * 1e6); }

int run() {
  std::printf("{\"schema_version\":1,\"isa\":\"%s\",\"threads\":%zu,\n",
              detail::gemm_kernel_isa(), ThreadPool::instance().worker_count());

  // Square matmul sweep. Iteration counts keep each cell ~comparable cost.
  const std::size_t sizes[] = {64, 128, 256, 512};
  double seed_512 = 0, tiled_512 = 0;
  std::printf(" \"matmul\":[");
  for (std::size_t idx = 0; idx < 4; ++idx) {
    const std::size_t n = sizes[idx];
    Rng rng(n);
    Tensor a = Tensor::normal(n, n, 0.0f, 1.0f, rng);
    Tensor b = Tensor::normal(n, n, 0.0f, 1.0f, rng);
    const int iters = n >= 512 ? 5 : n >= 256 ? 20 : 100;
    const double seed_ms = time_ms(iters, [&] { g_sink = seed_matmul(a, b)(0, 0); });
    const double tiled_ms = time_ms(iters, [&] { g_sink = a.matmul(b)(0, 0); });
    if (n == 512) { seed_512 = seed_ms; tiled_512 = tiled_ms; }
    std::printf(
        "%s\n  {\"n\":%zu,\"seed_ms\":%.3f,\"tiled_ms\":%.3f,"
        "\"seed_gflops\":%.2f,\"tiled_gflops\":%.2f,\"speedup\":%.2f}",
        idx ? "," : "", n, seed_ms, tiled_ms, gflops(n, seed_ms), gflops(n, tiled_ms),
        seed_ms / tiled_ms);
  }
  std::printf("],\n");

  // Transpose-free variants at 512^3: the backward-pass shapes. The nn
  // column is repeated so all three are measured the same way in one place.
  {
    Rng rng(512);
    Tensor a = Tensor::normal(512, 512, 0.0f, 1.0f, rng);
    Tensor b = Tensor::normal(512, 512, 0.0f, 1.0f, rng);
    const double nn = time_ms(5, [&] { g_sink = a.matmul(b)(0, 0); });
    const double nt = time_ms(5, [&] { g_sink = a.matmul_nt(b)(0, 0); });
    const double tn = time_ms(5, [&] { g_sink = a.matmul_tn(b)(0, 0); });
    std::printf(" \"variants\":{\"nn_ms\":%.3f,\"nt_ms\":%.3f,\"tn_ms\":%.3f},\n", nn, nt,
                tn);
  }

  // Linear layer forward and forward+backward (batch 256, 128 -> 256):
  // exercises the autograd matmul family end to end, including the
  // transpose-free matmul_nt/matmul_tn backward.
  {
    Rng rng(9);
    nn::Linear layer(128, 256, rng);
    Tensor xt = Tensor::normal(256, 128, 0.0f, 1.0f, rng);
    const double fwd = time_ms(50, [&] {
      ag::NoGradGuard ng;
      g_sink = layer.forward(ag::constant(xt)).value()(0, 0);
    });
    const double fwd_bwd = time_ms(50, [&] {
      ag::Var x(xt, /*requires_grad=*/true);
      ag::Var loss = ag::mean_all(layer.forward(x));
      ag::backward(loss);
      g_sink = x.grad()(0, 0);
      for (auto& p : layer.parameters()) p.zero_grad();
    });
    std::printf(" \"linear\":{\"fwd_ms\":%.3f,\"fwd_bwd_ms\":%.3f},\n", fwd, fwd_bwd);
  }

  // One full VFL training round at the seed bench config: the end-to-end
  // number the kernel work actually moves.
  {
    Rng data_rng(17);
    data::Table t = data::make_loan(200, data_rng);
    core::GtvOptions options;
    std::vector<std::vector<std::size_t>> groups(2);
    for (std::size_t c = 0; c < t.n_cols(); ++c) groups[c % 2].push_back(c);
    core::GtvTrainer trainer(data::vertical_split(t, groups), options, 99);
    trainer.train_round();  // warm-up
    const double round_ms = time_ms(3, [&] { (void)trainer.train_round(); });
    std::printf(" \"train_round_ms\":%.3f,\n", round_ms);
  }

  std::printf(" \"speedup_512\":%.2f}\n", seed_512 / tiled_512);
  return 0;
}

}  // namespace
}  // namespace gtv::bench

int main() { return gtv::bench::run(); }
