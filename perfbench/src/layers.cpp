#include "layers.h"

#include <algorithm>
#include <cstring>

#include "common.h"
#include "net/transport.h"
#include "net/wire.h"
#include "serve/engine.h"
#include "serve/daemon.h"
#include "serve/protocol.h"
#include "tensor/rng.h"
#include "tensor/tensor.h"

namespace perfbench {

namespace {

volatile float g_sink = 0.0f;  // keeps timed results observable

// Median ms per call of `fn`, over 7 reps of enough calls to fill ~2 ms;
// each rep is one span called `name`.
template <typename F>
double median_call_ms(const char* name, F&& fn) {
  fn();  // warm-up: pool spin-up, page faults
  const Clock::time_point t0 = Clock::now();
  fn();
  const double once = std::max(1e-3, ms_between(t0, Clock::now()));
  const int calls = std::max(1, static_cast<int>(2.0 / once));
  std::vector<double> reps;
  for (int r = 0; r < 7; ++r) {
    SpanScope span(name);
    const Clock::time_point s = Clock::now();
    for (int c = 0; c < calls; ++c) fn();
    reps.push_back(ms_between(s, Clock::now()) / calls);
  }
  return median(reps);
}

bool is_tensor_payload(const std::vector<std::uint8_t>& p) {
  if (p.size() < 16) return false;
  std::uint64_t rows = 0, cols = 0;
  std::memcpy(&rows, p.data(), 8);
  std::memcpy(&cols, p.data() + 8, 8);
  return cols != 0 && rows <= p.size() && p.size() == 16 + rows * cols * 4;
}

bool is_index_payload(const std::vector<std::uint8_t>& p) {
  if (p.size() < 8) return false;
  std::uint64_t n = 0;
  std::memcpy(&n, p.data(), 8);
  return n <= p.size() && p.size() == 8 + n * 8;
}

bool is_serve_link(const std::string& link) {
  return link.find(std::string("->") + gtv::serve::kServeParty) != std::string::npos ||
         link.rfind(std::string(gtv::serve::kServeParty) + "->", 0) == 0;
}

// Decode + re-encode of one payload; false when the bytes differ.
bool reserialize(const std::string& link, const std::vector<std::uint8_t>& p) {
  if (is_serve_link(link)) {
    switch (gtv::serve::peek_type(p)) {
      case gtv::serve::MsgType::kSampleRequest:
        return gtv::serve::encode_sample_request(gtv::serve::decode_sample_request(p)) == p;
      case gtv::serve::MsgType::kRowBatch:
        return gtv::serve::encode_row_batch(gtv::serve::decode_row_batch(p)) == p;
      default:
        return true;
    }
  }
  if (is_tensor_payload(p)) return gtv::net::serialize_tensor(gtv::net::deserialize_tensor(p)) == p;
  if (is_index_payload(p)) return gtv::net::serialize_indices(gtv::net::deserialize_indices(p)) == p;
  return true;
}

}  // namespace

KernelRates time_kernels(std::size_t m, std::size_t k, std::size_t n, std::size_t rows,
                         std::size_t cols, std::uint64_t seed) {
  gtv::Rng rng(seed);
  const gtv::Tensor a = gtv::Tensor::normal(m, k, 0.0f, 1.0f, rng);
  const gtv::Tensor b = gtv::Tensor::normal(k, n, 0.0f, 1.0f, rng);
  const gtv::Tensor x = gtv::Tensor::normal(rows, cols, 0.0f, 1.0f, rng);
  const gtv::Tensor y = gtv::Tensor::normal(rows, cols, 0.0f, 1.0f, rng);
  std::vector<float> dst(rows * cols);

  KernelRates out;
  const double gemm_ms =
      median_call_ms("tensor.gemm", [&] { g_sink = g_sink + a.matmul(b)(0, 0); });
  out.gemm_gflops = 2.0 * m * k * n / (gemm_ms * 1e6);
  const double bytes = static_cast<double>(rows * cols * sizeof(float));
  const double elt_ms =
      median_call_ms("tensor.eltwise", [&] { g_sink = g_sink + (x * y)(0, 0); });
  out.eltwise_gbps = 3.0 * bytes / (elt_ms * 1e6);
  const double cpy_ms = median_call_ms("tensor.memcpy", [&] {
    std::memcpy(dst.data(), x.data(), rows * cols * sizeof(float));
    g_sink = g_sink + dst[rows * cols / 2];
  });
  out.memcpy_gbps = 2.0 * bytes / (cpy_ms * 1e6);
  return out;
}

CodecReplay replay_frames(const std::vector<std::vector<std::uint8_t>>& frames, int reps) {
  CodecReplay out;
  out.frames = frames.size();
  std::vector<gtv::net::Frame> decoded;
  decoded.reserve(frames.size());
  for (const auto& f : frames) {
    out.frame_bytes += f.size();
    decoded.push_back(gtv::net::decode_frame(f));
  }
  std::vector<double> codec, serialize;
  for (int r = 0; r < reps; ++r) {
    {
      SpanScope span("net.codec_replay");
      const Clock::time_point c0 = Clock::now();
      for (const auto& f : frames) {
        if (gtv::net::encode_frame(gtv::net::decode_frame(f)) != f) out.exact = false;
      }
      codec.push_back(ms_between(c0, Clock::now()));
    }
    SpanScope span("net.serialize_replay");
    const Clock::time_point s0 = Clock::now();
    for (const auto& frame : decoded) {
      if (!reserialize(frame.link, frame.payload)) out.exact = false;
    }
    serialize.push_back(ms_between(s0, Clock::now()));
  }
  out.codec_ms = median(codec);
  out.serialize_ms = median(serialize);
  return out;
}

void report_codec(Result& result, const std::vector<std::vector<std::uint8_t>>& frames,
                  double frames_per_op) {
  const CodecReplay replay = replay_frames(frames, 5);
  result.check("codec replay reproduces recorded frames", replay.exact && replay.frames > 0,
               std::to_string(replay.frames) + " frames, " +
                   std::to_string(replay.frame_bytes) + " B");
  const double ops = static_cast<double>(std::max<std::size_t>(1, replay.frames)) / frames_per_op;
  result.metric("net.codec_ms_per_op", replay.codec_ms / ops, "ms");
  result.metric("net.codec_gbps", replay.frame_bytes / (replay.codec_ms * 1e6), "GB/s");
  result.metric("net.serialize_ms_per_op", replay.serialize_ms / ops, "ms");
}

ServeLayer time_serve_layer(gtv::serve::Synthesizer& synth, std::size_t request_rows,
                            std::size_t batch_rows, std::uint64_t seed) {
  ServeLayer out;
  std::uint64_t plan_seed = seed;
  out.plan_ms = median_call_ms("serve.plan", [&] {
    g_sink = g_sink + synth.plan(request_rows, plan_seed++).input(0, 0);
  });
  const auto request = synth.plan(request_rows, seed);
  out.forward_ms = median_call_ms("serve.forward", [&] {
    g_sink = g_sink + static_cast<float>(synth.run(request.input, request.gumbel).cell(0, 0));
  });
  const auto batch = synth.plan(batch_rows, seed);
  const double batch_ms = median_call_ms("serve.forward", [&] {
    g_sink = g_sink + static_cast<float>(synth.run(batch.input, batch.gumbel).cell(0, 0));
  });
  out.forward_rows_per_s = static_cast<double>(batch_rows) / (batch_ms / 1000.0);
  return out;
}

}  // namespace perfbench
