// Per-layer measurements made by calling a layer directly: dense kernels at
// a workload's shapes, the frame codec / payload serializers replayed on
// frames recorded from a live run, and the serving engine's plan/forward.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common.h"

namespace gtv::serve {
class Synthesizer;
}

namespace perfbench {

struct KernelRates {
  double gemm_gflops = 0;   // Tensor::matmul, (m x k) * (k x n)
  double eltwise_gbps = 0;  // Hadamard product over rows x cols (2 reads + 1 write)
  double memcpy_gbps = 0;   // std::memcpy of the same buffer (1 read + 1 write)
};

// Medians over repeated calls, each rep sized to run at least ~2 ms.
KernelRates time_kernels(std::size_t m, std::size_t k, std::size_t n, std::size_t rows,
                         std::size_t cols, std::uint64_t seed);

struct CodecReplay {
  double codec_ms = 0;      // decode_frame + encode_frame of every frame, median rep
  // Decode + encode of every payload: tensors and index vectors on training
  // links, SampleRequest/RowBatch messages on serve links.
  double serialize_ms = 0;
  std::uint64_t frame_bytes = 0;
  std::size_t frames = 0;
  bool exact = true;  // every re-encoded frame/payload matched the original bytes
};

CodecReplay replay_frames(const std::vector<std::vector<std::uint8_t>>& frames, int reps);

// net.codec_ms_per_op, net.codec_gbps and net.serialize_ms_per_op from a
// replay of `frames`, scaled to `frames_per_op`; checks the replay is exact.
void report_codec(Result& result, const std::vector<std::vector<std::uint8_t>>& frames,
                  double frames_per_op);

struct ServeLayer {
  double plan_ms = 0;             // Synthesizer::plan of one request
  double forward_ms = 0;          // Synthesizer::run of one request's rows
  double forward_rows_per_s = 0;  // Synthesizer::run at `batch_rows`
};

// The serving engine at a request of `request_rows` and a coalesced batch
// of `batch_rows`; median ms per call.
ServeLayer time_serve_layer(gtv::serve::Synthesizer& synth, std::size_t request_rows,
                            std::size_t batch_rows, std::uint64_t seed);

}  // namespace perfbench
