// Parameter checkpointing: saves/restores the full state of a Module
// (trainable parameters plus non-trainable buffers such as batchnorm
// running statistics) in declaration order.
//
// On-disk format (version 2) mirrors the wire-frame discipline used by
// gtv::net: explicit little-endian encoding, a magic + version header, a
// trailing CRC32 over the payload, and exact-size checks so truncated or
// padded files are rejected. load_parameters still accepts the legacy v1
// format ("GTVP": bare parameters, native endianness, no checksum).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "nn/module.h"

namespace gtv::nn {

// Writes all parameters and buffers of `module` to `path` in the v2
// envelope. Throws std::runtime_error on I/O failure.
void save_parameters(Module& module, const std::string& path);

// Restores state saved by save_parameters. The module must have the same
// architecture: tensor counts and every shape must match, otherwise throws
// std::runtime_error without modifying the module. Reads v2 and legacy v1.
void load_parameters(Module& module, const std::string& path);

// Copies the module's full state (parameters then buffers, declaration
// order) as plain tensors — the canonical checkpoint ordering.
std::vector<Tensor> snapshot_state(Module& module);

// Restores a snapshot_state()-ordered tensor list. Counts and shapes are
// validated before anything is written back, so a mismatching snapshot
// throws std::runtime_error and leaves the module untouched.
void restore_state(Module& module, const std::vector<Tensor>& tensors);

// Low-level tensor-block codec shared with gtv::serve's checkpoint
// container: u64 count, then per tensor u64 rows / u64 cols / f32 payload,
// all little-endian.
void append_tensor_block(std::vector<std::uint8_t>& out, const std::vector<Tensor>& tensors);
// Parses a tensor block starting at `offset` (advanced past the block).
// Throws std::runtime_error on truncation or implausible shapes.
std::vector<Tensor> parse_tensor_block(const std::uint8_t* data, std::size_t size,
                                       std::size_t& offset);

}  // namespace gtv::nn
