#include "nn/serialize.h"

#include <cstdint>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <vector>

#include "obs/crc32.h"

namespace gtv::nn {

namespace {

constexpr std::uint32_t kLegacyMagic = 0x47545650;  // "GTVP" — v1, native-endian
constexpr std::uint32_t kMagic = 0x47545651;        // "GTVQ" — v2, little-endian
constexpr std::uint32_t kVersion = 2;
// Reject shapes whose element count cannot be a real model tensor; also
// guards the rows*cols multiplication against overflow.
constexpr std::uint64_t kMaxElements = 1ull << 32;

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void put_f32(std::vector<std::uint8_t>& out, float v) {
  std::uint32_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  put_u32(out, bits);
}

std::uint32_t get_u32(const std::uint8_t* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
  return v;
}

std::uint64_t get_u64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  return v;
}

struct Cursor {
  const std::uint8_t* data;
  std::size_t size;
  std::size_t offset;

  void need(std::size_t n, const char* what) const {
    if (offset > size || size - offset < n) {
      throw std::runtime_error(std::string("load_parameters: truncated file (") + what + ")");
    }
  }
  std::uint32_t u32(const char* what) {
    need(4, what);
    std::uint32_t v = get_u32(data + offset);
    offset += 4;
    return v;
  }
  std::uint64_t u64(const char* what) {
    need(8, what);
    std::uint64_t v = get_u64(data + offset);
    offset += 8;
    return v;
  }
};

std::vector<std::uint8_t> slurp(const std::string& path, const char* who) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) throw std::runtime_error(std::string(who) + ": cannot open '" + path + "'");
  const std::streamsize size = in.tellg();
  in.seekg(0, std::ios::beg);
  std::vector<std::uint8_t> bytes(static_cast<std::size_t>(size));
  if (size > 0) in.read(reinterpret_cast<char*>(bytes.data()), size);
  if (!in) throw std::runtime_error(std::string(who) + ": read failed for '" + path + "'");
  return bytes;
}

// Legacy v1 reader: native-endian, bare parameters, no checksum. Kept so
// checkpoints written before the envelope hardening still load.
void load_parameters_v1(Module& module, const std::vector<std::uint8_t>& bytes,
                        const std::string& path) {
  Cursor c{bytes.data(), bytes.size(), 4};  // past magic
  auto params = module.parameters();
  c.need(8, "count");
  std::uint64_t count;
  std::memcpy(&count, c.data + c.offset, 8);
  c.offset += 8;
  if (count != params.size()) {
    throw std::runtime_error("load_parameters: parameter count mismatch (file " +
                             std::to_string(count) + ", module " +
                             std::to_string(params.size()) + ") in '" + path + "'");
  }
  std::vector<Tensor> staged;
  staged.reserve(params.size());
  for (const auto& p : params) {
    c.need(16, "shape");
    std::uint64_t rows, cols;
    std::memcpy(&rows, c.data + c.offset, 8);
    std::memcpy(&cols, c.data + c.offset + 8, 8);
    c.offset += 16;
    if (rows != p.value().rows() || cols != p.value().cols()) {
      throw std::runtime_error("load_parameters: shape mismatch in '" + path + "'");
    }
    const std::size_t n = static_cast<std::size_t>(rows * cols);
    c.need(n * sizeof(float), "payload");
    FloatVec values(n);
    std::memcpy(values.data(), c.data + c.offset, n * sizeof(float));
    c.offset += n * sizeof(float);
    staged.emplace_back(static_cast<std::size_t>(rows), static_cast<std::size_t>(cols),
                        std::move(values));
  }
  for (std::size_t i = 0; i < params.size(); ++i) params[i].set_value(std::move(staged[i]));
}

}  // namespace

std::vector<Tensor> snapshot_state(Module& module) {
  std::vector<Tensor> tensors;
  for (const auto& p : module.parameters()) tensors.push_back(p.value());
  for (const Tensor* b : module.buffers()) tensors.push_back(*b);
  return tensors;
}

void restore_state(Module& module, const std::vector<Tensor>& tensors) {
  auto params = module.parameters();
  auto bufs = module.buffers();
  if (tensors.size() != params.size() + bufs.size()) {
    throw std::runtime_error("restore_state: tensor count mismatch (snapshot " +
                             std::to_string(tensors.size()) + ", module " +
                             std::to_string(params.size() + bufs.size()) + ")");
  }
  for (std::size_t i = 0; i < params.size(); ++i) {
    const Tensor& t = tensors[i];
    if (t.rows() != params[i].value().rows() || t.cols() != params[i].value().cols()) {
      throw std::runtime_error("restore_state: parameter shape mismatch at index " +
                               std::to_string(i));
    }
  }
  for (std::size_t i = 0; i < bufs.size(); ++i) {
    const Tensor& t = tensors[params.size() + i];
    if (t.rows() != bufs[i]->rows() || t.cols() != bufs[i]->cols()) {
      throw std::runtime_error("restore_state: buffer shape mismatch at index " +
                               std::to_string(i));
    }
  }
  for (std::size_t i = 0; i < params.size(); ++i) params[i].set_value(tensors[i]);
  for (std::size_t i = 0; i < bufs.size(); ++i) *bufs[i] = tensors[params.size() + i];
}

void append_tensor_block(std::vector<std::uint8_t>& out, const std::vector<Tensor>& tensors) {
  put_u64(out, tensors.size());
  for (const Tensor& t : tensors) {
    put_u64(out, t.rows());
    put_u64(out, t.cols());
    for (std::size_t i = 0; i < t.size(); ++i) put_f32(out, t.data()[i]);
  }
}

std::vector<Tensor> parse_tensor_block(const std::uint8_t* data, std::size_t size,
                                       std::size_t& offset) {
  Cursor c{data, size, offset};
  const std::uint64_t count = c.u64("tensor count");
  if (count > kMaxElements) throw std::runtime_error("load_parameters: implausible tensor count");
  std::vector<Tensor> tensors;
  tensors.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::uint64_t rows = c.u64("rows");
    const std::uint64_t cols = c.u64("cols");
    if (rows > kMaxElements || cols > kMaxElements || rows * cols > kMaxElements) {
      throw std::runtime_error("load_parameters: implausible tensor shape");
    }
    const std::size_t n = static_cast<std::size_t>(rows * cols);
    c.need(n * 4, "tensor payload");
    FloatVec values(n);
    for (std::size_t k = 0; k < n; ++k) {
      const std::uint32_t bits = get_u32(c.data + c.offset + 4 * k);
      float v;
      std::memcpy(&v, &bits, sizeof(v));
      values[k] = v;
    }
    c.offset += n * 4;
    tensors.emplace_back(static_cast<std::size_t>(rows), static_cast<std::size_t>(cols),
                         std::move(values));
  }
  offset = c.offset;
  return tensors;
}

void save_parameters(Module& module, const std::string& path) {
  const auto params = module.parameters();
  const auto bufs = module.buffers();
  // Payload covers everything after the magic; the trailing CRC32 covers
  // exactly the payload bytes, mirroring the gtv::net frame discipline.
  std::vector<std::uint8_t> payload;
  put_u32(payload, kVersion);
  put_u64(payload, params.size());
  put_u64(payload, bufs.size());
  append_tensor_block(payload, snapshot_state(module));
  std::vector<std::uint8_t> bytes;
  bytes.reserve(payload.size() + 8);
  put_u32(bytes, kMagic);
  bytes.insert(bytes.end(), payload.begin(), payload.end());
  put_u32(bytes, obs::crc32(payload.data(), payload.size()));

  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("save_parameters: cannot open '" + path + "'");
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  if (!out) throw std::runtime_error("save_parameters: write failed for '" + path + "'");
}

void load_parameters(Module& module, const std::string& path) {
  const auto bytes = slurp(path, "load_parameters");
  if (bytes.size() < 4) throw std::runtime_error("load_parameters: truncated file '" + path + "'");
  // Legacy files wrote the magic in native byte order; this repo only ever
  // ran on little-endian hosts, so both magics decode as little-endian.
  const std::uint32_t magic = get_u32(bytes.data());
  if (magic == kLegacyMagic) {
    load_parameters_v1(module, bytes, path);
    return;
  }
  if (magic != kMagic) {
    throw std::runtime_error("load_parameters: bad magic in '" + path + "'");
  }
  if (bytes.size() < 4 + 4) throw std::runtime_error("load_parameters: truncated header");
  // Verify the trailing CRC before parsing anything else.
  if (bytes.size() < 4 + 4 + 16 + 8 + 4) {
    throw std::runtime_error("load_parameters: truncated file '" + path + "'");
  }
  const std::size_t payload_size = bytes.size() - 4 - 4;
  const std::uint32_t stored_crc = get_u32(bytes.data() + 4 + payload_size);
  const std::uint32_t actual_crc = obs::crc32(bytes.data() + 4, payload_size);
  if (stored_crc != actual_crc) {
    throw std::runtime_error("load_parameters: CRC mismatch in '" + path + "'");
  }

  Cursor c{bytes.data(), 4 + payload_size, 4};
  const std::uint32_t version = c.u32("version");
  if (version != kVersion) {
    throw std::runtime_error("load_parameters: unsupported version " + std::to_string(version) +
                             " in '" + path + "'");
  }
  const std::uint64_t n_params = c.u64("param count");
  const std::uint64_t n_buffers = c.u64("buffer count");
  std::size_t offset = c.offset;
  const auto tensors = parse_tensor_block(bytes.data(), 4 + payload_size, offset);
  if (offset != 4 + payload_size) {
    throw std::runtime_error("load_parameters: trailing bytes in '" + path + "'");
  }
  if (tensors.size() != n_params + n_buffers) {
    throw std::runtime_error("load_parameters: tensor count does not match header");
  }
  if (n_params != module.parameters().size() || n_buffers != module.buffers().size()) {
    throw std::runtime_error("load_parameters: parameter count mismatch (file " +
                             std::to_string(n_params) + "+" + std::to_string(n_buffers) +
                             ", module " + std::to_string(module.parameters().size()) + "+" +
                             std::to_string(module.buffers().size()) + ")");
  }
  restore_state(module, tensors);
}

}  // namespace gtv::nn
