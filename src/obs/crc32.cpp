#include "obs/crc32.h"

#include <array>

namespace gtv::obs {

namespace {

constexpr std::array<std::uint32_t, 256> make_crc_table() {
  std::array<std::uint32_t, 256> t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1u) ? 0xedb88320u ^ (c >> 1) : c >> 1;
    t[i] = c;
  }
  return t;
}

constexpr std::array<std::uint32_t, 256> kCrcTable = make_crc_table();

}  // namespace

std::uint32_t crc32_update(std::uint32_t crc, const std::uint8_t* data, std::size_t len) {
  std::uint32_t c = crc ^ 0xffffffffu;
  for (std::size_t i = 0; i < len; ++i) c = kCrcTable[(c ^ data[i]) & 0xffu] ^ (c >> 8);
  return c ^ 0xffffffffu;
}

}  // namespace gtv::obs
