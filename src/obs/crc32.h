// gtv::obs — the one CRC-32 (IEEE 802.3 polynomial, reflected) behind
// every checksum GTV writes: transport frames, GTVK/GTVQ/GTVP/GTVT
// containers and flight-recorder rings.
//
// It lives in gtv_obs, the bottom of the library graph, so the recorder can
// use it without a dependency cycle. The lookup table is built at compile
// time, so the recorder's signal handlers never reach a lazy-init path.
#pragma once

#include <cstddef>
#include <cstdint>

namespace gtv::obs {

// Extends `crc` (a finished CRC-32, 0 for an empty prefix) over `len` more
// bytes, so crc32_update(crc32(a), b) == crc32(a + b). Byte-at-a-time
// table lookup; async-signal-safe.
std::uint32_t crc32_update(std::uint32_t crc, const std::uint8_t* data, std::size_t len);

inline std::uint32_t crc32(const std::uint8_t* data, std::size_t len) {
  return crc32_update(0, data, len);
}

}  // namespace gtv::obs
