// Bitwise CRC-32 (IEEE 802.3, reflected): one bit per step, no tables. The
// test oracle for the library's folded and slice-by-8 paths and for
// recomputing PLTB payload CRCs, deliberately sharing no code with either.
#pragma once

#include <cstddef>
#include <cstdint>

/// Advances the raw (pre-final-XOR) CRC register over one byte.
inline std::uint32_t reference_crc32_step(std::uint32_t crc, char byte) {
  crc ^= static_cast<std::uint8_t>(byte);
  for (int k = 0; k < 8; ++k) {
    crc = (crc & 1u) != 0 ? 0xEDB88320u ^ (crc >> 1) : crc >> 1;
  }
  return crc;
}

inline std::uint32_t reference_crc32(const char* data, std::size_t len) {
  std::uint32_t crc = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < len; ++i) crc = reference_crc32_step(crc, data[i]);
  return crc ^ 0xFFFFFFFFu;
}
