// CRC-32 (IEEE 802.3 polynomial 0xEDB88320, reflected, init and final XOR
// 0xFFFFFFFF) — the one checksum every on-disk format in the tree uses: the
// PLNSNAP1 snapshot envelope (and the checkpoint and serve envelopes built on
// it) and the PLTB trace container.
//
// Slice-by-8: eight 256-entry tables, so the main loop folds eight input
// bytes per iteration with eight independent table loads instead of eight
// dependent ones. The byte-at-a-time routine it replaces ran at ~300 MB/s,
// which made the PLTB write+map checksum cost more than generating the trace.
// The values are identical to the classic table routine by construction
// (tables_[0] IS that routine's table).
//
// Header-only on purpose: both the snapshot codec and the trace layer call
// it, and the snapshot library sits below planaria_common in the link order.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>

namespace planaria::common {

/// Running CRC-32 over a byte sequence delivered in pieces. Feeding a buffer
/// through any sequence of update() calls yields the one-shot crc32() value.
class Crc32 {
 public:
  Crc32& update(const void* data, std::size_t size) {
    const auto* p = static_cast<const std::uint8_t*>(data);
    std::uint32_t c = state_;
    // Little-endian word loads, as every supported target is (the on-disk
    // formats assume the same).
    for (; size >= 8; p += 8, size -= 8) {
      std::uint32_t lo = 0;
      std::uint32_t hi = 0;
      std::memcpy(&lo, p, 4);
      std::memcpy(&hi, p + 4, 4);
      lo ^= c;
      c = kTables[7][lo & 0xFFu] ^ kTables[6][(lo >> 8) & 0xFFu] ^
          kTables[5][(lo >> 16) & 0xFFu] ^ kTables[4][lo >> 24] ^
          kTables[3][hi & 0xFFu] ^ kTables[2][(hi >> 8) & 0xFFu] ^
          kTables[1][(hi >> 16) & 0xFFu] ^ kTables[0][hi >> 24];
    }
    for (; size > 0; ++p, --size) {
      c = kTables[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
    }
    state_ = c;
    return *this;
  }

  std::uint32_t value() const { return state_ ^ 0xFFFFFFFFu; }

 private:
  using Tables = std::array<std::array<std::uint32_t, 256>, 8>;

  // kTables[0] is the byte-at-a-time table; kTables[k][b] is the CRC of byte
  // b followed by k zero bytes, which is what lets eight bytes fold at once.
  static constexpr Tables kTables = [] {
    Tables t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[0][i] = c;
    }
    for (std::size_t k = 1; k < 8; ++k) {
      for (std::size_t i = 0; i < 256; ++i) {
        t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
      }
    }
    return t;
  }();

  std::uint32_t state_ = 0xFFFFFFFFu;
};

/// One-shot CRC-32 over `size` bytes (`data` may be null when size is 0).
inline std::uint32_t crc32(const void* data, std::size_t size) {
  return Crc32().update(data, size).value();
}

}  // namespace planaria::common
