// CRC-32 (IEEE 802.3 polynomial 0xEDB88320, reflected, init and final XOR
// 0xFFFFFFFF) — the one checksum every on-disk format in the tree uses: the
// PLNSNAP1 snapshot envelope (and the checkpoint and serve envelopes built on
// it) and the PLTB trace container.
//
// Two paths behind the one entry point, Crc32::update:
//
//  - Folded (x86-64 with PCLMULQDQ, picked once per process): the 16-byte
//    aligned-length bulk of any buffer of 64+ bytes is folded four 128-bit
//    lanes wide by carry-less multiplication, reduced to 128 and then 64
//    bits, and Barrett-reduced to the 32-bit register (DESIGN.md §19 derives
//    the constants). The remaining 0..15 bytes go through slice-by-8.
//  - Portable (every other CPU and target, and every tail): slice-by-8,
//    eight 256-entry tables, so the loop folds eight input bytes per
//    iteration with eight independent table loads.
//
// Both paths advance the same raw (pre-final-XOR) register, so any mix of
// them over any split of the input yields the classic table routine's value.
//
// Header-only on purpose: both the snapshot codec and the trace layer call
// it, and the snapshot library sits below planaria_common in the link order.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace planaria::common {

namespace detail {

using Crc32Tables = std::array<std::array<std::uint32_t, 256>, 8>;

// kCrc32Tables[0] is the byte-at-a-time table; kCrc32Tables[k][b] is the CRC
// of byte b followed by k zero bytes, which is what lets eight bytes fold at
// once.
inline constexpr Crc32Tables kCrc32Tables = [] {
  Crc32Tables t{};
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

/// Portable path: advances the raw register `c` over `size` bytes.
inline std::uint32_t crc32_portable(std::uint32_t c, const std::uint8_t* p,
                                    std::size_t size) {
  const auto& t = kCrc32Tables;
  // Little-endian word loads, as every supported target is (the on-disk
  // formats assume the same).
  for (; size >= 8; p += 8, size -= 8) {
    std::uint32_t lo = 0;
    std::uint32_t hi = 0;
    std::memcpy(&lo, p, 4);
    std::memcpy(&hi, p + 4, 4);
    lo ^= c;
    c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^ t[5][(lo >> 16) & 0xFFu] ^
        t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^ t[2][(hi >> 8) & 0xFFu] ^
        t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; size > 0; ++p, --size) {
    c = t[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
  }
  return c;
}

#if defined(__x86_64__)
/// One fold step: carries 128 bits of remainder `x` forward over the
/// distance the constant pair `k` encodes and adds the next 16 bytes `data`.
__attribute__((target("pclmul"))) inline __m128i crc32_fold16(__m128i x,
                                                              __m128i k,
                                                              __m128i data) {
  return _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(x, k, 0x00),
                                     _mm_clmulepi64_si128(x, k, 0x11)),
                       data);
}

/// Carry-less-multiply fold of `size` bytes (size >= 64, size % 16 == 0)
/// into the raw register `c`. With P = 0x104C11DB7, each fold constant is
/// reflect64((x^n mod P) << 32) << 1: n = 4*128 + 32 and 4*128 - 32 (k1, k2)
/// carry a lane across 512 bits, 128 + 32 and 128 - 32 (k3, k4) across 128
/// bits, and 64 (k5) takes 96 bits to 64. The Barrett pair is P and
/// mu = floor(x^64 / P), each bit-reflected over 33 bits.
__attribute__((target("pclmul"))) inline std::uint32_t crc32_fold(
    std::uint32_t c, const std::uint8_t* p, std::size_t size) {
  const auto load = [](const std::uint8_t* q) {
    return _mm_loadu_si128(reinterpret_cast<const __m128i*>(q));
  };
  const __m128i k1k2 = _mm_set_epi64x(0x1c6e41596, 0x154442bd4);
  const __m128i k3k4 = _mm_set_epi64x(0x0ccaa009e, 0x1751997d0);
  const __m128i k5 = _mm_set_epi64x(0, 0x163cd6124);
  const __m128i poly_mu = _mm_set_epi64x(0x1f7011641, 0x1db710641);
  const __m128i low32 = _mm_setr_epi32(-1, 0, -1, 0);

  // Four lanes of 16 bytes each; the running register enters in the first.
  __m128i x0 = _mm_xor_si128(load(p), _mm_cvtsi32_si128(static_cast<int>(c)));
  __m128i x1 = load(p + 16);
  __m128i x2 = load(p + 32);
  __m128i x3 = load(p + 48);
  p += 64;
  size -= 64;
  for (; size >= 64; p += 64, size -= 64) {
    x0 = crc32_fold16(x0, k1k2, load(p));
    x1 = crc32_fold16(x1, k1k2, load(p + 16));
    x2 = crc32_fold16(x2, k1k2, load(p + 32));
    x3 = crc32_fold16(x3, k1k2, load(p + 48));
  }

  // Four lanes into one, then any remaining 16-byte blocks.
  x0 = crc32_fold16(x0, k3k4, x1);
  x0 = crc32_fold16(x0, k3k4, x2);
  x0 = crc32_fold16(x0, k3k4, x3);
  for (; size >= 16; p += 16, size -= 16) {
    x0 = crc32_fold16(x0, k3k4, load(p));
  }

  // 128 -> 96 bits (low half times k4), then 96 -> 64 bits (low word by k5).
  x0 = _mm_xor_si128(_mm_srli_si128(x0, 8),
                     _mm_clmulepi64_si128(x0, k3k4, 0x10));
  x0 = _mm_xor_si128(_mm_srli_si128(x0, 4),
                     _mm_clmulepi64_si128(_mm_and_si128(x0, low32), k5, 0x00));

  // Barrett: q = (low word * mu) mod x^32, remainder = x0 ^ q * P.
  __m128i q = _mm_clmulepi64_si128(_mm_and_si128(x0, low32), poly_mu, 0x10);
  q = _mm_clmulepi64_si128(_mm_and_si128(q, low32), poly_mu, 0x00);
  x0 = _mm_xor_si128(x0, q);
  return static_cast<std::uint32_t>(_mm_cvtsi128_si32(_mm_srli_si128(x0, 4)));
}
#endif

/// True when this CPU runs the folded path. Probed once per process.
inline bool crc32_folded_available() {
#if defined(__x86_64__)
  static const bool kAvailable = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("pclmul") != 0;
  }();
  return kAvailable;
#else
  return false;
#endif
}

/// Folded path: the 16-byte-multiple bulk of a 64+ byte buffer by
/// carry-less multiply, the rest by slice-by-8. Callers must have checked
/// crc32_folded_available(); on other targets this is the portable path.
inline std::uint32_t crc32_folded(std::uint32_t c, const std::uint8_t* p,
                                  std::size_t size) {
#if defined(__x86_64__)
  if (size >= 64) {
    const std::size_t bulk = size & ~std::size_t{15};
    c = crc32_fold(c, p, bulk);
    p += bulk;
    size -= bulk;
  }
#endif
  return crc32_portable(c, p, size);
}

}  // namespace detail

/// Running CRC-32 over a byte sequence delivered in pieces. Feeding a buffer
/// through any sequence of update() calls yields the one-shot crc32() value.
class Crc32 {
 public:
  Crc32& update(const void* data, std::size_t size) {
    const auto* p = static_cast<const std::uint8_t*>(data);
    state_ = detail::crc32_folded_available()
                 ? detail::crc32_folded(state_, p, size)
                 : detail::crc32_portable(state_, p, size);
    return *this;
  }

  std::uint32_t value() const { return state_ ^ 0xFFFFFFFFu; }

 private:
  std::uint32_t state_ = 0xFFFFFFFFu;
};

/// One-shot CRC-32 over `size` bytes (`data` may be null when size is 0).
inline std::uint32_t crc32(const void* data, std::size_t size) {
  return Crc32().update(data, size).value();
}

}  // namespace planaria::common
