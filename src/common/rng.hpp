// Deterministic random number generation for the synthetic trace generators.
//
// xoshiro256** (Blackman & Vigna) — small state, excellent statistical
// quality, and identical output on every platform, which keeps bench output
// reproducible run-to-run (std::mt19937's distributions are not guaranteed
// bit-identical across standard libraries, so we also ship our own
// distribution helpers).
#pragma once

#include <array>
#include <bit>
#include <cstdint>

#include "common/assert.hpp"

namespace planaria {

class Rng {
 public:
  /// Seeds the full 256-bit state from a 64-bit seed via splitmix64, per the
  /// xoshiro authors' recommendation.
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ull);

  // The draws below are inline: the trace generators call several per
  // record, and an out-of-line call costs more than the draw itself.

  /// Uniform 64-bit value.
  std::uint64_t next() {
    const std::uint64_t result = std::rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = std::rotl(s_[3], 45);
    return result;
  }

  /// Uniform integer in [0, bound). bound must be > 0.
  std::uint64_t next_below(std::uint64_t bound) {
    PLANARIA_ASSERT(bound > 0);
    // Lemire's multiply-shift rejection method: unbiased and fast.
    std::uint64_t x = next();
    __uint128_t m = static_cast<__uint128_t>(x) * bound;
    auto l = static_cast<std::uint64_t>(m);
    if (l < bound) {
      const std::uint64_t t = -bound % bound;
      while (l < t) {
        x = next();
        m = static_cast<__uint128_t>(x) * bound;
        l = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t next_range(std::int64_t lo, std::int64_t hi) {
    PLANARIA_ASSERT(lo <= hi);
    const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
    return lo + static_cast<std::int64_t>(next_below(span));
  }

  /// Uniform double in [0, 1).
  double next_double() {
    // 53 high bits -> uniform double in [0,1).
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

  /// Bernoulli trial.
  bool chance(double p) {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return next_double() < p;
  }

  /// Geometric-ish burst length: 1 + number of successes before failure.
  int burst_length(double continue_p, int max_len);

  /// Approximately Zipf-distributed rank in [0, n) with exponent s, via
  /// rejection-free inverse-CDF over a harmonic approximation. Deterministic
  /// and cheap; adequate for workload skew modelling. Same draws as
  /// ZipfSampler(n, s)(*this).
  std::uint64_t next_zipf(std::uint64_t n, double s);

  /// Raw 256-bit state, for checkpoint/restore: restoring state() into a
  /// fresh Rng continues the exact output sequence.
  std::array<std::uint64_t, 4> state() const { return {s_[0], s_[1], s_[2], s_[3]}; }
  void set_state(const std::array<std::uint64_t, 4>& s) {
    for (int i = 0; i < 4; ++i) s_[i] = s[i];
  }

 private:
  std::uint64_t s_[4];
};

/// Rng::next_zipf for one fixed (n, s), with the per-call constants (the
/// harmonic normalizer and the inverse exponent) computed once. Each draw
/// evaluates the same expressions on the same doubles as next_zipf, so the
/// ranks are bit-identical.
class ZipfSampler {
 public:
  ZipfSampler(std::uint64_t n, double s);

  std::uint64_t operator()(Rng& rng) const;

 private:
  std::uint64_t n_;
  bool log_form_;       ///< s == 1: H(k) ~ ln(k)
  double log_n_ = 0.0;  ///< ln(n), s == 1 only
  double h_ = 0.0;      ///< (n^(1-s) - 1) / (1-s)
  double one_minus_s_ = 0.0;
  double inv_exponent_ = 0.0;  ///< 1 / (1-s)
};

}  // namespace planaria
