#include "common/rng.hpp"

#include <cmath>

namespace planaria {

namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9E3779B97F4A7C15ull;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t x = seed;
  for (auto& word : s_) word = splitmix64(x);
  // xoshiro must not be seeded with the all-zero state.
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
}

int Rng::burst_length(double continue_p, int max_len) {
  PLANARIA_ASSERT(max_len >= 1);
  int len = 1;
  while (len < max_len && chance(continue_p)) ++len;
  return len;
}

std::uint64_t Rng::next_zipf(std::uint64_t n, double s) {
  return ZipfSampler(n, s)(*this);
}

ZipfSampler::ZipfSampler(std::uint64_t n, double s)
    : n_(n), log_form_(std::abs(s - 1.0) < 1e-9) {
  PLANARIA_ASSERT(n > 0);
  // Inverse-CDF over the continuous approximation of the generalized
  // harmonic number H(k) ~ (k^(1-s) - 1) / (1-s) for s != 1, ln(k) for s == 1.
  const auto nd = static_cast<double>(n);
  if (log_form_) {
    log_n_ = std::log(nd);
  } else {
    h_ = (std::pow(nd, 1.0 - s) - 1.0) / (1.0 - s);
    one_minus_s_ = 1.0 - s;
    inv_exponent_ = 1.0 / (1.0 - s);
  }
}

std::uint64_t ZipfSampler::operator()(Rng& rng) const {
  if (n_ == 1) return 0;
  const double u = rng.next_double();
  const double k = log_form_
                       ? std::exp(u * log_n_)
                       : std::pow(u * h_ * one_minus_s_ + 1.0, inv_exponent_);
  auto rank = static_cast<std::uint64_t>(k);
  if (rank >= n_) rank = n_ - 1;
  return rank;
}

}  // namespace planaria
