#include "common/env.hpp"

#include <charconv>
#include <cstring>
#include <stdexcept>
#include <string>
#include <system_error>

namespace planaria::common {

std::optional<std::uint64_t> parse_env_uint(const char* name,
                                            const char* value,
                                            std::uint64_t lo,
                                            std::uint64_t hi) {
  if (value == nullptr || *value == '\0') return std::nullopt;
  const char* end = value + std::strlen(value);
  std::uint64_t v = 0;
  // from_chars takes digits only for an unsigned type: no sign, no
  // whitespace, and errc::result_out_of_range past 2^64-1.
  const auto [ptr, ec] = std::from_chars(value, end, v);
  if (ec != std::errc{} || ptr != end || v < lo || v > hi) {
    throw std::invalid_argument(std::string(name) + " must be an integer in [" +
                                std::to_string(lo) + ", " + std::to_string(hi) +
                                "], got \"" + value + "\"");
  }
  return v;
}

}  // namespace planaria::common
