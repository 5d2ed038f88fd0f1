#include "common/env.hpp"

#include <charconv>
#include <stdexcept>
#include <string>
#include <system_error>

namespace planaria::common {

std::optional<std::uint64_t> parse_uint(std::string_view text, int base) {
  const char* const end = text.data() + text.size();
  std::uint64_t v = 0;
  // from_chars takes digits only for an unsigned type: no sign, no
  // whitespace, no base prefix, and errc::result_out_of_range past 2^64-1.
  const auto [ptr, ec] = std::from_chars(text.data(), end, v, base);
  if (text.empty() || ec != std::errc{} || ptr != end) return std::nullopt;
  return v;
}

std::optional<std::uint64_t> parse_env_uint(const char* name,
                                            const char* value,
                                            std::uint64_t lo,
                                            std::uint64_t hi) {
  if (value == nullptr || *value == '\0') return std::nullopt;
  const std::optional<std::uint64_t> v = parse_uint(value);
  if (!v || *v < lo || *v > hi) {
    throw std::invalid_argument(std::string(name) + " must be an integer in [" +
                                std::to_string(lo) + ", " + std::to_string(hi) +
                                "], got \"" + value + "\"");
  }
  return v;
}

}  // namespace planaria::common
