// The one parser for integer environment knobs (PLANARIA_RECORDS,
// PLANARIA_THREADS, PLANARIA_CHECKPOINT_EVERY).
//
// A knob is read once at start-up, so a typo must fail loudly there rather
// than run a different experiment: "-1" must not wrap to 2^64-1, an overflow
// must not saturate, and " 4" or "+4" are not numbers.
#pragma once

#include <cstdint>
#include <optional>

namespace planaria::common {

/// Parses `value`, the text of environment variable `name`, as a decimal
/// integer in [lo, hi]. A null or empty `value` (the variable is unset)
/// yields nullopt. Anything but ASCII digits (a sign, whitespace, a suffix),
/// a number past 2^64-1, or one outside [lo, hi] throws
/// std::invalid_argument naming `name`.
std::optional<std::uint64_t> parse_env_uint(const char* name,
                                            const char* value,
                                            std::uint64_t lo,
                                            std::uint64_t hi);

}  // namespace planaria::common
