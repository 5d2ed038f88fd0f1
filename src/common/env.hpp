// The one parser for unsigned integer text: integer environment knobs
// (PLANARIA_RECORDS, PLANARIA_THREADS, PLANARIA_CHECKPOINT_EVERY,
// PLANARIA_BENCH_THREADS), command-line counts, and the numeric fields of the
// text trace readers.
//
// A knob is read once at start-up, so a typo must fail loudly there rather
// than run a different experiment: "-1" must not wrap to 2^64-1, an overflow
// must not saturate, and " 4", "+4" or "4x" are not numbers. A trace field
// gets the same rule, so a damaged row is a counted defect, never a
// silently different record.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>

namespace planaria::common {

/// Parses all of `text` as an unsigned integer in `base` (2..36): digits of
/// that base only, no sign, whitespace, "0x" prefix or suffix, and at most
/// 2^64-1. Empty or anything else yields nullopt.
std::optional<std::uint64_t> parse_uint(std::string_view text, int base = 10);

/// Parses `value`, the text of environment variable (or option) `name`, as a
/// decimal integer in [lo, hi] through parse_uint. A null or empty `value`
/// (the variable is unset) yields nullopt. Anything parse_uint rejects, or a
/// number outside [lo, hi], throws std::invalid_argument naming `name`.
std::optional<std::uint64_t> parse_env_uint(const char* name,
                                            const char* value,
                                            std::uint64_t lo,
                                            std::uint64_t hi);

}  // namespace planaria::common
