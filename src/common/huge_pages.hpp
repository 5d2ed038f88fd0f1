// First-touch advice for large trace buffers.
//
// A 1M-record trace buffer is 8-24 MB. Faulted in one 4 KB page at a time
// it costs thousands of page faults on first write; asking the kernel for
// transparent huge pages lets the same memory arrive 2 MB at a time.
#pragma once

#include <cstddef>

namespace planaria::common {

/// Buffers smaller than this are left alone: the advice buys nothing until a
/// buffer spans at least one whole 2 MB page plus its unaligned ends.
inline constexpr std::size_t kHugePageAdviceMinBytes = std::size_t{4} << 20;

/// Advises MADV_HUGEPAGE on the 2 MB-aligned interior of [data, data + bytes)
/// when bytes >= kHugePageAdviceMinBytes. Call it after allocating and before
/// the first write. Advice only: it touches no memory, changes no machine
/// setting, ignores failure, and is a no-op where transparent huge pages are
/// off or unsupported. Never changes a buffer's contents.
void advise_huge_pages(const void* data, std::size_t bytes);

}  // namespace planaria::common
