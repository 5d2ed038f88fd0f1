// Page advice for large trace buffers and mappings.
//
// A 1M-record trace buffer is 8-24 MB. Faulted in one 4 KB page at a time
// it costs thousands of page faults on first write; asking the kernel for
// transparent huge pages lets the same memory arrive 2 MB at a time. A
// mapped trace file that is read once, front to back, need not stay
// resident behind the reader: its pages can be given back as it goes.
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

/// Drops the whole pages inside [data, data + bytes) from this process's
/// resident set with madvise(MADV_DONTNEED); the partial pages at either end
/// are kept, because they may hold bytes outside the range. Meant for
/// read-only file mappings, where a released page reads back from the file
/// on its next touch: on anonymous memory the pages would read back as
/// zeros. Ignores failure; a no-op off Linux.
void release_pages(const void* data, std::size_t bytes);

}  // namespace planaria::common
