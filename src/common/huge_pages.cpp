#include "common/huge_pages.hpp"

#include <cstdint>

#if defined(__linux__)
#include <sys/mman.h>
#include <unistd.h>
#endif

namespace planaria::common {

void advise_huge_pages(const void* data, std::size_t bytes) {
#if defined(__linux__) && defined(MADV_HUGEPAGE)
  if (data == nullptr || bytes < kHugePageAdviceMinBytes) return;
  constexpr std::uintptr_t kHugePage = std::uintptr_t{2} << 20;
  const auto begin = reinterpret_cast<std::uintptr_t>(data);
  const std::uintptr_t first = (begin + kHugePage - 1) & ~(kHugePage - 1);
  const std::uintptr_t last = (begin + bytes) & ~(kHugePage - 1);
  if (last <= first) return;
  // Only the aligned interior: the unaligned ends share pages with other
  // allocations, which this buffer must not change the policy of.
  (void)::madvise(reinterpret_cast<void*>(first), last - first, MADV_HUGEPAGE);
#else
  (void)data;
  (void)bytes;
#endif
}

void release_pages(const void* data, std::size_t bytes) {
#if defined(__linux__) && defined(MADV_DONTNEED)
  static const long page_size = ::sysconf(_SC_PAGESIZE);
  if (data == nullptr || page_size <= 0) return;
  const auto page = static_cast<std::uintptr_t>(page_size);
  const auto begin = reinterpret_cast<std::uintptr_t>(data);
  const std::uintptr_t first = (begin + page - 1) & ~(page - 1);
  const std::uintptr_t last = (begin + bytes) & ~(page - 1);
  if (last <= first) return;
  (void)::madvise(reinterpret_cast<void*>(first), last - first, MADV_DONTNEED);
#else
  (void)data;
  (void)bytes;
#endif
}

}  // namespace planaria::common
