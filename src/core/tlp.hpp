// TLP — the Transfer-Learning directed Prefetcher (paper Section 4).
//
// Exploits Observation 2: pages close in address space often share similar
// footprints (array-of-struct tilings, framebuffer rows, adjacent file
// pages). A page with no self-learned history "borrows" the footprint of its
// most similar nearby page.
//
// The single structure is the Recent Page Table (RPT), 128 fully-associative
// entries, each holding the page's 16-bit recent-access bitmap plus a row of
// 1-bit "Ref" flags — Ref[i][j] = 1 iff entries i and j are within the
// page-number distance threshold. The paper's prose states the inverted
// comparison ("larger than a threshold ... set as 1") but Figure 6 and the
// worked 0x100/0x110 example are unambiguous that *near* pages reference each
// other; we follow the figure (see DESIGN.md). The Ref matrix is maintained
// incrementally on allocation/eviction, exactly as cheap hardware would: the
// evicted page's column is retired through its own (symmetric) row and the
// new page's column is set only in its neighbours' rows, so the rewiring
// costs one distance pass plus O(neighbours) bit writes. Replacement is LRU
// over an intrusive recency list, so picking the victim is O(1).
//
// Issuing: among referenced entries whose bitmap shares at least
// `min_common_bits` set bits with the trigger page's bitmap (the example's
// "four same bits"), the most similar wins, and every block set in the
// neighbor's bitmap but not yet touched on the trigger page is prefetched.
#pragma once

#include <cstdint>
#include <vector>

#include "common/bitmap.hpp"
#include "common/tag_index.hpp"
#include "prefetch/prefetcher.hpp"

namespace planaria::core {

struct TlpConfig {
  int rpt_entries = 128;
  std::uint64_t distance_threshold = 64;  ///< |PN_i - PN_j| <= this => neighbors
  int min_common_bits = 4;                ///< similarity floor for transfer

  void validate() const;
};

struct TlpStats {
  std::uint64_t allocations = 0;
  std::uint64_t issue_triggers = 0;    ///< misses TLP was asked to handle
  std::uint64_t transfers = 0;         ///< a qualifying neighbor was found
  std::uint64_t prefetches_issued = 0;
};

class Tlp {
 public:
  explicit Tlp(const TlpConfig& config = {});

  /// Learning phase: records the access in the page's RPT bitmap, allocating
  /// (and wiring Ref bits) on first sight. Runs on every demand access.
  void learn(const prefetch::DemandEvent& event);

  /// Issuing phase: on a demand miss, transfer the best qualifying neighbor
  /// pattern. Returns true iff any prefetch was appended.
  bool issue(const prefetch::DemandEvent& event,
             std::vector<prefetch::PrefetchRequest>& out);

  std::uint64_t storage_bits() const;
  const TlpStats& stats() const { return stats_; }
  const TlpConfig& config() const { return config_; }

  /// Test hook: the bitmap currently recorded for `page`, if resident.
  const SegmentBitmap* bitmap_of(PageNumber page) const;

  /// Attaches a fault injector (src/fault): each learn() call may flip one
  /// recent-access bitmap bit in a random resident RPT entry. Ref bits are
  /// deliberately out of scope — the Ref matrix has its own consistency
  /// DASSERT and repairing it would require a full rebuild, not a local
  /// recovery. nullptr (the default) disables injection.
  void set_fault_injector(fault::FaultInjector* injector) { fault_ = injector; }

  /// Checkpoint/restore (DESIGN.md §11): every RPT slot (bitmap, Ref row,
  /// LRU stamp), the LRU tick and stats. Slot indices are part of the
  /// encoding because the Ref matrix is slot-addressed. load_state throws
  /// SnapshotError on an RPT no allocation sequence could produce: a page
  /// resident in two slots, an LRU stamp ahead of the tick, or a Ref bit that
  /// disagrees with the page distances. The recency list is not encoded; it
  /// is rebuilt from the stamps.
  void save_state(snapshot::Writer& w) const;
  void load_state(snapshot::Reader& r);

 private:
  // The RPT is stored as parallel columns rather than an array of structs:
  // allocate() scans every slot's valid flag and page number (Ref wiring) on
  // each allocation, and issue() walks valid flags and bitmaps. Splitting the
  // fields keeps each of those scans inside a handful of contiguous cache
  // lines; the snapshot encoding is per-slot logical fields, so the layout
  // is invisible to PLNSNAP1 streams.
  std::size_t slot_count() const { return pages_.size(); }

  // Recency list: an intrusive doubly linked list over the slots, head_ most
  // recently used, tail_ the victim. prev_ links toward the head, next_
  // toward the tail. Invalid slots sit at the tail end in ascending slot
  // order, so the tail is always what the linear rule picks: the first
  // invalid slot, else the lowest-index minimum last_use_. The list is
  // derived from valid_/last_use_ and rebuilt by load_state.
  static constexpr std::uint16_t kNil = 0xFFFF;
  void touch(std::size_t slot);
  void rebuild_recency();

  // The Ref matrix lives outside the entries in one flat bit matrix: row i
  // occupies ref_[i*ref_words_ .. (i+1)*ref_words_), one bit per slot packed
  // 64 slots per word (slot j -> word j/64 bit j%64). Allocation writes the
  // victim's row whole and touches only the rows whose column bit changes,
  // all inside one contiguous couple of KB. Bits >= rpt_entries stay zero.
  // The snapshot encoding (8 slots per byte) is exactly these words'
  // little-endian bytes, so the packed representation serializes
  // byte-identically to the old per-entry vector<bool>.
  bool ref_get(std::size_t i, std::size_t j) const {
    return ((ref_[i * ref_words_ + j / 64] >> (j % 64)) & 1u) != 0;
  }

  int find_slot(PageNumber page) const;
  int allocate(PageNumber page);
  void maybe_inject_fault();

  /// Debug-only structural check: the Ref matrix is symmetric, irreflexive,
  /// and only links valid entries. O(N^2); used under PLANARIA_DASSERT.
  bool ref_matrix_consistent() const;

  TlpConfig config_;
  std::vector<PageNumber> pages_;        ///< per-slot page tag
  std::vector<SegmentBitmap> bitmaps_;   ///< per-slot recent-access bitmap
  std::vector<std::uint64_t> last_use_;  ///< per-slot LRU stamp
  std::vector<std::uint8_t> valid_;      ///< per-slot occupancy flag
  std::size_t ref_words_ = 1;        ///< 64-bit words per Ref row
  std::vector<std::uint64_t> ref_;   ///< flat N x ref_words_ bit matrix
  std::vector<std::uint16_t> prev_;  ///< recency link toward head_
  std::vector<std::uint16_t> next_;  ///< recency link toward tail_
  std::uint16_t head_ = kNil;        ///< most recently used slot
  std::uint16_t tail_ = kNil;        ///< LRU victim
  // Every allocation erases one page from the index and inserts another. At
  // the default 1/2 load the probe loops' exits mispredict often enough to
  // cost about as much as the Ref row pass; 1/8 load (16 KiB at 128 entries)
  // cuts that to about a quarter.
  static constexpr std::size_t kPageIndexCellsPerEntry = 8;
  TagIndex page_index_;  ///< page -> RPT slot, shadowing the valid entries
  std::uint64_t tick_ = 0;
  TlpStats stats_;
  fault::FaultInjector* fault_ = nullptr;
};

}  // namespace planaria::core
