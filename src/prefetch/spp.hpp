// Signature Path Prefetcher (Kim et al., MICRO 2016), adapted to the memory
// side.
//
// SPP compresses the recent delta history of each page into a 12-bit
// signature, learns "signature -> next delta" transitions with confidence
// counters, and walks the learned path speculatively (lookahead), issuing
// prefetches while the multiplicative path confidence stays above threshold.
// A small Global History Register carries a signature across page boundaries
// so a brand-new page can start prefetching immediately.
//
// SPP is PC-free by design (signatures are per-page, not per-instruction),
// which is why the paper selects it as the stronger baseline for the SC. Its
// weakness there is the same one Observation 1 documents: the intra-page
// *order* of footprint blocks is shuffled by the higher cache levels, so the
// delta sequence is unstable and path confidence decays, costing coverage —
// SPP helps (AMAT -10.8% in the paper's motivation) but leaves most of the
// opportunity on the table.
//
// In this per-channel instantiation a "page" is the channel's 16-block
// segment of a 4KB page, so deltas span [-15, +15].
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/tag_index.hpp"
#include "prefetch/prefetcher.hpp"

namespace planaria::prefetch {

/// SPP's signature table (ST): page -> (signature, last offset), fully
/// associative, replaced LRU. The victim is the first invalid slot in slot
/// order, else the least recently used entry.
///
/// Every operation is O(1). A TagIndex maps page -> slot, and an intrusive
/// recency list over the slots runs victim first: invalid slots in
/// ascending slot order, then valid slots from least to most recent, so
/// the victim is always the list head. The per-slot stamps exist for the
/// snapshot (tick, live count, then slot, page, stamp, signature and offset
/// per valid slot in slot order); load_state rebuilds the list from them.
class SignatureTable {
 public:
  struct Entry {
    std::uint16_t signature = 0;
    int last_offset = 0;
  };

  explicit SignatureTable(std::size_t capacity);

  std::size_t capacity() const { return keys_.size(); }
  std::size_t size() const { return live_; }

  /// Looks up `page` and makes it the most recent entry; nullptr on a miss.
  Entry* find(PageNumber page);
  /// Lookup that leaves recency alone.
  const Entry* peek(PageNumber page) const;
  /// Inserts or overwrites `page` as the most recent entry. Returns the
  /// page it evicted, if the victim slot was valid.
  std::optional<PageNumber> insert(PageNumber page, const Entry& entry);

  void save_state(snapshot::Writer& w) const;
  /// Rejects, through SnapshotError, a live count over capacity, slot
  /// indices out of range or not ascending, a page resident twice, and a
  /// stamp ahead of the table tick.
  void load_state(snapshot::Reader& r);

 private:
  static constexpr std::uint32_t kNil = 0xFFFFFFFFu;

  /// Moves slot `s` to the most recent end of the list.
  void touch(std::uint32_t s);

  std::vector<PageNumber> keys_;
  std::vector<Entry> entries_;
  std::vector<std::uint64_t> last_use_;  ///< stamp of the slot's last touch
  std::vector<std::uint8_t> valid_;
  std::vector<std::uint32_t> prev_;  ///< recency link toward head_
  std::vector<std::uint32_t> next_;  ///< recency link toward tail_
  std::uint32_t head_ = kNil;        ///< the victim
  std::uint32_t tail_ = kNil;        ///< most recently used
  TagIndex index_;
  std::uint64_t tick_ = 0;
  std::size_t live_ = 0;
};

struct SppConfig {
  int st_entries = 256;         ///< signature table (page -> sig, last offset)
  int pt_entries = 1024;         ///< pattern table (sig -> delta candidates)
  int deltas_per_entry = 4;
  int counter_max = 15;         ///< 4-bit saturating confidence counters
  double fill_threshold = 0.30; ///< issue while path confidence >= this
  int max_lookahead = 6;        ///< cap on speculative path depth
  double global_accuracy = 0.9; ///< per-step path-confidence damping
  int ghr_entries = 8;

  void validate() const;
};

class SignaturePathPrefetcher final : public Prefetcher {
 public:
  explicit SignaturePathPrefetcher(const SppConfig& config = {});

  void on_demand(const DemandEvent& event,
                 std::vector<PrefetchRequest>& out) override;

  const char* name() const override { return "spp"; }
  std::uint64_t storage_bits() const override;

  void save_state(snapshot::Writer& w) const override;
  void load_state(snapshot::Reader& r) override;

 private:
  struct DeltaSlot {
    int delta = 0;
    int counter = 0;
  };

  /// A pattern-table entry; its delta slots are the `used` first of its
  /// deltas_per_entry-wide row in pt_slots_.
  struct PtEntry {
    int sig_counter = 0;
    int used = 0;
  };

  struct GhrEntry {
    std::uint16_t signature = 0;
    double confidence = 0.0;
    int last_offset = 0;
    int delta = 0;
    bool valid = false;
  };

  static std::uint16_t fold(std::uint16_t sig, int delta) {
    const auto d = static_cast<std::uint16_t>(delta & 0x3F);
    return static_cast<std::uint16_t>(((sig << 3) ^ d) & 0xFFF);
  }

  std::size_t pattern(std::uint16_t sig) const { return sig % pt_.size(); }
  DeltaSlot* slots_of(std::size_t entry) {
    return pt_slots_.data() + entry * per_entry_;
  }
  const DeltaSlot* slots_of(std::size_t entry) const {
    return pt_slots_.data() + entry * per_entry_;
  }

  void learn(std::uint16_t sig, int delta);

  SppConfig config_;
  SignatureTable st_;
  std::vector<PtEntry> pt_;
  std::size_t per_entry_;            ///< deltas_per_entry
  std::vector<DeltaSlot> pt_slots_;  ///< pt_entries x deltas_per_entry
  std::vector<GhrEntry> ghr_;
  std::size_t ghr_next_ = 0;
};

}  // namespace planaria::prefetch
