// Set-associative system cache model (one per-channel slice).
//
// Table 1: 4MB 16-way total, 64B blocks, shared by all SoC agents. With the
// static segment-to-channel interleave each channel owns a 1MB slice, which
// is what one SystemCache instance models. Lines are keyed by channel-local
// block index (the same coordinate the DRAM controller uses).
//
// Prefetch accounting follows the standard definitions:
//   accuracy  = useful prefetches / issued prefetches
//   coverage  = useful prefetches / (useful prefetches + demand misses)
//   pollution = demand misses to blocks evicted by an unused prefetch fill
// A line filled by a prefetcher carries its source (SLP/TLP/baseline) so the
// Fig. 9 breakdown can attribute hits to the sub-prefetcher that earned them.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "cache/replacement.hpp"
#include "common/block_map.hpp"
#include "common/types.hpp"

namespace planaria::cache {

enum class FillSource : std::uint8_t {
  kDemand = 0,
  kPrefetchSlp,
  kPrefetchTlp,
  kPrefetchOther,
};

struct CacheConfig {
  std::uint64_t size_bytes = 1ull << 20;  ///< per-channel slice of the 4MB SC
  int ways = 16;
  int block_bytes = 64;
  ReplacementKind replacement = ReplacementKind::kLru;
  std::uint64_t seed = 1;

  std::uint32_t sets() const {
    return static_cast<std::uint32_t>(
        size_bytes / static_cast<std::uint64_t>(block_bytes) /
        static_cast<std::uint64_t>(ways));
  }

  /// Throws std::invalid_argument on non-power-of-two or zero geometry.
  void validate() const;
};

struct CacheStats {
  std::uint64_t demand_accesses = 0;
  std::uint64_t demand_hits = 0;
  std::uint64_t demand_misses = 0;
  std::uint64_t demand_hits_on_prefetch = 0;  ///< first-use hits on pf lines
  std::uint64_t hits_on_slp = 0;              ///< first-use hits per source
  std::uint64_t hits_on_tlp = 0;
  std::uint64_t hits_on_other_pf = 0;
  std::uint64_t prefetch_fills = 0;
  std::uint64_t prefetch_unused_evictions = 0;
  std::uint64_t pollution_misses = 0;
  std::uint64_t dirty_writebacks = 0;
  std::uint64_t write_hits = 0;
  std::uint64_t write_misses = 0;

  double hit_rate() const {
    return demand_accesses == 0
               ? 0.0
               : static_cast<double>(demand_hits) /
                     static_cast<double>(demand_accesses);
  }
  double prefetch_accuracy() const {
    return prefetch_fills == 0
               ? 0.0
               : static_cast<double>(demand_hits_on_prefetch) /
                     static_cast<double>(prefetch_fills);
  }
  double prefetch_coverage() const {
    const auto denom = demand_hits_on_prefetch + demand_misses;
    return denom == 0 ? 0.0
                      : static_cast<double>(demand_hits_on_prefetch) /
                            static_cast<double>(denom);
  }
};

struct AccessResult {
  bool hit = false;
  bool first_use_of_prefetch = false;  ///< hit consumed a prefetched line
  FillSource fill_source = FillSource::kDemand;  ///< who filled the hit line
  std::uint64_t writeback_block = 0;
  bool has_writeback = false;
};

class SystemCache {
 public:
  explicit SystemCache(const CacheConfig& config);

  /// Demand access. On a miss the caller is responsible for requesting the
  /// block from DRAM and calling fill() at completion time; reads do not
  /// allocate here. Write misses do not allocate (write-around), matching a
  /// memory-side SC that forwards write bursts to DRAM.
  AccessResult access(std::uint64_t block, AccessType type);

  /// Installs a block (demand fill at DRAM completion, or prefetch fill).
  /// Returns an evicted dirty block via the result when a writeback to DRAM
  /// is required. Filling an already-present block refreshes nothing and is
  /// counted as redundant.
  AccessResult fill(std::uint64_t block, FillSource source);

  bool contains(std::uint64_t block) const;

  /// True iff the block is cached and was filled by a still-unused prefetch.
  bool is_unused_prefetch(std::uint64_t block) const;

  const CacheStats& stats() const { return stats_; }
  const CacheConfig& config() const { return config_; }
  std::uint64_t redundant_prefetch_fills() const { return redundant_fills_; }

  /// Checkpoint/restore (DESIGN.md §11): tags/flags of every valid line, the
  /// replacement policy's recency state, all stats, and the pollution filter.
  /// The membership set is emitted in sorted order so the encoding is
  /// canonical (serialize -> deserialize -> serialize is byte-identical).
  void save_state(snapshot::Writer& w) const;
  void load_state(snapshot::Reader& r);

 private:
  // Line state, one byte per slot beside the tag column: valid, dirty,
  // prefetched (filled by a prefetch and not yet demand-used) and the 2-bit
  // FillSource of the fill.
  static constexpr std::uint8_t kValid = 1;
  static constexpr std::uint8_t kDirty = 2;
  static constexpr std::uint8_t kPrefetched = 4;
  static constexpr int kSourceShift = 3;
  static constexpr std::size_t kNoSlot = ~std::size_t{0};

  static FillSource source_of(std::uint8_t state) {
    return static_cast<FillSource>((state >> kSourceShift) & 3);
  }

  std::uint32_t set_of(std::uint64_t block) const {
    // sets_ is validated to be a power of two; the mask replaces a 64-bit
    // division on the per-access path.
    return static_cast<std::uint32_t>(block & set_mask_);
  }
  /// Slot holding `block`, or kNoSlot.
  std::size_t find(std::uint64_t block) const;
  void track_pollution_eviction(std::uint64_t block);
  bool pollution_contains(std::uint64_t block) const;
  void pollution_insert(std::uint16_t slot);
  void pollution_erase(std::uint64_t block);
  void pollution_rehash(std::size_t cells);

  // Static dispatch for the default policy (same trick as the simulator's
  // channel kernels): when the configured policy is LRU, lru_ aliases
  // policy_ and the per-access recency update inlines to a stamp store.
  void policy_on_hit(std::uint32_t set, int way) {
    if (lru_ != nullptr) {
      lru_->LruPolicy::on_hit(set, way);
    } else {
      policy_->on_hit(set, way);
    }
  }
  void policy_on_fill(std::uint32_t set, int way, bool prefetch) {
    if (lru_ != nullptr) {
      lru_->LruPolicy::on_fill(set, way, prefetch);
    } else {
      policy_->on_fill(set, way, prefetch);
    }
  }
  int policy_victim(std::uint32_t set) {
    return lru_ != nullptr ? lru_->LruPolicy::victim(set)
                           : policy_->victim(set);
  }

  CacheConfig config_;
  std::uint32_t sets_;
  std::uint64_t set_mask_ = 0;  ///< sets_ - 1 (power-of-two geometry)
  // Tag column (SoA), the only copy of each line's block: tags_[slot] for
  // the sets_ * ways slots, row-major by set. A lookup scans the ways of one
  // set — 16 consecutive u64s, two cache lines — and the column for a 1MB
  // slice is L2-resident. Invalid slots keep a stale tag, so a tag match is
  // confirmed against the slot's valid bit (false positives are possible,
  // false negatives are not: every valid line's tag is rewritten on fill).
  std::vector<std::uint64_t> tags_;
  std::vector<std::uint8_t> state_;  ///< packed line state, same slots
  // Valid lines per set: once a set is full (the steady state after warmup,
  // since lines are only invalidated wholesale by load_state) fill() goes
  // straight to the replacement victim instead of scanning the ways for a
  // free slot.
  std::vector<std::uint16_t> set_valid_;
  std::unique_ptr<ReplacementPolicy> policy_;
  LruPolicy* lru_ = nullptr;  ///< == policy_.get() iff the policy is LRU
  CacheStats stats_;
  std::uint64_t redundant_fills_ = 0;

  // Pollution filter: blocks recently evicted to make room for a prefetch
  // that was never used. A bounded FIFO plus a membership set. The set is an
  // open-addressing table (linear probing, backward-shift deletion) whose
  // cells hold FIFO slot indices: a cell's key is pollution_fifo_[cell], so
  // a full filter costs 2 bytes per cell rather than a copy of the block. A
  // cell always names a slot holding its member, because overwriting a slot
  // first erases that slot's block from the set. It grows lazily from
  // kMinPollutionCells, at most half full.
  static constexpr std::size_t kPollutionFilterCap = 1 << 14;
  static constexpr std::uint16_t kEmptyCell = 0xFFFF;
  static constexpr std::size_t kMinPollutionCells = 16;
  static_assert(kPollutionFilterCap < kEmptyCell,
                "FIFO slot indices must fit a cell beside the empty marker");
  std::vector<std::uint16_t> pollution_cells_;
  std::size_t pollution_members_ = 0;
  std::vector<std::uint64_t> pollution_fifo_;
  std::size_t pollution_head_ = 0;
};

}  // namespace planaria::cache
