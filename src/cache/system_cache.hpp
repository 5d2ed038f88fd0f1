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
  struct Line {
    std::uint64_t block = 0;
    bool valid = false;
    bool dirty = false;
    bool prefetched = false;  ///< filled by prefetch, not yet demand-used
    FillSource source = FillSource::kDemand;
  };

  std::uint32_t set_of(std::uint64_t block) const {
    // sets_ is validated to be a power of two; the mask replaces a 64-bit
    // division on the per-access path.
    return static_cast<std::uint32_t>(block & set_mask_);
  }
  Line* find(std::uint64_t block);
  const Line* find(std::uint64_t block) const;
  void track_pollution_eviction(std::uint64_t block);

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
  std::vector<Line> lines_;  ///< sets_ * ways, row-major by set
  // Tag column (SoA): tags_[slot] mirrors lines_[slot].block for valid
  // slots. A lookup scans the ways of one set — 16 consecutive u64s, two
  // cache lines — instead of hashing into an index sized 2x the line count;
  // the tag column for a 1MB slice is L2-resident, the hash cells were not.
  // Invalid slots keep a stale tag, so a tag match is confirmed against the
  // line's valid bit (false positives are possible, false negatives are not:
  // every valid line's tag is rewritten on fill).
  std::vector<std::uint64_t> tags_;
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
  // that was never used. Bounded FIFO + flat open-addressing membership set
  // (O(1) probe and update, no allocation once grown; the value is unused).
  // It grows lazily: pre-sizing to the cap would pin 512 KB per channel.
  static constexpr std::size_t kPollutionFilterCap = 1 << 14;
  common::BlockMap<std::uint8_t> pollution_set_;
  std::vector<std::uint64_t> pollution_fifo_;
  std::size_t pollution_head_ = 0;
};

}  // namespace planaria::cache
