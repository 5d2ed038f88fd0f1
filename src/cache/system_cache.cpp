#include "cache/system_cache.hpp"

#include <algorithm>
#include <functional>
#include <stdexcept>

#include "check/contract.hpp"
#include "common/assert.hpp"

namespace planaria::cache {

void CacheConfig::validate() const {
  if (size_bytes == 0 || ways <= 0 || block_bytes <= 0) {
    throw std::invalid_argument("cache config: geometry must be positive");
  }
  if ((size_bytes & (size_bytes - 1)) != 0 ||
      (static_cast<std::uint64_t>(block_bytes) &
       (static_cast<std::uint64_t>(block_bytes) - 1)) != 0) {
    throw std::invalid_argument("cache config: size and block must be powers of two");
  }
  const std::uint64_t lines = size_bytes / static_cast<std::uint64_t>(block_bytes);
  if (lines % static_cast<std::uint64_t>(ways) != 0) {
    throw std::invalid_argument("cache config: ways must divide line count");
  }
  if ((sets() & (sets() - 1)) != 0) {
    throw std::invalid_argument("cache config: set count must be a power of two");
  }
}

SystemCache::SystemCache(const CacheConfig& config)
    : config_(config), sets_(0) {
  config_.validate();
  sets_ = config_.sets();
  set_mask_ = sets_ - 1;
  const std::size_t slots = static_cast<std::size_t>(sets_) *
                            static_cast<std::size_t>(config_.ways);
  tags_.assign(slots, 0);
  state_.assign(slots, 0);
  set_valid_.assign(sets_, 0);
  policy_ = make_replacement(config_.replacement, sets_, config_.ways,
                             config_.seed);
  if (config_.replacement == ReplacementKind::kLru) {
    lru_ = static_cast<LruPolicy*>(policy_.get());
  }
  pollution_cells_.assign(kMinPollutionCells, kEmptyCell);
  pollution_fifo_.reserve(kPollutionFilterCap);
}

std::size_t SystemCache::find(std::uint64_t block) const {
  // One set's worth of the SoA tag column; a stale tag on an invalid slot is
  // rejected by the slot's valid bit (see tags_ in the header).
  const std::size_t base = static_cast<std::size_t>(set_of(block)) *
                           static_cast<std::size_t>(config_.ways);
  const std::uint64_t* tags = tags_.data() + base;
  const std::uint8_t* state = state_.data() + base;
  for (int w = 0; w < config_.ways; ++w) {
    if (tags[w] == block && (state[w] & kValid) != 0) {
      return base + static_cast<std::size_t>(w);
    }
  }
  return kNoSlot;
}

AccessResult SystemCache::access(std::uint64_t block, AccessType type) {
  AccessResult result;
  const std::size_t slot = find(block);
  if (type == AccessType::kRead) {
    ++stats_.demand_accesses;
    if (slot != kNoSlot) {
      ++stats_.demand_hits;
      result.hit = true;
      const std::uint32_t set = set_of(block);
      const int way = static_cast<int>(slot) -
                      static_cast<int>(set) * config_.ways;
      policy_on_hit(set, way);
      std::uint8_t& state = state_[slot];
      if ((state & kPrefetched) != 0) {
        const FillSource source = source_of(state);
        result.first_use_of_prefetch = true;
        result.fill_source = source;
        ++stats_.demand_hits_on_prefetch;
        switch (source) {
          case FillSource::kPrefetchSlp: ++stats_.hits_on_slp; break;
          case FillSource::kPrefetchTlp: ++stats_.hits_on_tlp; break;
          case FillSource::kPrefetchOther: ++stats_.hits_on_other_pf; break;
          case FillSource::kDemand: break;
        }
        // consumed; further hits are ordinary
        state = static_cast<std::uint8_t>(state & ~kPrefetched);
      }
    } else {
      ++stats_.demand_misses;
      if (pollution_contains(block)) ++stats_.pollution_misses;
    }
    PLANARIA_ENSURE_MSG(kStorageBudget,
                        stats_.demand_hits + stats_.demand_misses ==
                            stats_.demand_accesses,
                        "demand accounting must stay exact");
    return result;
  }

  // Write: update-in-place on hit (writeback later), write-around on miss.
  if (slot != kNoSlot) {
    ++stats_.write_hits;
    state_[slot] = static_cast<std::uint8_t>((state_[slot] | kDirty) &
                                             ~kPrefetched);
    const std::uint32_t set = set_of(block);
    const int way = static_cast<int>(slot) -
                    static_cast<int>(set) * config_.ways;
    policy_on_hit(set, way);
    result.hit = true;
  } else {
    ++stats_.write_misses;
  }
  return result;
}

AccessResult SystemCache::fill(std::uint64_t block, FillSource source) {
  AccessResult result;
  const bool is_prefetch = source != FillSource::kDemand;
  if (find(block) != kNoSlot) {
    // Redundant fill (demand and prefetch raced, or duplicate prefetch).
    if (is_prefetch) ++redundant_fills_;
    return result;
  }
  if (is_prefetch) ++stats_.prefetch_fills;

  const std::uint32_t set = set_of(block);
  const std::size_t base = static_cast<std::size_t>(set) *
                           static_cast<std::size_t>(config_.ways);
  int way = -1;
  if (set_valid_[set] < static_cast<std::uint16_t>(config_.ways)) {
    for (int w = 0; w < config_.ways; ++w) {
      if ((state_[base + static_cast<std::size_t>(w)] & kValid) == 0) {
        way = w;
        break;
      }
    }
    ++set_valid_[set];
  }
  if (way < 0) {
    way = policy_victim(set);
    // The policy owns recency state only; the way index it hands back must
    // stay inside the set it was asked about.
    PLANARIA_ENSURE_MSG(kTableOccupancy, way >= 0 && way < config_.ways,
                        "replacement policy returned an out-of-set victim");
    const std::size_t victim = base + static_cast<std::size_t>(way);
    const bool victim_prefetched = (state_[victim] & kPrefetched) != 0;
    if (victim_prefetched) ++stats_.prefetch_unused_evictions;
    if ((state_[victim] & kDirty) != 0) {
      ++stats_.dirty_writebacks;
      result.has_writeback = true;
      result.writeback_block = tags_[victim];
    }
    // A useful (demand) line displaced by a speculative fill may come back as
    // a pollution miss; remember it so we can attribute that miss.
    if (is_prefetch && !victim_prefetched) {
      track_pollution_eviction(tags_[victim]);
    }
  }
  const std::size_t slot = base + static_cast<std::size_t>(way);
  tags_[slot] = block;
  state_[slot] = static_cast<std::uint8_t>(
      kValid | (is_prefetch ? kPrefetched : 0) |
      (static_cast<std::uint8_t>(source) << kSourceShift));
  policy_on_fill(set, way, is_prefetch);
  // O(1) form of the residency postcondition: `slot` is the slot whose tag
  // was just rewritten, so checking it directly proves contains(block)
  // without re-running the set scan.
  PLANARIA_ENSURE_MSG(kTableOccupancy,
                      (state_[slot] & kValid) != 0 && tags_[slot] == block,
                      "filled block must be resident on return");
  return result;
}

bool SystemCache::contains(std::uint64_t block) const {
  return find(block) != kNoSlot;
}

bool SystemCache::is_unused_prefetch(std::uint64_t block) const {
  const std::size_t slot = find(block);
  return slot != kNoSlot && (state_[slot] & kPrefetched) != 0;
}

void SystemCache::track_pollution_eviction(std::uint64_t block) {
  std::size_t slot = pollution_head_;
  if (pollution_fifo_.size() < kPollutionFilterCap) {
    slot = pollution_fifo_.size();
    pollution_fifo_.push_back(block);
  } else {
    // Erase-before-insert matters when the overwritten slot holds `block`
    // (set semantics, not multiset): the ordering leaves the block a member.
    // It also keeps every cell naming a slot that holds its member: the only
    // cell that could name this slot belongs to the block erased here.
    pollution_erase(pollution_fifo_[pollution_head_]);
    pollution_fifo_[pollution_head_] = block;
    pollution_head_ = (pollution_head_ + 1) % kPollutionFilterCap;
  }
  if (!pollution_contains(block)) {
    pollution_insert(static_cast<std::uint16_t>(slot));
  }
  // The FIFO and the membership set shadow each other; duplicates in the
  // FIFO would let the set shrink below it and break O(1) membership.
  PLANARIA_INVARIANT_MSG(kTableOccupancy,
                         pollution_fifo_.size() <= kPollutionFilterCap &&
                             pollution_members_ <= pollution_fifo_.size(),
                         "pollution filter FIFO/set lost synchronization");
}

bool SystemCache::pollution_contains(std::uint64_t block) const {
  const std::size_t mask = pollution_cells_.size() - 1;
  for (std::size_t i = common::mix_block(block) & mask;; i = (i + 1) & mask) {
    const std::uint16_t cell = pollution_cells_[i];
    if (cell == kEmptyCell) return false;
    if (pollution_fifo_[cell] == block) return true;
  }
}

void SystemCache::pollution_insert(std::uint16_t slot) {
  if ((pollution_members_ + 1) * 2 > pollution_cells_.size()) {
    pollution_rehash(pollution_cells_.size() * 2);
  }
  const std::size_t mask = pollution_cells_.size() - 1;
  std::size_t i = common::mix_block(pollution_fifo_[slot]) & mask;
  while (pollution_cells_[i] != kEmptyCell) i = (i + 1) & mask;
  pollution_cells_[i] = slot;
  ++pollution_members_;
}

void SystemCache::pollution_erase(std::uint64_t block) {
  const std::size_t mask = pollution_cells_.size() - 1;
  std::size_t i = common::mix_block(block) & mask;
  for (;; i = (i + 1) & mask) {
    if (pollution_cells_[i] == kEmptyCell) return;
    if (pollution_fifo_[pollution_cells_[i]] == block) break;
  }
  // Backward-shift deletion (as in common::BlockMap): no tombstones, so
  // probe chains never lengthen under FIFO churn.
  std::size_t hole = i;
  for (std::size_t j = (i + 1) & mask; pollution_cells_[j] != kEmptyCell;
       j = (j + 1) & mask) {
    const std::size_t home =
        common::mix_block(pollution_fifo_[pollution_cells_[j]]) & mask;
    if (((j - home) & mask) >= ((j - hole) & mask)) {
      pollution_cells_[hole] = pollution_cells_[j];
      hole = j;
    }
  }
  pollution_cells_[hole] = kEmptyCell;
  --pollution_members_;
}

void SystemCache::pollution_rehash(std::size_t cells) {
  // lint: suppress(hot-alloc) doubling growth is amortized O(1) per insert and stops at 2x the FIFO cap
  std::vector<std::uint16_t> old = std::move(pollution_cells_);
  pollution_cells_.assign(cells, kEmptyCell);
  pollution_members_ = 0;
  for (const std::uint16_t slot : old) {
    if (slot != kEmptyCell) pollution_insert(slot);
  }
}

void SystemCache::save_state(snapshot::Writer& w) const {
  w.tag(snapshot::tag4("CSH0"));
  // Valid lines only, in ascending slot order (canonical encoding).
  std::uint64_t valid = 0;
  for (const std::uint16_t n : set_valid_) valid += n;
  w.u64(valid);
  for (std::size_t i = 0; i < state_.size(); ++i) {
    const std::uint8_t state = state_[i];
    if ((state & kValid) == 0) continue;
    w.u64(static_cast<std::uint64_t>(i));
    w.u64(tags_[i]);
    w.b((state & kDirty) != 0);
    w.b((state & kPrefetched) != 0);
    w.u8(static_cast<std::uint8_t>(source_of(state)));
  }
  policy_->save_state(w);
  w.u64(stats_.demand_accesses);
  w.u64(stats_.demand_hits);
  w.u64(stats_.demand_misses);
  w.u64(stats_.demand_hits_on_prefetch);
  w.u64(stats_.hits_on_slp);
  w.u64(stats_.hits_on_tlp);
  w.u64(stats_.hits_on_other_pf);
  w.u64(stats_.prefetch_fills);
  w.u64(stats_.prefetch_unused_evictions);
  w.u64(stats_.pollution_misses);
  w.u64(stats_.dirty_writebacks);
  w.u64(stats_.write_hits);
  w.u64(stats_.write_misses);
  w.u64(redundant_fills_);
  // Pollution filter: the FIFO is ordered as-is; the membership set is NOT
  // derivable from the FIFO (overwriting one duplicate erases the value from
  // the set while its twin stays queued), so it travels separately, sorted.
  w.u64(static_cast<std::uint64_t>(pollution_fifo_.size()));
  for (std::uint64_t v : pollution_fifo_) w.u64(v);
  w.u64(static_cast<std::uint64_t>(pollution_head_));
  std::vector<std::uint64_t> members;
  members.reserve(pollution_members_);
  for (const std::uint16_t slot : pollution_cells_) {
    if (slot != kEmptyCell) members.push_back(pollution_fifo_[slot]);
  }
  std::sort(members.begin(), members.end());
  w.u64(static_cast<std::uint64_t>(members.size()));
  for (std::uint64_t v : members) w.u64(v);
}

void SystemCache::load_state(snapshot::Reader& r) {
  r.expect_tag(snapshot::tag4("CSH0"));
  tags_.assign(tags_.size(), 0);
  state_.assign(state_.size(), 0);
  set_valid_.assign(sets_, 0);
  const std::uint64_t valid = r.u64();
  if (valid > state_.size()) {
    throw snapshot::SnapshotError("cache valid-line count exceeds capacity");
  }
  std::uint64_t prev = 0;
  for (std::uint64_t n = 0; n < valid; ++n) {
    const std::uint64_t i = r.u64();
    if (i >= state_.size() || (n > 0 && i <= prev)) {
      throw snapshot::SnapshotError("cache line slot index out of order");
    }
    prev = i;
    const std::uint64_t block = r.u64();
    // A line must sit in its own set, once: find() only scans that set, so
    // a line elsewhere is unreachable and a second copy shadows the first.
    const std::size_t base = static_cast<std::size_t>(set_of(block)) *
                             static_cast<std::size_t>(config_.ways);
    if (i < base || i >= base + static_cast<std::size_t>(config_.ways)) {
      throw snapshot::SnapshotError("cache line stored outside its set");
    }
    if (find(block) != kNoSlot) {
      throw snapshot::SnapshotError("cache line resident twice in its set");
    }
    tags_[i] = block;
    const bool dirty = r.b();
    const bool prefetched = r.b();
    const std::uint8_t src = r.u8();
    if (src > static_cast<std::uint8_t>(FillSource::kPrefetchOther)) {
      throw snapshot::SnapshotError("cache line fill source out of range");
    }
    state_[i] = static_cast<std::uint8_t>(kValid | (dirty ? kDirty : 0) |
                                          (prefetched ? kPrefetched : 0) |
                                          (src << kSourceShift));
    ++set_valid_[i / static_cast<std::size_t>(config_.ways)];
  }
  policy_->load_state(r);
  stats_.demand_accesses = r.u64();
  stats_.demand_hits = r.u64();
  stats_.demand_misses = r.u64();
  stats_.demand_hits_on_prefetch = r.u64();
  stats_.hits_on_slp = r.u64();
  stats_.hits_on_tlp = r.u64();
  stats_.hits_on_other_pf = r.u64();
  stats_.prefetch_fills = r.u64();
  stats_.prefetch_unused_evictions = r.u64();
  stats_.pollution_misses = r.u64();
  stats_.dirty_writebacks = r.u64();
  stats_.write_hits = r.u64();
  stats_.write_misses = r.u64();
  redundant_fills_ = r.u64();
  const std::uint64_t fifo_size = r.u64();
  if (fifo_size > kPollutionFilterCap) {
    throw snapshot::SnapshotError("pollution FIFO larger than its cap");
  }
  pollution_fifo_.assign(fifo_size, 0);
  for (std::uint64_t& v : pollution_fifo_) v = r.u64();
  pollution_head_ = static_cast<std::size_t>(r.u64());
  // The head only moves once the FIFO is full; a head anywhere else would
  // rotate the FIFO from the wrong slot when it fills.
  if (fifo_size < kPollutionFilterCap ? pollution_head_ != 0
                                      : pollution_head_ >= kPollutionFilterCap) {
    throw snapshot::SnapshotError("pollution FIFO head out of range");
  }
  const std::uint64_t set_size = r.u64();
  if (set_size > fifo_size) {
    throw snapshot::SnapshotError("pollution set larger than its FIFO");
  }
  std::vector<std::uint64_t> members(set_size);
  for (std::uint64_t& v : members) v = r.u64();
  if (std::adjacent_find(members.begin(), members.end(),
                         std::greater_equal<>()) != members.end()) {
    throw snapshot::SnapshotError("pollution set members not strictly ascending");
  }
  // Every member must be queued, or nothing would ever evict it from the
  // set. Before the first wrap nothing has left the set, so every queued
  // block must be a member too.
  std::vector<std::uint64_t> queued = pollution_fifo_;
  std::sort(queued.begin(), queued.end());
  queued.erase(std::unique(queued.begin(), queued.end()), queued.end());
  if (!std::includes(queued.begin(), queued.end(), members.begin(),
                     members.end()) ||
      (fifo_size < kPollutionFilterCap && members.size() != queued.size())) {
    throw snapshot::SnapshotError("pollution set does not match its FIFO");
  }
  // Each member's cell may name any slot that holds it: overwriting that
  // slot erases the member by value, whichever slot its cell names.
  pollution_cells_.assign(kMinPollutionCells, kEmptyCell);
  pollution_members_ = 0;
  for (std::size_t slot = 0; slot < pollution_fifo_.size(); ++slot) {
    const std::uint64_t block = pollution_fifo_[slot];
    if (std::binary_search(members.begin(), members.end(), block) &&
        !pollution_contains(block)) {
      pollution_insert(static_cast<std::uint16_t>(slot));
    }
  }
}

}  // namespace planaria::cache
