#include "core/slp.hpp"

#include <stdexcept>

#include "check/contract.hpp"
#include "common/assert.hpp"
#include "core/storage_layout.hpp"
#include "fault/fault.hpp"

namespace planaria::core {

void SlpConfig::validate() const {
  if (ft_sets <= 0 || ft_ways <= 0 || at_sets <= 0 || at_ways <= 0 ||
      pt_sets <= 0 || pt_ways <= 0) {
    throw std::invalid_argument("slp config: table sizes must be positive");
  }
  constexpr int kMaxWays = SetAssocTable<PageNumber, int>::kMaxWays;
  if (ft_ways > kMaxWays || at_ways > kMaxWays || pt_ways > kMaxWays) {
    throw std::invalid_argument("slp config: at most 64 ways per set");
  }
  const auto pow2 = [](int v) { return (v & (v - 1)) == 0; };
  if (!pow2(ft_sets) || !pow2(at_sets) || !pow2(pt_sets)) {
    throw std::invalid_argument(
        "slp config: set counts must be powers of two (hardware set index)");
  }
  if (promote_threshold < 1 || promote_threshold > layout::kFtOffsetSlots) {
    throw std::invalid_argument(
        "slp config: promote_threshold must be 1..3 (FT stores 3 offsets)");
  }
  if (at_timeout == 0 || sweep_interval == 0) {
    throw std::invalid_argument("slp config: timeouts must be positive");
  }
  if (at_timeout >= (Cycle{1} << layout::kAtTimeBits)) {
    throw std::invalid_argument(
        "slp config: at_timeout must fit the AT's 20-bit time field");
  }
}

namespace {

/// Validates before the member tables are constructed (they assert on their
/// geometry, and a std::invalid_argument is the contract for bad configs).
SlpConfig validated(SlpConfig config) {
  config.validate();
  return config;
}

}  // namespace

Slp::Slp(const SlpConfig& config)
    : config_(validated(config)),
      ft_(static_cast<std::size_t>(config_.ft_sets), config_.ft_ways),
      at_(static_cast<std::size_t>(config_.at_sets), config_.at_ways),
      pt_(static_cast<std::size_t>(config_.pt_sets), config_.pt_ways) {}

void Slp::transfer_to_pt(PageNumber page, const SegmentBitmap& bitmap) {
  // A snapshot below the promotion threshold can arise when an AT entry is
  // promoted and immediately displaced; it carries too little signal to keep.
  if (bitmap.popcount() < config_.promote_threshold) return;
  pt_.insert(page, bitmap);
  ++stats_.snapshots_learned;
}

void Slp::sweep_timeouts(Cycle now) {
  at_.evict_if(
      [&](PageNumber, const AtEntry& e) {
        return now > e.last_access && now - e.last_access > config_.at_timeout;
      },
      [&](PageNumber page, AtEntry&& e) {
        ++stats_.timeout_evictions;
        transfer_to_pt(page, e.bitmap);
      });
}

void Slp::maybe_inject_fault() {
  if (fault_ == nullptr || !fault_->roll(fault::FaultClass::kSlpPatternFlip)) {
    return;
  }
  // Flip one bit in a random resident PT pattern. The scan wraps from a
  // random start so every resident entry is equally likely over time; an
  // empty PT simply means the roll applied to nothing and is not recorded.
  Rng& rng = fault_->rng(fault::FaultClass::kSlpPatternFlip);
  const std::size_t cap = pt_.capacity();
  const std::size_t start = static_cast<std::size_t>(rng.next_below(cap));
  for (std::size_t k = 0; k < cap; ++k) {
    const std::size_t i = (start + k) % cap;
    if (SegmentBitmap* pattern = pt_.payload_at(i); pattern != nullptr) {
      pattern->flip(static_cast<int>(rng.next_below(kBlocksPerSegment)));
      fault_->record(fault::FaultClass::kSlpPatternFlip);
      return;
    }
  }
}

void Slp::learn(const prefetch::DemandEvent& event) {
  maybe_inject_fault();
  PLANARIA_REQUIRE_MSG(kTableOccupancy,
                       event.block_in_segment >= 0 &&
                           event.block_in_segment < kBlocksPerSegment,
                       "segment block offset outside the 16-block bitmap");

  // Lazy timeout sweep (Step 4): scanning the whole AT on every access would
  // be both unrealistic hardware and a simulation hotspot, so the timeout is
  // checked every sweep_interval accesses — a slack far below at_timeout.
  if (++accesses_since_sweep_ >= config_.sweep_interval) {
    accesses_since_sweep_ = 0;
    sweep_timeouts(event.now);
  }

  const auto offset = static_cast<std::uint8_t>(event.block_in_segment);

  // Step 1: is the page already accumulating?
  if (AtEntry* at = at_.find(event.page); at != nullptr) {
    at->bitmap.set(event.block_in_segment);
    at->last_access = event.now;
    return;
  }

  // Step 2/3: run the page through the filter table.
  if (FtEntry* ft = ft_.find(event.page); ft != nullptr) {
    bool known = false;
    for (int i = 0; i < ft->count; ++i) {
      if (ft->offsets[i] == offset) {
        known = true;
        break;
      }
    }
    if (!known) {
      // The FT only holds pages below the promotion threshold, so a distinct
      // offset always has a free probation slot.
      PLANARIA_INVARIANT_MSG(kTableOccupancy,
                             ft->count < layout::kFtOffsetSlots,
                             "FT entry survived past the promotion threshold");
      ft->offsets[ft->count++] = offset;
    }
    if (ft->count >= config_.promote_threshold) {
      // Promote: seed the AT bitmap with the offsets the FT witnessed.
      AtEntry fresh;
      for (int i = 0; i < ft->count; ++i) fresh.bitmap.set(ft->offsets[i]);
      fresh.last_access = event.now;
      ft_.erase(event.page);
      if (auto evicted = at_.insert(event.page, fresh); evicted.has_value()) {
        ++stats_.capacity_evictions;
        transfer_to_pt(evicted->first, evicted->second.bitmap);
      }
      ++stats_.promotions;
      // Promotion moves the page FT -> AT; it must never live in both.
      PLANARIA_ENSURE_MSG(kTableOccupancy,
                          ft_.peek(event.page) == nullptr &&
                              at_.peek(event.page) != nullptr,
                          "promoted page must leave the FT and enter the AT");
      PLANARIA_DASSERT(at_.size() <= at_.capacity());
    }
    return;
  }

  FtEntry fresh;
  fresh.offsets[0] = offset;
  fresh.count = 1;
  ft_.insert(event.page, fresh);
  ++stats_.ft_inserts;
}

bool Slp::has_pattern(PageNumber page) const {
  return pt_.peek(page) != nullptr;
}

bool Slp::issue(const prefetch::DemandEvent& event,
                std::vector<prefetch::PrefetchRequest>& out) {
  SegmentBitmap* pattern = pt_.find(event.page);
  if (pattern == nullptr) return false;
  // transfer_to_pt never stores a pattern below the promotion threshold, so a
  // sub-threshold pattern here means the entry was corrupted after learning
  // (fault injection, or a real soft error the model emulates). Recovery:
  // drop the entry — it carries too little signal to act on — and decline the
  // trigger so the coordinator falls through to TLP or nothing.
  const int pop = pattern->popcount();
  PLANARIA_INVARIANT_MSG(kTableOccupancy, pop >= config_.promote_threshold,
                         "PT pattern below promotion threshold (corrupted entry)");
  if (pop < config_.promote_threshold) {
    pt_.erase(event.page);
    return false;
  }
  ++stats_.issue_triggers;

  // Prefetch every pattern block except those this visit already touched
  // (the AT bitmap) and the trigger block itself. The cache/in-flight
  // deduplication in the simulator suppresses re-issues for blocks already
  // present.
  SegmentBitmap already;
  if (const AtEntry* at = at_.peek(event.page); at != nullptr) {
    already = at->bitmap;
  }
  already.set(event.block_in_segment);
  const SegmentBitmap to_fetch = pattern->minus(already);
  to_fetch.for_each_set([&](int block) {
    out.push_back(prefetch::PrefetchRequest{
        event.page * kBlocksPerSegment + static_cast<std::uint64_t>(block),
        cache::FillSource::kPrefetchSlp});
    ++stats_.prefetches_issued;
  });
  return true;
}

std::uint64_t Slp::storage_bits() const {
  // Field widths per entry come from core/storage_layout.hpp, the single
  // source both this accounting and the storage-bench breakdown derive from.
  const std::uint64_t ft_bits = static_cast<std::uint64_t>(config_.ft_sets) *
                                config_.ft_ways * layout::kFtEntryBits;
  const std::uint64_t at_bits = static_cast<std::uint64_t>(config_.at_sets) *
                                config_.at_ways * layout::kAtEntryBits;
  const std::uint64_t pt_bits = static_cast<std::uint64_t>(config_.pt_sets) *
                                config_.pt_ways * layout::kPtEntryBits;
  return ft_bits + at_bits + pt_bits;
}

void Slp::save_state(snapshot::Writer& w) const {
  w.tag(snapshot::tag4("SLP0"));
  ft_.save_state(w, [](snapshot::Writer& o, const FtEntry& e) {
    for (std::uint8_t off : e.offsets) o.u8(off);
    o.u32(static_cast<std::uint32_t>(e.count));
  });
  at_.save_state(w, [](snapshot::Writer& o, const AtEntry& e) {
    o.u16(static_cast<std::uint16_t>(e.bitmap.raw()));
    o.u64(e.last_access);
  });
  pt_.save_state(w, [](snapshot::Writer& o, const SegmentBitmap& bm) {
    o.u16(static_cast<std::uint16_t>(bm.raw()));
  });
  w.u64(stats_.ft_inserts);
  w.u64(stats_.promotions);
  w.u64(stats_.snapshots_learned);
  w.u64(stats_.timeout_evictions);
  w.u64(stats_.capacity_evictions);
  w.u64(stats_.issue_triggers);
  w.u64(stats_.prefetches_issued);
  w.u64(accesses_since_sweep_);
}

void Slp::load_state(snapshot::Reader& r) {
  r.expect_tag(snapshot::tag4("SLP0"));
  ft_.load_state(r, [](snapshot::Reader& i) {
    FtEntry e;
    for (std::uint8_t& off : e.offsets) off = i.u8();
    e.count = static_cast<int>(i.u32());
    return e;
  });
  at_.load_state(r, [](snapshot::Reader& i) {
    AtEntry e;
    e.bitmap = SegmentBitmap(i.u16());
    e.last_access = i.u64();
    return e;
  });
  pt_.load_state(r, [](snapshot::Reader& i) { return SegmentBitmap(i.u16()); });
  stats_.ft_inserts = r.u64();
  stats_.promotions = r.u64();
  stats_.snapshots_learned = r.u64();
  stats_.timeout_evictions = r.u64();
  stats_.capacity_evictions = r.u64();
  stats_.issue_triggers = r.u64();
  stats_.prefetches_issued = r.u64();
  accesses_since_sweep_ = r.u64();
}

}  // namespace planaria::core
