#include "core/tlp.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

#include "check/contract.hpp"
#include "common/assert.hpp"
#include "core/storage_layout.hpp"
#include "fault/fault.hpp"

namespace planaria::core {

void TlpConfig::validate() const {
  if (rpt_entries <= 0) {
    throw std::invalid_argument("tlp config: rpt_entries must be positive");
  }
  if (distance_threshold == 0) {
    throw std::invalid_argument("tlp config: distance threshold must be positive");
  }
  if (min_common_bits < 1 || min_common_bits > 16) {
    throw std::invalid_argument("tlp config: min_common_bits must be 1..16");
  }
}

Tlp::Tlp(const TlpConfig& config)
    : config_(config),
      pages_(static_cast<std::size_t>(config.rpt_entries), 0),
      bitmaps_(static_cast<std::size_t>(config.rpt_entries)),
      last_use_(static_cast<std::size_t>(config.rpt_entries), 0),
      valid_(static_cast<std::size_t>(config.rpt_entries), 0),
      page_index_(static_cast<std::size_t>(config.rpt_entries)) {
  config_.validate();
  ref_words_ = (static_cast<std::size_t>(config_.rpt_entries) + 63) / 64;
  ref_.assign(slot_count() * ref_words_, 0);
}

int Tlp::find_slot(PageNumber page) const {
  const std::uint32_t s = page_index_.find(page);
  return s == TagIndex::npos ? -1 : static_cast<int>(s);
}

int Tlp::allocate(PageNumber page) {
  // LRU victim (or first invalid slot). Same selection as the historical
  // single loop over an entry struct array: first invalid index if any,
  // otherwise the lowest index holding the minimum LRU stamp. The two flat
  // column scans below are what the SoA layout buys — each reads one small
  // contiguous array instead of striding through 32-byte entry structs.
  const std::size_t n = slot_count();
  int victim = -1;
  for (std::size_t i = 0; i < n; ++i) {
    if (valid_[i] == 0) {
      victim = static_cast<int>(i);
      break;
    }
  }
  if (victim < 0) {
    victim = 0;
    for (std::size_t i = 1; i < n; ++i) {
      if (last_use_[i] < last_use_[static_cast<std::size_t>(victim)]) {
        victim = static_cast<int>(i);
      }
    }
  }
  const auto v = static_cast<std::size_t>(victim);
  if (valid_[v] != 0) page_index_.erase(pages_[v]);
  pages_[v] = page;
  bitmaps_[v].reset();
  valid_[v] = 1;
  const std::size_t vrow = v * ref_words_;
  std::fill(ref_.begin() + static_cast<std::ptrdiff_t>(vrow),
            ref_.begin() + static_cast<std::ptrdiff_t>(vrow + ref_words_), 0);
  page_index_.insert(page, static_cast<std::uint32_t>(victim));
  // Wire Ref bits against every resident page (the paper's allocation step:
  // "TLP allocates a new entry and sets Ref0 as 1 because ... neighboring
  // pages in space"). ref_put overwrites, so this single pass both retires
  // the old occupant's column and installs the new page's: every valid row's
  // victim bit is rewritten from the new distance, invalid rows are all-zero
  // by construction.
  // The victim's row was zeroed above, so its side is set-only; the column
  // side must overwrite (set or clear) every valid row's victim bit.
  std::uint64_t* vrow_words = ref_.data() + vrow;
  const std::size_t vword = v / 64;
  const std::uint64_t vbit = 1ull << (v % 64);
  const std::uint64_t threshold = config_.distance_threshold;
  for (std::size_t j = 0; j < n; ++j) {
    if (valid_[j] == 0 || j == v) continue;
    const std::uint64_t distance =
        page > pages_[j] ? page - pages_[j] : pages_[j] - page;
    const bool near = distance <= threshold;
    if (near) vrow_words[j / 64] |= 1ull << (j % 64);
    std::uint64_t& col = ref_[j * ref_words_ + vword];
    col = near ? (col | vbit) : (col & ~vbit);
  }
  // The neighbor matrix is irreflexive (no entry references itself) and,
  // after the bidirectional wiring above, symmetric.
  PLANARIA_ENSURE_MSG(kTableOccupancy,
                      !ref_get(static_cast<std::size_t>(victim),
                               static_cast<std::size_t>(victim)),
                      "RPT entry must not reference itself");
  // The full O(N^2) sweep is too expensive for every allocation under
  // sanitizers; sample it instead. A corrupted Ref bit persists until one of
  // the involved entries is evicted, so periodic sweeps still catch drift.
  PLANARIA_DASSERT_MSG(
      (stats_.allocations & 255u) != 0 || ref_matrix_consistent(),
      "RPT Ref matrix lost symmetry on allocation");
  ++stats_.allocations;
  return victim;
}

bool Tlp::ref_matrix_consistent() const {
  for (std::size_t i = 0; i < slot_count(); ++i) {
    if (valid_[i] != 0 && ref_get(i, i)) return false;
    for (std::size_t j = 0; j < slot_count(); ++j) {
      const bool ij = valid_[i] != 0 && ref_get(i, j);
      const bool ji = valid_[j] != 0 && ref_get(j, i);
      if (ij != ji) return false;
      if (ij && (valid_[i] == 0 || valid_[j] == 0)) return false;
    }
  }
  return true;
}

void Tlp::maybe_inject_fault() {
  if (fault_ == nullptr || !fault_->roll(fault::FaultClass::kTlpPatternFlip)) {
    return;
  }
  // Flip one recent-access bitmap bit in a random resident RPT entry (wrap
  // scan from a random start). Only the bitmap is touched: a flipped bit
  // perturbs similarity scoring and the transferred pattern, which is the
  // failure mode of interest, while the Ref matrix stays consistent.
  Rng& rng = fault_->rng(fault::FaultClass::kTlpPatternFlip);
  const std::size_t n = slot_count();
  const std::size_t start = static_cast<std::size_t>(rng.next_below(n));
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t i = (start + k) % n;
    if (valid_[i] == 0) continue;
    bitmaps_[i].flip(static_cast<int>(rng.next_below(kBlocksPerSegment)));
    fault_->record(fault::FaultClass::kTlpPatternFlip);
    return;
  }
}

void Tlp::learn(const prefetch::DemandEvent& event) {
  maybe_inject_fault();
  PLANARIA_REQUIRE_MSG(kTableOccupancy,
                       event.block_in_segment >= 0 &&
                           event.block_in_segment < kBlocksPerSegment,
                       "segment block offset outside the 16-block bitmap");
  int slot = find_slot(event.page);
  if (slot < 0) slot = allocate(event.page);
  PLANARIA_INVARIANT(kTableOccupancy,
                     slot >= 0 && slot < config_.rpt_entries);
  bitmaps_[static_cast<std::size_t>(slot)].set(event.block_in_segment);
  last_use_[static_cast<std::size_t>(slot)] = ++tick_;
}

bool Tlp::issue(const prefetch::DemandEvent& event,
                std::vector<prefetch::PrefetchRequest>& out) {
  ++stats_.issue_triggers;
  const int slot = find_slot(event.page);
  // learn() runs before issue() in the coordinator, so the page is resident;
  // guard anyway for standalone use.
  if (slot < 0) return false;
  const SegmentBitmap self = bitmaps_[static_cast<std::size_t>(slot)];

  // Most similar referenced neighbor above the similarity floor wins
  // (Figure 6: page B with 6 common blocks beats page C with 3). Walking the
  // set bits of the packed Ref row visits slots in the same ascending order
  // the column scan did, so ties still resolve to the lowest slot.
  int best = -1;
  int best_common = config_.min_common_bits - 1;
  const std::uint64_t* row =
      ref_.data() + static_cast<std::size_t>(slot) * ref_words_;
  for (std::size_t w = 0; w < ref_words_; ++w) {
    std::uint64_t bits = row[w];
    while (bits != 0) {
      const std::size_t j = w * 64 + static_cast<std::size_t>(
                                         std::countr_zero(bits));
      bits &= bits - 1;
      if (valid_[j] == 0) continue;
      const int common = self.common_with(bitmaps_[j]);
      if (common > best_common) {
        best_common = common;
        best = static_cast<int>(j);
      }
    }
  }
  if (best < 0) return false;
  // The transfer source must clear the similarity floor — that is the whole
  // qualification rule the loop above implements.
  PLANARIA_INVARIANT_MSG(kCoordinatorExclusivity,
                         best_common >= config_.min_common_bits,
                         "TLP transferred from a below-threshold neighbor");

  const SegmentBitmap to_fetch =
      bitmaps_[static_cast<std::size_t>(best)].minus(self);
  if (to_fetch.empty()) return false;
  ++stats_.transfers;
  to_fetch.for_each_set([&](int block) {
    out.push_back(prefetch::PrefetchRequest{
        event.page * kBlocksPerSegment + static_cast<std::uint64_t>(block),
        cache::FillSource::kPrefetchTlp});
    ++stats_.prefetches_issued;
  });
  return true;
}

const SegmentBitmap* Tlp::bitmap_of(PageNumber page) const {
  const int slot = find_slot(page);
  return slot < 0 ? nullptr : &bitmaps_[static_cast<std::size_t>(slot)];
}

std::uint64_t Tlp::storage_bits() const {
  // Per entry: tag + bitmap + (N-1) Ref bits + LRU (core/storage_layout.hpp).
  const auto n = static_cast<std::uint64_t>(config_.rpt_entries);
  return n * layout::rpt_entry_bits(n);
}

void Tlp::save_state(snapshot::Writer& w) const {
  w.tag(snapshot::tag4("TLP0"));
  w.u64(static_cast<std::uint64_t>(slot_count()));
  const std::size_t row_bytes = (slot_count() + 7) / 8;
  for (std::size_t i = 0; i < slot_count(); ++i) {
    w.b(valid_[i] != 0);
    if (valid_[i] == 0) continue;  // invalid slots are all-default
    w.u64(pages_[i]);
    w.u16(static_cast<std::uint16_t>(bitmaps_[i].raw()));
    w.u64(last_use_[i]);
    // Ref row, packed 8 slots per byte (slot j -> byte j/8 bit j%8): exactly
    // the little-endian bytes of the 64-bit words, truncated to ceil(N/8).
    const std::uint64_t* row = ref_.data() + i * ref_words_;
    for (std::size_t b = 0; b < row_bytes; ++b) {
      w.u8(static_cast<std::uint8_t>(row[b / 8] >> (8 * (b % 8))));
    }
  }
  w.u64(tick_);
  w.u64(stats_.allocations);
  w.u64(stats_.issue_triggers);
  w.u64(stats_.transfers);
  w.u64(stats_.prefetches_issued);
}

void Tlp::load_state(snapshot::Reader& r) {
  r.expect_tag(snapshot::tag4("TLP0"));
  if (r.u64() != slot_count()) {
    throw snapshot::SnapshotError("RPT entry count mismatch");
  }
  const std::size_t row_bytes = (slot_count() + 7) / 8;
  std::fill(ref_.begin(), ref_.end(), 0);
  for (std::size_t i = 0; i < slot_count(); ++i) {
    pages_[i] = 0;
    bitmaps_[i].reset();
    last_use_[i] = 0;
    valid_[i] = r.b() ? 1 : 0;
    if (valid_[i] == 0) continue;
    pages_[i] = r.u64();
    bitmaps_[i] = SegmentBitmap(r.u16());
    last_use_[i] = r.u64();
    std::uint64_t* row = ref_.data() + i * ref_words_;
    for (std::size_t b = 0; b < row_bytes; ++b) {
      row[b / 8] |= static_cast<std::uint64_t>(r.u8()) << (8 * (b % 8));
    }
    // Stray bits past the last slot (possible only in a crafted snapshot)
    // must not survive: issue() walks set bits and would index out of range.
    if (slot_count() % 64 != 0) {
      row[ref_words_ - 1] &= (1ull << (slot_count() % 64)) - 1;
    }
  }
  tick_ = r.u64();
  // Every genuine snapshot obeys the invariants below (allocate() maintains
  // them and nothing else writes pages or Ref bits); a stream that breaks one
  // is crafted or corrupt, and restoring it would silently run a different
  // table. A snapshot is outside input, so the checks run in every build.
  page_index_.clear();
  for (std::size_t i = 0; i < slot_count(); ++i) {
    if (valid_[i] == 0) continue;
    if (last_use_[i] > tick_) {
      throw snapshot::SnapshotError("RPT slot " + std::to_string(i) +
                                    " last use is ahead of the TLP tick");
    }
    if (page_index_.find(pages_[i]) != TagIndex::npos) {
      throw snapshot::SnapshotError("RPT slot " + std::to_string(i) +
                                    " duplicates a resident page");
    }
    page_index_.insert(pages_[i], static_cast<std::uint32_t>(i));
  }
  // The Ref matrix is a pure function of the page column: Ref[i][j] is set
  // exactly for distinct valid slots within the distance threshold.
  const std::uint64_t threshold = config_.distance_threshold;
  for (std::size_t i = 0; i < slot_count(); ++i) {
    for (std::size_t j = 0; j < slot_count(); ++j) {
      const bool near =
          valid_[i] != 0 && valid_[j] != 0 && i != j &&
          (pages_[i] > pages_[j] ? pages_[i] - pages_[j]
                                 : pages_[j] - pages_[i]) <= threshold;
      if (ref_get(i, j) != near) {
        throw snapshot::SnapshotError(
            "RPT Ref[" + std::to_string(i) + "][" + std::to_string(j) +
            "] disagrees with the restored page distances");
      }
    }
  }
  stats_.allocations = r.u64();
  stats_.issue_triggers = r.u64();
  stats_.transfers = r.u64();
  stats_.prefetches_issued = r.u64();
}

}  // namespace planaria::core
