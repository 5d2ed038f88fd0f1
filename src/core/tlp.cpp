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
  if (rpt_entries > 0xFFFF) {
    // Recency links are 16-bit slot indices with 0xFFFF as the null link.
    throw std::invalid_argument("tlp config: rpt_entries must be at most 65535");
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
      page_index_(static_cast<std::size_t>(config.rpt_entries),
                  kPageIndexCellsPerEntry) {
  config_.validate();
  ref_words_ = (static_cast<std::size_t>(config_.rpt_entries) + 63) / 64;
  ref_.assign(slot_count() * ref_words_, 0);
  rebuild_recency();
}

void Tlp::touch(std::size_t slot) {
  const auto s = static_cast<std::uint16_t>(slot);
  if (s == head_) return;
  // Not the head, so prev_[s] is a real slot.
  const std::uint16_t p = prev_[s];
  const std::uint16_t nx = next_[s];
  next_[p] = nx;
  if (nx != kNil) {
    prev_[nx] = p;
  } else {
    tail_ = p;
  }
  prev_[s] = kNil;
  next_[s] = head_;
  prev_[head_] = s;
  head_ = s;
}

void Tlp::rebuild_recency() {
  // Head-to-tail order is descending (valid, last_use, slot), so the tail is
  // the first invalid slot, else the lowest-index minimum stamp.
  const std::size_t n = slot_count();
  std::vector<std::uint16_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = static_cast<std::uint16_t>(i);
  std::sort(order.begin(), order.end(), [&](std::uint16_t a, std::uint16_t b) {
    if (valid_[a] != valid_[b]) return valid_[a] > valid_[b];
    if (last_use_[a] != last_use_[b]) return last_use_[a] > last_use_[b];
    return a > b;
  });
  prev_.assign(n, kNil);
  next_.assign(n, kNil);
  for (std::size_t k = 0; k + 1 < n; ++k) {
    next_[order[k]] = order[k + 1];
    prev_[order[k + 1]] = order[k];
  }
  head_ = order.front();
  tail_ = order.back();
}

int Tlp::find_slot(PageNumber page) const {
  const std::uint32_t s = page_index_.find(page);
  return s == TagIndex::npos ? -1 : static_cast<int>(s);
}

int Tlp::allocate(PageNumber page) {
  // LRU victim: the recency list's tail is the first invalid slot while the
  // table fills, else the least recently used page (see rebuild_recency).
  // learn() moves the slot to the head once it is stamped.
  const std::size_t v = tail_;
  if (valid_[v] != 0) page_index_.erase(pages_[v]);
  pages_[v] = page;
  bitmaps_[v].reset();
  valid_[v] = 1;
  page_index_.insert(page, static_cast<std::uint32_t>(v));

  // Wire Ref bits against every resident page (the paper's allocation step:
  // "TLP allocates a new entry and sets Ref0 as 1 because ... neighboring
  // pages in space"). The victim's new row is one branch-free pass over the
  // page column: page_j is near iff it lies in [page - t, page + t] clamped
  // to the u64 range, tested as one unsigned offset compare so every
  // threshold t is exact, including ones where 2t overflows. The victim's own
  // slot (distance 0) is masked out afterwards.
  //
  // The column side touches only rows whose bit changes. Ref is symmetric,
  // so the old row (all-zero for a slot that was invalid) lists exactly the
  // rows holding the evicted page's bit, and the new row lists the rows that
  // must hold the new page's: toggling bit v in the rows of old ^ new
  // retires the one and installs the other in O(neighbours).
  const std::size_t n = slot_count();
  const std::size_t words = ref_words_;
  std::uint64_t* const ref = ref_.data();
  const PageNumber* const pages = pages_.data();
  const std::uint8_t* const valid = valid_.data();
  const std::uint64_t t = config_.distance_threshold;
  const std::uint64_t lo = page >= t ? page - t : 0;
  const std::uint64_t hi = page <= UINT64_MAX - t ? page + t : UINT64_MAX;
  const std::uint64_t span = hi - lo;
  const std::size_t vword = v / 64;
  const std::uint64_t vbit = 1ull << (v % 64);
  std::uint64_t* const vrow = ref + v * words;
  for (std::size_t w = 0; w < words; ++w) {
    const std::size_t base = w * 64;
    const std::size_t count = std::min<std::size_t>(64, n - base);
    std::uint64_t bits = 0;
    for (std::size_t k = count; k-- > 0;) {
      const std::uint64_t near =
          static_cast<std::uint64_t>(pages[base + k] - lo <= span) &
          valid[base + k];
      bits = (bits << 1) | near;
    }
    if (w == vword) bits &= ~vbit;
    for (std::uint64_t flip = bits ^ vrow[w]; flip != 0; flip &= flip - 1) {
      const std::size_t j =
          base + static_cast<std::size_t>(std::countr_zero(flip));
      ref[j * words + vword] ^= vbit;
    }
    vrow[w] = bits;
  }
  // The neighbor matrix is irreflexive (no entry references itself) and,
  // after the bidirectional wiring above, symmetric.
  PLANARIA_ENSURE_MSG(kTableOccupancy, !ref_get(v, v),
                      "RPT entry must not reference itself");
  // The full O(N^2) sweep is too expensive for every allocation under
  // sanitizers; sample it instead. A corrupted Ref bit persists until one of
  // the involved entries is evicted, so periodic sweeps still catch drift.
  PLANARIA_DASSERT_MSG(
      (stats_.allocations & 255u) != 0 || ref_matrix_consistent(),
      "RPT Ref matrix lost symmetry on allocation");
  ++stats_.allocations;
  return static_cast<int>(v);
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
  touch(static_cast<std::size_t>(slot));
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
  rebuild_recency();
}

}  // namespace planaria::core
