#include "prefetch/spp.hpp"

#include <algorithm>
#include <stdexcept>

#include "common/assert.hpp"

namespace planaria::prefetch {

SignatureTable::SignatureTable(std::size_t capacity)
    : keys_(capacity),
      entries_(capacity),
      last_use_(capacity),
      valid_(capacity),
      prev_(capacity),
      next_(capacity),
      index_(capacity) {
  PLANARIA_ASSERT(capacity > 0 && capacity < kNil);
  // Empty: every slot is invalid, so the list is slot order.
  for (std::size_t i = 0; i < capacity; ++i) {
    prev_[i] = i == 0 ? kNil : static_cast<std::uint32_t>(i - 1);
    next_[i] = i + 1 == capacity ? kNil : static_cast<std::uint32_t>(i + 1);
  }
  head_ = 0;
  tail_ = static_cast<std::uint32_t>(capacity - 1);
}

void SignatureTable::touch(std::uint32_t s) {
  if (s == tail_) return;
  // Not the tail, so next_[s] is a real slot.
  const std::uint32_t p = prev_[s];
  const std::uint32_t nx = next_[s];
  prev_[nx] = p;
  if (p == kNil) {
    head_ = nx;
  } else {
    next_[p] = nx;
  }
  prev_[s] = tail_;
  next_[s] = kNil;
  next_[tail_] = s;
  tail_ = s;
}

SignatureTable::Entry* SignatureTable::find(PageNumber page) {
  const std::uint32_t s = index_.find(page);
  if (s == TagIndex::npos) return nullptr;
  last_use_[s] = ++tick_;
  touch(s);
  return &entries_[s];
}

const SignatureTable::Entry* SignatureTable::peek(PageNumber page) const {
  const std::uint32_t s = index_.find(page);
  return s == TagIndex::npos ? nullptr : &entries_[s];
}

std::optional<PageNumber> SignatureTable::insert(PageNumber page,
                                                 const Entry& entry) {
  std::uint32_t s = index_.find(page);
  std::optional<PageNumber> evicted;
  if (s == TagIndex::npos) {
    s = head_;
    if (valid_[s] != 0) {
      evicted = keys_[s];
      index_.erase(keys_[s]);
    } else {
      valid_[s] = 1;
      ++live_;
    }
    keys_[s] = page;
    index_.insert(page, s);
  }
  entries_[s] = entry;
  last_use_[s] = ++tick_;
  touch(s);
  return evicted;
}

void SignatureTable::save_state(snapshot::Writer& w) const {
  w.u64(tick_);
  w.u64(static_cast<std::uint64_t>(live_));
  for (std::size_t i = 0; i < keys_.size(); ++i) {
    if (valid_[i] == 0) continue;
    w.u64(static_cast<std::uint64_t>(i));
    w.u64(keys_[i]);
    w.u64(last_use_[i]);
    w.u16(entries_[i].signature);
    w.i64(entries_[i].last_offset);
  }
}

void SignatureTable::load_state(snapshot::Reader& r) {
  std::fill(valid_.begin(), valid_.end(), std::uint8_t{0});
  index_.clear();
  tick_ = r.u64();
  const std::uint64_t count = r.u64();
  if (count > keys_.size()) {
    r.fail("signature table live count exceeds capacity");
  }
  std::uint64_t prev = 0;
  for (std::uint64_t n = 0; n < count; ++n) {
    const std::uint64_t i = r.u64();
    if (i >= keys_.size() || (n > 0 && i <= prev)) {
      r.fail("signature table slot index out of order");
    }
    prev = i;
    const PageNumber page = r.u64();
    if (index_.find(page) != TagIndex::npos) {
      r.fail("signature table page resident twice");
    }
    last_use_[i] = r.u64();
    if (last_use_[i] > tick_) {
      r.fail("signature table last use is ahead of the table tick");
    }
    entries_[i].signature = r.u16();
    entries_[i].last_offset = static_cast<int>(r.i64());
    keys_[i] = page;
    valid_[i] = 1;
    index_.insert(page, static_cast<std::uint32_t>(i));
  }
  live_ = static_cast<std::size_t>(count);
  // Victim order: invalid slots ascending, then valid slots by (stamp,
  // slot), which is the linear scan's minimum-stamp, lowest-slot rule.
  std::vector<std::uint32_t> order(keys_.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    order[i] = static_cast<std::uint32_t>(i);
  }
  std::stable_sort(order.begin(), order.end(),
                   [this](std::uint32_t a, std::uint32_t b) {
                     if (valid_[a] != valid_[b]) return valid_[a] < valid_[b];
                     return valid_[a] != 0 && last_use_[a] < last_use_[b];
                   });
  for (std::size_t k = 0; k < order.size(); ++k) {
    prev_[order[k]] = k == 0 ? kNil : order[k - 1];
    next_[order[k]] = k + 1 == order.size() ? kNil : order[k + 1];
  }
  head_ = order.front();
  tail_ = order.back();
}

void SppConfig::validate() const {
  if (st_entries <= 0 || pt_entries <= 0 || deltas_per_entry <= 0 ||
      counter_max <= 0 || max_lookahead <= 0 || ghr_entries <= 0) {
    throw std::invalid_argument("spp config: parameters must be positive");
  }
  if (fill_threshold <= 0.0 || fill_threshold > 1.0 || global_accuracy <= 0.0 ||
      global_accuracy > 1.0) {
    throw std::invalid_argument("spp config: thresholds must be in (0, 1]");
  }
}

namespace {

SppConfig validated(SppConfig config) {
  config.validate();
  return config;
}

}  // namespace

SignaturePathPrefetcher::SignaturePathPrefetcher(const SppConfig& config)
    : config_(validated(config)),
      st_(static_cast<std::size_t>(config_.st_entries)),
      pt_(static_cast<std::size_t>(config_.pt_entries)),
      per_entry_(static_cast<std::size_t>(config_.deltas_per_entry)),
      pt_slots_(pt_.size() * per_entry_),
      ghr_(static_cast<std::size_t>(config_.ghr_entries)) {}

void SignaturePathPrefetcher::learn(std::uint16_t sig, int delta) {
  const std::size_t e = pattern(sig);
  PtEntry& entry = pt_[e];
  DeltaSlot* const slots = slots_of(e);
  DeltaSlot* const end = slots + entry.used;
  if (entry.sig_counter >= config_.counter_max) {
    // Saturating: age everything so newer behaviour can displace stale deltas.
    entry.sig_counter /= 2;
    for (DeltaSlot* s = slots; s != end; ++s) s->counter /= 2;
  }
  ++entry.sig_counter;
  for (DeltaSlot* s = slots; s != end; ++s) {
    if (s->delta == delta) {
      if (s->counter < config_.counter_max) ++s->counter;
      return;
    }
  }
  if (static_cast<std::size_t>(entry.used) < per_entry_) {
    *end = DeltaSlot{delta, 1};
    ++entry.used;
    return;
  }
  // Replace the weakest delta slot.
  DeltaSlot* weakest = slots;
  for (DeltaSlot* s = slots; s != end; ++s) {
    if (s->counter < weakest->counter) weakest = s;
  }
  *weakest = DeltaSlot{delta, 1};
}

void SignaturePathPrefetcher::on_demand(const DemandEvent& event,
                                        std::vector<PrefetchRequest>& out) {
  // Writes train the delta chain too: at the SC level a DMA stream mixes
  // reads and writes, and skipping either would shred the delta sequence.
  const int offset = event.block_in_segment;
  std::uint16_t sig;
  double conf = 1.0;

  if (SignatureTable::Entry* st = st_.find(event.page); st != nullptr) {
    const int delta = offset - st->last_offset;
    if (delta == 0) return;  // same block re-touch carries no pattern info
    learn(st->signature, delta);
    sig = fold(st->signature, delta);
    st->signature = sig;
    st->last_offset = offset;
  } else {
    // New page: try to inherit a signature from a lookahead path that walked
    // off the end of a previous page (GHR), else bootstrap from the offset.
    sig = static_cast<std::uint16_t>(offset + 1);
    for (const auto& g : ghr_) {
      if (g.valid && ((g.last_offset + g.delta) & 0xF) == offset) {
        sig = fold(g.signature, g.delta);
        conf = g.confidence;
        break;
      }
    }
    st_.insert(event.page, SignatureTable::Entry{sig, offset});
  }

  // Lookahead walk: follow the strongest delta chain while confident.
  int pf_offset = offset;
  std::uint16_t path_sig = sig;
  for (int depth = 0; depth < config_.max_lookahead; ++depth) {
    const std::size_t e = pattern(path_sig);
    const PtEntry& entry = pt_[e];
    if (entry.sig_counter == 0 || entry.used == 0) break;
    const DeltaSlot* const slots = slots_of(e);
    const DeltaSlot* best = slots;
    for (const DeltaSlot* s = slots; s != slots + entry.used; ++s) {
      if (s->counter > best->counter) best = s;
    }
    conf *= config_.global_accuracy * static_cast<double>(best->counter) /
            static_cast<double>(entry.sig_counter);
    if (conf < config_.fill_threshold) break;

    pf_offset += best->delta;
    const std::int64_t target =
        static_cast<std::int64_t>(event.page) * kBlocksPerSegment + pf_offset;
    if (target < 0) break;
    if (pf_offset < 0 || pf_offset >= kBlocksPerSegment) {
      // Path crosses the page boundary: remember it in the GHR so the next
      // page starts warm, and keep prefetching into the neighboring page
      // (the channel-local block space is linear).
      ghr_[ghr_next_] = GhrEntry{path_sig, conf, pf_offset - best->delta,
                                 best->delta, true};
      ghr_next_ = (ghr_next_ + 1) % ghr_.size();
    }
    out.push_back(PrefetchRequest{static_cast<std::uint64_t>(target),
                                  cache::FillSource::kPrefetchOther});
    path_sig = fold(path_sig, best->delta);
  }
}

std::uint64_t SignaturePathPrefetcher::storage_bits() const {
  // ST: tag(16) + sig(12) + last offset(4) + LRU(8) per entry.
  // PT: sig counter(4) + 4 x (delta 6 + counter 4) per entry.
  // GHR: sig(12) + conf(8) + offset(5) + delta(6) per entry.
  const std::uint64_t st_bits =
      static_cast<std::uint64_t>(config_.st_entries) * (16 + 12 + 4 + 8);
  const std::uint64_t pt_bits =
      static_cast<std::uint64_t>(config_.pt_entries) *
      (4 + static_cast<std::uint64_t>(config_.deltas_per_entry) * 10);
  const std::uint64_t ghr_bits =
      static_cast<std::uint64_t>(config_.ghr_entries) * (12 + 8 + 5 + 6);
  return st_bits + pt_bits + ghr_bits;
}

void SignaturePathPrefetcher::save_state(snapshot::Writer& w) const {
  w.tag(snapshot::tag4("SPP0"));
  st_.save_state(w);
  w.u64(static_cast<std::uint64_t>(pt_.size()));
  for (std::size_t e = 0; e < pt_.size(); ++e) {
    w.i64(pt_[e].sig_counter);
    w.u32(static_cast<std::uint32_t>(pt_[e].used));
    const DeltaSlot* const slots = slots_of(e);
    for (int i = 0; i < pt_[e].used; ++i) {
      w.i64(slots[i].delta);
      w.i64(slots[i].counter);
    }
  }
  w.u64(static_cast<std::uint64_t>(ghr_.size()));
  for (const GhrEntry& e : ghr_) {
    w.u16(e.signature);
    w.f64(e.confidence);
    w.i64(e.last_offset);
    w.i64(e.delta);
    w.b(e.valid);
  }
  w.u64(static_cast<std::uint64_t>(ghr_next_));
}

void SignaturePathPrefetcher::load_state(snapshot::Reader& r) {
  r.expect_tag(snapshot::tag4("SPP0"));
  st_.load_state(r);
  if (r.u64() != pt_.size()) {
    throw snapshot::SnapshotError("SPP pattern table size mismatch");
  }
  for (std::size_t e = 0; e < pt_.size(); ++e) {
    pt_[e].sig_counter = static_cast<int>(r.i64());
    const std::uint32_t n = r.u32();
    if (n > per_entry_) {
      throw snapshot::SnapshotError("SPP delta slot count exceeds config");
    }
    pt_[e].used = static_cast<int>(n);
    DeltaSlot* const slots = slots_of(e);
    for (std::uint32_t i = 0; i < n; ++i) {
      slots[i].delta = static_cast<int>(r.i64());
      slots[i].counter = static_cast<int>(r.i64());
    }
  }
  if (r.u64() != ghr_.size()) {
    throw snapshot::SnapshotError("SPP GHR size mismatch");
  }
  for (GhrEntry& e : ghr_) {
    e.signature = r.u16();
    e.confidence = r.f64();
    e.last_offset = static_cast<int>(r.i64());
    e.delta = static_cast<int>(r.i64());
    e.valid = r.b();
  }
  ghr_next_ = static_cast<std::size_t>(r.u64());
  if (!ghr_.empty() && ghr_next_ >= ghr_.size()) {
    throw snapshot::SnapshotError("SPP GHR cursor out of range");
  }
}

}  // namespace planaria::prefetch
