#include "prefetch/sms.hpp"

#include <stdexcept>

namespace planaria::prefetch {

void SmsConfig::validate() const {
  if (agt_sets <= 0 || agt_ways <= 0 || pht_entries <= 0 ||
      generation_timeout == 0 || sweep_interval == 0) {
    throw std::invalid_argument("sms config: parameters must be positive");
  }
  if ((agt_sets & (agt_sets - 1)) != 0) {
    throw std::invalid_argument(
        "sms config: AGT set count must be a power of two");
  }
  if (agt_ways > SetAssocTable<PageNumber, int>::kMaxWays) {
    throw std::invalid_argument("sms config: at most 64 AGT ways per set");
  }
}

namespace {

SmsConfig validated(SmsConfig config) {
  config.validate();
  return config;
}

}  // namespace

SmsPrefetcher::SmsPrefetcher(const SmsConfig& config)
    : config_(validated(config)),
      agt_(static_cast<std::size_t>(config_.agt_sets), config_.agt_ways),
      pht_(static_cast<std::size_t>(config_.pht_entries)),
      pht_valid_(static_cast<std::size_t>(config_.pht_entries), false) {}

SegmentBitmap SmsPrefetcher::rotate(SegmentBitmap bm, int by) {
  const auto raw = bm.raw();
  const int n = SegmentBitmap::size();
  const int shift = ((by % n) + n) % n;
  const auto rotated =
      ((raw >> shift) | (raw << (n - shift))) & SegmentBitmap::mask();
  return SegmentBitmap(rotated);
}

void SmsPrefetcher::close_generation(const Generation& gen) {
  if (gen.bitmap.popcount() < 2) return;  // a lone trigger carries no pattern
  // {device, trigger offset} is the best PC-free signature available: every
  // generation a device opens at the same offset aliases into one slot — the
  // limitation this baseline exists to demonstrate. Stored trigger-relative.
  const int sig = signature(gen.device, gen.trigger_offset) %
                  static_cast<int>(pht_.size());
  pht_[static_cast<std::size_t>(sig)] = rotate(gen.bitmap, gen.trigger_offset);
  pht_valid_[static_cast<std::size_t>(sig)] = true;
}

void SmsPrefetcher::sweep(Cycle now) {
  agt_.evict_if(
      [&](PageNumber, const Generation& g) {
        return now > g.last_access &&
               now - g.last_access > config_.generation_timeout;
      },
      [&](PageNumber, Generation&& g) { close_generation(g); });
}

void SmsPrefetcher::on_demand(const DemandEvent& event,
                              std::vector<PrefetchRequest>& out) {
  if (++accesses_since_sweep_ >= config_.sweep_interval) {
    accesses_since_sweep_ = 0;
    sweep(event.now);
  }

  if (Generation* gen = agt_.find(event.page); gen != nullptr) {
    gen->bitmap.set(event.block_in_segment);
    gen->last_access = event.now;
    return;
  }

  // New generation: train-on-close bookkeeping plus predict-on-open issuing.
  Generation fresh;
  fresh.bitmap.set(event.block_in_segment);
  fresh.trigger_offset = event.block_in_segment;
  fresh.device = event.device;
  fresh.last_access = event.now;
  if (auto evicted = agt_.insert(event.page, fresh); evicted.has_value()) {
    close_generation(evicted->second);
  }

  if (event.sc_hit) return;
  const int sig = signature(event.device, event.block_in_segment) %
                  static_cast<int>(pht_.size());
  if (!pht_valid_[static_cast<std::size_t>(sig)]) return;
  const SegmentBitmap predicted =
      rotate(pht_[static_cast<std::size_t>(sig)], -event.block_in_segment);
  predicted.for_each_set([&](int block) {
    if (block == event.block_in_segment) return;
    out.push_back(PrefetchRequest{
        event.page * kBlocksPerSegment + static_cast<std::uint64_t>(block),
        cache::FillSource::kPrefetchOther});
  });
}

std::uint64_t SmsPrefetcher::storage_bits() const {
  // AGT: tag(28) + bitmap(16) + trigger(4) + time(20) + lru(3).
  // PHT: bitmap(16) + valid(1).
  return static_cast<std::uint64_t>(config_.agt_sets) * config_.agt_ways *
             (28 + 16 + 4 + 20 + 3) +
         static_cast<std::uint64_t>(config_.pht_entries) * 17;
}

void SmsPrefetcher::save_state(snapshot::Writer& w) const {
  w.tag(snapshot::tag4("SMS0"));
  agt_.save_state(w, [](snapshot::Writer& o, const Generation& g) {
    o.u16(static_cast<std::uint16_t>(g.bitmap.raw()));
    o.i64(g.trigger_offset);
    o.u8(static_cast<std::uint8_t>(g.device));
    o.u64(g.last_access);
  });
  w.u64(static_cast<std::uint64_t>(pht_.size()));
  for (std::size_t i = 0; i < pht_.size(); ++i) {
    w.b(pht_valid_[i]);
    w.u16(static_cast<std::uint16_t>(pht_[i].raw()));
  }
  w.u64(accesses_since_sweep_);
}

void SmsPrefetcher::load_state(snapshot::Reader& r) {
  r.expect_tag(snapshot::tag4("SMS0"));
  agt_.load_state(r, [](snapshot::Reader& i) {
    Generation g;
    g.bitmap = SegmentBitmap(i.u16());
    g.trigger_offset = static_cast<int>(i.i64());
    const std::uint8_t dev = i.u8();
    if (dev >= static_cast<std::uint8_t>(DeviceId::kCount)) {
      throw snapshot::SnapshotError("SMS generation device id out of range");
    }
    g.device = static_cast<DeviceId>(dev);
    g.last_access = i.u64();
    return g;
  });
  if (r.u64() != pht_.size()) {
    throw snapshot::SnapshotError("SMS PHT size mismatch");
  }
  for (std::size_t i = 0; i < pht_.size(); ++i) {
    pht_valid_[i] = r.b();
    pht_[i] = SegmentBitmap(r.u16());
  }
  accesses_since_sweep_ = r.u64();
}

}  // namespace planaria::prefetch
