// Property-based tests: randomized inputs checked against invariants and
// reference models, parameterized over seeds (and configs) with gtest's
// TEST_P machinery. These catch the classes of bug example-based tests miss:
// bookkeeping drift under arbitrary interleavings, conservation violations,
// and table/reference divergence.
#include <gtest/gtest.h>

#include <bitset>
#include <map>
#include <unordered_map>
#include <unordered_set>

#include "cache/system_cache.hpp"
#include "common/bitmap.hpp"
#include "common/rng.hpp"
#include "common/set_table.hpp"
#include "core/planaria.hpp"
#include "prefetch/spp.hpp"
#include "dram/channel.hpp"
#include "trace/apps.hpp"
#include "trace/generator.hpp"

namespace planaria {
namespace {

class SeededProperty : public ::testing::TestWithParam<std::uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, SeededProperty,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u, 34u));

// ----------------------------------------------------- bitmap vs std::bitset

TEST_P(SeededProperty, BitmapMatchesBitsetReference) {
  Rng rng(GetParam());
  SegmentBitmap bm;
  std::bitset<16> ref;
  for (int step = 0; step < 2000; ++step) {
    const int bit = static_cast<int>(rng.next_below(16));
    switch (rng.next_below(3)) {
      case 0:
        bm.set(bit);
        ref.set(static_cast<std::size_t>(bit));
        break;
      case 1:
        bm.clear(bit);
        ref.reset(static_cast<std::size_t>(bit));
        break;
      default:
        ASSERT_EQ(bm.test(bit), ref.test(static_cast<std::size_t>(bit)));
    }
    ASSERT_EQ(bm.popcount(), static_cast<int>(ref.count()));
    ASSERT_EQ(bm.empty(), ref.none());
  }
}

TEST_P(SeededProperty, BitmapSetAlgebra) {
  Rng rng(GetParam());
  for (int step = 0; step < 500; ++step) {
    const SegmentBitmap a(rng.next());
    const SegmentBitmap b(rng.next());
    // |A| + |B| = |A∪B| + |A∩B|
    ASSERT_EQ(a.popcount() + b.popcount(),
              (a | b).popcount() + a.common_with(b));
    // Hamming = |A\B| + |B\A|
    ASSERT_EQ(a.hamming_distance(b),
              a.minus(b).popcount() + b.minus(a).popcount());
    // minus is disjoint from the subtrahend
    ASSERT_EQ(a.minus(b).common_with(b), 0);
  }
}

// ------------------------------------------------ tables vs map references

TEST_P(SeededProperty, SignatureTableNeverLosesMostRecent) {
  Rng rng(GetParam());
  prefetch::SignatureTable table(8);
  std::uint64_t last_key = 0;
  bool have_last = false;
  for (int step = 0; step < 3000; ++step) {
    const std::uint64_t key = rng.next_below(32);
    if (rng.chance(0.6)) {
      table.insert(key, {static_cast<std::uint16_t>(key * 10),
                         static_cast<int>(key % 16)});
      last_key = key;
      have_last = true;
    } else if (const auto* v = table.find(key); v != nullptr) {
      ASSERT_EQ(v->signature, key * 10);
      ASSERT_EQ(v->last_offset, static_cast<int>(key % 16));
      last_key = key;  // find refreshes recency
    }
    ASSERT_LE(table.size(), table.capacity());
    if (have_last) {
      ASSERT_NE(table.peek(last_key), nullptr)
          << "most recently inserted/refreshed key must survive";
    }
  }
}

TEST_P(SeededProperty, SetAssocTableValuesNeverCorrupt) {
  Rng rng(GetParam());
  SetAssocTable<std::uint64_t, std::uint64_t> table(8, 4);
  std::unordered_map<std::uint64_t, std::uint64_t> reference;
  for (int step = 0; step < 5000; ++step) {
    const std::uint64_t key = rng.next_below(200);
    if (rng.chance(0.6)) {
      const std::uint64_t value = rng.next();
      table.insert(key, value);
      reference[key] = value;
    } else if (const auto* v = table.find(key); v != nullptr) {
      // The table may evict entries the reference keeps, but an entry it
      // still holds must carry the last written value.
      ASSERT_EQ(*v, reference.at(key));
    }
    ASSERT_LE(table.size(), table.capacity());
  }
}

// ------------------------------------------------------ cache conservation

TEST_P(SeededProperty, CacheStatsConserve) {
  Rng rng(GetParam());
  cache::CacheConfig config;
  config.size_bytes = 1 << 13;
  config.ways = 4;
  cache::SystemCache cache(config);
  std::uint64_t reads = 0, writes = 0;
  std::uint64_t pf_fills = 0;
  for (int step = 0; step < 20000; ++step) {
    const std::uint64_t block = rng.next_below(600);
    if (rng.chance(0.6)) {
      const bool write = rng.chance(0.25);
      const auto r = cache.access(
          block, write ? AccessType::kWrite : AccessType::kRead);
      reads += write ? 0 : 1;
      writes += write ? 1 : 0;
      if (!write && !r.hit && rng.chance(0.8)) {
        cache.fill(block, cache::FillSource::kDemand);
      }
    } else {
      const auto source = rng.chance(0.5) ? cache::FillSource::kPrefetchSlp
                                          : cache::FillSource::kPrefetchTlp;
      const bool was_present = cache.contains(block);
      cache.fill(block, source);
      pf_fills += was_present ? 0 : 1;
    }
  }
  const auto& s = cache.stats();
  ASSERT_EQ(s.demand_accesses, reads);
  ASSERT_EQ(s.demand_hits + s.demand_misses, reads);
  ASSERT_EQ(s.write_hits + s.write_misses, writes);
  ASSERT_EQ(s.prefetch_fills, pf_fills);
  // Every useful prefetch was a prefetch fill; sources partition the total.
  ASSERT_EQ(s.hits_on_slp + s.hits_on_tlp + s.hits_on_other_pf,
            s.demand_hits_on_prefetch);
  ASSERT_LE(s.demand_hits_on_prefetch + s.prefetch_unused_evictions, pf_fills);
}

// --------------------------------------------------- DRAM channel invariants

TEST_P(SeededProperty, DramConservesRequestsAndOrdersTime) {
  Rng rng(GetParam());
  dram::DramConfig config;
  dram::DramChannel channel(config);
  Cycle t = 0;
  std::uint64_t submitted_reads = 0, submitted_writes = 0, dropped = 0;
  std::uint64_t next_write_block = 1000000;  // unique per write: no coalescing
  for (int i = 0; i < 3000; ++i) {
    t += rng.next_below(60);
    channel.advance(t);
    dram::DramRequest req;
    req.is_write = rng.chance(0.3);
    // Writes get unique blocks so the coalescing path (tested separately)
    // cannot blur the conservation count.
    req.local_block = req.is_write ? next_write_block++ : rng.next_below(5000);
    req.arrival = t;
    req.is_prefetch = !req.is_write && rng.chance(0.3);
    req.tag = static_cast<std::uint64_t>(i);
    const bool accepted = channel.submit(req);
    if (!accepted) {
      ++dropped;
    } else if (req.is_write) {
      ++submitted_writes;
    } else {
      ++submitted_reads;
    }
    if (rng.chance(0.05)) {
      channel.drain();  // periodically retire everything
    }
  }
  channel.drain();
  const auto done = channel.take_completions();
  // Conservation: every accepted read completes exactly once; writes complete
  // minus coalesced merges.
  std::uint64_t read_completions = 0, write_completions = 0;
  Cycle prev_finish = 0;
  for (const auto& c : done) {
    ASSERT_GE(c.finish, prev_finish) << "completions sorted by finish";
    prev_finish = c.finish;
    ASSERT_GE(c.finish, c.arrival) << "no time travel";
    if (c.is_write) {
      ++write_completions;
    } else {
      ++read_completions;
    }
  }
  ASSERT_EQ(read_completions, submitted_reads);
  ASSERT_EQ(write_completions, submitted_writes);
  ASSERT_EQ(channel.counters().prefetch_drops, dropped);
  // Row hits + misses account for every non-forwarded data burst.
  const auto& counters = channel.counters();
  ASSERT_EQ(counters.row_hits + counters.row_misses,
            counters.reads + counters.writes);
}

TEST_P(SeededProperty, DramReadLatencyBounds) {
  Rng rng(GetParam());
  dram::DramConfig config;
  dram::DramChannel channel(config);
  const auto min_latency =
      static_cast<Cycle>(config.timing.tCL);  // forwarding floor
  Cycle t = 0;
  for (int i = 0; i < 500; ++i) {
    t += 50 + rng.next_below(100);
    channel.advance(t);
    dram::DramRequest req;
    req.local_block = rng.next_below(2000);
    req.arrival = t;
    req.tag = static_cast<std::uint64_t>(i);
    channel.submit(req);
  }
  channel.drain();
  for (const auto& c : channel.take_completions()) {
    ASSERT_GE(c.finish - c.arrival, min_latency);
    // Generous upper bound: queue depth x worst-case row cycle.
    ASSERT_LT(c.finish - c.arrival, 100000u);
  }
}

// ----------------------------------------------------- generator invariants

class AppProperty : public ::testing::TestWithParam<std::string> {};

INSTANTIATE_TEST_SUITE_P(Apps, AppProperty,
                         ::testing::ValuesIn(trace::app_names()),
                         [](const auto& param_info) {
                           std::string name = param_info.param;
                           for (auto& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

TEST_P(AppProperty, TracesAreWellFormed) {
  const auto& app = trace::app_by_name(GetParam());
  const auto records = trace::generate_app_trace(app, 30000);
  ASSERT_GE(records.size(), 29000u);
  Cycle prev = 0;
  for (std::size_t i = 0; i < records.size(); ++i) {
    const trace::TraceRecord r = records.record(i);
    ASSERT_GE(r.arrival, prev) << "arrivals must be non-decreasing";
    prev = r.arrival;
    ASSERT_EQ(r.address % kBlockBytes, 0u) << "addresses block-aligned";
    ASSERT_LT(static_cast<int>(r.device), static_cast<int>(DeviceId::kCount));
  }
}

TEST_P(AppProperty, TracePacingMatchesMeanGap) {
  const auto& app = trace::app_by_name(GetParam());
  const auto records = trace::generate_app_trace(app, 30000);
  const double span =
      static_cast<double>(records.arrivals()[records.size() - 1]);
  const double mean_gap = span / static_cast<double>(records.size());
  // The generator must land within 2x of the profile's intensity target —
  // the DRAM contention calibration depends on it.
  ASSERT_GT(mean_gap, 0.5 * static_cast<double>(app.mean_gap));
  ASSERT_LT(mean_gap, 2.0 * static_cast<double>(app.mean_gap));
}

TEST_P(AppProperty, FootprintRegionsAreDisjoint) {
  const auto& app = trace::app_by_name(GetParam());
  // The four component address regions must not collide, or analysis would
  // conflate pattern classes.
  const auto records = trace::generate_app_trace(app, 30000);
  for (std::size_t i = 0; i < records.size(); ++i) {
    const auto pn = addr::page_number(records.addresses()[i]);
    int owners = 0;
    // Twins can step slightly below base_page; allow the span slack.
    if (pn >= app.footprint.base_page - 64 &&
        pn < app.footprint.base_page + app.footprint.page_span + 64) {
      ++owners;
    }
    if (pn >= app.neighbor.base_page &&
        pn < app.neighbor.base_page +
                 static_cast<PageNumber>(app.neighbor.clusters) *
                     app.neighbor.cluster_stride) {
      ++owners;
    }
    if (pn >= app.stream.base_page && pn < app.irregular.base_page) {
      ++owners;  // streams grow upward, bounded by the irregular region
    }
    if (pn >= app.irregular.base_page &&
        pn < app.irregular.base_page + app.irregular.page_span) {
      ++owners;
    }
    ASSERT_LE(owners, 1) << "page 0x" << std::hex << pn
                         << " claimed by multiple components";
  }
}

// ----------------------------------------------------- prefetcher invariants

TEST_P(SeededProperty, PlanariaPrefetchesStayOnTriggerPage) {
  Rng rng(GetParam());
  core::PlanariaPrefetcher pf;
  std::vector<prefetch::PrefetchRequest> out;
  for (int i = 0; i < 20000; ++i) {
    prefetch::DemandEvent e;
    e.page = rng.next_below(64);
    e.block_in_segment = static_cast<int>(rng.next_below(16));
    e.local_block = e.page * kBlocksPerSegment +
                    static_cast<std::uint64_t>(e.block_in_segment);
    e.now = static_cast<Cycle>(i) * 20;
    e.sc_hit = rng.chance(0.4);
    out.clear();
    pf.on_demand(e, out);
    for (const auto& r : out) {
      // Both sub-prefetchers predict blocks of the page that triggered them.
      ASSERT_EQ(r.local_block / kBlocksPerSegment, e.page);
      ASSERT_NE(r.local_block, e.local_block) << "never prefetch the trigger";
      ASSERT_TRUE(r.source == cache::FillSource::kPrefetchSlp ||
                  r.source == cache::FillSource::kPrefetchTlp);
    }
  }
  // Coordinator bookkeeping: every trigger is attributed exactly once.
  const auto& s = pf.stats();
  ASSERT_EQ(s.triggers, s.slp_issues + s.tlp_issues + s.no_issues);
}

TEST_P(SeededProperty, SlpNeverIssuesAccessedBlocks) {
  Rng rng(GetParam());
  core::SlpConfig config;
  config.at_timeout = 500;
  config.sweep_interval = 1;
  core::Slp slp(config);
  std::vector<prefetch::PrefetchRequest> out;
  Cycle now = 0;
  std::map<PageNumber, SegmentBitmap> visit_bits;
  for (int i = 0; i < 10000; ++i) {
    now += 20;
    prefetch::DemandEvent e;
    e.page = rng.next_below(16);
    e.block_in_segment = static_cast<int>(rng.next_below(16));
    e.now = now;
    slp.learn(e);
    out.clear();
    if (slp.issue(e, out)) {
      for (const auto& r : out) {
        ASSERT_NE(static_cast<int>(r.local_block % kBlocksPerSegment),
                  e.block_in_segment);
      }
    }
  }
}

}  // namespace
}  // namespace planaria
