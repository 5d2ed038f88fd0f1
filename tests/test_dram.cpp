// Unit tests for the LPDDR4 DRAM model: config validation, address mapping,
// bank timing, scheduling policy, refresh, write handling, and power.
#include <gtest/gtest.h>

#include <random>
#include <set>

#include "dram/channel.hpp"
#include "dram/config.hpp"
#include "dram/power.hpp"

namespace planaria::dram {
namespace {

DramConfig test_config() {
  DramConfig config;  // Table 1 defaults
  return config;
}

/// Submits a read at `arrival` and returns its completion.
DramCompletion one_read(DramChannel& channel, std::uint64_t block,
                        Cycle arrival, bool prefetch = false) {
  channel.advance(arrival);
  DramRequest req;
  req.local_block = block;
  req.arrival = arrival;
  req.is_prefetch = prefetch;
  req.tag = block;
  EXPECT_TRUE(channel.submit(req));
  channel.drain();
  const auto done = channel.take_completions();
  EXPECT_EQ(done.size(), 1u);
  return done.front();
}

// ------------------------------------------------------------------- config

TEST(DramConfig, DefaultsValidate) { EXPECT_NO_THROW(test_config().validate()); }

TEST(DramConfig, RejectsNonPositiveTiming) {
  DramConfig config = test_config();
  config.timing.tRCD = 0;
  EXPECT_THROW(config.validate(), std::invalid_argument);
}

TEST(DramConfig, RejectsInconsistentTrc) {
  DramConfig config = test_config();
  config.timing.tRC = config.timing.tRAS - 1;
  EXPECT_THROW(config.validate(), std::invalid_argument);
}

TEST(DramConfig, RejectsRefreshStarvation) {
  DramConfig config = test_config();
  config.timing.tREFI = config.timing.tRFC;
  EXPECT_THROW(config.validate(), std::invalid_argument);
}

TEST(DramConfig, RejectsOddBurstLength) {
  DramConfig config = test_config();
  config.timing.burst_length = 15;
  EXPECT_THROW(config.validate(), std::invalid_argument);
}

TEST(DramConfig, RejectsNonPowerOfTwoBanks) {
  DramConfig config = test_config();
  config.geometry.banks = 6;
  EXPECT_THROW(config.validate(), std::invalid_argument);
}

TEST(DramConfig, RejectsNonPowerOfTwoRanksAndRows) {
  for (const int ranks : {3, 6}) {
    DramConfig config = test_config();
    config.geometry.ranks = ranks;
    EXPECT_THROW(config.validate(), std::invalid_argument) << ranks;
    EXPECT_THROW(AddressMapper{config.geometry}, std::invalid_argument);
  }
  for (const int rows : {3, (1 << 15) - 1, (1 << 15) + 1}) {
    DramConfig config = test_config();
    config.geometry.rows = rows;
    EXPECT_THROW(config.validate(), std::invalid_argument) << rows;
    EXPECT_THROW(AddressMapper{config.geometry}, std::invalid_argument);
  }
}

TEST(DramConfig, RejectsInvertedDrainThresholds) {
  DramConfig config = test_config();
  config.controller.write_drain_low = config.controller.write_drain_high;
  EXPECT_THROW(config.validate(), std::invalid_argument);
}

// ----------------------------------------------------------- address mapping

// The shift-and-mask decode must equal the mixed-radix division formula it
// replaced, over random blocks spanning every digit (the row digit wraps),
// for 1- and 2-rank channels and a small geometry.
TEST(AddressMapper, ShiftDecodeMatchesDivisionFormula) {
  GeometryConfig two_rank;
  two_rank.ranks = 2;
  GeometryConfig small;
  small.ranks = 4;
  small.banks = 2;
  small.rows = 8;
  small.blocks_per_row = 4;
  std::mt19937_64 rng(0xADD2);
  for (const GeometryConfig& g : {GeometryConfig{}, two_rank, small}) {
    const AddressMapper mapper(g);
    const auto div = [&](std::uint64_t block) {
      BlockLocation loc;
      const auto per_row = static_cast<std::uint64_t>(g.blocks_per_row);
      const auto banks = static_cast<std::uint64_t>(g.banks);
      const auto ranks = static_cast<std::uint64_t>(g.ranks);
      loc.column = static_cast<int>(block % per_row);
      std::uint64_t rest = block / per_row;
      loc.bank = static_cast<int>(rest % banks);
      rest /= banks;
      loc.rank = static_cast<int>(rest % ranks);
      rest /= ranks;
      loc.row = static_cast<std::uint32_t>(rest % static_cast<std::uint64_t>(g.rows));
      return loc;
    };
    for (int i = 0; i < 20000; ++i) {
      // Half the draws stay inside one channel's capacity, half use all 64
      // bits so the row digit wraps.
      const std::uint64_t block = i % 2 == 0 ? rng() % (std::uint64_t{1} << 26)
                                             : rng();
      const BlockLocation got = mapper.map(block);
      const BlockLocation want = div(block);
      ASSERT_EQ(got.column, want.column) << block;
      ASSERT_EQ(got.bank, want.bank) << block;
      ASSERT_EQ(got.rank, want.rank) << block;
      ASSERT_EQ(got.row, want.row) << block;
    }
  }
}

TEST(AddressMapper, LocalBlockStripsChannelBits) {
  // Page 5, channel 2, block-in-segment 3 => local block 5*16 + 3.
  const Address a = addr::compose_segment(5, 2, 3);
  EXPECT_EQ(AddressMapper::local_block(a), 5u * 16 + 3);
}

TEST(AddressMapper, MapCoversAllBanks) {
  AddressMapper mapper(test_config().geometry);
  std::set<int> banks;
  for (std::uint64_t block = 0; block < 1024; block += 32) {
    banks.insert(mapper.map(block).bank);
  }
  EXPECT_EQ(banks.size(), 8u);
}

TEST(AddressMapper, SequentialBlocksShareRow) {
  AddressMapper mapper(test_config().geometry);
  const auto a = mapper.map(0);
  const auto b = mapper.map(1);
  EXPECT_EQ(a.bank, b.bank);
  EXPECT_EQ(a.row, b.row);
  EXPECT_EQ(b.column, a.column + 1);
}

TEST(AddressMapper, MapIsInjectiveOverARegion) {
  AddressMapper mapper(test_config().geometry);
  std::set<std::tuple<int, std::uint32_t, int>> seen;
  for (std::uint64_t block = 0; block < 4096; ++block) {
    const auto loc = mapper.map(block);
    EXPECT_TRUE(seen.insert({loc.bank, loc.row, loc.column}).second)
        << "collision at block " << block;
  }
}

// ------------------------------------------------------------------- timing

TEST(DramChannel, ColdReadLatencyIsActPlusCasPlusBurst) {
  DramChannel channel(test_config());
  const auto& t = test_config().timing;
  const auto done = one_read(channel, 0, 100);
  // ACT at 100, RD at +tRCD, data end at +tCL+burst.
  const Cycle expected =
      100 + static_cast<Cycle>(t.tRCD + t.tCL + t.burst_cycles());
  EXPECT_EQ(done.finish, expected);
  EXPECT_FALSE(done.row_hit);
}

TEST(DramChannel, RowHitIsFasterThanRowMiss) {
  DramConfig config = test_config();
  DramChannel channel(config);
  const auto first = one_read(channel, 0, 100);
  const auto second = one_read(channel, 1, 1000);  // same row
  EXPECT_TRUE(second.row_hit);
  const Cycle first_latency = first.finish - 100;
  const Cycle second_latency = second.finish - 1000;
  EXPECT_LT(second_latency, first_latency);
}

TEST(DramChannel, RowConflictIsSlowerThanRowHit) {
  DramConfig config = test_config();
  const auto blocks_per_row =
      static_cast<std::uint64_t>(config.geometry.blocks_per_row);
  DramChannel channel(config);
  one_read(channel, 0, 100);
  // Same bank, different row: blocks_per_row * banks apart. All arrivals stay
  // inside the first tREFI window so refresh does not close the rows.
  const auto conflict_block =
      blocks_per_row * static_cast<std::uint64_t>(config.geometry.banks);
  const auto conflict = one_read(channel, conflict_block, 3000);
  EXPECT_FALSE(conflict.row_hit);
  const auto hit = one_read(channel, conflict_block + 1, 4000);
  EXPECT_TRUE(hit.row_hit);
}

TEST(DramChannel, BackToBackReadsRespectTccd) {
  DramConfig config = test_config();
  DramChannel channel(config);
  channel.advance(100);
  for (int i = 0; i < 4; ++i) {
    DramRequest req;
    req.local_block = static_cast<std::uint64_t>(i);
    req.arrival = 100;
    req.tag = static_cast<std::uint64_t>(i);
    channel.submit(req);
  }
  channel.drain();
  const auto done = channel.take_completions();
  ASSERT_EQ(done.size(), 4u);
  for (std::size_t i = 1; i < done.size(); ++i) {
    EXPECT_GE(done[i].finish - done[i - 1].finish,
              static_cast<Cycle>(config.timing.tCCD));
  }
}

TEST(DramChannel, CompletionsSortedByFinish) {
  DramChannel channel(test_config());
  channel.advance(10);
  for (int i = 0; i < 16; ++i) {
    DramRequest req;
    req.local_block = static_cast<std::uint64_t>(i) * 257;  // scatter banks
    req.arrival = 10;
    req.tag = static_cast<std::uint64_t>(i);
    channel.submit(req);
  }
  channel.drain();
  const auto done = channel.take_completions();
  ASSERT_EQ(done.size(), 16u);
  for (std::size_t i = 1; i < done.size(); ++i) {
    EXPECT_GE(done[i].finish, done[i - 1].finish);
  }
}

// ---------------------------------------------------------------- scheduling

TEST(DramChannel, FrfcfsPrefersRowHits) {
  DramConfig config = test_config();
  DramChannel channel(config);
  // Open row 0 of bank 0. Stay inside the first tREFI window so refresh
  // cannot close the row under the test.
  one_read(channel, 0, 100);
  channel.advance(2000);
  // Submit a row-conflict (same bank, other row) then a row-hit.
  const auto conflict_block =
      static_cast<std::uint64_t>(config.geometry.blocks_per_row) *
      static_cast<std::uint64_t>(config.geometry.banks);
  DramRequest conflict;
  conflict.local_block = conflict_block;
  conflict.arrival = 2000;
  conflict.tag = 1;
  channel.submit(conflict);
  DramRequest hit;
  hit.local_block = 1;  // still in open row 0
  hit.arrival = 2000;
  hit.tag = 2;
  channel.submit(hit);
  channel.drain();
  const auto done = channel.take_completions();
  ASSERT_EQ(done.size(), 2u);
  EXPECT_EQ(done[0].tag, 2u) << "row hit should be served first";
}

TEST(DramChannel, DemandBeatsPrefetchAtSameReadiness) {
  DramConfig config = test_config();
  DramChannel channel(config);
  channel.advance(100);
  DramRequest pf;
  pf.local_block = 0;
  pf.arrival = 100;
  pf.is_prefetch = true;
  pf.tag = 1;
  channel.submit(pf);
  DramRequest demand;
  demand.local_block = 1024;  // different bank
  demand.arrival = 100;
  demand.tag = 2;
  channel.submit(demand);
  channel.drain();
  const auto done = channel.take_completions();
  ASSERT_EQ(done.size(), 2u);
  EXPECT_EQ(done[0].tag, 2u) << "demand should be served first";
}

TEST(DramChannel, PrefetchDroppedWhenQueueFull) {
  DramConfig config = test_config();
  config.controller.read_queue_depth = 4;
  DramChannel channel(config);
  channel.advance(1);
  bool any_dropped = false;
  for (int i = 0; i < 16; ++i) {
    DramRequest req;
    req.local_block = static_cast<std::uint64_t>(i) * 997;
    req.arrival = 1;
    req.is_prefetch = true;
    req.tag = static_cast<std::uint64_t>(i);
    if (!channel.submit(req)) any_dropped = true;
  }
  EXPECT_TRUE(any_dropped);
  EXPECT_GT(channel.counters().prefetch_drops, 0u);
  channel.drain();
}

TEST(DramChannel, DemandAcceptedEvenWhenQueueFull) {
  DramConfig config = test_config();
  config.controller.read_queue_depth = 2;
  DramChannel channel(config);
  channel.advance(1);
  for (int i = 0; i < 8; ++i) {
    DramRequest req;
    req.local_block = static_cast<std::uint64_t>(i) * 997;
    req.arrival = 1;
    req.tag = static_cast<std::uint64_t>(i);
    EXPECT_TRUE(channel.submit(req));
  }
  EXPECT_GT(channel.counters().read_queue_overflows, 0u);
  channel.drain();
  EXPECT_EQ(channel.take_completions().size(), 8u);
}

// ------------------------------------------------------------------- writes

TEST(DramChannel, WritesComplete) {
  DramChannel channel(test_config());
  channel.advance(10);
  DramRequest req;
  req.local_block = 5;
  req.arrival = 10;
  req.is_write = true;
  req.tag = 1;
  channel.submit(req);
  channel.drain();
  const auto done = channel.take_completions();
  ASSERT_EQ(done.size(), 1u);
  EXPECT_TRUE(done[0].is_write);
  EXPECT_EQ(channel.counters().writes, 1u);
}

TEST(DramChannel, WriteCoalescingMergesSameBlock) {
  DramChannel channel(test_config());
  channel.advance(10);
  for (int i = 0; i < 3; ++i) {
    DramRequest req;
    req.local_block = 7;
    req.arrival = 10;
    req.is_write = true;
    req.tag = static_cast<std::uint64_t>(i);
    channel.submit(req);
  }
  channel.drain();
  EXPECT_EQ(channel.counters().writes, 1u) << "coalesced into one burst";
}

TEST(DramChannel, ReadForwardedFromWriteQueue) {
  DramChannel channel(test_config());
  channel.advance(10);
  DramRequest wr;
  wr.local_block = 9;
  wr.arrival = 10;
  wr.is_write = true;
  wr.tag = 1;
  channel.submit(wr);
  DramRequest rd;
  rd.local_block = 9;
  rd.arrival = 10;
  rd.tag = 2;
  channel.submit(rd);
  channel.drain();
  const auto done = channel.take_completions();
  bool forwarded = false;
  for (const auto& c : done) forwarded |= c.forwarded;
  EXPECT_TRUE(forwarded);
  EXPECT_EQ(channel.counters().forwarded_reads, 1u);
}

TEST(DramChannel, WriteDrainEventuallyServesWrites) {
  DramConfig config = test_config();
  DramChannel channel(config);
  channel.advance(10);
  for (int i = 0; i < 20; ++i) {
    DramRequest req;
    req.local_block = static_cast<std::uint64_t>(i) * 31;
    req.arrival = 10;
    req.is_write = true;
    req.tag = static_cast<std::uint64_t>(i);
    channel.submit(req);
  }
  channel.drain();
  EXPECT_EQ(channel.counters().writes, 20u);
  EXPECT_EQ(channel.write_queue_size(), 0u);
}

// ------------------------------------------------------------------ refresh

TEST(DramChannel, RefreshHappensWhenIdle) {
  DramConfig config = test_config();
  DramChannel channel(config);
  // Idle for 10 refresh intervals: all deadlines must be honored.
  channel.advance(static_cast<Cycle>(config.timing.tREFI) * 10 + 100);
  EXPECT_GE(channel.counters().refreshes, 9u);
  EXPECT_LE(channel.counters().refreshes, 11u);
}

TEST(DramChannel, RefreshDebtIsBounded) {
  DramConfig config = test_config();
  DramChannel channel(config);
  // Keep the channel busy across many tREFI periods; postponement is capped
  // at 8, so refreshes must still happen.
  Cycle t = 0;
  for (int i = 0; i < 4000; ++i) {
    t += 30;
    channel.advance(t);
    DramRequest req;
    req.local_block = static_cast<std::uint64_t>(i) * 7919 % 100000;
    req.arrival = t;
    req.tag = static_cast<std::uint64_t>(i);
    channel.submit(req);
  }
  channel.drain();
  const auto elapsed = channel.now();
  const auto periods = elapsed / static_cast<Cycle>(config.timing.tREFI);
  EXPECT_GE(channel.counters().refreshes + 9, periods);
}

TEST(DramChannel, TimeOnlyMovesForward) {
  DramChannel channel(test_config());
  channel.advance(1000);
  EXPECT_EQ(channel.now(), 1000u);
  channel.advance(500);  // going backwards is a no-op
  EXPECT_EQ(channel.now(), 1000u);
}

// --------------------------------------------------------------- multi-rank

TEST(MultiRank, MappingCoversBothRanks) {
  GeometryConfig g;
  g.ranks = 2;
  AddressMapper mapper(g);
  std::set<int> ranks;
  for (std::uint64_t block = 0; block < 2048; block += 32) {
    const auto loc = mapper.map(block);
    EXPECT_GE(loc.rank, 0);
    EXPECT_LT(loc.rank, 2);
    ranks.insert(loc.rank);
  }
  EXPECT_EQ(ranks.size(), 2u);
}

TEST(MultiRank, SingleRankMappingUnchanged) {
  // With 1 rank the rank digit decodes to zero and (bank,row,col) match the
  // historical layout, so Table 1 results are unaffected by the multi-rank
  // generalization.
  GeometryConfig one;
  GeometryConfig two = one;
  two.ranks = 2;
  AddressMapper m1(one), m2(two);
  for (std::uint64_t block = 0; block < 4096; ++block) {
    const auto a = m1.map(block);
    EXPECT_EQ(a.rank, 0);
    const auto b = m2.map(block);
    EXPECT_EQ(b.bank, a.bank);
    EXPECT_EQ(b.column, a.column);
  }
}

TEST(MultiRank, TwoRankChannelCompletesAllRequests) {
  DramConfig config = test_config();
  config.geometry.ranks = 2;
  DramChannel channel(config);
  channel.advance(10);
  for (int i = 0; i < 64; ++i) {
    DramRequest req;
    req.local_block = static_cast<std::uint64_t>(i) * 61;
    req.arrival = 10;
    req.tag = static_cast<std::uint64_t>(i);
    channel.submit(req);
  }
  channel.drain();
  EXPECT_EQ(channel.take_completions().size(), 64u);
}

TEST(MultiRank, AlternatingRanksPayTurnaround) {
  DramConfig config = test_config();
  config.geometry.ranks = 2;
  config.timing.tRTRS = 20;  // exaggerate so the effect dominates
  const auto rank_stride =
      static_cast<std::uint64_t>(config.geometry.blocks_per_row) *
      static_cast<std::uint64_t>(config.geometry.banks);
  // Same-rank row-hit pairs vs alternating-rank row-hit pairs.
  const auto run = [&](bool alternate) {
    DramChannel channel(config);
    channel.advance(10);
    for (int i = 0; i < 16; ++i) {
      DramRequest req;
      const std::uint64_t rank_part =
          alternate && (i % 2 == 1) ? rank_stride : 0;
      req.local_block = rank_part + static_cast<std::uint64_t>(i / 2);
      req.arrival = 10;
      req.tag = static_cast<std::uint64_t>(i);
      channel.submit(req);
    }
    channel.drain();
    const auto done = channel.take_completions();
    return done.back().finish;
  };
  EXPECT_GT(run(true), run(false))
      << "rank-alternating bursts must pay tRTRS turnarounds";
}

// ------------------------------------------------------------ refresh modes

TEST(PerBankRefresh, HappensWhenIdle) {
  DramConfig config = test_config();
  config.controller.per_bank_refresh = true;
  DramChannel channel(config);
  // Over 2 tREFI of idle time, every bank must have been refreshed twice:
  // 2 * banks REFpb commands (allow +-1 boundary slack).
  channel.advance(static_cast<Cycle>(config.timing.tREFI) * 2 + 100);
  const auto expected =
      2u * static_cast<std::uint64_t>(config.geometry.banks);
  EXPECT_GE(channel.counters().refreshes_pb + 1, expected);
  EXPECT_LE(channel.counters().refreshes_pb, expected + 2);
  EXPECT_EQ(channel.counters().refreshes, 0u) << "no REFab in REFpb mode";
}

TEST(PerBankRefresh, BlocksLessThanAllBank) {
  // A steady read stream across banks: per-bank refresh should cost less
  // demand latency than all-bank refresh (only 1/8 of the channel stalls).
  const auto run = [](bool per_bank) {
    DramConfig config;
    config.controller.per_bank_refresh = per_bank;
    DramChannel channel(config);
    Cycle t = 0;
    double latency_sum = 0;
    for (int i = 0; i < 3000; ++i) {
      t += 45;
      channel.advance(t);
      DramRequest req;
      req.local_block = static_cast<std::uint64_t>(i) * 37 % 20000;
      req.arrival = t;
      req.tag = static_cast<std::uint64_t>(i);
      channel.submit(req);
    }
    channel.drain();
    for (const auto& c : channel.take_completions()) {
      latency_sum += static_cast<double>(c.finish - c.arrival);
    }
    return latency_sum / 3000.0;
  };
  EXPECT_LT(run(true), run(false) + 1.0)
      << "REFpb must not be slower than REFab under load";
}

TEST(PerBankRefresh, EnergyComparableToAllBank) {
  // Equal idle time: 8x the refreshes at 1/8 energy each ~ same total.
  dram::PowerModel model;
  DramConfig config = test_config();
  const Cycle horizon = static_cast<Cycle>(config.timing.tREFI) * 16;
  DramChannel ab(config);
  ab.advance(horizon);
  config.controller.per_bank_refresh = true;
  DramChannel pb(config);
  pb.advance(horizon);
  const double e_ab = model.energy_nj(ab.counters());
  const double e_pb = model.energy_nj(pb.counters());
  // The refresh energy itself matches (8x commands at 1/8 energy); REFpb
  // pays a real premium in standby windows (8x more power-down exits), so
  // the total lands slightly above REFab when fully idle.
  EXPECT_NEAR(e_pb / e_ab, 1.0, 0.3);
  EXPECT_GT(e_pb, e_ab);
}

// --------------------------------------------------------------- power-down

TEST(DramChannel, PowerDownEnteredWhenIdle) {
  DramConfig config = test_config();
  DramChannel channel(config);
  one_read(channel, 0, 100);  // initialize the device (first command)
  // Long idle gap, then another read: the gap past the idle threshold must be
  // billed as power-down and the read pays the tXP exit penalty.
  const auto before = channel.counters().powerdown_cycles;
  one_read(channel, 1, 4000);
  const auto& c = channel.counters();
  EXPECT_GT(c.powerdown_entries, 0u);
  EXPECT_GT(c.powerdown_cycles, before);
}

TEST(DramChannel, NoPowerDownUnderSteadyTraffic) {
  DramConfig config = test_config();
  DramChannel channel(config);
  Cycle t = 0;
  for (int i = 0; i < 200; ++i) {
    t += 40;  // well under the 128-cycle idle threshold
    channel.advance(t);
    DramRequest req;
    req.local_block = static_cast<std::uint64_t>(i);
    req.arrival = t;
    req.tag = static_cast<std::uint64_t>(i);
    channel.submit(req);
  }
  channel.drain();
  EXPECT_EQ(channel.counters().powerdown_entries, 0u);
}

TEST(DramChannel, PowerDownThresholdValidated) {
  DramConfig config = test_config();
  config.controller.powerdown_idle_threshold = 0;
  EXPECT_THROW(DramChannel{config}, std::invalid_argument);
}

// -------------------------------------------------------------------- power

TEST(DramPower, EnergyScalesWithCommands) {
  PowerModel model;
  ChannelCounters a;
  a.elapsed = 1000000;
  ChannelCounters b = a;
  b.activates = 1000;
  b.reads = 1000;
  EXPECT_GT(model.energy_nj(b), model.energy_nj(a));
}

TEST(DramPower, BackgroundEnergyScalesWithTime) {
  PowerModel model;
  EXPECT_NEAR(model.background_energy_nj(2000) /
                  model.background_energy_nj(1000),
              2.0, 1e-9);
}

TEST(DramPower, AveragePowerIsFiniteAndPositive) {
  PowerModel model;
  ChannelCounters c;
  c.elapsed = 1600000;  // 1 ms at 1.6GHz
  c.activates = 5000;
  c.reads = 20000;
  c.writes = 8000;
  c.refreshes = 256;
  const double mw = model.average_power_mw(c);
  EXPECT_GT(mw, 10.0);
  EXPECT_LT(mw, 5000.0);
}

TEST(DramPower, ZeroElapsedYieldsZeroPower) {
  PowerModel model;
  EXPECT_EQ(model.average_power_mw(ChannelCounters{}), 0.0);
}

TEST(DramPower, RejectsNegativeParams) {
  PowerParams params;
  params.e_read_nj = -1.0;
  EXPECT_THROW(PowerModel{params}, std::invalid_argument);
}

TEST(DramPower, PowerDownCyclesAreCheaper) {
  PowerModel model;
  ChannelCounters active;
  active.elapsed = 1600000;
  ChannelCounters mostly_down = active;
  mostly_down.powerdown_cycles = 1500000;
  EXPECT_LT(model.energy_nj(mostly_down), model.energy_nj(active));
  // A fully powered-down interval costs exactly the power-down rate.
  EXPECT_NEAR(model.powerdown_energy_nj(1600000) /
                  model.background_energy_nj(1600000),
              model.params().p_powerdown_mw / model.params().p_background_mw,
              1e-9);
}

TEST(DramPower, MorePrefetchTrafficMorePower) {
  // The Fig. 10 mechanism in miniature: same elapsed time, extra reads and
  // activates from useless prefetches => strictly more power.
  PowerModel model;
  ChannelCounters base;
  base.elapsed = 1600000;
  base.reads = 10000;
  base.activates = 3000;
  ChannelCounters noisy = base;
  noisy.reads += 2340;  // +23.4% reads (the paper's BOP overhead)
  noisy.activates += 700;
  EXPECT_GT(model.average_power_mw(noisy), model.average_power_mw(base));
}

}  // namespace
}  // namespace planaria::dram
