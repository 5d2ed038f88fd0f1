// Unit tests for the LPDDR4 DRAM model: config validation, address mapping,
// bank timing, scheduling policy, refresh, write handling, and power.
#include <gtest/gtest.h>

#include <map>
#include <random>
#include <set>
#include <string>

#include "dram/channel.hpp"
#include "dram/config.hpp"
#include "dram/power.hpp"
#include "dram_timing_checker.hpp"
#include "sim/simulator.hpp"
#include "trace/apps.hpp"
#include "trace/generator.hpp"

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

// ------------------------------------------------------------ timing checker
// The channel's command log replayed through tests/dram_timing_checker.hpp,
// which rebuilds bank and rank state from the commands alone and asserts
// every Table 1 constraint without the scheduler's horizons.

using testing::check_timing;
using testing::TimingViolation;

std::string describe(const std::vector<TimingViolation>& violations,
                     const std::vector<CommandRecord>& log) {
  std::map<std::string, int> per_rule;
  for (const TimingViolation& v : violations) ++per_rule[v.rule];
  std::string out;
  for (const auto& [rule, n] : per_rule) {
    out += rule + " x" + std::to_string(n) + " ";
  }
  for (std::size_t i = 0; i < violations.size() && i < 4; ++i) {
    const TimingViolation& v = violations[i];
    out += "\n  " + v.rule + " at entry " + std::to_string(v.index) +
           " cycle " + std::to_string(v.cycle) + " command " +
           std::to_string(static_cast<int>(log[v.index].command));
  }
  return out;
}

/// Rules the channel model is known to break (CHANGES.md, FOUND lines).
/// Mending any of them moves SimResult, so they wait for a change that
/// re-pins the results; until then exactly these (rule, command) pairs are
/// set aside and everything else must be clean. KnownModelFaultsReproduce
/// fails once a fix lands, so the allowance cannot outlive the fault.
///  - tCKE at a power-down exit: a command that finds the channel powered
///    down raises CKE at once, so the CKE-low pulse can be shorter than
///    tCKE (exit_powerdown).
///  - tRFC at REFab: owed refreshes performed back to back start one tCMD
///    apart instead of one tRFC apart (perform_refresh).
///  - tRP at REFpb: a bank refresh may start within tRP of an ordinary PRE
///    to that bank (perform_bank_refresh). perform_refresh has the same
///    gap for REFab with every bank closed, but no test trace reaches it.
bool known_model_fault(const TimingViolation& v,
                       const std::vector<CommandRecord>& log) {
  const Command c = log[v.index].command;
  return (v.rule == "tCKE" && c == Command::kPowerDownExit) ||
         (v.rule == "tRFC" && c == Command::kRefresh) ||
         (v.rule == "tRP" && c == Command::kRefreshBank);
}

std::vector<TimingViolation> unexplained(
    const std::vector<TimingViolation>& violations,
    const std::vector<CommandRecord>& log) {
  std::vector<TimingViolation> rest;
  for (const TimingViolation& v : violations) {
    if (!known_model_fault(v, log)) rest.push_back(v);
  }
  return rest;
}

/// Command counts per kind in one log.
std::map<Command, std::uint64_t> census(const std::vector<CommandRecord>& log) {
  std::map<Command, std::uint64_t> n;
  for (const CommandRecord& c : log) ++n[c.command];
  return n;
}

/// Runs `trace` through a Simulator of `kind` with every channel's command
/// log armed, and checks each log. Returns the merged census.
std::map<Command, std::uint64_t> run_and_check(const sim::SimConfig& config,
                                               sim::PrefetcherKind kind,
                                               const trace::TraceBatch& trace) {
  std::vector<std::vector<CommandRecord>> logs(kChannels);
  sim::Simulator sim(config, sim::make_prefetcher_factory(kind),
                     sim::prefetcher_kind_name(kind));
  for (int ch = 0; ch < kChannels; ++ch) {
    sim.set_dram_command_log(ch, &logs[static_cast<std::size_t>(ch)]);
  }
  sim.run_sharded(trace);
  const sim::SimResult result = sim.finish();
  std::map<Command, std::uint64_t> total;
  for (const auto& log : logs) {
    const auto violations =
        unexplained(check_timing(log, config.dram), log);
    EXPECT_TRUE(violations.empty())
        << sim::prefetcher_kind_name(kind) << ": " << violations.size()
        << " violations\n" << describe(violations, log);
    for (const auto& [command, n] : census(log)) total[command] += n;
  }
  // The log misses no burst: every write, and every read the write queue
  // did not forward (dram_reads counts those too).
  EXPECT_EQ(total[Command::kWrite], result.dram_writes)
      << sim::prefetcher_kind_name(kind);
  EXPECT_LE(total[Command::kRead], result.dram_reads)
      << sim::prefetcher_kind_name(kind);
  return total;
}

TEST(DramTimingChecker, EveryKindHonoursTable1OnShortTraces) {
  for (const char* app : {"Fort", "HoK"}) {
    const auto trace =
        trace::generate_app_trace(trace::app_by_name(app), 20000);
    for (const sim::PrefetcherKind kind : sim::all_prefetcher_kinds()) {
      const auto n = run_and_check(sim::SimConfig{}, kind, trace);
      EXPECT_GT(n.at(Command::kActivate), 0u) << app;
      EXPECT_GT(n.at(Command::kRead), 0u) << app;
    }
  }
}

/// Sparse traffic on one channel: bursts of random reads and writes
/// separated by idle gaps of up to several tREFI, then a saturating phase
/// long enough that refresh debt reaches the postponement cap under load.
/// Checks the log and that it accounts for every counted command; returns
/// the (rule, command) pairs of every violation, known faults included.
std::set<std::pair<std::string, Command>> sparse_run_and_check(
    const DramConfig& config, std::uint64_t seed) {
  DramChannel channel(config);
  std::vector<CommandRecord> log;
  channel.set_command_log(&log);
  std::mt19937_64 rng(seed);
  const auto refi = static_cast<Cycle>(config.timing.tREFI);
  Cycle t = 0;
  std::uint64_t tag = 0;
  const auto submit = [&](std::uint64_t block, bool write) {
    channel.advance(t);
    DramRequest req;
    req.local_block = block;
    req.arrival = t;
    req.is_write = write;
    req.is_prefetch = !write && rng() % 4 == 0;
    req.tag = ++tag;
    channel.submit(req);
  };
  for (int burst = 0; burst < 40; ++burst) {
    t += rng() % (3 * refi) + 1;  // idle: power-down, idle refresh
    const int n = static_cast<int>(rng() % 12) + 1;
    const std::uint64_t base = rng() % 40000;
    for (int i = 0; i < n; ++i) {
      t += rng() % 60;
      submit(base + rng() % 96, rng() % 3 == 0);
    }
  }
  // Saturation: a request every 4 cycles for 12 tREFI keeps both queues
  // busy, so refreshes are postponed to the cap and then forced.
  for (Cycle end = t + 12 * refi; t < end; t += 4) {
    submit(rng() % 200000, rng() % 4 == 0);
  }
  channel.drain();
  channel.advance(channel.now() + 3 * refi);

  const auto n = census(log);
  const auto count = [&](Command c) {
    const auto it = n.find(c);
    return it == n.end() ? std::uint64_t{0} : it->second;
  };
  const ChannelCounters& k = channel.counters();
  EXPECT_EQ(count(Command::kActivate), k.activates);
  EXPECT_EQ(count(Command::kPrecharge) + count(Command::kPrechargeAll),
            k.precharges);
  EXPECT_EQ(count(Command::kRead), k.reads);
  EXPECT_EQ(count(Command::kWrite), k.writes);
  EXPECT_EQ(count(Command::kRefresh), k.refreshes);
  EXPECT_EQ(count(Command::kRefreshBank), k.refreshes_pb);
  EXPECT_EQ(count(Command::kPowerDownEntry), k.powerdown_entries);
  EXPECT_EQ(count(Command::kPowerDownExit), k.powerdown_entries);
  EXPECT_GT(k.powerdown_entries, 0u);
  EXPECT_GT(k.refreshes + k.refreshes_pb, 0u);
  EXPECT_GT(k.writes, 0u);

  const auto all = check_timing(log, config);
  const auto violations = unexplained(all, log);
  EXPECT_TRUE(violations.empty()) << describe(violations, log);
  std::set<std::pair<std::string, Command>> seen;
  for (const TimingViolation& v : all) {
    seen.emplace(v.rule, log[v.index].command);
  }
  return seen;
}

TEST(DramTimingChecker, SparseTrafficExercisesRefreshAndPowerDown) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    sparse_run_and_check(test_config(), seed);
    DramConfig per_bank = test_config();
    per_bank.controller.per_bank_refresh = true;
    sparse_run_and_check(per_bank, seed);
    DramConfig two_ranks = test_config();
    two_ranks.geometry.ranks = 2;
    sparse_run_and_check(two_ranks, seed);
  }
}

// Each allowance in known_model_fault must still describe the model. When
// a fix lands this fails, and the allowance goes with it.
TEST(DramTimingChecker, KnownModelFaultsReproduce) {
  DramConfig per_bank = test_config();
  per_bank.controller.per_bank_refresh = true;
  const auto all_bank = sparse_run_and_check(test_config(), 1);
  const auto bank = sparse_run_and_check(per_bank, 1);
  EXPECT_TRUE(all_bank.count({"tRFC", Command::kRefresh}));
  EXPECT_TRUE(bank.count({"tRP", Command::kRefreshBank}));

  // A read that arrives 3 cycles after the channel powered down.
  DramChannel channel(test_config());
  std::vector<CommandRecord> log;
  channel.set_command_log(&log);
  one_read(channel, 0, 100);
  const Cycle last = log.back().cycle;
  one_read(channel, 1,
           last + static_cast<Cycle>(
                      test_config().controller.powerdown_idle_threshold) + 3);
  std::set<std::string> rules;
  for (const TimingViolation& v : check_timing(log, test_config())) {
    EXPECT_TRUE(known_model_fault(v, log));
    rules.insert(v.rule);
  }
  EXPECT_EQ(rules, std::set<std::string>{"tCKE"});
}

CommandRecord cmd(Cycle at, Command c, int bank = -1, std::uint32_t row = 1,
                  int rank = 0) {
  return CommandRecord{at, c, bank < 0 ? -1 : rank, bank, row};
}

// A hand-made log that uses every command kind and meets every bound with
// equality where it can: the checker must find nothing.
TEST(DramTimingChecker, LegalHandMadeLogIsClean) {
  const std::vector<CommandRecord> log = {
      cmd(0, Command::kActivate, 0, 1),
      cmd(16, Command::kRead, 0, 1),          // tRCD
      cmd(40, Command::kWrite, 0, 1),         // read data end + tRTRS
      cmd(84, Command::kPrecharge, 0),        // write data end + tWR
      cmd(100, Command::kActivate, 0, 2),     // PRE + tRP
      cmd(160, Command::kPrechargeAll),
      cmd(176, Command::kRefresh),            // PREab + tRP
      cmd(400, Command::kPowerDownEntry),
      cmd(420, Command::kPowerDownExit),
      cmd(429, Command::kActivate, 1, 3),     // PDX + tXP, REF + tRFC
      cmd(441, Command::kRefreshBank, 2),
      cmd(549, Command::kActivate, 2, 1),     // REFpb + tRFCpb
  };
  const auto violations = check_timing(log, test_config());
  EXPECT_TRUE(violations.empty()) << describe(violations, log);
}

// One hand-made log per rule, each breaking that rule and no other, so
// every check is shown to fire on its own.
TEST(DramTimingChecker, EveryRuleFiresOnAHandMadeViolation) {
  struct Case {
    const char* rule;
    std::vector<CommandRecord> log;
    void (*tweak)(DramConfig&) = nullptr;
  };
  const std::vector<Case> cases = {
      {"tRCD", {cmd(0, Command::kActivate, 0), cmd(10, Command::kRead, 0)}},
      {"tRP",
       {cmd(0, Command::kActivate, 0), cmd(100, Command::kPrecharge, 0),
        cmd(110, Command::kActivate, 0)}},
      {"tRAS", {cmd(0, Command::kActivate, 0), cmd(40, Command::kPrecharge, 0)}},
      {"tRC",
       {cmd(0, Command::kActivate, 0), cmd(51, Command::kPrecharge, 0),
        cmd(70, Command::kActivate, 0)}},
      {"tRRD", {cmd(0, Command::kActivate, 0), cmd(5, Command::kActivate, 1)}},
      {"tFAW",
       {cmd(0, Command::kActivate, 0), cmd(4, Command::kActivate, 1),
        cmd(8, Command::kActivate, 2), cmd(12, Command::kActivate, 3),
        cmd(16, Command::kActivate, 4)},
       [](DramConfig& c) { c.timing.tRRD = 4; }},
      {"tCCD",
       {cmd(0, Command::kActivate, 0), cmd(12, Command::kActivate, 1),
        cmd(30, Command::kRead, 0), cmd(40, Command::kRead, 1)},
       [](DramConfig& c) { c.timing.tCCD = 12; }},
      {"tRTP",
       {cmd(0, Command::kActivate, 0), cmd(45, Command::kRead, 0),
        cmd(51, Command::kPrecharge, 0)}},
      {"tWTR",
       {cmd(0, Command::kActivate, 0), cmd(16, Command::kWrite, 0),
        cmd(40, Command::kRead, 0)}},
      {"tWR",
       {cmd(0, Command::kActivate, 0), cmd(16, Command::kWrite, 0),
        cmd(55, Command::kPrecharge, 0)}},
      {"tRTRS",  // write data right behind read data
       {cmd(0, Command::kActivate, 0), cmd(16, Command::kRead, 0),
        cmd(39, Command::kWrite, 0)}},
      {"tRTRS",  // rank switch with no idle bus cycle
       {cmd(0, Command::kActivate, 0, 1, 0), cmd(12, Command::kActivate, 0, 1, 1),
        cmd(20, Command::kRead, 0, 1, 0), cmd(28, Command::kRead, 0, 1, 1)},
       [](DramConfig& c) { c.geometry.ranks = 2; }},
      {"burst",
       {cmd(0, Command::kActivate, 0), cmd(12, Command::kActivate, 1),
        cmd(28, Command::kWrite, 0), cmd(32, Command::kWrite, 1)},
       [](DramConfig& c) { c.timing.tCCD = 4; }},
      {"tRFC", {cmd(0, Command::kRefresh), cmd(100, Command::kActivate, 0)}},
      {"tRFC", {cmd(0, Command::kRefresh), cmd(100, Command::kRefresh)}},
      {"tRFCpb",
       {cmd(0, Command::kRefreshBank, 0), cmd(50, Command::kActivate, 0)}},
      {"tRP",
       {cmd(0, Command::kActivate, 0), cmd(60, Command::kPrecharge, 0),
        cmd(70, Command::kRefresh)}},
      {"tCKE",
       {cmd(100, Command::kPowerDownEntry), cmd(104, Command::kPowerDownExit),
        cmd(120, Command::kActivate, 0)}},
      {"tCKE",  // CKE high for less than tCKE between two power-downs
       {cmd(100, Command::kPowerDownEntry), cmd(120, Command::kPowerDownExit),
        cmd(125, Command::kPowerDownEntry), cmd(140, Command::kPowerDownExit)}},
      {"tXP",
       {cmd(100, Command::kPowerDownEntry), cmd(120, Command::kPowerDownExit),
        cmd(123, Command::kActivate, 0)}},
      {"state",  // RD to a row that is not open
       {cmd(0, Command::kActivate, 0, 1), cmd(20, Command::kRead, 0, 2)}},
      {"state",  // a command while powered down
       {cmd(100, Command::kPowerDownEntry), cmd(110, Command::kActivate, 0)}},
      {"state",  // ACT to a bank with a row open
       {cmd(0, Command::kActivate, 0, 1), cmd(80, Command::kActivate, 0, 2)}},
      {"state",  // REFab with a row open
       {cmd(0, Command::kActivate, 0, 1), cmd(300, Command::kRefresh)}},
  };
  for (const Case& c : cases) {
    DramConfig config = test_config();
    if (c.tweak != nullptr) c.tweak(config);
    const auto violations = check_timing(c.log, config);
    std::set<std::string> rules;
    for (const TimingViolation& v : violations) rules.insert(v.rule);
    EXPECT_EQ(rules, std::set<std::string>{c.rule})
        << c.rule << ": " << describe(violations, c.log);
  }
}

TEST(DramTimingChecker, SparseTraceThroughTheSimulator) {
  // A few records per idle stretch, far apart: every channel powers down
  // and refreshes while idle.
  trace::TraceBatch trace;
  std::mt19937_64 rng(7);
  Cycle t = 0;
  for (int i = 0; i < 3000; ++i) {
    t += i % 20 == 0 ? rng() % 20000 : rng() % 200;
    trace::TraceRecord rec;
    rec.address = (rng() % (1u << 26)) & ~Address{63};
    rec.arrival = t;
    rec.type = rng() % 5 == 0 ? AccessType::kWrite : AccessType::kRead;
    trace.push_back(rec);
  }
  for (const sim::PrefetcherKind kind : sim::all_prefetcher_kinds()) {
    auto n = run_and_check(sim::SimConfig{}, kind, trace);
    EXPECT_GT(n[Command::kRefresh], 0u);
    EXPECT_GT(n[Command::kPowerDownEntry], 0u);
  }
}

}  // namespace
}  // namespace planaria::dram
