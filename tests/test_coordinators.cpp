// Tests for the alternative coordinators (serial/parallel composites) and
// the PC-free SMS baseline.
#include <gtest/gtest.h>

#include "core/coordinators.hpp"
#include "prefetch/sms.hpp"

namespace planaria {
namespace {

prefetch::DemandEvent event(PageNumber page, int block, Cycle now,
                            bool sc_hit = false,
                            DeviceId device = DeviceId::kCpuBig) {
  prefetch::DemandEvent e;
  e.page = page;
  e.block_in_segment = block;
  e.local_block = page * kBlocksPerSegment + static_cast<std::uint64_t>(block);
  e.now = now;
  e.device = device;
  e.sc_hit = sc_hit;
  return e;
}

// ------------------------------------------------------------------- serial

TEST(SerialComposite, ConfigValidation) {
  core::SerialCoordinatorConfig config;
  config.switch_after = 0;
  EXPECT_THROW(core::SerialComposite{config}, std::invalid_argument);
}

TEST(SerialComposite, StartsWithSlpActive) {
  core::SerialComposite pf;
  EXPECT_TRUE(pf.slp_active());
  EXPECT_EQ(pf.switches(), 0u);
}

TEST(SerialComposite, SwitchesToTlpAfterRepeatedSlpFailures) {
  core::SerialCoordinatorConfig config;
  config.switch_after = 4;
  core::SerialComposite pf(config);
  std::vector<prefetch::PrefetchRequest> out;
  Cycle now = 0;
  // Misses on fresh pages: SLP can never issue (no PT history).
  for (PageNumber p = 1000; p < 1010; ++p) {
    pf.on_demand(event(p, 0, now += 10), out);
  }
  EXPECT_FALSE(pf.slp_active());
  EXPECT_EQ(pf.switches(), 1u);
}

TEST(SerialComposite, HitsDoNotCountAsFailures) {
  core::SerialCoordinatorConfig config;
  config.switch_after = 2;
  core::SerialComposite pf(config);
  std::vector<prefetch::PrefetchRequest> out;
  Cycle now = 0;
  for (PageNumber p = 1000; p < 1100; ++p) {
    pf.on_demand(event(p, 0, now += 10, /*sc_hit=*/true), out);
  }
  EXPECT_TRUE(pf.slp_active());
}

TEST(SerialComposite, StorageCoversBothSubPrefetchers) {
  core::SerialComposite pf;
  core::Slp slp;
  core::Tlp tlp;
  EXPECT_EQ(pf.storage_bits(), slp.storage_bits() + tlp.storage_bits());
}

// ----------------------------------------------------------------- parallel

TEST(ParallelComposite, BothSubPrefetchersCanIssueOnOneTrigger) {
  core::ParallelCoordinatorConfig config;
  config.slp.at_timeout = 100;
  config.slp.sweep_interval = 1;
  core::ParallelComposite pf(config);
  std::vector<prefetch::PrefetchRequest> out;
  Cycle now = 0;
  // Teach SLP page 7 and give TLP a similar neighbor (page 9): four common
  // bits {1,5,9,11} clear TLP's similarity floor, and 13 is transferable.
  for (int b : {1, 5, 9, 11}) pf.on_demand(event(7, b, now += 10), out);
  for (int b : {1, 5, 9, 11, 13}) pf.on_demand(event(9, b, now += 10), out);
  now += 1000;
  pf.on_demand(event(999999, 0, now), out);  // trigger the timeout sweep
  out.clear();
  pf.on_demand(event(7, 1, now += 10), out);
  bool any_slp = false, any_tlp = false;
  for (const auto& r : out) {
    any_slp |= r.source == cache::FillSource::kPrefetchSlp;
    any_tlp |= r.source == cache::FillSource::kPrefetchTlp;
  }
  EXPECT_TRUE(any_slp);
  EXPECT_TRUE(any_tlp) << "parallel coordination issues from both";
}

TEST(ParallelComposite, SilentOnHits) {
  core::ParallelComposite pf;
  std::vector<prefetch::PrefetchRequest> out;
  pf.on_demand(event(1, 0, 1, /*sc_hit=*/true), out);
  EXPECT_TRUE(out.empty());
}

// ---------------------------------------------------------------------- sms

TEST(Sms, ConfigValidation) {
  prefetch::SmsConfig config;
  config.pht_entries = 0;
  EXPECT_THROW(prefetch::SmsPrefetcher{config}, std::invalid_argument);
}

// The AGT is a SetAssocTable, which indexes sets by mask: a set count that
// is not a power of two must be a config error, not a failed assert.
TEST(Sms, ConfigRejectsNonPowerOfTwoAgtSets) {
  prefetch::SmsConfig config;
  config.agt_sets = 3;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  EXPECT_THROW(prefetch::SmsPrefetcher{config}, std::invalid_argument);
  config.agt_sets = 4;
  EXPECT_NO_THROW(prefetch::SmsPrefetcher{config});
}

TEST(Sms, NoPredictionWithoutClosedGeneration) {
  prefetch::SmsPrefetcher pf;
  std::vector<prefetch::PrefetchRequest> out;
  pf.on_demand(event(5, 3, 10), out);
  EXPECT_TRUE(out.empty());
}

TEST(Sms, ReplaysTriggerRelativePattern) {
  prefetch::SmsConfig config;
  config.generation_timeout = 100;
  config.sweep_interval = 1;
  prefetch::SmsPrefetcher pf(config);
  std::vector<prefetch::PrefetchRequest> out;
  Cycle now = 0;
  // Generation on page 5: trigger block 2, then 3 and 4 (pattern +1, +2).
  for (int b : {2, 3, 4}) pf.on_demand(event(5, b, now += 10), out);
  now += 1000;
  pf.on_demand(event(77777, 0, now), out);  // sweep closes the generation
  out.clear();
  // New page, same device, same trigger offset: pattern replays relative to
  // the trigger.
  pf.on_demand(event(50, 2, now += 10), out);
  std::set<std::uint64_t> targets;
  for (const auto& r : out) targets.insert(r.local_block % kBlocksPerSegment);
  EXPECT_EQ(targets, (std::set<std::uint64_t>{3, 4}));
}

TEST(Sms, PatternRotatesWithTriggerOffset) {
  prefetch::SmsConfig config;
  config.generation_timeout = 100;
  config.sweep_interval = 1;
  prefetch::SmsPrefetcher pf(config);
  std::vector<prefetch::PrefetchRequest> out;
  Cycle now = 0;
  for (int b : {2, 3, 4}) pf.on_demand(event(5, b, now += 10), out);
  now += 1000;
  pf.on_demand(event(77777, 0, now), out);
  out.clear();
  // Different trigger offset with the same device: the aliased slot is keyed
  // by {device, offset}, so offset 6 maps to a different (empty) slot.
  pf.on_demand(event(50, 6, now += 10), out);
  EXPECT_TRUE(out.empty());
}

TEST(Sms, DevicesSeparateSignatures) {
  prefetch::SmsConfig config;
  config.generation_timeout = 100;
  config.sweep_interval = 1;
  prefetch::SmsPrefetcher pf(config);
  std::vector<prefetch::PrefetchRequest> out;
  Cycle now = 0;
  for (int b : {2, 3, 4}) {
    pf.on_demand(event(5, b, now += 10, false, DeviceId::kGpu), out);
  }
  now += 1000;
  pf.on_demand(event(77777, 0, now), out);
  out.clear();
  // Same trigger offset but a different device: no aliasing across devices.
  pf.on_demand(event(50, 2, now += 10, false, DeviceId::kDsp), out);
  EXPECT_TRUE(out.empty());
}

TEST(Sms, LoneTriggerGenerationsAreDiscarded) {
  prefetch::SmsConfig config;
  config.generation_timeout = 100;
  config.sweep_interval = 1;
  prefetch::SmsPrefetcher pf(config);
  std::vector<prefetch::PrefetchRequest> out;
  Cycle now = 0;
  pf.on_demand(event(5, 2, now += 10), out);  // one-block generation
  now += 1000;
  pf.on_demand(event(77777, 0, now), out);
  out.clear();
  pf.on_demand(event(50, 2, now += 10), out);
  EXPECT_TRUE(out.empty());
}

TEST(Sms, StorageIsPositiveAndBounded) {
  prefetch::SmsPrefetcher pf;
  EXPECT_GT(pf.storage_bits(), 0u);
  EXPECT_LT(pf.storage_bits(), 64u * 1024 * 8);
}

}  // namespace
}  // namespace planaria
