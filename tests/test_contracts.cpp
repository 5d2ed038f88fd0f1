// Tests for the invariant contract layer (src/check) and the config
// rejection paths it backs up: every validate() bound that guards a
// hardware field width, and the violation-handler plumbing planaria-audit
// relies on to stay un-blind.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "cache/system_cache.hpp"
#include "check/contract.hpp"
#include "core/coordinators.hpp"
#include "core/planaria.hpp"
#include "core/storage.hpp"
#include "core/storage_layout.hpp"

namespace {

using planaria::Cycle;
namespace check = planaria::check;
namespace core = planaria::core;
namespace layout = planaria::core::layout;

// ---------------------------------------------------------------------------
// Config rejection paths.

TEST(ConfigValidation, DefaultConfigsPass) {
  EXPECT_NO_THROW(core::SlpConfig{}.validate());
  EXPECT_NO_THROW(core::TlpConfig{}.validate());
  EXPECT_NO_THROW(core::PlanariaConfig{}.validate());
  EXPECT_NO_THROW(core::SerialCoordinatorConfig{}.validate());
  EXPECT_NO_THROW(planaria::cache::CacheConfig{}.validate());
}

TEST(ConfigValidation, SlpRejectsNonPositiveGeometry) {
  core::SlpConfig config;
  config.ft_ways = 0;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config = {};
  config.pt_sets = -4;
  EXPECT_THROW(config.validate(), std::invalid_argument);
}

TEST(ConfigValidation, SlpRejectsNonPowerOfTwoSetCounts) {
  core::SlpConfig config;
  config.ft_sets = 48;  // hardware set index needs a power of two
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config = {};
  config.at_sets = 3;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config = {};
  config.pt_sets = 1000;
  EXPECT_THROW(config.validate(), std::invalid_argument);
}

TEST(ConfigValidation, SlpRejectsPromoteThresholdOutsideFtSlots) {
  core::SlpConfig config;
  config.promote_threshold = 0;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config.promote_threshold = layout::kFtOffsetSlots + 1;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config.promote_threshold = layout::kFtOffsetSlots;
  EXPECT_NO_THROW(config.validate());
}

TEST(ConfigValidation, SlpRejectsTimeoutOverflowingAtTimeField) {
  core::SlpConfig config;
  config.at_timeout = 0;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config.at_timeout = Cycle{1} << layout::kAtTimeBits;  // one past the field
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config.at_timeout = (Cycle{1} << layout::kAtTimeBits) - 1;
  EXPECT_NO_THROW(config.validate());
  config = {};
  config.sweep_interval = 0;
  EXPECT_THROW(config.validate(), std::invalid_argument);
}

TEST(ConfigValidation, TlpRejectsDegenerateParameters) {
  core::TlpConfig config;
  config.rpt_entries = 0;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config = {};
  config.distance_threshold = 0;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config = {};
  config.min_common_bits = 0;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config.min_common_bits = 17;  // bitmap only has 16 bits to share
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config.min_common_bits = 16;
  EXPECT_NO_THROW(config.validate());
}

TEST(ConfigValidation, PlanariaRejectsBothSubPrefetchersDisabled) {
  core::PlanariaConfig config;
  config.enable_slp = false;
  config.enable_tlp = false;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  EXPECT_THROW(core::PlanariaPrefetcher{config}, std::invalid_argument);
}

TEST(ConfigValidation, PlanariaRejectsBadSubConfigs) {
  core::PlanariaConfig config;
  config.slp.ft_sets = 7;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config = {};
  config.tlp.min_common_bits = 0;
  EXPECT_THROW(config.validate(), std::invalid_argument);
}

TEST(ConfigValidation, SerialCoordinatorRejectsNonPositiveSwitchAfter) {
  core::SerialCoordinatorConfig config;
  config.switch_after = 0;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config.switch_after = -1;
  EXPECT_THROW(config.validate(), std::invalid_argument);
}

TEST(ConfigValidation, CacheRejectsBrokenGeometry) {
  planaria::cache::CacheConfig config;
  config.size_bytes = 0;
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config = {};
  config.size_bytes = 3u << 20;  // not a power of two
  EXPECT_THROW(config.validate(), std::invalid_argument);
  config = {};
  config.ways = 7;  // does not divide the line count
  EXPECT_THROW(config.validate(), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Violation handler plumbing.

TEST(ContractHandler, CountingModeCountsPerCategoryWithoutAborting) {
  check::CountingScope scope;
  check::reset_violations();

  PLANARIA_INVARIANT(kTableOccupancy, false);
  PLANARIA_INVARIANT(kTableOccupancy, false);
  PLANARIA_REQUIRE(kTimingMonotonicity, false);
  PLANARIA_ENSURE(kStorageBudget, 1 + 1 == 2);  // holds, must not count

  EXPECT_EQ(check::violation_count(check::Category::kTableOccupancy), 2u);
  EXPECT_EQ(check::violation_count(check::Category::kTimingMonotonicity), 1u);
  EXPECT_EQ(check::violation_count(check::Category::kCoordinatorExclusivity),
            0u);
  EXPECT_EQ(check::violation_count(check::Category::kStorageBudget), 0u);
  EXPECT_EQ(check::total_violations(), 3u);

  check::reset_violations();
  EXPECT_EQ(check::total_violations(), 0u);
}

TEST(ContractHandler, CountingScopeRestoresAbortModeOnExit) {
  ASSERT_EQ(check::mode(), check::Mode::kAbort);
  {
    check::CountingScope scope;
    EXPECT_EQ(check::mode(), check::Mode::kCount);
  }
  EXPECT_EQ(check::mode(), check::Mode::kAbort);
  EXPECT_EQ(check::handler(), nullptr);
}

// Handlers are plain function pointers (installable from hardware-model code
// with no allocation), so the capture goes through a file-scope slot.
check::Violation g_seen;
int g_calls = 0;

void capture_handler(const check::Violation& v) {
  g_seen = v;
  ++g_calls;
}

TEST(ContractHandler, CustomHandlerReceivesViolationDetails) {
  check::CountingScope scope;
  check::reset_violations();
  check::set_handler(&capture_handler);
  g_calls = 0;

  const int line_before = __LINE__;
  PLANARIA_ENSURE_MSG(kCoordinatorExclusivity, 2 < 1, "double disposition");

  EXPECT_EQ(g_calls, 1);
  EXPECT_EQ(g_seen.category, check::Category::kCoordinatorExclusivity);
  EXPECT_EQ(g_seen.kind, check::Kind::kEnsure);
  EXPECT_EQ(std::string(g_seen.expr), "2 < 1");
  EXPECT_NE(std::string(g_seen.file).find("test_contracts.cpp"),
            std::string::npos);
  EXPECT_EQ(g_seen.line, line_before + 1);
  EXPECT_EQ(std::string(g_seen.message), "double disposition");
  // Counters update before the handler runs.
  EXPECT_EQ(check::violation_count(check::Category::kCoordinatorExclusivity),
            1u);

  check::set_handler(nullptr);
  check::reset_violations();
}

TEST(ContractHandler, NamesAreStable) {
  EXPECT_STREQ(check::category_name(check::Category::kTableOccupancy),
               "table-occupancy");
  EXPECT_STREQ(check::category_name(check::Category::kTimingMonotonicity),
               "timing-monotonicity");
  EXPECT_STREQ(check::category_name(check::Category::kCoordinatorExclusivity),
               "coordinator-exclusivity");
  EXPECT_STREQ(check::category_name(check::Category::kStorageBudget),
               "storage-budget");
  EXPECT_STREQ(check::kind_name(check::Kind::kRequire), "require");
  EXPECT_STREQ(check::kind_name(check::Kind::kEnsure), "ensure");
  EXPECT_STREQ(check::kind_name(check::Kind::kInvariant), "invariant");
}

using ContractDeathTest = testing::Test;

TEST(ContractDeathTest, DefaultModeAbortsWithDiagnostic) {
  EXPECT_DEATH(PLANARIA_REQUIRE_MSG(kTimingMonotonicity, false,
                                    "clock ran backward"),
               "timing-monotonicity");
}

// ---------------------------------------------------------------------------
// Storage layout agreement: the two independent accountings must match, and
// the default hardware stays inside the paper's budget.

TEST(StorageLayout, BreakdownMatchesComponentAccounting) {
  for (const bool enable_tlp : {true, false}) {
    core::PlanariaConfig config;
    config.enable_tlp = enable_tlp;
    const auto breakdown = core::planaria_storage(config);
    EXPECT_EQ(breakdown.per_channel_bits(),
              core::PlanariaPrefetcher(config).storage_bits());
  }
}

TEST(StorageLayout, DefaultHardwareFitsPaperBudget) {
  const auto breakdown = core::planaria_storage(core::PlanariaConfig{});
  EXPECT_LE(breakdown.total_kb(planaria::kChannels),
            layout::kPaperBudgetKb);
}

TEST(StorageLayout, EntryWidthsMatchPaperFigures) {
  EXPECT_EQ(layout::kFtEntryBits, 45);
  EXPECT_EQ(layout::kAtEntryBits, 67);
  EXPECT_EQ(layout::kPtEntryBits, 48);
  EXPECT_EQ(layout::rpt_entry_bits(128), 178u);
}

}  // namespace
