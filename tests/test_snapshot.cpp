// Snapshot subsystem tests (DESIGN.md §11).
//
// Three layers of guarantees:
//   * Codec: Writer/Reader round-trip every primitive (doubles as IEEE-754
//     bit patterns), and the Reader rejects malformed input — truncation,
//     out-of-range bools, tag desync, trailing bytes — by throwing
//     SnapshotError, never by reading out of bounds (run under ASan via the
//     sanitize job).
//   * Components: every Snapshottable satisfies the byte-stability property
//     serialize -> deserialize -> serialize == identical bytes, exercised on
//     warmed-up state (a mid-run simulator covers the SLP/TLP tables, the
//     coordinators, every baseline prefetcher, the cache + replacement
//     policies, the DRAM channel, the fault injectors and the MSHR map).
//     Fuzz-truncated payload prefixes must all be rejected cleanly.
//   * Format stability: a golden snapshot committed at tests/data/golden.snap
//     must keep decoding. If this test fails after a serialization change,
//     bump snapshot::kFormatVersion and regenerate the golden with
//     PLANARIA_WRITE_GOLDEN=1 (see SnapshotGolden below).

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include <gtest/gtest.h>

#include "cache/replacement.hpp"
#include "cache/system_cache.hpp"
#include "check/contract.hpp"
#include "common/rng.hpp"
#include "common/set_table.hpp"
#include "common/table.hpp"
#include "core/coordinators.hpp"
#include "core/planaria.hpp"
#include "core/slp.hpp"
#include "core/tlp.hpp"
#include "dram/channel.hpp"
#include "fault/fault.hpp"
#include "prefetch/bop.hpp"
#include "prefetch/prefetcher.hpp"
#include "prefetch/simple.hpp"
#include "prefetch/sms.hpp"
#include "prefetch/spp.hpp"
#include "sim/checkpoint.hpp"
#include "sim/experiment.hpp"
#include "sim/simulator.hpp"
#include "snapshot/snapshot.hpp"
#include "trace/apps.hpp"
#include "trace/generator.hpp"

namespace planaria {
namespace {

namespace fs = std::filesystem;

// ---------------------------------------------------------------------------
// Codec primitives
// ---------------------------------------------------------------------------

TEST(SnapshotCodec, PrimitivesRoundTrip) {
  snapshot::Writer w;
  w.u8(0xAB);
  w.u16(0xBEEF);
  w.u32(0xDEADBEEF);
  w.u64(0x0123456789ABCDEFull);
  w.i64(-42);
  w.b(true);
  w.b(false);
  w.f64(-0.0);
  w.f64(1.0 / 3.0);
  w.str("planaria");
  w.str("");
  w.tag(snapshot::tag4("TEST"));

  snapshot::Reader r(w.buffer());
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u16(), 0xBEEF);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.i64(), -42);
  EXPECT_TRUE(r.b());
  EXPECT_FALSE(r.b());
  const double neg_zero = r.f64();
  EXPECT_EQ(neg_zero, 0.0);
  EXPECT_TRUE(std::signbit(neg_zero));  // bit pattern, not value, survives
  EXPECT_EQ(r.f64(), 1.0 / 3.0);
  EXPECT_EQ(r.str(), "planaria");
  EXPECT_EQ(r.str(), "");
  r.expect_tag(snapshot::tag4("TEST"));
  EXPECT_TRUE(r.at_end());
  r.require_end();
}

TEST(SnapshotCodec, ReaderRejectsMalformedInput) {
  {
    snapshot::Reader r(nullptr, 0);
    EXPECT_THROW(r.u8(), snapshot::SnapshotError);
  }
  {
    const std::uint8_t short_u64[] = {1, 2, 3};
    snapshot::Reader r(short_u64, sizeof short_u64);
    EXPECT_THROW(r.u64(), snapshot::SnapshotError);
  }
  {
    const std::uint8_t bad_bool[] = {2};
    snapshot::Reader r(bad_bool, sizeof bad_bool);
    EXPECT_THROW(r.b(), snapshot::SnapshotError);
  }
  {
    // String whose declared length exceeds the remaining bytes.
    snapshot::Writer w;
    w.u32(1000);
    w.u8('x');
    snapshot::Reader r(w.buffer());
    EXPECT_THROW(r.str(), snapshot::SnapshotError);
  }
  {
    snapshot::Writer w;
    w.tag(snapshot::tag4("AAAA"));
    snapshot::Reader r(w.buffer());
    EXPECT_THROW(r.expect_tag(snapshot::tag4("BBBB")),
                 snapshot::SnapshotError);
  }
  {
    snapshot::Writer w;
    w.u8(1);
    w.u8(2);
    snapshot::Reader r(w.buffer());
    r.u8();
    EXPECT_THROW(r.require_end(), snapshot::SnapshotError);  // trailing byte
  }
}

// Length-framed sections (serve's server envelope uses these to skip or
// validate per-session payloads without decoding them).

TEST(SnapshotCodec, SectionsRoundTripSkipAndNest) {
  snapshot::Writer w;
  const std::size_t outer = w.begin_section(snapshot::tag4("OUTR"));
  w.u64(7);
  const std::size_t inner = w.begin_section(snapshot::tag4("INNR"));
  w.str("nested");
  w.end_section(inner);
  w.u32(0xC0FFEE);
  w.end_section(outer);
  w.u8(0x42);  // data after the section must still line up

  // Full decode: lengths are exact.
  {
    snapshot::Reader r(w.buffer());
    const std::uint64_t outer_len = r.enter_section(snapshot::tag4("OUTR"));
    const std::size_t outer_start = r.position();
    EXPECT_EQ(r.u64(), 7u);
    const std::uint64_t inner_len = r.enter_section(snapshot::tag4("INNR"));
    const std::size_t inner_start = r.position();
    EXPECT_EQ(r.str(), "nested");
    EXPECT_EQ(r.position() - inner_start, inner_len);
    EXPECT_EQ(r.u32(), 0xC0FFEEu);
    EXPECT_EQ(r.position() - outer_start, outer_len);
    EXPECT_EQ(r.u8(), 0x42);
    r.require_end();
  }
  // Skip decode: a reader that does not understand OUTR can hop over it.
  {
    snapshot::Reader r(w.buffer());
    r.skip(r.enter_section(snapshot::tag4("OUTR")));
    EXPECT_EQ(r.u8(), 0x42);
    r.require_end();
  }
}

TEST(SnapshotCodec, SectionsRejectLiesAboutLength) {
  snapshot::Writer w;
  const std::size_t token = w.begin_section(snapshot::tag4("SECT"));
  w.u64(123);
  w.end_section(token);

  // Declared length larger than the remaining buffer: rejected at entry.
  {
    auto bytes = w.buffer();
    bytes[4] = 0xFF;  // low byte of the u64 length, little-endian
    snapshot::Reader r(bytes.data(), bytes.size());
    EXPECT_THROW(r.enter_section(snapshot::tag4("SECT")),
                 snapshot::SnapshotError);
  }
  // skip() past the end of the buffer throws instead of overrunning.
  {
    snapshot::Reader r(w.buffer());
    r.expect_tag(snapshot::tag4("SECT"));
    const std::uint64_t len = r.u64();
    EXPECT_THROW(r.skip(len + 1), snapshot::SnapshotError);
  }
  // Wrong tag at a section boundary desyncs loudly.
  {
    snapshot::Reader r(w.buffer());
    EXPECT_THROW(r.enter_section(snapshot::tag4("OTHR")),
                 snapshot::SnapshotError);
  }
}

// ---------------------------------------------------------------------------
// File envelope
// ---------------------------------------------------------------------------

class SnapshotFileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() / "planaria-test-snapshot";
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string path(const char* name) const { return (dir_ / name).string(); }

  fs::path dir_;
};

TEST_F(SnapshotFileTest, EnvelopeRoundTripsAndIsAtomic) {
  std::vector<std::uint8_t> payload;
  for (int i = 0; i < 1000; ++i) {
    payload.push_back(static_cast<std::uint8_t>(i * 7));
  }
  snapshot::write_file(path("a.snap"), payload);
  EXPECT_EQ(snapshot::read_file(path("a.snap")), payload);
  // No temp file left behind.
  EXPECT_FALSE(fs::exists(path("a.snap") + ".tmp"));
  // Overwrite with different content: the reader must see the new bytes.
  std::vector<std::uint8_t> payload2 = {9, 9, 9};
  snapshot::write_file(path("a.snap"), payload2);
  EXPECT_EQ(snapshot::read_file(path("a.snap")), payload2);
}

TEST_F(SnapshotFileTest, RejectsMissingTruncatedAndCorruptFiles) {
  EXPECT_THROW(snapshot::read_file(path("nonexistent.snap")),
               snapshot::SnapshotError);

  std::vector<std::uint8_t> payload(256, 0x5A);
  snapshot::write_file(path("b.snap"), payload);

  // Truncation at several depths: inside the header, and inside the payload.
  for (const std::uintmax_t keep : {0u, 7u, 12u, 23u, 24u, 100u}) {
    fs::copy_file(path("b.snap"), path("trunc.snap"),
                  fs::copy_options::overwrite_existing);
    fs::resize_file(path("trunc.snap"), keep);
    EXPECT_THROW(snapshot::read_file(path("trunc.snap")),
                 snapshot::SnapshotError)
        << "accepted a file truncated to " << keep << " bytes";
  }

  // One flipped payload byte: the CRC must catch it.
  {
    std::fstream f(path("b.snap"),
                   std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(24 + 17);
    f.put(static_cast<char>(0x5A ^ 0x01));
  }
  EXPECT_THROW(snapshot::read_file(path("b.snap")), snapshot::SnapshotError);

  // Bad magic and wrong version are both rejected before any payload read.
  snapshot::write_file(path("c.snap"), payload);
  {
    std::fstream f(path("c.snap"),
                   std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(0);
    f.put('X');
  }
  EXPECT_THROW(snapshot::read_file(path("c.snap")), snapshot::SnapshotError);
  snapshot::write_file(path("d.snap"), payload);
  {
    std::fstream f(path("d.snap"),
                   std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(8);
    f.put(static_cast<char>(snapshot::kFormatVersion + 1));
  }
  EXPECT_THROW(snapshot::read_file(path("d.snap")), snapshot::SnapshotError);
}

// ---------------------------------------------------------------------------
// Component round-trip property: serialize -> deserialize -> serialize is
// byte-identical, on warmed (mid-run) state.
// ---------------------------------------------------------------------------

std::vector<trace::TraceRecord> test_trace(std::uint64_t records) {
  return trace::generate_app_trace(trace::paper_apps().front(), records);
}

/// Simulator with real mid-run state: tables populated, requests in flight,
/// DRAM queues non-empty (no finish(), so nothing has been drained).
std::unique_ptr<sim::Simulator> warmed(sim::PrefetcherKind kind,
                                       const std::vector<trace::TraceRecord>& t,
                                       std::size_t feed,
                                       const sim::SimConfig& config = {}) {
  auto s = std::make_unique<sim::Simulator>(
      config, sim::make_prefetcher_factory(kind),
      sim::prefetcher_kind_name(kind));
  s->run_sharded(t.data(), t.data() + feed);
  return s;
}

TEST(SnapshotRoundTrip, EveryPrefetcherKindIsByteStable) {
  const auto t = test_trace(12000);
  for (sim::PrefetcherKind kind : sim::all_prefetcher_kinds()) {
    SCOPED_TRACE(sim::prefetcher_kind_name(kind));
    const auto original = warmed(kind, t, 9000);
    snapshot::Writer first;
    original->save_state(first);

    auto restored = warmed(kind, t, 0);
    snapshot::Reader r(first.buffer());
    restored->load_state(r);
    r.require_end();

    snapshot::Writer second;
    restored->save_state(second);
    EXPECT_EQ(first.buffer(), second.buffer());
  }
}

TEST(SnapshotRoundTrip, ArmedFaultInjectorsAreByteStable) {
  fault::FaultPlan plan;
  plan.seed = 77;
  for (int c = 0; c < fault::kFaultClassCount; ++c) {
    plan.rate[c] = 0.02;
  }
  sim::SimConfig config;
  config.fault = plan;
  const auto t = test_trace(8000);

  check::RecoveryScope scope;  // trace corruption fires the time contract
  const auto original = warmed(sim::PrefetcherKind::kPlanaria, t, 6000, config);
  snapshot::Writer first;
  original->save_state(first);

  auto restored = warmed(sim::PrefetcherKind::kPlanaria, t, 0, config);
  snapshot::Reader r(first.buffer());
  restored->load_state(r);
  r.require_end();

  snapshot::Writer second;
  restored->save_state(second);
  EXPECT_EQ(first.buffer(), second.buffer());
}

TEST(SnapshotRoundTrip, EveryReplacementPolicyIsByteStable) {
  for (const cache::ReplacementKind kind :
       {cache::ReplacementKind::kLru, cache::ReplacementKind::kRandom,
        cache::ReplacementKind::kSrrip, cache::ReplacementKind::kDrrip}) {
    SCOPED_TRACE(static_cast<int>(kind));
    cache::CacheConfig config;
    config.size_bytes = 1 << 16;  // small slice so evictions actually happen
    config.replacement = kind;

    cache::SystemCache original(config);
    Rng rng(123);
    for (int i = 0; i < 20000; ++i) {
      const std::uint64_t block = rng.next_below(4096);
      original.access(block, rng.chance(0.3) ? AccessType::kWrite
                                             : AccessType::kRead);
      if (rng.chance(0.7)) {
        original.fill(block, rng.chance(0.5)
                                 ? cache::FillSource::kPrefetchSlp
                                 : cache::FillSource::kDemand);
      }
    }
    snapshot::Writer first;
    original.save_state(first);

    cache::SystemCache restored(config);
    snapshot::Reader r(first.buffer());
    restored.load_state(r);
    r.require_end();

    snapshot::Writer second;
    restored.save_state(second);
    EXPECT_EQ(first.buffer(), second.buffer());
  }
}

// A cache image whose pollution filter is replaced by the given FIFO, head
// and member list. The base cache only ever takes demand fills, so it never
// tracks a pollution eviction and its image ends in the empty filter: FIFO
// size 0, head 0, member count 0.
std::vector<std::uint8_t> cache_image_with_filter(
    const std::vector<std::uint64_t>& fifo, std::uint64_t head,
    const std::vector<std::uint64_t>& members) {
  cache::SystemCache base(cache::CacheConfig{});
  for (std::uint64_t block = 0; block < 64; ++block) {
    base.fill(block, cache::FillSource::kDemand);
  }
  snapshot::Writer w;
  base.save_state(w);
  std::vector<std::uint8_t> image = w.buffer();
  const auto empty_filter = image.end() - 3 * sizeof(std::uint64_t);
  EXPECT_TRUE(std::all_of(empty_filter, image.end(),
                          [](std::uint8_t b) { return b == 0; }));
  image.erase(empty_filter, image.end());
  snapshot::Writer filter;
  filter.u64(fifo.size());
  for (std::uint64_t v : fifo) filter.u64(v);
  filter.u64(head);
  filter.u64(members.size());
  for (std::uint64_t v : members) filter.u64(v);
  image.insert(image.end(), filter.buffer().begin(), filter.buffer().end());
  return image;
}

void load_cache_image(const std::vector<std::uint8_t>& image) {
  cache::SystemCache cache{cache::CacheConfig{}};
  snapshot::Reader r(image);
  cache.load_state(r);
  r.require_end();
}

// Control: a block queued twice is a single member. Each reject test below
// breaks one rule that this well-formed filter keeps.
TEST(SnapshotPollutionFilter, WellFormedFilterLoads) {
  EXPECT_NO_THROW(load_cache_image(cache_image_with_filter({5, 6, 5}, 0, {5, 6})));
}

// The head only moves once the FIFO is full; a head elsewhere would make
// the FIFO rotate from the wrong slot when it fills.
TEST(SnapshotPollutionFilter, RejectsHeadMovedBeforeFifoIsFull) {
  EXPECT_THROW(load_cache_image(cache_image_with_filter({5, 6}, 1, {5, 6})),
               snapshot::SnapshotError);
}

// Nothing would ever erase a member that is not queued, so it would count
// pollution misses for ever.
TEST(SnapshotPollutionFilter, RejectsMemberMissingFromFifo) {
  EXPECT_THROW(load_cache_image(cache_image_with_filter({5, 6}, 0, {5, 7})),
               snapshot::SnapshotError);
}

TEST(SnapshotPollutionFilter, RejectsDuplicateMembers) {
  EXPECT_THROW(load_cache_image(cache_image_with_filter({5, 6}, 0, {5, 5})),
               snapshot::SnapshotError);
}

// Before the first wrap nothing leaves the set, so every queued block must
// be a member.
TEST(SnapshotPollutionFilter, RejectsQueuedBlockMissingBeforeWrap) {
  EXPECT_THROW(load_cache_image(cache_image_with_filter({5, 6}, 0, {5})),
               snapshot::SnapshotError);
}

// LruPolicy is the one policy class visible in the header (the cache calls
// it through a concrete pointer on the hot path), so it gets a standalone
// round-trip in addition to the through-the-cache sweep above.
TEST(SnapshotRoundTrip, LruPolicyIsByteStableStandalone) {
  cache::LruPolicy original(64, 16);
  Rng rng(77);
  for (int i = 0; i < 5000; ++i) {
    const auto set = static_cast<std::uint32_t>(rng.next_below(64));
    const int way = static_cast<int>(rng.next_below(16));
    if (rng.chance(0.5)) {
      original.on_hit(set, way);
    } else {
      original.on_fill(set, way, rng.chance(0.3));
    }
  }
  snapshot::Writer first;
  original.save_state(first);

  cache::LruPolicy restored(64, 16);
  snapshot::Reader r(first.buffer());
  restored.load_state(r);
  r.require_end();
  // Victim choice is the policy's entire observable behaviour; the restored
  // instance must agree with the original on every set.
  for (std::uint32_t set = 0; set < 64; ++set) {
    EXPECT_EQ(original.victim(set), restored.victim(set));
  }

  snapshot::Writer second;
  restored.save_state(second);
  EXPECT_EQ(first.buffer(), second.buffer());
}

TEST(SnapshotRoundTrip, FaultInjectorResumesItsStreamsExactly) {
  const auto plan = fault::FaultPlan::single(fault::FaultClass::kPrefetchDrop,
                                            0.5, 99);
  fault::FaultInjector a(plan, 3);
  for (int i = 0; i < 1000; ++i) {
    if (a.roll(fault::FaultClass::kPrefetchDrop)) {
      a.record(fault::FaultClass::kPrefetchDrop);
    }
  }
  snapshot::Writer w;
  a.save_state(w);

  fault::FaultInjector b(plan, 3);
  snapshot::Reader r(w.buffer());
  b.load_state(r);
  r.require_end();
  EXPECT_EQ(b.injected(fault::FaultClass::kPrefetchDrop),
            a.injected(fault::FaultClass::kPrefetchDrop));
  // Both streams must continue in lockstep after the restore.
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(a.roll(fault::FaultClass::kPrefetchDrop),
              b.roll(fault::FaultClass::kPrefetchDrop));
  }
}

TEST(SnapshotRoundTrip, SimResultSurvivesVerbatim) {
  sim::SimResult a;
  a.prefetcher = "planaria";
  a.demand_reads = 123456;
  a.amat_cycles = 87.125609134847502;
  a.ipc = 1.9999999999999998;  // adjacent representable doubles must survive
  a.data_bus_utilization = 0.3333333333333333;
  a.fault_injected_total = 42;
  a.fault_dram_stalls = 17;

  snapshot::Writer w;
  a.save_state(w);
  sim::SimResult b;
  snapshot::Reader r(w.buffer());
  b.load_state(r);
  r.require_end();
  EXPECT_TRUE(a == b);
}

// ---------------------------------------------------------------------------
// Fuzzed damage: every truncated prefix of a full simulator payload must be
// rejected with SnapshotError — never a crash, hang, or silent acceptance.
// ---------------------------------------------------------------------------

TEST(SnapshotFuzz, TruncatedPayloadsAreRejectedCleanly) {
  const auto t = test_trace(6000);
  const auto original = warmed(sim::PrefetcherKind::kPlanaria, t, 5000);
  snapshot::Writer w;
  original->save_state(w);
  const auto& full = w.buffer();
  ASSERT_GT(full.size(), 200u);

  std::vector<std::size_t> cuts;
  for (std::size_t n = 0; n < 64 && n < full.size(); ++n) cuts.push_back(n);
  for (std::size_t n = 64; n < full.size(); n += 997) cuts.push_back(n);
  cuts.push_back(full.size() - 1);

  for (const std::size_t cut : cuts) {
    auto fresh = warmed(sim::PrefetcherKind::kPlanaria, t, 0);
    snapshot::Reader r(full.data(), cut);
    EXPECT_THROW(
        {
          fresh->load_state(r);
          r.require_end();  // a prefix that "loads" must still fail framing
        },
        snapshot::SnapshotError)
        << "accepted a payload truncated to " << cut << " of " << full.size()
        << " bytes";
  }
}

TEST(SnapshotFuzz, WrongKindPayloadIsRejected) {
  const auto t = test_trace(4000);
  const auto bop = warmed(sim::PrefetcherKind::kBop, t, 3000);
  snapshot::Writer w;
  bop->save_state(w);
  auto spp = warmed(sim::PrefetcherKind::kSpp, t, 0);
  snapshot::Reader r(w.buffer());
  EXPECT_THROW(spp->load_state(r), snapshot::SnapshotError);
}

// ---------------------------------------------------------------------------
// Checkpoint/resume at the API level (the audit's crash stage covers the
// full kill matrix; this is the fast in-tree slice of it).
// ---------------------------------------------------------------------------

TEST_F(SnapshotFileTest, ResumeMatchesUninterruptedRunBitForBit) {
  const auto t = test_trace(10000);
  const auto base = sim::Simulator::run(
      sim::SimConfig{},
      sim::make_prefetcher_factory(sim::PrefetcherKind::kPlanaria), "planaria",
      t);

  // Run 6000 records, checkpoint, abandon; resume must complete identically.
  const auto part = warmed(sim::PrefetcherKind::kPlanaria, t, 6000);
  sim::CheckpointConfig ckpt;
  ckpt.dir = dir_.string();
  ckpt.every = 6000;
  sim::write_checkpoint(*part, ckpt, 6000, sim::trace_fingerprint(t));

  const auto resumed = sim::resume(
      sim::SimConfig{},
      sim::make_prefetcher_factory(sim::PrefetcherKind::kPlanaria), "planaria",
      t, ckpt.current_path());
  EXPECT_TRUE(resumed == base);

  // resume() on a damaged snapshot throws instead of falling back.
  fs::resize_file(ckpt.current_path(), 30);
  EXPECT_THROW(sim::resume(sim::SimConfig{},
                           sim::make_prefetcher_factory(
                               sim::PrefetcherKind::kPlanaria),
                           "planaria", t, ckpt.current_path()),
               snapshot::SnapshotError);
}

TEST_F(SnapshotFileTest, FingerprintMismatchForcesColdStart) {
  const auto t = test_trace(8000);
  const auto part = warmed(sim::PrefetcherKind::kPlanaria, t, 4000);
  sim::CheckpointConfig ckpt;
  ckpt.dir = dir_.string();
  ckpt.every = 4000;
  sim::write_checkpoint(*part, ckpt, 4000, sim::trace_fingerprint(t));

  // A different trace must not resume from this snapshot.
  const auto other = test_trace(8001);
  sim::RecoveryReport rep;
  const auto result = sim::run_checkpointed(
      sim::SimConfig{},
      sim::make_prefetcher_factory(sim::PrefetcherKind::kPlanaria), "planaria",
      other, ckpt, nullptr, &rep);
  EXPECT_EQ(rep.outcome, sim::RecoveryReport::Outcome::kColdStart);
  ASSERT_FALSE(rep.notes.empty());
  EXPECT_NE(rep.notes.front().find("different trace"), std::string::npos);
  const auto base = sim::Simulator::run(
      sim::SimConfig{},
      sim::make_prefetcher_factory(sim::PrefetcherKind::kPlanaria), "planaria",
      other);
  EXPECT_TRUE(result == base);
}

// Rotation boundary: write_checkpoint promotes current -> .prev *before*
// writing the new current, so a kill can land between those two steps. The
// recovery chain must then restore from .prev — one checkpoint older, but
// complete — and still finish bit-identical.

TEST_F(SnapshotFileTest, KillDuringRotationPromotionFallsBackToPrev) {
  const auto t = test_trace(10000);
  const auto base = sim::Simulator::run(
      sim::SimConfig{},
      sim::make_prefetcher_factory(sim::PrefetcherKind::kPlanaria), "planaria",
      t);

  sim::CheckpointConfig ckpt;
  ckpt.dir = dir_.string();
  ckpt.every = 4000;
  const auto part = warmed(sim::PrefetcherKind::kPlanaria, t, 4000);
  sim::write_checkpoint(*part, ckpt, 4000, sim::trace_fingerprint(t));

  // Reproduce the exact mid-rotation state of the *next* checkpoint: the
  // rename has promoted current to .prev and the process died before the
  // fresh current landed. No current file exists at restart.
  fs::rename(ckpt.current_path(), ckpt.prev_path());
  ASSERT_FALSE(fs::exists(ckpt.current_path()));

  sim::RecoveryReport rep;
  const auto result = sim::run_checkpointed(
      sim::SimConfig{},
      sim::make_prefetcher_factory(sim::PrefetcherKind::kPlanaria), "planaria",
      t, ckpt, nullptr, &rep);
  EXPECT_EQ(rep.outcome, sim::RecoveryReport::Outcome::kFellBack);
  EXPECT_EQ(rep.resumed_cursor, 4000u);
  EXPECT_EQ(rep.snapshot_path, ckpt.prev_path());
  EXPECT_TRUE(result == base);
}

TEST_F(SnapshotFileTest, DoubleKillAcrossRotationsColdStartsCleanly) {
  const auto t = test_trace(10000);
  const auto base = sim::Simulator::run(
      sim::SimConfig{},
      sim::make_prefetcher_factory(sim::PrefetcherKind::kPlanaria), "planaria",
      t);

  sim::CheckpointConfig ckpt;
  ckpt.dir = dir_.string();
  ckpt.every = 4000;
  const auto part = warmed(sim::PrefetcherKind::kPlanaria, t, 4000);
  sim::write_checkpoint(*part, ckpt, 4000, sim::trace_fingerprint(t));
  const auto later = warmed(sim::PrefetcherKind::kPlanaria, t, 8000);
  sim::write_checkpoint(*later, ckpt, 8000, sim::trace_fingerprint(t));

  // First kill: torn write of the current snapshot. Second kill: the retry
  // died mid-rotation too, tearing what .prev held. Both candidates are now
  // damaged — recovery must degrade to a cold start with one note per
  // rejected candidate, and the result must still match.
  fs::resize_file(ckpt.current_path(), fs::file_size(ckpt.current_path()) / 3);
  fs::resize_file(ckpt.prev_path(), 16);  // dies inside the file header

  sim::RecoveryReport rep;
  const auto result = sim::run_checkpointed(
      sim::SimConfig{},
      sim::make_prefetcher_factory(sim::PrefetcherKind::kPlanaria), "planaria",
      t, ckpt, nullptr, &rep);
  EXPECT_EQ(rep.outcome, sim::RecoveryReport::Outcome::kColdStart);
  EXPECT_EQ(rep.notes.size(), 2u);
  EXPECT_TRUE(result == base);

  // The recovered run re-checkpointed as it went; a third run resumes from
  // its freshly written current snapshot without drama.
  sim::RecoveryReport rep2;
  const auto again = sim::run_checkpointed(
      sim::SimConfig{},
      sim::make_prefetcher_factory(sim::PrefetcherKind::kPlanaria), "planaria",
      t, ckpt, nullptr, &rep2);
  EXPECT_EQ(rep2.outcome, sim::RecoveryReport::Outcome::kResumed);
  EXPECT_TRUE(again == base);
}

TEST_F(SnapshotFileTest, SweepCellsResumeFromPersistedResults) {
  sim::ExperimentRunner first(sim::SimConfig{}, 4000, 1);
  first.set_checkpoint_dir(dir_.string());
  const std::vector<sim::PrefetcherKind> kinds = {sim::PrefetcherKind::kNone,
                                                  sim::PrefetcherKind::kBop};
  const auto a = first.sweep(kinds);
  // Every completed cell left a validated result file behind.
  std::size_t cell_files = 0;
  for (const auto& entry : fs::directory_iterator(dir_)) {
    cell_files += entry.path().extension() == ".result" ? 1 : 0;
  }
  EXPECT_EQ(cell_files, trace::app_names().size() * kinds.size());

  // A second runner must reload them verbatim.
  sim::ExperimentRunner second(sim::SimConfig{}, 4000, 1);
  second.set_checkpoint_dir(dir_.string());
  const auto b = second.sweep(kinds);
  ASSERT_EQ(a.size(), b.size());
  for (const auto& [app, per_kind] : a) {
    for (const auto& [kind_name, result] : per_kind) {
      EXPECT_TRUE(result == b.at(app).at(kind_name)) << app << "/" << kind_name;
    }
  }

  // A corrupted cell file is silently re-run, not trusted.
  const auto victim = dir_ / ("cell_" + a.begin()->first + "_none.result");
  ASSERT_TRUE(fs::exists(victim));
  fs::resize_file(victim, 10);
  sim::ExperimentRunner third(sim::SimConfig{}, 4000, 1);
  third.set_checkpoint_dir(dir_.string());
  const auto c = third.sweep(kinds);
  EXPECT_TRUE(a.begin()->second.at("none") == c.at(a.begin()->first).at("none"));
}

TEST_F(SnapshotFileTest, PoisonedSweepCellBacksOffThenReportsOthersLand) {
  // Poison exactly one cell's persistence: a directory squatting on the
  // store path's .tmp name makes every store_cell attempt for that cell
  // throw, while all other cells run and persist normally.
  const std::string app = trace::app_names().front();
  fs::create_directories(dir_ / ("cell_" + app + "_none.result.tmp"));

  sim::ExperimentRunner runner(sim::SimConfig{}, 4000, 1);
  runner.set_checkpoint_dir(dir_.string());
  const std::vector<sim::PrefetcherKind> kinds = {sim::PrefetcherKind::kNone,
                                                  sim::PrefetcherKind::kBop};
  std::vector<sim::FailureReport> failures;
  const auto grid = runner.sweep(kinds, false, &failures);

  // The grid keeps its full shape and every healthy cell has a real result.
  EXPECT_EQ(grid.size(), trace::app_names().size());
  for (const auto& [grid_app, per_kind] : grid) {
    EXPECT_EQ(per_kind.size(), kinds.size()) << grid_app;
    EXPECT_GT(per_kind.at("bop").demand_reads, 0u) << grid_app;
  }

  // Exactly one report, carrying the bounded-retry and backoff history:
  // 3 attempts = 2 scheduled backoffs, each of at least the base delay.
  ASSERT_EQ(failures.size(), 1u);
  const sim::FailureReport& report = failures.front();
  EXPECT_EQ(report.app, app);
  EXPECT_EQ(report.kind, "none");
  EXPECT_EQ(report.attempts, 3);
  EXPECT_EQ(report.backoffs, 2);
  EXPECT_GE(report.backoff_rounds, 2u * 2u);  // two waits of >= base rounds
  // The report names the failing VFS op (the squatting directory makes the
  // durable-write `.tmp` creation fail).
  EXPECT_NE(report.what.find("io: create"), std::string::npos);

  // The backoff schedule is a pure function of (cell, attempt): a rerun of
  // the same poisoned sweep files a byte-identical report.
  sim::ExperimentRunner again(sim::SimConfig{}, 4000, 1);
  again.set_checkpoint_dir(dir_.string());
  std::vector<sim::FailureReport> failures2;
  again.sweep(kinds, false, &failures2);
  ASSERT_EQ(failures2.size(), 1u);
  EXPECT_EQ(failures2.front().attempts, report.attempts);
  EXPECT_EQ(failures2.front().backoffs, report.backoffs);
  EXPECT_EQ(failures2.front().backoff_rounds, report.backoff_rounds);
}

// ---------------------------------------------------------------------------
// Golden snapshot: format stability across commits.
// ---------------------------------------------------------------------------

/// Hand-constructed deterministic trace (kept independent of the trace
/// generator so generator tuning can never invalidate the golden file).
/// Addresses walk all four channels; every 7th record is a write.
std::vector<trace::TraceRecord> golden_trace() {
  std::vector<trace::TraceRecord> out;
  std::uint64_t state = 0x9E3779B97F4A7C15ull;
  Cycle t = 0;
  for (int i = 0; i < 512; ++i) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    trace::TraceRecord rec;
    rec.address = (state >> 16) & 0xFFFFFFC0ull;  // 64B-aligned, 32-bit range
    rec.arrival = t;
    t += (state >> 58) + 1;
    rec.type = i % 7 == 0 ? AccessType::kWrite : AccessType::kRead;
    rec.device = static_cast<DeviceId>(i % static_cast<int>(DeviceId::kCount));
    out.push_back(rec);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Type coverage: every snapshottable component, exercised by name
// ---------------------------------------------------------------------------
// The simulator round-trips above cover these classes as composed state, but
// composition can mask a component whose encode/decode quietly cancels out.
// This section holds each type directly: the interface hierarchy really is
// rooted at snapshot::Snapshottable, and warmed instances of each component
// satisfy serialize -> deserialize -> serialize == identical bytes on their
// own. planaria-lint's snapshot-roundtrip rule checks every snapshottable
// class is named here.

TEST(SnapshotTypeCoverage, HierarchyIsRootedAtSnapshottable) {
  static_assert(
      std::is_base_of_v<snapshot::Snapshottable, prefetch::Prefetcher>);
  static_assert(
      std::is_base_of_v<prefetch::Prefetcher, core::PlanariaPrefetcher>);
  static_assert(std::is_base_of_v<prefetch::Prefetcher, core::SerialComposite>);
  static_assert(
      std::is_base_of_v<prefetch::Prefetcher, core::ParallelComposite>);
  static_assert(
      std::is_base_of_v<prefetch::Prefetcher, prefetch::BestOffsetPrefetcher>);
  static_assert(
      std::is_base_of_v<prefetch::Prefetcher, prefetch::StridePrefetcher>);
  static_assert(
      std::is_base_of_v<prefetch::Prefetcher, prefetch::SmsPrefetcher>);
  static_assert(std::is_base_of_v<prefetch::Prefetcher,
                                  prefetch::SignaturePathPrefetcher>);
  static_assert(
      std::is_base_of_v<prefetch::Prefetcher, prefetch::NextLinePrefetcher>);
  // ReplacementPolicy predates the Snapshottable interface but exposes the
  // same save_state/load_state pair; the suite below holds it to the same
  // byte-stability property via make_replacement.
  static_assert(std::is_abstract_v<cache::ReplacementPolicy>);
  SUCCEED();
}

namespace {

/// Deterministic synthetic demand stream: a few pages touched with a stride
/// pattern plus revisits, enough to populate AT/PT/RPT state in every
/// pattern-based prefetcher.
prefetch::DemandEvent coverage_event(int i) {
  prefetch::DemandEvent e;
  e.page = static_cast<PageNumber>(100 + (i * 7) % 13);
  e.block_in_segment = (i * 3) % 16;
  e.local_block = static_cast<std::uint64_t>(e.page) * 16 +
                  static_cast<std::uint64_t>(e.block_in_segment);
  e.now = static_cast<Cycle>(10 * i);
  e.sc_hit = (i % 3) == 0;
  return e;
}

/// Warms a prefetcher on the synthetic stream, then checks the byte-stability
/// property against a freshly constructed instance.
template <typename MakePrefetcher>
void expect_prefetcher_byte_stable(MakePrefetcher make) {
  auto original = make();
  std::vector<prefetch::PrefetchRequest> out;
  for (int i = 0; i < 2000; ++i) {
    original->on_demand(coverage_event(i), out);
    if (i % 5 == 0) {
      original->on_fill(coverage_event(i).local_block, (i % 10) == 0,
                        static_cast<Cycle>(10 * i + 7));
    }
  }

  snapshot::Writer first;
  original->save_state(first);

  auto restored = make();
  snapshot::Reader r(first.buffer());
  restored->load_state(r);
  r.require_end();

  snapshot::Writer second;
  restored->save_state(second);
  EXPECT_EQ(first.buffer(), second.buffer());
}

}  // namespace

TEST(SnapshotTypeCoverage, EveryPrefetcherImplementorIsByteStableAlone) {
  {
    SCOPED_TRACE("PlanariaPrefetcher");
    expect_prefetcher_byte_stable(
        [] { return std::make_unique<core::PlanariaPrefetcher>(); });
  }
  {
    SCOPED_TRACE("SerialComposite");
    expect_prefetcher_byte_stable(
        [] { return std::make_unique<core::SerialComposite>(); });
  }
  {
    SCOPED_TRACE("ParallelComposite");
    expect_prefetcher_byte_stable(
        [] { return std::make_unique<core::ParallelComposite>(); });
  }
  {
    SCOPED_TRACE("BestOffsetPrefetcher");
    expect_prefetcher_byte_stable(
        [] { return std::make_unique<prefetch::BestOffsetPrefetcher>(); });
  }
  {
    SCOPED_TRACE("StridePrefetcher");
    expect_prefetcher_byte_stable(
        [] { return std::make_unique<prefetch::StridePrefetcher>(); });
  }
  {
    SCOPED_TRACE("SmsPrefetcher");
    expect_prefetcher_byte_stable(
        [] { return std::make_unique<prefetch::SmsPrefetcher>(); });
  }
  {
    SCOPED_TRACE("SignaturePathPrefetcher");
    expect_prefetcher_byte_stable(
        [] { return std::make_unique<prefetch::SignaturePathPrefetcher>(); });
  }
}

TEST(SnapshotTypeCoverage, SlpAndTlpRoundTripOutsideTheCoordinators) {
  core::Slp slp;
  core::Tlp tlp;
  std::vector<prefetch::PrefetchRequest> out;
  for (int i = 0; i < 3000; ++i) {
    const prefetch::DemandEvent e = coverage_event(i);
    slp.learn(e);
    tlp.learn(e);
    if (!e.sc_hit) {
      slp.issue(e, out);
      tlp.issue(e, out);
    }
  }

  snapshot::Writer slp_first;
  slp.save_state(slp_first);
  core::Slp slp_restored;
  snapshot::Reader slp_r(slp_first.buffer());
  slp_restored.load_state(slp_r);
  slp_r.require_end();
  snapshot::Writer slp_second;
  slp_restored.save_state(slp_second);
  EXPECT_EQ(slp_first.buffer(), slp_second.buffer());

  snapshot::Writer tlp_first;
  tlp.save_state(tlp_first);
  core::Tlp tlp_restored;
  snapshot::Reader tlp_r(tlp_first.buffer());
  tlp_restored.load_state(tlp_r);
  tlp_r.require_end();
  snapshot::Writer tlp_second;
  tlp_restored.save_state(tlp_second);
  EXPECT_EQ(tlp_first.buffer(), tlp_second.buffer());
}

TEST(SnapshotTypeCoverage, LruTableRoundTripsWithExactRecency) {
  LruTable<std::uint64_t, std::uint64_t> table(8);
  for (std::uint64_t k = 0; k < 13; ++k) table.insert(k * 3, k + 100);
  // Refresh a surviving entry (the first 5 inserts were evicted) so recency
  // differs from insertion order.
  table.find(18);
  const auto encode = [](snapshot::Writer& w, const std::uint64_t& p) {
    w.u64(p);
  };
  const auto decode = [](snapshot::Reader& r) { return r.u64(); };

  snapshot::Writer first;
  table.save_state(first, encode);

  LruTable<std::uint64_t, std::uint64_t> restored(8);
  snapshot::Reader r(first.buffer());
  restored.load_state(r, decode);
  r.require_end();
  EXPECT_EQ(restored.size(), table.size());
  ASSERT_NE(restored.peek(18), nullptr);
  EXPECT_EQ(*restored.peek(18), 106u);

  snapshot::Writer second;
  restored.save_state(second, encode);
  EXPECT_EQ(first.buffer(), second.buffer());
}

TEST(SnapshotTypeCoverage, SetAssocTableRoundTripsWithExactRecency) {
  SetAssocTable<std::uint64_t, std::uint64_t> table(4, 2);
  for (std::uint64_t k = 0; k < 17; ++k) table.insert(k * 5, k + 200);
  table.find(10);
  const auto encode = [](snapshot::Writer& w, const std::uint64_t& p) {
    w.u64(p);
  };
  const auto decode = [](snapshot::Reader& r) { return r.u64(); };

  snapshot::Writer first;
  table.save_state(first, encode);

  SetAssocTable<std::uint64_t, std::uint64_t> restored(4, 2);
  snapshot::Reader r(first.buffer());
  restored.load_state(r, decode);
  r.require_end();
  EXPECT_EQ(restored.size(), table.size());

  snapshot::Writer second;
  restored.save_state(second, encode);
  EXPECT_EQ(first.buffer(), second.buffer());
}

TEST(SnapshotTypeCoverage, DramChannelRoundTripsMidFlight) {
  dram::DramConfig config;
  dram::DramChannel channel(config);
  for (int i = 0; i < 200; ++i) {
    dram::DramRequest req;
    req.local_block = static_cast<std::uint64_t>((i * 37) % 4096);
    req.arrival = static_cast<Cycle>(i * 11);
    req.is_write = (i % 7) == 0;
    req.is_prefetch = (i % 5) == 0 && !req.is_write;
    req.tag = static_cast<std::uint64_t>(i);
    channel.submit(req);
  }
  channel.advance(1500);  // mid-flight: queues are non-empty, banks are busy
  (void)channel.take_completions();

  snapshot::Writer first;
  channel.save_state(first);

  dram::DramChannel restored(config);
  snapshot::Reader r(first.buffer());
  restored.load_state(r);
  r.require_end();

  snapshot::Writer second;
  restored.save_state(second);
  EXPECT_EQ(first.buffer(), second.buffer());

  // The restored channel must also *behave* identically, not just re-encode.
  channel.drain();
  restored.drain();
  const auto a = channel.take_completions();
  const auto b = restored.take_completions();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].tag, b[i].tag);
    EXPECT_EQ(a[i].finish, b[i].finish);
  }
}

TEST(SnapshotGolden, CommittedSnapshotStillDecodes) {
  const std::string golden = std::string(PLANARIA_TESTDATA_DIR) +
                             "/golden.snap";
  const auto t = golden_trace();
  constexpr std::uint64_t kGoldenCursor = 256;

  // lint: suppress(determinism) opt-in regeneration knob for the committed golden snapshot
  if (const char* write = std::getenv("PLANARIA_WRITE_GOLDEN");
      write != nullptr && *write != '\0') {
    const auto s = warmed(sim::PrefetcherKind::kPlanaria, t, kGoldenCursor);
    snapshot::Writer w;
    w.tag(snapshot::tag4("CKPT"));
    w.u64(kGoldenCursor);
    w.u64(sim::trace_fingerprint(t));
    s->save_state(w);
    snapshot::write_file(golden, w.buffer());
    GTEST_SKIP() << "golden snapshot regenerated at " << golden;
  }

  ASSERT_TRUE(fs::exists(golden))
      << "tests/data/golden.snap is missing; regenerate with "
         "PLANARIA_WRITE_GOLDEN=1";
  // Decode gate: the envelope validates, every component section loads, and
  // the resume cursor is intact. A failure here means the serialization
  // changed without a kFormatVersion bump (see snapshot.hpp's versioning
  // rule).
  auto s = warmed(sim::PrefetcherKind::kPlanaria, t, 0);
  const std::uint64_t cursor =
      sim::load_checkpoint(*s, golden, sim::trace_fingerprint(t));
  EXPECT_EQ(cursor, kGoldenCursor);

  // And the restored state is live: completing the run reproduces the
  // uninterrupted result bit for bit.
  s->run_sharded(t.data() + cursor, t.data() + t.size());
  const auto resumed = s->finish();
  const auto base = sim::Simulator::run(
      sim::SimConfig{},
      sim::make_prefetcher_factory(sim::PrefetcherKind::kPlanaria), "planaria",
      t);
  EXPECT_TRUE(resumed == base);
}

}  // namespace
}  // namespace planaria
