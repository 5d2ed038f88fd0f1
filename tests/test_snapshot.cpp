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
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "cache/replacement.hpp"
#include "cache/system_cache.hpp"
#include "check/contract.hpp"
#include "common/rng.hpp"
#include "common/set_table.hpp"
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

/// Byte-at-a-time little-endian reference encoder: the format's byte order
/// spelled out one shift per byte, sharing no code with Writer.
void reference_put(std::vector<std::uint8_t>& out, std::uint64_t v,
                   std::size_t width) {
  for (std::size_t i = 0; i < width; ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

/// One fixed-width Writer/Reader field: its width, the value's bit pattern,
/// and how to write and read it back as that pattern.
struct CodecField {
  const char* name;
  std::size_t width;
  std::uint64_t bits;
  void (*write)(snapshot::Writer&, std::uint64_t);
  std::uint64_t (*read)(snapshot::Reader&);
};

std::vector<CodecField> codec_fields() {
  using W = snapshot::Writer;
  using R = snapshot::Reader;
  return {
      {"u8", 1, 0xA5,
       [](W& w, std::uint64_t v) { w.u8(static_cast<std::uint8_t>(v)); },
       [](R& r) -> std::uint64_t { return r.u8(); }},
      {"b", 1, 1, [](W& w, std::uint64_t v) { w.b(v != 0); },
       [](R& r) -> std::uint64_t { return r.b() ? 1 : 0; }},
      {"u16", 2, 0xBEEF,
       [](W& w, std::uint64_t v) { w.u16(static_cast<std::uint16_t>(v)); },
       [](R& r) -> std::uint64_t { return r.u16(); }},
      {"u32", 4, 0xDEADBEEF,
       [](W& w, std::uint64_t v) { w.u32(static_cast<std::uint32_t>(v)); },
       [](R& r) -> std::uint64_t { return r.u32(); }},
      {"tag", 4, snapshot::tag4("CDEC"),
       [](W& w, std::uint64_t v) { w.tag(static_cast<std::uint32_t>(v)); },
       [](R& r) -> std::uint64_t {
         r.expect_tag(snapshot::tag4("CDEC"));
         return snapshot::tag4("CDEC");
       }},
      {"u64", 8, 0xF1E2D3C4B5A69788ull,
       [](W& w, std::uint64_t v) { w.u64(v); },
       [](R& r) -> std::uint64_t { return r.u64(); }},
      {"i64", 8, static_cast<std::uint64_t>(std::int64_t{-0x123456789AB}),
       [](W& w, std::uint64_t v) { w.i64(static_cast<std::int64_t>(v)); },
       [](R& r) -> std::uint64_t {
         return static_cast<std::uint64_t>(r.i64());
       }},
      {"f64", 8, std::bit_cast<std::uint64_t>(-1.0 / 3.0),
       [](W& w, std::uint64_t v) { w.f64(std::bit_cast<double>(v)); },
       [](R& r) -> std::uint64_t { return std::bit_cast<std::uint64_t>(r.f64()); }},
  };
}

TEST(SnapshotCodec, WordStoresMatchByteAtATimeEncodingAtEveryOffset) {
  // Each field lands after 0..16 prefix bytes, so its store starts at every
  // alignment; the bytes must be exactly the little-endian reference.
  for (const CodecField& field : codec_fields()) {
    for (std::size_t offset = 0; offset <= 16; ++offset) {
      snapshot::Writer w;
      std::vector<std::uint8_t> expected;
      for (std::size_t i = 0; i < offset; ++i) {
        w.u8(static_cast<std::uint8_t>(i + 1));
        expected.push_back(static_cast<std::uint8_t>(i + 1));
      }
      field.write(w, field.bits);
      reference_put(expected, field.bits, field.width);
      ASSERT_EQ(w.buffer(), expected) << field.name << " offset " << offset;

      snapshot::Reader r(w.buffer());
      r.skip(offset);
      EXPECT_EQ(field.read(r), field.bits) << field.name << " offset " << offset;
      r.require_end();

      // One byte short: the bounds check must still refuse the read.
      snapshot::Reader short_read(w.buffer().data(), w.buffer().size() - 1);
      short_read.skip(offset);
      EXPECT_THROW(field.read(short_read), snapshot::SnapshotError)
          << field.name << " offset " << offset;
      EXPECT_EQ(short_read.position(), offset) << field.name;
    }
  }
}

TEST(SnapshotCodec, LongMixedStreamMatchesReferenceAcrossGrowth) {
  // Thousands of mixed fields push the buffer through many capacity
  // doublings; a section length is backpatched in the middle.
  const std::vector<CodecField> fields = codec_fields();
  Rng rng(0xC0DEC);
  snapshot::Writer w;
  std::vector<std::uint8_t> expected;
  std::size_t token = 0;
  std::size_t section_start = 0;
  for (int i = 0; i < 20000; ++i) {
    if (i == 5000) {
      token = w.begin_section(snapshot::tag4("MIXD"));
      reference_put(expected, snapshot::tag4("MIXD"), 4);
      reference_put(expected, 0, 8);
      section_start = expected.size();
    }
    if (i == 15000) {
      w.end_section(token);
      const std::uint64_t len = expected.size() - section_start;
      for (std::size_t b = 0; b < 8; ++b) {
        expected[section_start - 8 + b] = static_cast<std::uint8_t>(len >> (8 * b));
      }
    }
    const CodecField& field = fields[rng.next() % fields.size()];
    field.write(w, field.bits);
    reference_put(expected, field.bits, field.width);
  }
  EXPECT_EQ(w.buffer(), expected);
}

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

// The reader drops the header from the file image in place; the payload it
// hands back must be exact at the edges: empty, one byte, and one past a
// MiB so the CRC runs its folded bulk path and its tail.
TEST_F(SnapshotFileTest, EnvelopeRoundTripsEmptyTinyAndLargePayloads) {
  std::vector<std::uint8_t> large((std::size_t{1} << 20) + 13);
  for (std::size_t i = 0; i < large.size(); ++i) {
    large[i] = static_cast<std::uint8_t>((i * 131) ^ (i >> 9));
  }
  for (const std::vector<std::uint8_t>& payload :
       {std::vector<std::uint8_t>{}, std::vector<std::uint8_t>{0xA5}, large}) {
    snapshot::write_file(path("edge.snap"), payload);
    EXPECT_EQ(fs::file_size(path("edge.snap")), 24 + payload.size());
    EXPECT_EQ(snapshot::read_file(path("edge.snap")), payload)
        << payload.size() << "-byte payload";
  }
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

trace::TraceBatch test_trace(std::uint64_t records) {
  return trace::generate_app_trace(trace::paper_apps().front(), records);
}

/// Simulator with real mid-run state: tables populated, requests in flight,
/// DRAM queues non-empty (no finish(), so nothing has been drained).
std::unique_ptr<sim::Simulator> warmed(sim::PrefetcherKind kind,
                                       const trace::TraceBatch& t,
                                       std::size_t feed,
                                       const sim::SimConfig& config = {}) {
  auto s = std::make_unique<sim::Simulator>(
      config, sim::make_prefetcher_factory(kind),
      sim::prefetcher_kind_name(kind));
  s->run_sharded(t, 0, feed);
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

// A CSH0 image whose two valid lines are (slot_a, block_a) and (slot_b,
// block_b), both clean demand fills. The rest of the image — policy state,
// stats and the empty pollution filter — comes from a cache that holds
// blocks 0 and 1 in their own sets (slots 0 and `ways`), so the control
// below is that cache's image byte for byte.
std::vector<std::uint8_t> cache_image_with_lines(std::uint64_t slot_a,
                                                 std::uint64_t block_a,
                                                 std::uint64_t slot_b,
                                                 std::uint64_t block_b) {
  cache::SystemCache base(cache::CacheConfig{});
  base.fill(0, cache::FillSource::kDemand);
  base.fill(1, cache::FillSource::kDemand);
  snapshot::Writer w;
  base.save_state(w);
  snapshot::Writer lines;
  lines.tag(snapshot::tag4("CSH0"));
  lines.u64(2);
  for (const auto& [slot, block] : {std::pair{slot_a, block_a},
                                    std::pair{slot_b, block_b}}) {
    lines.u64(slot);
    lines.u64(block);
    lines.b(false);
    lines.b(false);
    lines.u8(static_cast<std::uint8_t>(cache::FillSource::kDemand));
  }
  std::vector<std::uint8_t> image = lines.buffer();
  image.insert(image.end(),
               w.buffer().begin() + static_cast<std::ptrdiff_t>(image.size()),
               w.buffer().end());
  return image;
}

TEST(CacheSnapshotValidation, WellFormedCraftedLinesLoadAndRoundTrip) {
  const auto ways = static_cast<std::uint64_t>(cache::CacheConfig{}.ways);
  const auto image = cache_image_with_lines(0, 0, ways, 1);
  cache::SystemCache base(cache::CacheConfig{});
  base.fill(0, cache::FillSource::kDemand);
  base.fill(1, cache::FillSource::kDemand);
  snapshot::Writer w;
  base.save_state(w);
  EXPECT_EQ(image, w.buffer());
  cache::SystemCache cache{cache::CacheConfig{}};
  snapshot::Reader r(image);
  cache.load_state(r);
  r.require_end();
  EXPECT_TRUE(cache.contains(0));
  EXPECT_TRUE(cache.contains(1));
}

// Block 2 belongs to set 2; stored in set 1 no lookup would ever find it.
TEST(CacheSnapshotValidation, LineOutsideItsSetIsRejected) {
  const auto ways = static_cast<std::uint64_t>(cache::CacheConfig{}.ways);
  EXPECT_THROW(load_cache_image(cache_image_with_lines(0, 0, ways, 2)),
               snapshot::SnapshotError);
}

// Two slots of set 0 holding block 0: lookups see one, fills and evictions
// would account for both.
TEST(CacheSnapshotValidation, LineResidentTwiceIsRejected) {
  EXPECT_THROW(load_cache_image(cache_image_with_lines(0, 0, 1, 0)),
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

  sim::RecoveryReport rep;
  const auto resumed = sim::run_checkpointed(
      sim::SimConfig{},
      sim::make_prefetcher_factory(sim::PrefetcherKind::kPlanaria), "planaria",
      t, ckpt, nullptr, &rep);
  EXPECT_EQ(rep.outcome, sim::RecoveryReport::Outcome::kResumed);
  EXPECT_EQ(rep.resumed_cursor, 6000u);
  EXPECT_TRUE(resumed == base);

  // A damaged snapshot is rejected with a note, never loaded: the run
  // cold-starts and still matches.
  fs::resize_file(ckpt.current_path(), 30);
  sim::RecoveryReport damaged;
  const auto cold = sim::run_checkpointed(
      sim::SimConfig{},
      sim::make_prefetcher_factory(sim::PrefetcherKind::kPlanaria), "planaria",
      t, ckpt, nullptr, &damaged);
  EXPECT_EQ(damaged.outcome, sim::RecoveryReport::Outcome::kColdStart);
  EXPECT_EQ(damaged.notes.size(), 1u);
  EXPECT_TRUE(cold == base);
}

// Simulator::run never checkpoints, whatever the environment says: a run
// under one configuration leaves no snapshot that a later run under another
// configuration on the same trace could resume (its key is the trace alone,
// and load_state does not check the SimConfig).
TEST_F(SnapshotFileTest, SimulatorRunIgnoresCheckpointEnvironment) {
  const auto t = trace::generate_app_trace(trace::app_by_name("HoK"), 20000);
  const auto factory =
      sim::make_prefetcher_factory(sim::PrefetcherKind::kPlanaria);
  sim::SimConfig b;
  b.sc_hit_latency += 20;
  const auto want = sim::Simulator::run(b, factory, "planaria", t);

  setenv("PLANARIA_CHECKPOINT_DIR", dir_.string().c_str(), 1);
  setenv("PLANARIA_CHECKPOINT_EVERY", "5000", 1);
  sim::Simulator::run(sim::SimConfig{}, factory, "planaria", t);
  const auto got = sim::Simulator::run(b, factory, "planaria", t);
  unsetenv("PLANARIA_CHECKPOINT_DIR");
  unsetenv("PLANARIA_CHECKPOINT_EVERY");

  EXPECT_TRUE(got == want) << got.amat_cycles << " vs " << want.amat_cycles;
  EXPECT_FALSE(fs::exists(dir_ / "run.snap"));
  EXPECT_FALSE(fs::exists(dir_ / "run.snap.prev"));
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

// A persisted cell is only valid for the configuration it was simulated
// under: an ablation that changes planaria_config(), or a non-default
// SimConfig, must rerun the cells instead of reloading stale results.
TEST_F(SnapshotFileTest, SweepCellsRerunWhenConfigChanges) {
  const std::vector<sim::PrefetcherKind> kinds = {
      sim::PrefetcherKind::kPlanaria};
  sim::ExperimentRunner stock(sim::SimConfig{}, 4000, 1);
  stock.set_checkpoint_dir(dir_.string());
  const auto a = stock.sweep(kinds);

  const auto expect_fresh = [&](sim::ExperimentRunner& resumed,
                                sim::ExperimentRunner& fresh) {
    resumed.set_checkpoint_dir(dir_.string());
    const auto b = resumed.sweep(kinds);
    const auto want = fresh.sweep(kinds);
    std::size_t changed = 0;
    for (const auto& [app, per_kind] : want) {
      const sim::SimResult& r = per_kind.at("planaria");
      EXPECT_TRUE(b.at(app).at("planaria") == r) << app;
      changed += a.at(app).at("planaria") == r ? 0 : 1;
    }
    // The knob really moves results, so a stale reload would be caught.
    EXPECT_GT(changed, 0u);
  };

  sim::ExperimentRunner tlp(sim::SimConfig{}, 4000, 1);
  sim::ExperimentRunner tlp_fresh(sim::SimConfig{}, 4000, 1);
  tlp.planaria_config().tlp.distance_threshold = 4;
  tlp_fresh.planaria_config().tlp.distance_threshold = 4;
  expect_fresh(tlp, tlp_fresh);

  sim::SimConfig slow;
  slow.sc_hit_latency = 48;
  sim::ExperimentRunner sim_config(slow, 4000, 1);
  sim::ExperimentRunner sim_config_fresh(slow, 4000, 1);
  expect_fresh(sim_config, sim_config_fresh);
}

TEST_F(SnapshotFileTest, PoisonedSweepCellRetriesThenReportsOthersLand) {
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

  // Exactly one report, carrying the bounded-retry history.
  ASSERT_EQ(failures.size(), 1u);
  const sim::FailureReport& report = failures.front();
  EXPECT_EQ(report.app, app);
  EXPECT_EQ(report.kind, "none");
  EXPECT_EQ(report.attempts, 3);
  // The report names the failing VFS op (the squatting directory makes the
  // durable-write `.tmp` creation fail).
  EXPECT_NE(report.what.find("io: create"), std::string::npos);

  // The retry schedule is deterministic: a rerun of the same poisoned sweep,
  // retrying over a 4-thread pool, files an identical report.
  sim::ExperimentRunner again(sim::SimConfig{}, 4000, 4);
  again.set_checkpoint_dir(dir_.string());
  std::vector<sim::FailureReport> failures2;
  again.sweep(kinds, false, &failures2);
  ASSERT_EQ(failures2.size(), 1u);
  EXPECT_EQ(failures2.front().attempts, report.attempts);
  EXPECT_EQ(failures2.front().what, report.what);
}

// The runner keys cell files on a fingerprint it computes while the trace
// streams past; it must equal the whole-batch fingerprint bit for bit, at
// lengths below, at and past the 4096-sample stride change and across
// stream chunks.
TEST(TraceFingerprint, StreamedEqualsBatchForEveryApp) {
  for (const trace::AppProfile& app : trace::paper_apps()) {
    for (const std::uint64_t n : {1u, 4095u, 4096u, 200000u}) {
      EXPECT_EQ(sim::trace_fingerprint(app, n),
                sim::trace_fingerprint(trace::generate_app_trace(app, n)))
          << app.name << " at " << n;
    }
  }
}

// One app's cells mixing all three starts: `none` reloads its cell file,
// `bop` resumes from a mid-cell snapshot at cursor 12000, which the
// runner's 5000-row interval does not divide (as after a restart with
// another interval), so its stream skips the rows before it mid-chunk;
// `planaria` starts cold. The result must equal a fresh sweep.
TEST_F(SnapshotFileTest, SweepMixesCellFileSnapshotAndColdStart) {
  constexpr std::uint64_t kRecords = 20000;
  constexpr std::uint64_t kEvery = 5000;
  constexpr std::uint64_t kCursor = 12000;
  const std::vector<sim::PrefetcherKind> kinds = {
      sim::PrefetcherKind::kNone, sim::PrefetcherKind::kBop,
      sim::PrefetcherKind::kPlanaria};
  sim::ExperimentRunner fresh(sim::SimConfig{}, kRecords, 1);
  fresh.set_checkpoint_dir("");
  const auto want = fresh.sweep(kinds);

  sim::ExperimentRunner cells(sim::SimConfig{}, kRecords, 1);
  cells.set_checkpoint_dir(dir_.string());
  cells.sweep({sim::PrefetcherKind::kNone});

  // The mid-cell interval reaches a runner only through its environment.
  setenv("PLANARIA_CHECKPOINT_EVERY", std::to_string(kEvery).c_str(), 1);
  sim::ExperimentRunner mixed(sim::SimConfig{}, kRecords, 4);
  unsetenv("PLANARIA_CHECKPOINT_EVERY");
  mixed.set_checkpoint_dir(dir_.string());
  for (const std::string& app : trace::app_names()) {
    const auto t = trace::generate_app_trace(trace::app_by_name(app), kRecords);
    sim::Simulator part(sim::SimConfig{},
                        sim::make_prefetcher_factory(sim::PrefetcherKind::kBop),
                        "bop");
    part.run_sharded(t, 0, kCursor);
    sim::CheckpointConfig ckpt;
    ckpt.dir = dir_.string();
    ckpt.every = kEvery;
    ckpt.label = "cell_" + app + "_bop";
    sim::write_checkpoint(part, ckpt, kCursor, mixed.snapshot_key(app));
  }
  const auto got = mixed.sweep(kinds);
  for (const auto& [app, per_kind] : want) {
    for (const auto& [kind_name, result] : per_kind) {
      EXPECT_TRUE(got.at(app).at(kind_name) == result)
          << app << "/" << kind_name;
    }
    // Every cell completed, so its mid-cell snapshots are gone.
    EXPECT_FALSE(fs::exists(dir_ / ("cell_" + app + "_bop.snap"))) << app;
    EXPECT_FALSE(fs::exists(dir_ / ("cell_" + app + "_planaria.snap"))) << app;
  }
}

// A mid-cell snapshot is keyed by the configuration as well as the trace.
// One left by a killed run at promote_threshold=3 must not be resumed by a
// run at 2: that run equals an uninterrupted run at 2.
TEST_F(SnapshotFileTest, MidCellSnapshotUnderAnotherConfigIsNotResumed) {
  constexpr std::uint64_t kRecords = 20000;
  constexpr std::uint64_t kEvery = 5000;
  constexpr std::uint64_t kCursor = 10000;
  const std::string app = "HoK";
  const auto runner_at = [&](int threshold, bool checkpoints) {
    setenv("PLANARIA_CHECKPOINT_EVERY", std::to_string(kEvery).c_str(), 1);
    auto runner =
        std::make_unique<sim::ExperimentRunner>(sim::SimConfig{}, kRecords, 1);
    unsetenv("PLANARIA_CHECKPOINT_EVERY");
    runner->set_checkpoint_dir(checkpoints ? dir_.string() : "");
    runner->planaria_config().slp.promote_threshold = threshold;
    return runner;
  };
  // Leaves the snapshot of `rows` rows simulated under `killed`'s
  // configuration, claiming cursor kCursor.
  const auto leave_snapshot = [&](sim::ExperimentRunner& killed,
                                  std::uint64_t rows) {
    const auto t = trace::generate_app_trace(trace::app_by_name(app), kRecords);
    sim::Simulator part(
        sim::SimConfig{},
        sim::make_prefetcher_factory(sim::PrefetcherKind::kPlanaria,
                                     killed.planaria_config()),
        "planaria");
    part.run_sharded(t, 0, rows);
    sim::CheckpointConfig ckpt;
    ckpt.dir = dir_.string();
    ckpt.every = kEvery;
    ckpt.label = "cell_" + app + "_planaria";
    sim::write_checkpoint(part, ckpt, kCursor, killed.snapshot_key(app));
  };
  const auto killed = runner_at(3, true);

  leave_snapshot(*killed, kCursor);
  const auto want = runner_at(2, false)->run(app, sim::PrefetcherKind::kPlanaria);
  EXPECT_TRUE(runner_at(2, true)->run(app, sim::PrefetcherKind::kPlanaria) ==
              want);

  // Control: under its own configuration the key matches and the snapshot
  // is resumed. This one holds only 5000 rows' state while claiming
  // kCursor, so resuming it skips rows and shows in the result.
  leave_snapshot(*killed, kCursor / 2);
  EXPECT_FALSE(runner_at(3, true)->run(app, sim::PrefetcherKind::kPlanaria) ==
               runner_at(3, false)->run(app, sim::PrefetcherKind::kPlanaria));
}

// ---------------------------------------------------------------------------
// Golden snapshot: format stability across commits.
// ---------------------------------------------------------------------------

/// Hand-constructed deterministic trace (kept independent of the trace
/// generator so generator tuning can never invalidate the golden file).
/// Addresses walk all four channels; every 7th record is a write.
trace::TraceBatch golden_trace() {
  trace::TraceBatch out;
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

/// One RPT slot of a hand-built TLP0 section (4-slot table, so each Ref row
/// is one byte: bit j = Ref[i][j]).
struct CraftedRptSlot {
  bool valid = false;
  std::uint64_t page = 0;
  std::uint64_t last_use = 0;
  std::uint8_t ref = 0;
};

constexpr int kCraftedRptEntries = 4;

core::TlpConfig crafted_tlp_config() {
  core::TlpConfig config;
  config.rpt_entries = kCraftedRptEntries;
  config.distance_threshold = 64;
  return config;
}

std::vector<std::uint8_t> craft_tlp_stream(
    const std::vector<CraftedRptSlot>& slots, std::uint64_t tick) {
  snapshot::Writer w;
  w.tag(snapshot::tag4("TLP0"));
  w.u64(slots.size());
  for (const CraftedRptSlot& s : slots) {
    w.b(s.valid);
    if (!s.valid) continue;
    w.u64(s.page);
    w.u16(0x0003);
    w.u64(s.last_use);
    w.u8(s.ref);
  }
  w.u64(tick);
  for (int i = 0; i < 4; ++i) w.u64(0);  // stats
  return w.buffer();
}

/// Pages 10 and 20 are neighbors (distance 10 <= 64); 1000 is far from both;
/// slot 3 is empty. This is exactly what allocate() would have built.
std::vector<CraftedRptSlot> wellformed_rpt() {
  return {{true, 10, 1, 0b0010}, {true, 20, 2, 0b0001},
          {true, 1000, 3, 0b0000}, {false, 0, 0, 0}};
}

void load_crafted_tlp(const std::vector<std::uint8_t>& stream) {
  core::Tlp tlp(crafted_tlp_config());
  snapshot::Reader r(stream);
  tlp.load_state(r);
  r.require_end();
}

TEST(TlpSnapshotValidation, WellFormedCraftedRptLoadsAndRoundTrips) {
  const auto stream = craft_tlp_stream(wellformed_rpt(), 3);
  core::Tlp tlp(crafted_tlp_config());
  snapshot::Reader r(stream);
  tlp.load_state(r);
  r.require_end();
  snapshot::Writer again;
  tlp.save_state(again);
  EXPECT_EQ(again.buffer(), stream);
}

TEST(TlpSnapshotValidation, DuplicateResidentPageIsRejected) {
  // Slot 2 holds page 10 again; its Ref bits are the ones the distance rule
  // implies, so only the duplicate check can refuse it.
  auto slots = wellformed_rpt();
  slots[0].ref = 0b0110;
  slots[1].ref = 0b0101;
  slots[2] = {true, 10, 3, 0b0011};
  EXPECT_THROW(load_crafted_tlp(craft_tlp_stream(slots, 3)),
               snapshot::SnapshotError);
}

TEST(TlpSnapshotValidation, RefBitsDisagreeingWithPageDistancesAreRejected) {
  {
    SCOPED_TRACE("asymmetric: Ref[0][1] set, Ref[1][0] clear");
    auto slots = wellformed_rpt();
    slots[1].ref = 0;
    EXPECT_THROW(load_crafted_tlp(craft_tlp_stream(slots, 3)),
                 snapshot::SnapshotError);
  }
  {
    SCOPED_TRACE("symmetric but far: pages 20 and 1000 marked neighbors");
    auto slots = wellformed_rpt();
    slots[1].ref |= 0b0100;
    slots[2].ref |= 0b0010;
    EXPECT_THROW(load_crafted_tlp(craft_tlp_stream(slots, 3)),
                 snapshot::SnapshotError);
  }
  {
    SCOPED_TRACE("symmetric but missing: neighbors 10 and 20 unlinked");
    auto slots = wellformed_rpt();
    slots[0].ref = 0;
    slots[1].ref = 0;
    EXPECT_THROW(load_crafted_tlp(craft_tlp_stream(slots, 3)),
                 snapshot::SnapshotError);
  }
  {
    SCOPED_TRACE("reflexive: Ref[0][0] set");
    auto slots = wellformed_rpt();
    slots[0].ref |= 0b0001;
    EXPECT_THROW(load_crafted_tlp(craft_tlp_stream(slots, 3)),
                 snapshot::SnapshotError);
  }
  {
    SCOPED_TRACE("link to the empty slot 3");
    auto slots = wellformed_rpt();
    slots[0].ref |= 0b1000;
    EXPECT_THROW(load_crafted_tlp(craft_tlp_stream(slots, 3)),
                 snapshot::SnapshotError);
  }
}

TEST(TlpSnapshotValidation, LastUseAheadOfTickIsRejected) {
  // Slot 2 was stamped at tick 3, but the section claims the tick is 2.
  EXPECT_THROW(load_crafted_tlp(craft_tlp_stream(wellformed_rpt(), 2)),
               snapshot::SnapshotError);
}

// ------------------------------------------- crafted table sections
//
// SPP signature-table and SetAssocTable sections are outside input too: a
// key resident twice, a stamp ahead of the table tick, or (set-associative
// only) a key stored outside the set its hash selects is something no run
// could have saved, and must be refused in every build, not only under
// debug asserts.

/// One valid slot of a hand-built table section.
struct CraftedTableSlot {
  std::uint64_t slot = 0;
  std::uint64_t key = 0;
  std::uint64_t last_use = 0;
};

constexpr std::size_t kCraftedPtSets = 2;
constexpr int kCraftedPtWays = 2;

core::SlpConfig crafted_slp_config() {
  core::SlpConfig config;
  config.ft_sets = 1;
  config.ft_ways = 1;
  config.at_sets = 1;
  config.at_ways = 1;
  config.pt_sets = static_cast<int>(kCraftedPtSets);
  config.pt_ways = kCraftedPtWays;
  return config;
}

/// The PT set `page` hashes to, read back from where an empty table of the
/// crafted geometry stores it (way 0 of its set).
std::size_t crafted_pt_set_of(PageNumber page) {
  SetAssocTable<PageNumber, SegmentBitmap> probe(kCraftedPtSets,
                                                 kCraftedPtWays);
  probe.insert(page, SegmentBitmap(0x1));
  snapshot::Writer w;
  probe.save_state(w, [](snapshot::Writer& o, const SegmentBitmap& bm) {
    o.u16(static_cast<std::uint16_t>(bm.raw()));
  });
  snapshot::Reader r(w.buffer());
  r.u64();  // tick
  r.u64();  // live count
  return static_cast<std::size_t>(r.u64()) / kCraftedPtWays;
}

/// First page at or above `from` that hashes to PT set `set`.
PageNumber crafted_pt_page_in_set(std::size_t set, PageNumber from) {
  PageNumber page = from;
  while (crafted_pt_set_of(page) != set) ++page;
  return page;
}

/// An SLP0 section with empty FT and AT and the given PT slots.
std::vector<std::uint8_t> craft_slp_stream(
    const std::vector<CraftedTableSlot>& pt_slots, std::uint64_t pt_tick) {
  snapshot::Writer w;
  w.tag(snapshot::tag4("SLP0"));
  for (int table = 0; table < 2; ++table) {  // FT, AT: tick 0, no entries
    w.u64(0);
    w.u64(0);
  }
  w.u64(pt_tick);
  w.u64(pt_slots.size());
  for (const CraftedTableSlot& s : pt_slots) {
    w.u64(s.slot);
    w.u64(s.key);
    w.u64(s.last_use);
    w.u16(0x00F0);
  }
  for (int i = 0; i < 8; ++i) w.u64(0);  // stats + sweep counter
  return w.buffer();
}

void load_crafted_slp(const std::vector<std::uint8_t>& stream) {
  core::Slp slp(crafted_slp_config());
  snapshot::Reader r(stream);
  slp.load_state(r);
  r.require_end();
}

TEST(TableSnapshotValidation, WellFormedCraftedPtLoadsAndRoundTrips) {
  const PageNumber in_set0 = crafted_pt_page_in_set(0, 100);
  const PageNumber in_set1 = crafted_pt_page_in_set(1, 100);
  const auto stream = craft_slp_stream(
      {{0, in_set0, 1}, {2 * kCraftedPtWays - 1, in_set1, 2}}, 2);
  core::Slp slp(crafted_slp_config());
  snapshot::Reader r(stream);
  slp.load_state(r);
  r.require_end();
  snapshot::Writer again;
  slp.save_state(again);
  EXPECT_EQ(again.buffer(), stream);
}

TEST(TableSnapshotValidation, PtKeyResidentTwiceIsRejected) {
  const PageNumber page = crafted_pt_page_in_set(0, 100);
  EXPECT_THROW(load_crafted_slp(craft_slp_stream(
                   {{0, page, 1}, {1, page, 2}}, 2)),
               snapshot::SnapshotError);
}

TEST(TableSnapshotValidation, PtLastUseAheadOfTickIsRejected) {
  const PageNumber page = crafted_pt_page_in_set(0, 100);
  EXPECT_THROW(load_crafted_slp(craft_slp_stream({{0, page, 3}}, 2)),
               snapshot::SnapshotError);
}

TEST(TableSnapshotValidation, PtKeyOutsideItsSetIsRejected) {
  // A set-1 page stored in set 0: the set-local lookup would never find it.
  const PageNumber page = crafted_pt_page_in_set(1, 100);
  EXPECT_THROW(load_crafted_slp(craft_slp_stream({{0, page, 1}}, 1)),
               snapshot::SnapshotError);
}

/// A signature-table section with the given slots (signature = key + 1,
/// last offset = key % 16).
std::vector<std::uint8_t> craft_st_stream(
    const std::vector<CraftedTableSlot>& slots, std::uint64_t tick,
    std::uint64_t live) {
  snapshot::Writer w;
  w.u64(tick);
  w.u64(live);
  for (const CraftedTableSlot& s : slots) {
    w.u64(s.slot);
    w.u64(s.key);
    w.u64(s.last_use);
    w.u16(static_cast<std::uint16_t>(s.key + 1));
    w.i64(static_cast<std::int64_t>(s.key % 16));
  }
  return w.buffer();
}
std::vector<std::uint8_t> craft_st_stream(
    const std::vector<CraftedTableSlot>& slots, std::uint64_t tick) {
  return craft_st_stream(slots, tick, slots.size());
}

void load_crafted_st(const std::vector<std::uint8_t>& stream) {
  prefetch::SignatureTable table(4);
  snapshot::Reader r(stream);
  table.load_state(r);
  r.require_end();
}

TEST(TableSnapshotValidation, SignatureTableKeyResidentTwiceIsRejected) {
  EXPECT_THROW(load_crafted_st(craft_st_stream({{0, 7, 1}, {2, 7, 2}}, 2)),
               snapshot::SnapshotError);
}

TEST(TableSnapshotValidation, SignatureTableLastUseAheadOfTickIsRejected) {
  EXPECT_THROW(load_crafted_st(craft_st_stream({{0, 7, 1}, {1, 9, 4}}, 3)),
               snapshot::SnapshotError);
}

TEST(TableSnapshotValidation, SignatureTableSlotsOutOfOrderAreRejected) {
  EXPECT_THROW(load_crafted_st(craft_st_stream({{2, 7, 1}, {1, 9, 2}}, 2)),
               snapshot::SnapshotError);
  EXPECT_THROW(load_crafted_st(craft_st_stream({{1, 7, 1}, {1, 9, 2}}, 2)),
               snapshot::SnapshotError);
  EXPECT_THROW(load_crafted_st(craft_st_stream({{4, 7, 1}}, 1)),
               snapshot::SnapshotError);
}

TEST(TableSnapshotValidation, SignatureTableLiveCountOverCapacityIsRejected) {
  EXPECT_THROW(load_crafted_st(craft_st_stream({}, 0, 5)),
               snapshot::SnapshotError);
}

TEST(TableSnapshotValidation, WellFormedCraftedSignatureTableLoadsAndEvictsOldest) {
  const auto stream = craft_st_stream({{0, 7, 2}, {1, 9, 1}, {3, 11, 3}}, 3);
  prefetch::SignatureTable table(4);
  snapshot::Reader r(stream);
  table.load_state(r);
  r.require_end();
  ASSERT_NE(table.peek(9), nullptr);
  EXPECT_EQ(table.peek(9)->signature, 10u);
  EXPECT_EQ(table.peek(9)->last_offset, 9);
  // Slot 2 is free, so the first insert fills it; the next evicts key 9,
  // the minimum stamp, then key 7.
  EXPECT_FALSE(table.insert(13, {14, 13}).has_value());
  EXPECT_EQ(table.insert(15, {16, 15}), std::optional<PageNumber>{9});
  EXPECT_EQ(table.insert(17, {18, 1}), std::optional<PageNumber>{7});
  snapshot::Writer again;
  table.save_state(again);
  EXPECT_EQ(again.buffer(),
            craft_st_stream({{0, 17, 6}, {1, 15, 5}, {2, 13, 4}, {3, 11, 3}},
                            6));
}

TEST(SnapshotTypeCoverage, SignatureTableRoundTripsWithExactRecency) {
  prefetch::SignatureTable table(8);
  for (std::uint64_t k = 0; k < 13; ++k) {
    table.insert(k * 3, {static_cast<std::uint16_t>(k + 100), 0});
  }
  // Refresh a surviving entry (the first 5 inserts were evicted) so recency
  // differs from insertion order.
  table.find(18);

  snapshot::Writer first;
  table.save_state(first);

  prefetch::SignatureTable restored(8);
  snapshot::Reader r(first.buffer());
  restored.load_state(r);
  r.require_end();
  EXPECT_EQ(restored.size(), table.size());
  ASSERT_NE(restored.peek(18), nullptr);
  EXPECT_EQ(restored.peek(18)->signature, 106u);

  snapshot::Writer second;
  restored.save_state(second);
  EXPECT_EQ(first.buffer(), second.buffer());
  // The restored list evicts in the same order as the original.
  for (std::uint64_t k = 0; k < 8; ++k) {
    EXPECT_EQ(restored.insert(1000 + k, {}), table.insert(1000 + k, {})) << k;
  }
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

/// A hand-built DRM0 section in DramChannel::save_state's layout: banks
/// closed, no reads or completions queued, and the given write-queue blocks,
/// refresh cursor and postponed-refresh count.
struct CraftedDram {
  std::vector<std::uint64_t> write_blocks = {3, 900};
  std::int64_t refresh_cursor = 0;
  std::int64_t postponed = 0;
};

dram::DramConfig crafted_dram_config() {
  dram::DramConfig config;
  config.controller.per_bank_refresh = true;  // the cursor indexes banks
  return config;
}

std::vector<std::uint8_t> craft_dram_stream(const dram::DramConfig& config,
                                            const CraftedDram& c) {
  const auto ranks = static_cast<std::uint64_t>(config.geometry.ranks);
  const auto banks = static_cast<std::uint64_t>(config.geometry.banks);
  snapshot::Writer w;
  w.tag(snapshot::tag4("DRM0"));
  w.u64(ranks * banks);
  for (std::uint64_t i = 0; i < ranks * banks; ++i) {
    w.b(false);
    w.u32(0);
    for (int t = 0; t < 3; ++t) w.u64(0);
  }
  w.u64(0);  // read queue
  w.u64(c.write_blocks.size());
  std::uint64_t order = 0;
  for (const std::uint64_t block : c.write_blocks) {
    w.u64(block);
    w.u64(10);     // arrival
    w.b(true);     // is_write
    w.b(false);    // is_prefetch
    w.u64(block);  // tag
    w.u64(++order);
    w.b(false);    // needed_act
  }
  w.u64(0);  // completions
  for (int i = 0; i < 4; ++i) w.u64(20);  // now, next cmd/read/write ok
  w.u64(ranks);
  for (std::uint64_t i = 0; i < ranks; ++i) {
    w.u64(0);  // no ACTs in the tFAW window
    w.u64(0);
    w.b(false);
  }
  w.i64(-1);  // last burst rank
  w.u64(0);   // last burst end
  w.u64(100);  // refresh due
  w.i64(c.refresh_cursor);
  w.u64(0);  // last command time
  w.b(false);
  w.i64(c.postponed);
  w.b(false);  // draining writes
  w.u64(order);
  for (int i = 0; i < 17; ++i) w.u64(0);  // counters
  return w.buffer();
}

void load_crafted_dram(const CraftedDram& c) {
  const dram::DramConfig config = crafted_dram_config();
  dram::DramChannel channel(config);
  const auto stream = craft_dram_stream(config, c);
  snapshot::Reader r(stream);
  channel.load_state(r);
  r.require_end();
}

TEST(DramSnapshotValidation, WellFormedCraftedChannelLoadsAndRoundTrips) {
  // The last bank as cursor and a full postponement budget are both states
  // a run can save.
  const dram::DramConfig config = crafted_dram_config();
  CraftedDram c;
  c.refresh_cursor = config.geometry.ranks * config.geometry.banks - 1;
  c.postponed = config.controller.max_postponed_refreshes;
  const auto stream = craft_dram_stream(config, c);
  dram::DramChannel channel(config);
  snapshot::Reader r(stream);
  channel.load_state(r);
  r.require_end();
  snapshot::Writer again;
  channel.save_state(again);
  EXPECT_EQ(again.buffer(), stream);
  channel.drain();
  EXPECT_EQ(channel.take_completions().size(), c.write_blocks.size());
}

TEST(DramSnapshotValidation, RefreshCursorOutsideTheBanksIsRejected) {
  const dram::DramConfig config = crafted_dram_config();
  CraftedDram c;
  c.refresh_cursor = config.geometry.ranks * config.geometry.banks;
  EXPECT_THROW(load_crafted_dram(c), snapshot::SnapshotError);
  c.refresh_cursor = -1;
  EXPECT_THROW(load_crafted_dram(c), snapshot::SnapshotError);
}

TEST(DramSnapshotValidation, PostponedRefreshCountOutOfRangeIsRejected) {
  CraftedDram c;
  c.postponed = crafted_dram_config().controller.max_postponed_refreshes + 1;
  EXPECT_THROW(load_crafted_dram(c), snapshot::SnapshotError);
  c.postponed = std::int64_t{1} << 40;
  EXPECT_THROW(load_crafted_dram(c), snapshot::SnapshotError);
  c.postponed = -1;
  EXPECT_THROW(load_crafted_dram(c), snapshot::SnapshotError);
}

TEST(DramSnapshotValidation, WriteBlockQueuedTwiceIsRejected) {
  CraftedDram c;
  c.write_blocks = {3, 900, 3};
  EXPECT_THROW(load_crafted_dram(c), snapshot::SnapshotError);
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
  s->run_sharded(t, cursor, t.size());
  const auto resumed = s->finish();
  const auto base = sim::Simulator::run(
      sim::SimConfig{},
      sim::make_prefetcher_factory(sim::PrefetcherKind::kPlanaria), "planaria",
      t);
  EXPECT_TRUE(resumed == base);
}

}  // namespace
}  // namespace planaria
