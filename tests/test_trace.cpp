// Unit tests for the trace substrate: record IO, merging, generators, and
// the calibrated app registry.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <functional>
#include <iterator>
#include <queue>
#include <span>
#include <sstream>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <unordered_set>

#include "batch_of.hpp"
#include "check/contract.hpp"
#include "common/bitmap.hpp"
#include "trace/apps.hpp"
#include "trace/generator.hpp"
#include "trace/import.hpp"
#include "trace/io.hpp"
#include "trace/merge.hpp"

namespace planaria::trace {
namespace {

using test_util::batch_of;

// perfbench copy-constructs its batches from the generator's result
// (`const auto records = generate_app_trace(...)`, then `TraceBatch(records)`),
// so a batch must stay copyable.
static_assert(std::is_copy_constructible_v<TraceBatch>);

TraceRecord make_record(Address a, Cycle t, AccessType type = AccessType::kRead,
                        DeviceId d = DeviceId::kGpu) {
  return TraceRecord{addr::block_align(a), t, type, d};
}

// ----------------------------------------------------------------- binary IO

TEST(TraceIo, BinaryRoundTrip) {
  const TraceBatch records = batch_of({
      make_record(0x1000, 10),
      make_record(0x2040, 20, AccessType::kWrite, DeviceId::kDsp),
      make_record(0xFFFF'FFFF'F000, 30, AccessType::kRead, DeviceId::kCpuLittle),
  });
  std::stringstream ss;
  write_binary(ss, records);
  const auto back = read_binary(ss);
  EXPECT_EQ(back, records);
}

TEST(TraceIo, BinaryEmptyTrace) {
  std::stringstream ss;
  write_binary(ss, {});
  EXPECT_TRUE(read_binary(ss).empty());
}

TEST(TraceIo, BinaryRejectsBadMagic) {
  std::stringstream ss;
  ss << "this is not a planaria trace at all....";
  EXPECT_THROW(read_binary(ss), std::runtime_error);
}

TEST(TraceIo, BinaryRejectsTruncatedPayload) {
  const TraceBatch records =
      batch_of({make_record(0x1000, 1), make_record(0x2000, 2)});
  std::stringstream ss;
  write_binary(ss, records);
  std::string data = ss.str();
  data.resize(data.size() - 10);  // chop the last record
  std::stringstream truncated(data);
  EXPECT_THROW(read_binary(truncated), std::runtime_error);
}

TEST(TraceIo, BinaryAlignsAddressesToBlocks) {
  std::stringstream ss;
  write_binary(ss, batch_of({TraceRecord{0x1234'5678, 1, AccessType::kRead,
                                         DeviceId::kCpuBig}}));
  const auto back = read_binary(ss);
  ASSERT_EQ(back.size(), 1u);
  EXPECT_EQ(back.addresses()[0] % kBlockBytes, 0u);
}

TEST(TraceIo, FileRoundTrip) {
  const std::string path = "/tmp/planaria_test_trace.bin";
  const TraceBatch records = batch_of({make_record(0x40, 5)});
  write_binary_file(path, records);
  EXPECT_EQ(read_binary_file(path), records);
  std::remove(path.c_str());
}

TEST(TraceIo, FileOpenFailureThrows) {
  EXPECT_THROW(read_binary_file("/nonexistent/dir/trace.bin"),
               std::runtime_error);
  EXPECT_THROW(write_binary_file("/nonexistent/dir/trace.bin", {}),
               std::runtime_error);
}

// -------------------------------------------------------------------- csv IO

TEST(TraceIo, CsvRoundTrip) {
  const TraceBatch records = batch_of({
      make_record(0x1000, 10),
      make_record(0x20C0, 25, AccessType::kWrite, DeviceId::kNpu),
  });
  std::stringstream ss;
  write_csv(ss, records);
  EXPECT_EQ(read_csv(ss), records);
}

TEST(TraceIo, CsvRejectsBadType) {
  std::stringstream ss("address,arrival,type,device\n0x40,1,X,gpu\n");
  EXPECT_THROW(read_csv(ss), std::runtime_error);
}

TEST(TraceIo, CsvRejectsBadDevice) {
  std::stringstream ss("address,arrival,type,device\n0x40,1,R,quantum\n");
  EXPECT_THROW(read_csv(ss), std::runtime_error);
}

TEST(TraceIo, CsvSkipsBlankLines) {
  std::stringstream ss("address,arrival,type,device\n\n0x40,1,R,gpu\n\n");
  EXPECT_EQ(read_csv(ss).size(), 1u);
}

// --------------------------------------------------------------------- merge

// detail::SourceMerge over materialized batches. Each source refills five
// rows at a time and the merge appends seven rows per call, so every trial
// crosses refill boundaries and stops and resumes mid-merge.
TraceBatch source_merge(const std::vector<TraceBatch>& streams) {
  constexpr std::size_t kRun = 5;
  std::vector<std::vector<TraceRecord>> runs(streams.size());
  std::vector<std::size_t> next(streams.size(), 0);
  const auto refill = [&](std::size_t s) {
    runs[s].clear();
    for (; runs[s].size() < kRun && next[s] < streams[s].size(); ++next[s]) {
      runs[s].push_back(streams[s].record(next[s]));
    }
    return std::span<const TraceRecord>(runs[s]);
  };
  TraceBatch out;
  detail::SourceMerge merge(streams.size(), refill);
  while (merge.append(refill, out, 7) > 0) {
  }
  return out;
}

// Oracle: a priority-queue k-way merge over (arrival, stream) heads, an
// independent formulation of SourceMerge's contract. The two must agree on
// every record and on every timing-contract firing, sorted input or not.
TraceBatch reference_merge(const std::vector<TraceBatch>& streams) {
  struct Head {
    Cycle arrival;
    std::size_t stream;
    std::size_t pos;
    bool operator>(const Head& o) const {
      return arrival != o.arrival ? arrival > o.arrival : stream > o.stream;
    }
  };
  std::priority_queue<Head, std::vector<Head>, std::greater<>> heap;
  std::size_t total = 0;
  for (std::size_t s = 0; s < streams.size(); ++s) {
    total += streams[s].size();
    if (!streams[s].empty()) heap.push(Head{streams[s].arrivals()[0], s, 0});
  }
  TraceBatch out;
  out.reserve(total);
  while (!heap.empty()) {
    const Head h = heap.top();
    heap.pop();
    const TraceBatch& stream = streams[h.stream];
    out.push_back(stream.record(h.pos));
    const std::size_t next = h.pos + 1;
    if (next < stream.size()) {
      PLANARIA_REQUIRE_MSG(kTimingMonotonicity,
                           stream.arrivals()[next] >= h.arrival,
                           "merge input stream is not sorted by arrival");
      heap.push(Head{stream.arrivals()[next], h.stream, next});
    }
  }
  return out;
}

/// 1-4 streams, some empty, with arrivals drawn from a narrow range so equal
/// arrivals across (and within) streams are the common case. With `sorted`
/// false, a few adjacent pairs per stream are swapped out of order.
std::vector<TraceBatch> random_streams(Rng& rng, bool sorted) {
  std::vector<TraceBatch> streams(rng.next_range(1, 4));
  for (std::size_t s = 0; s < streams.size(); ++s) {
    if (rng.chance(0.2)) continue;
    Cycle t = rng.next_below(3);
    const auto n = rng.next_range(1, 40);
    std::vector<TraceRecord> rows;
    for (std::int64_t i = 0; i < n; ++i) {
      t += rng.next_below(3);  // steps of 0, 1 or 2 cycles
      rows.push_back(make_record(
          (s << 20) + static_cast<Address>(i) * kBlockBytes, t,
          AccessType::kRead, static_cast<DeviceId>(s)));
    }
    if (!sorted) {
      for (int k = 0; k < 3 && rows.size() > 1; ++k) {
        const auto i = rng.next_below(rows.size() - 1);
        std::swap(rows[i], rows[i + 1]);
      }
    }
    for (const TraceRecord& row : rows) streams[s].push_back(row);
  }
  return streams;
}

TEST(TraceMerge, MatchesPriorityQueueOracle) {
  Rng rng(0x3E46E);
  check::CountingScope scope;
  std::uint64_t unsorted_fires = 0;
  for (int trial = 0; trial < 500; ++trial) {
    const bool sorted = trial % 2 == 0;
    const auto streams = random_streams(rng, sorted);
    std::size_t total = 0;
    for (const auto& s : streams) total += s.size();

    check::reset_violations();
    const auto expected = reference_merge(streams);
    const auto expected_fires =
        check::violation_count(check::Category::kTimingMonotonicity);
    check::reset_violations();
    const auto merged = source_merge(streams);
    const auto fires =
        check::violation_count(check::Category::kTimingMonotonicity);

    ASSERT_EQ(merged.size(), total) << "trial " << trial;
    ASSERT_EQ(merged, expected) << "trial " << trial;
    ASSERT_EQ(fires, expected_fires) << "trial " << trial;
    if (sorted) {
      ASSERT_EQ(fires, 0u) << "trial " << trial;
    } else {
      unsorted_fires += fires;
    }
  }
  EXPECT_GT(unsorted_fires, 100u);  // the unsorted half really is unsorted
  check::reset_violations();
}

// --------------------------------------------------------------- generators

Pacing small_pacing(std::uint64_t records) {
  return Pacing{records, records * 20, 0, 0.5};
}

TEST(FootprintGenerator, ProducesRequestedCount) {
  Rng rng(1);
  const auto out = generate_footprint(FootprintParams{}, small_pacing(5000), rng);
  EXPECT_EQ(out.size(), 5000u);
}

TEST(FootprintGenerator, ArrivalsAreMonotone) {
  Rng rng(2);
  const auto out = generate_footprint(FootprintParams{}, small_pacing(3000), rng);
  for (std::size_t i = 1; i < out.size(); ++i) {
    EXPECT_GE(out.arrivals()[i], out.arrivals()[i - 1]);
  }
}

TEST(FootprintGenerator, RespectsPageRegion) {
  FootprintParams params;
  params.base_page = 0x5000;
  params.page_span = 0x1000;
  params.twin_fraction = 0.0;  // twins may step slightly outside the span
  Rng rng(3);
  const auto out = generate_footprint(params, small_pacing(2000), rng);
  for (std::size_t i = 0; i < out.size(); ++i) {
    const TraceRecord r = out.record(i);
    const auto pn = addr::page_number(r.address);
    EXPECT_GE(pn, params.base_page);
    EXPECT_LT(pn, params.base_page + params.page_span);
  }
}

TEST(FootprintGenerator, FootprintsAreStableAcrossVisits) {
  // With mutation off, the set of blocks seen for a page must be constant.
  FootprintParams params;
  params.hot_pages = 4;
  params.page_span = 1024;
  params.mutate_p = 0.0;
  params.twin_fraction = 0.0;
  Rng rng(4);
  const auto out = generate_footprint(params, small_pacing(4000), rng);
  std::unordered_map<PageNumber, PageBitmap> bitmaps;
  for (std::size_t i = 0; i < out.size(); ++i) {
    const TraceRecord r = out.record(i);
    bitmaps[addr::page_number(r.address)].set(addr::block_in_page(r.address));
  }
  for (const auto& [pn, bm] : bitmaps) {
    EXPECT_LE(bm.popcount(), params.footprint_max);
  }
}

TEST(FootprintGenerator, RejectsBadParams) {
  FootprintParams params;
  params.footprint_min = 10;
  params.footprint_max = 5;
  Rng rng(5);
  EXPECT_THROW(generate_footprint(params, small_pacing(10), rng),
               std::invalid_argument);
  params = FootprintParams{};
  params.hot_pages = 0;
  EXPECT_THROW(generate_footprint(params, small_pacing(10), rng),
               std::invalid_argument);
}

TEST(NeighborGenerator, PagesStayInClusters) {
  NeighborParams params;
  params.clusters = 4;
  Rng rng(6);
  const auto out = generate_neighbor(params, small_pacing(3000), rng);
  for (std::size_t i = 0; i < out.size(); ++i) {
    const TraceRecord r = out.record(i);
    const auto pn = addr::page_number(r.address);
    bool in_cluster = false;
    for (int c = 0; c < params.clusters; ++c) {
      const PageNumber origin =
          params.base_page + static_cast<PageNumber>(c) * params.cluster_stride;
      if (pn >= origin && pn < origin + static_cast<PageNumber>(params.cluster_span)) {
        in_cluster = true;
        break;
      }
    }
    EXPECT_TRUE(in_cluster) << "page 0x" << std::hex << pn;
  }
}

TEST(NeighborGenerator, PerPagePerturbationIsStable) {
  // The same page must always deviate from the cluster base in the same bits.
  NeighborParams params;
  params.clusters = 2;
  params.new_page_rate = 0.3;
  Rng rng(7);
  const auto out = generate_neighbor(params, small_pacing(6000), rng);
  // Collect the union bitmap per page; visiting the same page twice must not
  // grow the set beyond one visit's footprint.
  std::unordered_map<PageNumber, PageBitmap> bitmaps;
  for (std::size_t i = 0; i < out.size(); ++i) {
    const TraceRecord r = out.record(i);
    bitmaps[addr::page_number(r.address)].set(addr::block_in_page(r.address));
  }
  for (const auto& [pn, bm] : bitmaps) {
    EXPECT_LE(bm.popcount(), params.base_footprint + params.perturb_bits);
    EXPECT_GE(bm.popcount(), 1);
  }
}

TEST(NeighborGenerator, RejectsBadParams) {
  NeighborParams params;
  params.clusters = 0;
  Rng rng(8);
  EXPECT_THROW(generate_neighbor(params, small_pacing(10), rng),
               std::invalid_argument);
}

TEST(StreamGenerator, EmitsSequentialRuns) {
  StreamParams params;
  params.streams = 1;
  params.run_min = params.run_max = 32;
  Rng rng(9);
  const auto out = generate_stream(params, small_pacing(64), rng);
  ASSERT_EQ(out.size(), 64u);
  for (std::size_t i = 1; i < 32; ++i) {
    EXPECT_EQ(out.addresses()[i], out.addresses()[i - 1] + kBlockBytes);
  }
}

TEST(StreamGenerator, RejectsBadParams) {
  StreamParams params;
  params.block_stride = 0;
  Rng rng(10);
  EXPECT_THROW(generate_stream(params, small_pacing(10), rng),
               std::invalid_argument);
}

TEST(IrregularGenerator, TouchesFewBlocksPerPage) {
  IrregularParams params;
  Rng rng(11);
  const auto out = generate_irregular(params, small_pacing(5000), rng);
  std::unordered_map<PageNumber, PageBitmap> bitmaps;
  for (std::size_t i = 0; i < out.size(); ++i) {
    const TraceRecord r = out.record(i);
    bitmaps[addr::page_number(r.address)].set(addr::block_in_page(r.address));
  }
  // A single visit touches blocks_min..blocks_max scattered blocks; rare
  // page revisits can add another visit's worth.
  for (const auto& [pn, bm] : bitmaps) {
    EXPECT_LE(bm.popcount(), 3 * params.blocks_max);
  }
}

TEST(IrregularGenerator, RejectsBadParams) {
  IrregularParams params;
  params.blocks_min = 0;
  Rng rng(12);
  EXPECT_THROW(generate_irregular(params, small_pacing(10), rng),
               std::invalid_argument);
}

// ----------------------------------------------------------------- app trace

TEST(AppTrace, GeneratesMergedSortedTrace) {
  AppProfile app = app_by_name("HoK");
  const auto out = generate_app_trace(app, 20000);
  EXPECT_EQ(out.size(), 20000u);
  for (std::size_t i = 1; i < out.size(); ++i) {
    EXPECT_GE(out.arrivals()[i], out.arrivals()[i - 1]);
  }
}

// At these counts no app's weights split the records evenly across its
// streams, so the floored per-stream budgets leave a remainder of 1-3
// records that one stream must still emit.
TEST(AppTrace, LengthIsExactAtUnevenCounts) {
  for (const std::uint64_t records : {2048u, 4096u, 8192u}) {
    for (const auto& name : app_names()) {
      EXPECT_EQ(generate_app_trace(app_by_name(name), records).size(), records)
          << name << " at " << records;
    }
  }
}

TEST(AppTrace, DeterministicForSameSeed) {
  AppProfile app = app_by_name("CFM");
  const auto a = generate_app_trace(app, 5000);
  const auto b = generate_app_trace(app, 5000);
  EXPECT_EQ(a, b);
}

TEST(AppTrace, DifferentSeedsDiffer) {
  AppProfile app = app_by_name("CFM");
  const auto a = generate_app_trace(app, 5000);
  app.seed += 1;
  const auto b = generate_app_trace(app, 5000);
  EXPECT_NE(a, b);
}

TEST(AppTrace, MixesMultipleDevices) {
  const auto out = generate_app_trace(app_by_name("HoK"), 20000);
  std::unordered_set<int> devices;
  for (std::size_t i = 0; i < out.size(); ++i) {
    devices.insert(static_cast<int>(out.record(i).device));
  }
  EXPECT_GE(devices.size(), 3u);
}

TEST(AppTrace, MixesReadsAndWrites) {
  const auto out = generate_app_trace(app_by_name("HoK"), 20000);
  std::uint64_t writes = 0;
  for (std::size_t i = 0; i < out.size(); ++i) {
    writes += out.record(i).type == AccessType::kWrite ? 1 : 0;
  }
  EXPECT_GT(writes, out.size() / 20);
  EXPECT_LT(writes, out.size() / 2);
}

TEST(AppTrace, RejectsZeroRecords) {
  EXPECT_THROW(generate_app_trace(app_by_name("HoK"), 0), std::invalid_argument);
}

TEST(AppTrace, RejectsZeroWeights) {
  AppProfile app = app_by_name("HoK");
  app.weight_footprint = app.weight_neighbor = app.weight_stream =
      app.weight_irregular = 0.0;
  EXPECT_THROW(generate_app_trace(app, 100), std::invalid_argument);
}

TEST(AppTrace, RejectsNegativeWeight) {
  AppProfile app = app_by_name("HoK");
  app.weight_stream = -0.1;
  EXPECT_THROW(generate_app_trace(app, 100), std::invalid_argument);
}

// ------------------------------------------------------ AppTraceStream

/// Every chunk of AppTraceStream(app, records) at `rows` per chunk, appended.
TraceBatch drain_in_chunks(const AppProfile& app, std::uint64_t records,
                           std::size_t rows) {
  AppTraceStream stream(app, records);
  EXPECT_EQ(stream.remaining(), records);
  TraceBatch all;
  TraceBatch chunk;
  while (stream.next(chunk, rows)) {
    EXPECT_TRUE(chunk.size() == rows ||
                (chunk.size() < rows && stream.remaining() == 0))
        << chunk.size() << " rows of " << rows;
    all.append_columns(chunk.addresses(), chunk.arrivals(), chunk.meta(),
                       chunk.size());
    EXPECT_EQ(stream.remaining(), records - all.size());
  }
  EXPECT_TRUE(chunk.empty());
  EXPECT_FALSE(stream.next(chunk, rows));  // stays spent
  return all;
}

TEST(AppTraceStream, ChunksConcatenateToTheWholeTraceForEveryApp) {
  for (const AppProfile& app : paper_apps()) {
    for (const std::uint64_t n : {1u, 4097u, 40000u}) {
      const TraceBatch whole = generate_app_trace(app, n);
      ASSERT_EQ(whole.size(), n);
      for (const std::size_t rows : {std::size_t{1}, std::size_t{7},
                                     std::size_t{4096}, std::size_t{n},
                                     std::size_t{n + 1}}) {
        EXPECT_TRUE(drain_in_chunks(app, n, rows) == whole)
            << app.name << " n=" << n << " rows=" << rows;
      }
    }
  }
}

TEST(AppTraceStream, MixedChunkSizesAndAMoveLoseNoRow) {
  const AppProfile& app = app_by_name("Fort");
  const TraceBatch whole = generate_app_trace(app, 10000);
  AppTraceStream first(app, 10000);
  TraceBatch all;
  TraceBatch chunk;
  ASSERT_TRUE(first.next(chunk, 333));
  all.append_columns(chunk.addresses(), chunk.arrivals(), chunk.meta(),
                     chunk.size());
  EXPECT_FALSE(first.next(chunk, 0));  // a 0-row request takes nothing
  EXPECT_TRUE(chunk.empty());
  AppTraceStream moved = std::move(first);
  for (std::size_t rows = 1; moved.next(chunk, rows); rows = rows * 3 + 1) {
    all.append_columns(chunk.addresses(), chunk.arrivals(), chunk.meta(),
                       chunk.size());
  }
  EXPECT_TRUE(all == whole);
}

TEST(AppTraceStream, RejectsWhatTheGeneratorRejects) {
  EXPECT_THROW(AppTraceStream(app_by_name("HoK"), 0), std::invalid_argument);
  AppProfile app = app_by_name("HoK");
  app.weight_stream = -0.1;
  EXPECT_THROW(AppTraceStream(app, 100), std::invalid_argument);
}

// -------------------------------------------------------- generator pins
//
// Byte pins on the generators' output. Nothing downstream pins generator
// bytes (the golden snapshot replays its own fixed trace), so these are what
// notice drift when the generators are restructured: every figure, every
// sweep digest and every PLNSNAP1 snapshot of a generated trace depends on
// these exact records. The sub-generator pins also cover the caller's RNG
// state after each call, i.e. the draws a generator makes after its last
// record (stream's final episode gap, the pacer's trailing draws).

/// FNV-1a over each record's fields at fixed width, so the digest depends on
/// values only, never on struct padding.
class Fnv1a {
 public:
  void mix(std::uint64_t v, int bytes) {
    for (int i = 0; i < bytes; ++i) {
      h_ ^= (v >> (8 * i)) & 0xFFu;
      h_ *= 0x100000001B3ull;
    }
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xCBF29CE484222325ull;
};

std::uint64_t records_digest(const TraceBatch& batch) {
  Fnv1a h;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const TraceRecord r = batch.record(i);
    h.mix(r.address, 8);
    h.mix(r.arrival, 8);
    h.mix(static_cast<std::uint8_t>(r.type), 1);
    h.mix(static_cast<std::uint8_t>(r.device), 1);
  }
  return h.value();
}

std::uint64_t state_digest(const Rng& rng) {
  Fnv1a h;
  for (const std::uint64_t word : rng.state()) h.mix(word, 8);
  return h.value();
}

struct AppPin {
  const char* app;
  std::uint64_t at_20000;
  std::uint64_t at_8191;
};

constexpr AppPin kAppPins[] = {
    {"CFM", 0x792BED2B6473B2BEull, 0x5FFFF925445048C5ull},
    {"HoK", 0x9B69FCE28C33F8ACull, 0x5DB53A8E33910EF6ull},
    {"Id-V", 0x9CB85D6487806BCCull, 0xCBC772099B8394E6ull},
    {"QSM", 0x3CB83B289816BB70ull, 0xC5BD01D64F5C3CAEull},
    {"TikT", 0xF5B26CA367625B89ull, 0x515A35038392E6CFull},
    {"Fort", 0x70FC4FB840B149C1ull, 0x677A378F090323D7ull},
    {"HI3", 0xEDB7B5EEF5D7B1DDull, 0x9A1A5869D4165B2Dull},
    {"KO", 0x0F138EB62D822A38ull, 0xE62773597388F017ull},
    {"NBA2", 0xDE7E8CF1940CA8D4ull, 0x6A1D71CD86A1D346ull},
    {"PM", 0xDF7FE45F97147AA4ull, 0x821A624E61CDE644ull},
};

TEST(GeneratorPins, AppTraceBytes) {
  ASSERT_EQ(std::size(kAppPins), app_names().size());
  for (const AppPin& pin : kAppPins) {
    const AppProfile& app = app_by_name(pin.app);
    EXPECT_EQ(records_digest(generate_app_trace(app, 20000)), pin.at_20000)
        << pin.app << " at 20000";
    EXPECT_EQ(records_digest(generate_app_trace(app, 8191)), pin.at_8191)
        << pin.app << " at 8191";
  }
}

// Profiles with zero-weight components merge fewer than four streams (and
// move the remainder to a different heaviest stream).
TEST(GeneratorPins, PartialMixBytes) {
  AppProfile two = app_by_name("HoK");
  two.weight_neighbor = 0.0;
  two.weight_irregular = 0.0;
  EXPECT_EQ(records_digest(generate_app_trace(two, 9999)), 0x930385EBAE1D9C1Full);
  AppProfile one = app_by_name("TikT");
  one.weight_footprint = one.weight_neighbor = one.weight_irregular = 0.0;
  EXPECT_EQ(records_digest(generate_app_trace(one, 7777)), 0xDA497FC2D01FA443ull);
}

struct SubPin {
  std::uint64_t records;
  std::uint64_t state;
};

template <typename Params, typename Generate>
void expect_sub_pins(const char* name, Generate generate, std::uint64_t seed,
                     const SubPin& small, const SubPin& bursty) {
  {
    Rng rng(seed);
    const auto out = generate(Params{}, small_pacing(4000), rng);
    EXPECT_EQ(out.size(), 4000u) << name;
    EXPECT_EQ(records_digest(out), small.records) << name << " small records";
    EXPECT_EQ(state_digest(rng), small.state) << name << " small rng state";
  }
  {
    // Intra-burst steps, bursty gaps and an odd count.
    Rng rng(seed + 1000);
    const auto out = generate(Params{}, Pacing{3001, 3001 * 20, 6, 0.5, 0.3}, rng);
    EXPECT_EQ(out.size(), 3001u) << name;
    EXPECT_EQ(records_digest(out), bursty.records) << name << " bursty records";
    EXPECT_EQ(state_digest(rng), bursty.state) << name << " bursty rng state";
  }
}

TEST(GeneratorPins, SubGeneratorBytesAndRngState) {
  expect_sub_pins<FootprintParams>(
      "footprint",
      [](const FootprintParams& p, const Pacing& pc, Rng& r) {
        return generate_footprint(p, pc, r);
      },
      101, {0x8EE09E902854129Eull, 0xA6EC52455E563BCEull},
      {0xEB34277C3500F24Full, 0xACE03CAD6C60B48Dull});
  expect_sub_pins<NeighborParams>(
      "neighbor",
      [](const NeighborParams& p, const Pacing& pc, Rng& r) {
        return generate_neighbor(p, pc, r);
      },
      102, {0x7EC521D72BF5C07Full, 0x0D25CB179D09626Bull},
      {0xCB0085EE8A0CFE6Cull, 0x2373B240E2EDE139ull});
  expect_sub_pins<StreamParams>(
      "stream",
      [](const StreamParams& p, const Pacing& pc, Rng& r) {
        return generate_stream(p, pc, r);
      },
      103, {0xDFEE282365097248ull, 0xE18118FCA62EA0E9ull},
      {0xEB25485AFFBD39C9ull, 0x6ABC5FB47CEB4BA0ull});
  expect_sub_pins<IrregularParams>(
      "irregular",
      [](const IrregularParams& p, const Pacing& pc, Rng& r) {
        return generate_irregular(p, pc, r);
      },
      104, {0x35920AD98470F6DDull, 0x89E8FCDC9E16A91Cull},
      {0x02B4356D134ECADAull, 0x5546EF72851A22A0ull});
}

// ------------------------------------------------------------ reader pins
//
// Each reader parses a fixed in-test corpus under kRecover: unaligned
// addresses, both access types, every device, arrivals with ties and out of
// order, plus the defects that reader skips. The pins are the digests those
// corpora gave when every reader still returned rows and the rows were
// copied into a batch, so they hold each reader's output to the same bytes.

TraceRecord corpus_row(std::uint64_t i) {
  return TraceRecord{0x7F00'0000'0000ull + i * 0x10001, (i * 7) % 23,
                     i % 3 == 1 ? AccessType::kWrite : AccessType::kRead,
                     static_cast<DeviceId>(
                         i % static_cast<std::uint64_t>(DeviceId::kCount))};
}
constexpr std::uint64_t kCorpusRows = 48;

template <typename T>
void put_le(std::string& out, T value) {
  out.append(reinterpret_cast<const char*>(&value), sizeof(value));
}

std::string printf_line(const char* fmt, auto... args) {
  char buf[128];
  const int n = std::snprintf(buf, sizeof(buf), fmt, args...);
  return std::string(buf, static_cast<std::size_t>(n));
}

struct ReaderPin {
  std::uint64_t digest;
  std::uint64_t records;
  std::uint64_t errors;
};

void expect_pin(const TraceBatch& batch, const TraceReadReport& report,
                const ReaderPin& pin) {
  EXPECT_EQ(records_digest(batch), pin.digest);
  EXPECT_EQ(batch.size(), pin.records);
  EXPECT_EQ(report.records, pin.records);
  EXPECT_EQ(report.errors, pin.errors);
}

TEST(ReaderPins, Pltr) {
  // A bad type byte at row 5, a bad device byte at row 9, and a header that
  // claims one record more than the 10 stray trailing bytes complete.
  std::string image;
  put_le(image, kTraceMagic);
  put_le(image, kTraceVersion);
  put_le(image, std::uint16_t{0});
  put_le(image, kCorpusRows + 1);
  for (std::uint64_t i = 0; i < kCorpusRows; ++i) {
    const TraceRecord r = corpus_row(i);
    put_le(image, r.address);
    put_le(image, r.arrival);
    put_le(image, static_cast<std::uint8_t>(i == 5 ? 2 : int(r.type)));
    put_le(image, static_cast<std::uint8_t>(i == 9 ? 0x7F : int(r.device)));
    image.append(6, '\0');
  }
  image.append(10, '\x5A');
  std::istringstream is(image);
  TraceReadReport report;
  const TraceBatch batch = read_binary(is, RecoveryPolicy::kRecover, &report);
  EXPECT_TRUE(report.truncated);
  expect_pin(batch, report, {0x3794FADC698A3AF5ull, 46, 3});
}

TEST(ReaderPins, Csv) {
  // CRLF on even rows, blank lines, and one unparsable arrival.
  std::string text = "address,arrival,type,device\r\n";
  for (std::uint64_t i = 0; i < kCorpusRows; ++i) {
    const TraceRecord r = corpus_row(i);
    text += printf_line("0x%llx,%llu,%c,%s%s",
                        static_cast<unsigned long long>(r.address),
                        static_cast<unsigned long long>(r.arrival),
                        r.type == AccessType::kWrite ? 'W' : 'R',
                        device_name(r.device), i % 2 == 0 ? "\r\n" : "\n");
    if (i == 10) text += "\n";
    if (i == 20) text += "0x40,zz,R,gpu\n";
  }
  std::istringstream is(text);
  TraceReadReport report;
  const TraceBatch batch = read_csv(is, RecoveryPolicy::kRecover, &report);
  expect_pin(batch, report, {0x4E280A7BB3A43BAEull, 48, 1});
}

TEST(ReaderPins, Pltb) {
  TraceBatch rows;
  for (std::uint64_t i = 0; i < kCorpusRows; ++i) rows.push_back(corpus_row(i));
  const std::string path =
      (std::filesystem::temp_directory_path() / "planaria_reader_pin.pltb")
          .string();
  write_batch_file(path, rows);
  const TraceBatch batch = MappedTraceBatch(path).to_batch();
  std::filesystem::remove(path);
  TraceReadReport report;  // the mapped reader throws on any defect
  report.records = batch.size();
  expect_pin(batch, report, {0x59C48BDC84E2867Eull, 48, 0});
}

TEST(ReaderPins, DramSim2) {
  // Comments, blank lines, every transaction type and one unknown type; the
  // reader sorts the out-of-order cycles stably.
  std::string text = "; dramsim2 corpus\n\n";
  const char* const kReads[] = {"P_MEM_RD", "P_FETCH", "BOFF"};
  for (std::uint64_t i = 0; i < kCorpusRows; ++i) {
    const TraceRecord r = corpus_row(i);
    const char* type =
        r.type == AccessType::kWrite ? "P_MEM_WR" : kReads[(i / 3) % 3];
    text += printf_line("0x%llx %s %llu\n",
                        static_cast<unsigned long long>(r.address), type,
                        static_cast<unsigned long long>(r.arrival));
    if (i == 30) text += "0x40 P_BOGUS 5\n";
  }
  std::istringstream is(text);
  TraceReadReport report;
  const TraceBatch batch = read_dramsim2(is, RecoveryPolicy::kRecover, &report);
  expect_pin(batch, report, {0xD3D4B6C31914DD0Eull, 48, 1});
}

TEST(ReaderPins, ChampSimCsv) {
  // A header row, CRLF endings, '#' comments and one short row; the reader
  // sorts the out-of-order cycles stably.
  std::string text = "address,is_write,cycle\r\n# champsim corpus\n";
  for (std::uint64_t i = 0; i < kCorpusRows; ++i) {
    const TraceRecord r = corpus_row(i);
    text += printf_line("0x%llx,%d,%llu\r\n",
                        static_cast<unsigned long long>(r.address),
                        r.type == AccessType::kWrite ? 1 : 0,
                        static_cast<unsigned long long>(r.arrival));
    if (i == 40) text += "0x40,1\n";
  }
  std::istringstream is(text);
  TraceReadReport report;
  const TraceBatch batch =
      read_champsim_csv(is, RecoveryPolicy::kRecover, &report);
  expect_pin(batch, report, {0xD3D4B6C31914DD0Eull, 48, 1});
}

// ------------------------------------------------------------------ registry

TEST(AppRegistry, HasAllTenPaperApps) {
  const auto names = app_names();
  ASSERT_EQ(names.size(), 10u);
  const std::vector<std::string> expected = {"CFM", "HoK", "Id-V", "QSM",
                                             "TikT", "Fort", "HI3", "KO",
                                             "NBA2", "PM"};
  EXPECT_EQ(names, expected);
}

TEST(AppRegistry, LookupByNameMatches) {
  for (const auto& name : app_names()) {
    EXPECT_EQ(app_by_name(name).name, name);
  }
}

TEST(AppRegistry, UnknownNameThrows) {
  EXPECT_THROW(app_by_name("DOOM"), std::out_of_range);
}

TEST(AppRegistry, WeightsSumToOne) {
  for (const auto& app : paper_apps()) {
    const double sum = app.weight_footprint + app.weight_neighbor +
                       app.weight_stream + app.weight_irregular;
    EXPECT_NEAR(sum, 1.0, 1e-9) << app.name;
  }
}

TEST(AppRegistry, SeedsAreUnique) {
  std::unordered_set<std::uint64_t> seeds;
  for (const auto& app : paper_apps()) seeds.insert(app.seed);
  EXPECT_EQ(seeds.size(), paper_apps().size());
}

}  // namespace
}  // namespace planaria::trace
