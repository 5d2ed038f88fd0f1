// Microbenchmarks (google-benchmark): throughput of the hot simulation
// primitives. These are engineering benchmarks, not paper reproductions —
// they guard the simulator's own performance so the figure benches stay
// usable at paper-scale record counts.
#include <benchmark/benchmark.h>
#include <malloc.h>

#include <filesystem>
#include <memory>
#include <string>

#include "common/crc32.hpp"
#include "common/rng.hpp"
#include "common/set_table.hpp"
#include "core/planaria.hpp"
#include "core/tlp.hpp"
#include "dram/channel.hpp"
#include "prefetch/bop.hpp"
#include "prefetch/spp.hpp"
#include "sim/checkpoint.hpp"
#include "sim/simulator.hpp"
#include "snapshot/snapshot.hpp"
#include "trace/apps.hpp"
#include "trace/generator.hpp"
#include "trace/io.hpp"

namespace {

using namespace planaria;

trace::TraceBatch sample_trace(std::uint64_t n) {
  trace::AppProfile app = trace::app_by_name("HoK");
  return trace::generate_app_trace(app, n);
}

prefetch::DemandEvent event_for(const trace::TraceRecord& r) {
  prefetch::DemandEvent e;
  e.local_block = dram::AddressMapper::local_block(r.address);
  e.page = addr::page_number(r.address);
  e.block_in_segment = addr::block_in_segment(r.address);
  e.now = r.arrival;
  e.type = r.type;
  e.device = r.device;
  e.sc_hit = false;
  return e;
}

void BM_PlanariaOnDemand(benchmark::State& state) {
  const auto trace = sample_trace(100000);
  core::PlanariaPrefetcher pf;
  std::vector<prefetch::PrefetchRequest> out;
  std::size_t i = 0;
  for (auto _ : state) {
    out.clear();
    pf.on_demand(event_for(trace.record(i)), out);
    benchmark::DoNotOptimize(out.data());
    i = (i + 1) % trace.size();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PlanariaOnDemand);

// RPT allocation cost: a stream of fresh, clustered pages (1-4 pages apart,
// so at the default 64-page threshold each new page has ~25 Ref neighbours
// in the full 128-entry RPT, and so does the page it evicts) where ~95% of
// learn() calls allocate and the rest re-touch the newest page.
void BM_TlpAllocate(benchmark::State& state) {
  core::Tlp tlp;
  Rng rng(0x71F);
  std::vector<std::uint8_t> steps(std::size_t{1} << 16);  // 0 = re-touch
  for (auto& s : steps) {
    s = rng.next_below(20) == 0 ? 0 : static_cast<std::uint8_t>(
                                          1 + rng.next_below(4));
  }
  prefetch::DemandEvent e;
  PageNumber newest = PageNumber{1} << 20;
  std::size_t i = 0;
  for (auto _ : state) {
    newest += steps[i];
    e.page = newest;
    e.block_in_segment = static_cast<int>(i & 15);
    tlp.learn(e);
    i = (i + 1) & (steps.size() - 1);
  }
  benchmark::DoNotOptimize(tlp.stats().allocations);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TlpAllocate);

// Pattern History Table lookups at SLP's PT geometry (1024 sets x 12 ways),
// filled to capacity; half the probes hit a resident page, half miss.
void BM_SetAssocFind(benchmark::State& state) {
  constexpr std::size_t kSets = 1024;
  constexpr int kWays = 12;
  SetAssocTable<PageNumber, SegmentBitmap> pt(kSets, kWays);
  Rng rng(0x5E7);
  for (PageNumber p = 0; pt.size() < pt.capacity() && p < (1u << 22); ++p) {
    pt.insert((PageNumber{1} << 24) + p * 3,
              SegmentBitmap(static_cast<std::uint16_t>(p)));
  }
  std::vector<PageNumber> resident;
  pt.for_each([&](PageNumber page, SegmentBitmap&) { resident.push_back(page); });
  std::vector<PageNumber> probes(std::size_t{1} << 16);
  for (auto& p : probes) {
    p = rng.next_below(2) == 0
            ? resident[rng.next_below(resident.size())]
            : (PageNumber{1} << 40) + rng.next_below(PageNumber{1} << 30);
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(pt.find(probes[i]));
    i = (i + 1) & (probes.size() - 1);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SetAssocFind);

void BM_BopOnDemand(benchmark::State& state) {
  const auto trace = sample_trace(100000);
  prefetch::BestOffsetPrefetcher pf;
  std::vector<prefetch::PrefetchRequest> out;
  std::size_t i = 0;
  for (auto _ : state) {
    out.clear();
    auto e = event_for(trace.record(i));
    pf.on_fill(e.local_block, false, e.now);
    pf.on_demand(e, out);
    benchmark::DoNotOptimize(out.data());
    i = (i + 1) % trace.size();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BopOnDemand);

void BM_SppOnDemand(benchmark::State& state) {
  const auto trace = sample_trace(100000);
  prefetch::SignaturePathPrefetcher pf;
  std::vector<prefetch::PrefetchRequest> out;
  std::size_t i = 0;
  for (auto _ : state) {
    out.clear();
    pf.on_demand(event_for(trace.record(i)), out);
    benchmark::DoNotOptimize(out.data());
    i = (i + 1) % trace.size();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SppOnDemand);

void BM_DramChannelReads(benchmark::State& state) {
  dram::DramConfig config;
  for (auto _ : state) {
    state.PauseTiming();
    dram::DramChannel channel(config);
    state.ResumeTiming();
    Cycle t = 0;
    for (int i = 0; i < 1000; ++i) {
      t += 40;
      channel.advance(t);
      dram::DramRequest req;
      req.local_block = static_cast<std::uint64_t>(i) * 7919;
      req.arrival = t;
      req.tag = static_cast<std::uint64_t>(i);
      channel.submit(req);
    }
    channel.drain();
    benchmark::DoNotOptimize(channel.take_completions().size());
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_DramChannelReads);

void BM_TraceGeneration(benchmark::State& state) {
  for (auto _ : state) {
    auto trace = sample_trace(50000);
    benchmark::DoNotOptimize(trace.addresses());
  }
  state.SetItemsProcessed(state.iterations() * 50000);
}
BENCHMARK(BM_TraceGeneration);

// Generation at planaria_long scale, for the three apps that workload runs:
// the four component sources merged as they run into one 1M-record trace.
void BM_GenerateAppTrace(benchmark::State& state, const char* app) {
  constexpr std::uint64_t kRecords = 1000000;
  const trace::AppProfile& profile = trace::app_by_name(app);
  for (auto _ : state) {
    auto trace = trace::generate_app_trace(profile, kRecords);
    benchmark::DoNotOptimize(trace.addresses());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kRecords));
}
BENCHMARK_CAPTURE(BM_GenerateAppTrace, HoK, "HoK")->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_GenerateAppTrace, Fort, "Fort")->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_GenerateAppTrace, PM, "PM")->Unit(benchmark::kMillisecond);

// The same 1M PM rows as AppTraceStream chunks of 2^16 rows into one reused
// batch: generation without the whole-trace buffer.
void BM_AppTraceStream(benchmark::State& state) {
  constexpr std::uint64_t kRecords = 1000000;
  constexpr std::size_t kChunkRows = std::size_t{1} << 16;
  const trace::AppProfile& profile = trace::app_by_name("PM");
  trace::TraceBatch chunk;
  for (auto _ : state) {
    trace::AppTraceStream stream(profile, kRecords);
    while (stream.next(chunk, kChunkRows)) {
      benchmark::DoNotOptimize(chunk.addresses());
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kRecords));
}
BENCHMARK(BM_AppTraceStream)->Unit(benchmark::kMillisecond);

// Serve's admission path for one session (SessionServer::materialize):
// generate a 16000-record trace, then fingerprint it. At this size the
// per-source set-up (the footprint source's hot-page table and friends)
// weighs as much as the records themselves.
void BM_MaterializeSession(benchmark::State& state) {
  constexpr std::uint64_t kRecords = 16000;
  const trace::AppProfile& app = trace::app_by_name("HoK");
  for (auto _ : state) {
    const trace::TraceBatch batch = trace::generate_app_trace(app, kRecords);
    benchmark::DoNotOptimize(sim::trace_fingerprint(batch));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kRecords));
}
BENCHMARK(BM_MaterializeSession)->Unit(benchmark::kMicrosecond);

void BM_Crc32(benchmark::State& state) {
  constexpr std::size_t kBytes = std::size_t{16} << 20;
  std::vector<std::uint8_t> buf(kBytes);
  Rng rng(0xC3C);
  for (auto& b : buf) b = static_cast<std::uint8_t>(rng.next());
  for (auto _ : state) {
    benchmark::DoNotOptimize(common::crc32(buf.data(), buf.size()));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kBytes));
}
BENCHMARK(BM_Crc32);

// The PLTB ingest path a mapped-trace run pays once per trace: durable
// write (CRC over the columns, fsync+rename), map (CRC re-check, meta range
// check) and the bulk copy back into an owning batch.
void BM_PltbWriteMap(benchmark::State& state) {
  constexpr std::uint64_t kRecords = 1000000;
  const trace::TraceBatch batch = sample_trace(kRecords);
  const std::string path =
      (std::filesystem::temp_directory_path() / "planaria-bench-micro.pltb")
          .string();
  for (auto _ : state) {
    trace::write_batch_file(path, batch);
    const trace::MappedTraceBatch mapped(path);
    const trace::TraceBatch back = mapped.to_batch();
    benchmark::DoNotOptimize(back.addresses());
  }
  std::filesystem::remove(path);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kRecords));
}
BENCHMARK(BM_PltbWriteMap)->Unit(benchmark::kMillisecond);

// The snapshot codec over a warmed Planaria cell: 200k HoK records through
// the full simulator leave ~2.4 MB of SLP/TLP tables, cache and DRAM state,
// the payload every checkpoint and serve checkpoint tick encodes.
std::unique_ptr<sim::Simulator> warmed_planaria_cell() {
  auto s = std::make_unique<sim::Simulator>(
      sim::SimConfig{},
      sim::make_prefetcher_factory(sim::PrefetcherKind::kPlanaria), "planaria");
  s->run_sharded(sample_trace(200000), nullptr);
  return s;
}

void BM_SnapshotEncode(benchmark::State& state) {
  const auto cell = warmed_planaria_cell();
  std::size_t bytes = 0;
  for (auto _ : state) {
    snapshot::Writer w;
    cell->save_state(w);
    bytes = w.buffer().size();
    benchmark::DoNotOptimize(w.buffer().data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_SnapshotEncode)->Unit(benchmark::kMillisecond);

void BM_SnapshotDecode(benchmark::State& state) {
  snapshot::Writer w;
  warmed_planaria_cell()->save_state(w);
  sim::Simulator restored(
      sim::SimConfig{},
      sim::make_prefetcher_factory(sim::PrefetcherKind::kPlanaria), "planaria");
  for (auto _ : state) {
    snapshot::Reader r(w.buffer());
    restored.load_state(r);
    benchmark::DoNotOptimize(r.position());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(w.buffer().size()));
}
BENCHMARK(BM_SnapshotDecode)->Unit(benchmark::kMillisecond);

// Per-cell footprint of one Simulator per prefetcher kind: heap bytes in use
// (glibc mallinfo2, arenas plus mmapped blocks) added by construction, and
// after a serial 40k-record Fort run, as counters; the timed loop is one
// construction plus destruction, the per-cell set-up a sweep or a serve
// admission pays.
std::size_t heap_in_use() {
  const struct mallinfo2 mi = mallinfo2();
  return mi.uordblks + mi.hblkhd;
}

void BM_SimulatorFootprint(benchmark::State& state, sim::PrefetcherKind kind) {
  static const trace::TraceBatch fort =
      trace::generate_app_trace(trace::app_by_name("Fort"), 40000);
  const sim::SimConfig config;
  const std::string name = sim::prefetcher_kind_name(kind);
  const std::size_t before = heap_in_use();
  double constructed = 0.0;
  double after_run = 0.0;
  {
    sim::Simulator cell(config, sim::make_prefetcher_factory(kind), name);
    constructed = static_cast<double>(heap_in_use() - before);
    cell.run_sharded(fort);
    after_run = static_cast<double>(heap_in_use() - before);
  }
  for (auto _ : state) {
    sim::Simulator cell(config, sim::make_prefetcher_factory(kind), name);
    benchmark::DoNotOptimize(&cell);
  }
  state.counters["heap_constructed_bytes"] = constructed;
  state.counters["heap_after_run_bytes"] = after_run;
}

const bool kFootprintRegistered = [] {
  for (sim::PrefetcherKind kind : sim::all_prefetcher_kinds()) {
    benchmark::RegisterBenchmark(
        (std::string("BM_SimulatorFootprint/") + sim::prefetcher_kind_name(kind))
            .c_str(),
        BM_SimulatorFootprint, kind)
        ->Unit(benchmark::kMicrosecond);
  }
  return true;
}();

}  // namespace

BENCHMARK_MAIN();
