// Microbenchmarks (google-benchmark): throughput of the hot simulation
// primitives. These are engineering benchmarks, not paper reproductions —
// they guard the simulator's own performance so the figure benches stay
// usable at paper-scale record counts.
#include <benchmark/benchmark.h>

#include <filesystem>
#include <string>

#include "common/crc32.hpp"
#include "common/rng.hpp"
#include "core/planaria.hpp"
#include "dram/channel.hpp"
#include "prefetch/bop.hpp"
#include "prefetch/spp.hpp"
#include "trace/apps.hpp"
#include "trace/generator.hpp"
#include "trace/io.hpp"

namespace {

using namespace planaria;

std::vector<trace::TraceRecord> sample_trace(std::uint64_t n) {
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
    pf.on_demand(event_for(trace[i]), out);
    benchmark::DoNotOptimize(out.data());
    i = (i + 1) % trace.size();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PlanariaOnDemand);

void BM_BopOnDemand(benchmark::State& state) {
  const auto trace = sample_trace(100000);
  prefetch::BestOffsetPrefetcher pf;
  std::vector<prefetch::PrefetchRequest> out;
  std::size_t i = 0;
  for (auto _ : state) {
    out.clear();
    auto e = event_for(trace[i]);
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
    pf.on_demand(event_for(trace[i]), out);
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
    benchmark::DoNotOptimize(trace.data());
  }
  state.SetItemsProcessed(state.iterations() * 50000);
}
BENCHMARK(BM_TraceGeneration);

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
  const trace::TraceBatch batch(sample_trace(kRecords));
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

}  // namespace

BENCHMARK_MAIN();
