// Microbenchmarks: hot-path costs of the architecture model — decoder +
// indexing per access, cache access, block control, full simulator
// throughput, workload generation, and trace ingestion.
//
// The registry runs on Google Benchmark when the system library is
// installed, otherwise on the built-in minibench harness, so the target
// builds everywhere.  End-to-end scalar and batched throughput is
// pcalbench's (engine.scalar_acc_per_s, engine.batched_acc_per_s).
#if defined(PCAL_HAVE_GBENCH)
#include <benchmark/benchmark.h>
#else
#include "minibench.h"
#endif

#include <chrono>
#include <cstdio>
#include <sstream>
#include <string>

#include "bank/decoder.h"
#include "core/managed_cache.h"
#include "core/simulator.h"
#include "trace/binary_trace.h"
#include "trace/trace.h"
#include "trace/trace_io.h"
#include "trace/workloads.h"
#include "util/lfsr.h"

namespace pcal {
namespace {

CacheTopology bc_config(IndexingKind kind, std::uint64_t banks) {
  CacheTopology c;
  c.granularity = Granularity::kBank;
  c.cache.size_bytes = 8192;
  c.cache.line_bytes = 16;
  c.partition.num_banks = banks;
  c.indexing = kind;
  c.breakeven_cycles = 32;
  return c;
}

void BM_DecoderDecode(benchmark::State& state) {
  const auto kind = static_cast<IndexingKind>(state.range(0));
  PartitionConfig part;
  part.num_banks = 8;
  CacheConfig cache;
  cache.size_bytes = 8192;
  cache.line_bytes = 16;
  BankDecoder d(cache, part, kind, 1);
  std::uint64_t idx = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(d.decode(idx & 511));
    ++idx;
  }
}
BENCHMARK(BM_DecoderDecode)
    ->Arg(static_cast<int>(IndexingKind::kStatic))
    ->Arg(static_cast<int>(IndexingKind::kProbing))
    ->Arg(static_cast<int>(IndexingKind::kScrambling));

void BM_BankedCacheAccess(benchmark::State& state) {
  auto bc = make_managed_cache(bc_config(
      IndexingKind::kProbing, static_cast<std::uint64_t>(state.range(0))));
  std::uint64_t x = 1;
  for (auto _ : state) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    benchmark::DoNotOptimize(bc->access((x >> 20) % 65536, (x & 1) != 0));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_BankedCacheAccess)->Arg(1)->Arg(4)->Arg(16);

void BM_WorkloadGeneration(benchmark::State& state) {
  auto spec = make_mediabench_workload("rijndael_i");
  SyntheticTraceSource src(spec, UINT64_MAX);
  for (auto _ : state) {
    benchmark::DoNotOptimize(src.next());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_WorkloadGeneration);

void BM_SimulatorEndToEnd(benchmark::State& state) {
  auto spec = make_mediabench_workload("cjpeg");
  SimConfig cfg;
  cfg.cache.size_bytes = 8192;
  cfg.cache.line_bytes = 16;
  cfg.partition.num_banks = 4;
  const Simulator sim(cfg);
  const auto n = static_cast<std::uint64_t>(state.range(0));
  for (auto _ : state) {
    SyntheticTraceSource src(spec, n);
    benchmark::DoNotOptimize(sim.run(src));
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(n));
}
BENCHMARK(BM_SimulatorEndToEnd)->Arg(100000)->Unit(benchmark::kMillisecond);

void BM_LfsrStep(benchmark::State& state) {
  GaloisLfsr lfsr(16, 1);
  for (auto _ : state) benchmark::DoNotOptimize(lfsr.step());
}
BENCHMARK(BM_LfsrStep);

/// A materialized slice of a MediaBench-like workload, shared by the
/// ingestion benches.
const Trace& ingestion_trace() {
  static const Trace* trace = [] {
    SyntheticTraceSource src(make_mediabench_workload("cjpeg"), 50000);
    return new Trace(Trace::materialize(src));
  }();
  return *trace;
}

void BM_TextTraceParse(benchmark::State& state) {
  std::ostringstream os;
  write_trace_text(ingestion_trace(), os);
  const std::string text = os.str();
  for (auto _ : state) {
    std::istringstream is(text);
    benchmark::DoNotOptimize(read_trace_text(is).size());
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(ingestion_trace().size()));
}
BENCHMARK(BM_TextTraceParse)->Unit(benchmark::kMillisecond);

void BM_PctReplay(benchmark::State& state) {
  // Per-process path: concurrent bench runs must not share the file.
  static const std::string path =
      "/tmp/pcal_micro_ops_" +
      std::to_string(
          std::chrono::steady_clock::now().time_since_epoch().count()) +
      ".pct";
  write_pct_file(ingestion_trace(), path);
  BinaryTraceSource src(path);
  MemAccess batch[256];
  for (auto _ : state) {
    src.reset();
    std::size_t total = 0;
    for (;;) {
      const std::size_t n = src.next_batch(batch, 256);
      if (n == 0) break;
      total += n;
    }
    benchmark::DoNotOptimize(total);
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(ingestion_trace().size()));
  std::remove(path.c_str());
}
BENCHMARK(BM_PctReplay)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace pcal

int main(int argc, char** argv) {
#if defined(PCAL_HAVE_GBENCH)
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
#else
  (void)argc;
  (void)argv;
  return benchmark::internal::run_all();
#endif
}
