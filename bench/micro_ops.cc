// Microbenchmarks: hot-path costs of the architecture model — decoder +
// indexing per access, cache access, block control, full simulator
// throughput, workload generation, and trace ingestion.
//
// main() first measures end-to-end scalar-vs-batched driver throughput
// over every backend and writes BENCH_micro_ops.json (the "throughput" /
// "speedup" sections docs/PERFORMANCE.md describes and CI gates on),
// then runs the microbenchmark registry.  The registry runs on Google
// Benchmark when available (system library or fetched by CMake);
// otherwise on the built-in minibench harness, so the target builds
// everywhere.
#if defined(PCAL_HAVE_GBENCH)
#include <benchmark/benchmark.h>
#else
#include "minibench.h"
#endif

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <sstream>
#include <utility>
#include <string>
#include <vector>

#include "bank/decoder.h"
#include "bench_common.h"
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
  BankDecoder d(cache, part, make_indexing_policy(kind, 8, 1));
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

// ---------------------------------------------------------------------
// Scalar-vs-batched driver throughput: the measured accesses/sec win of
// the batched struct-of-arrays hot path, recorded per backend, mode and
// batch size.  Both modes run the SAME binary in the SAME process over
// the SAME materialized trace — force_scalar_loop=true replays the
// pre-batching per-access driver, so the speedup column is an honest
// apples-to-apples ratio, not a cross-build comparison.

struct ThroughputRow {
  const char* backend;  // monolithic | bank | way | line
  const char* policy;   // gated | drowsy_hybrid
  const char* mode;     // scalar | batched
  std::uint64_t batch_size;
  std::uint64_t accesses;
  double wall_seconds;
  double accesses_per_second;
};

SimConfig throughput_config(Granularity g, PowerPolicy policy,
                            std::uint64_t drowsy_window) {
  SimConfig cfg;
  cfg.granularity = g;
  cfg.cache.size_bytes = 8192;
  cfg.cache.line_bytes = 16;
  cfg.cache.ways = (g == Granularity::kWay) ? 4 : 2;
  cfg.partition.num_banks = 4;
  cfg.indexing = IndexingKind::kProbing;
  cfg.policy = policy;
  cfg.drowsy_window_cycles = drowsy_window;
  cfg.reindex_updates = 8;
  cfg.latency.hit_cycles = 1;
  cfg.latency.miss_cycles = 6;
  cfg.latency.drowsy_wake_cycles = 2;
  cfg.latency.gated_wake_cycles = 4;
  return cfg;
}

/// Runs `sim` over `trace` repeatedly until >= `min_seconds` of wall
/// time has accumulated; returns {repetitions, elapsed seconds}.
std::pair<std::uint64_t, double> timed_runs(const Simulator& sim,
                                            Trace& trace,
                                            double min_seconds = 0.25) {
  std::uint64_t reps = 0;
  const auto start = std::chrono::steady_clock::now();
  double elapsed = 0.0;
  do {
    trace.reset();
    const SimResult r = sim.run(trace);
    benchmark::DoNotOptimize(r.total_cycles);
    ++reps;
    elapsed = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                            start)
                  .count();
  } while (elapsed < min_seconds);
  return {reps, elapsed};
}

ThroughputRow measure_throughput(const char* backend, const char* policy,
                                 const SimConfig& base, Trace& trace,
                                 bool scalar, std::uint64_t batch_size) {
  SimConfig cfg = base;
  cfg.force_scalar_loop = scalar;
  cfg.batch_size = batch_size;
  const Simulator sim(cfg);
  timed_runs(sim, trace, 0.05);  // warm caches / fault pages once
  // Best of three samples: on a shared host, noise only ever slows a
  // sample down, so the max rate is the honest estimate for both modes.
  std::uint64_t best_reps = 0;
  double best_elapsed = 0.0, best_rate = -1.0;
  for (int sample = 0; sample < 3; ++sample) {
    const auto [reps, elapsed] = timed_runs(sim, trace, 0.15);
    const double rate =
        elapsed > 0.0
            ? static_cast<double>(reps * trace.size()) / elapsed
            : 0.0;
    if (rate > best_rate) {
      best_rate = rate;
      best_reps = reps;
      best_elapsed = elapsed;
    }
  }
  ThroughputRow row;
  row.backend = backend;
  row.policy = policy;
  row.mode = scalar ? "scalar" : "batched";
  row.batch_size = scalar ? 1 : batch_size;
  row.accesses = best_reps * trace.size();
  row.wall_seconds = best_elapsed;
  row.accesses_per_second = best_rate;
  return row;
}

int run_throughput_record() {
  const std::uint64_t n =
      std::min<std::uint64_t>(bench::accesses(), 2000000);
  SyntheticTraceSource src(make_hotspot_workload(32 * 1024), n);
  Trace trace = Trace::materialize(src);

  struct Variant {
    Granularity granularity;
    PowerPolicy policy;
    std::uint64_t drowsy_window;
    const char* backend;
    const char* policy_name;
  };
  const Variant kVariants[] = {
      {Granularity::kMonolithic, PowerPolicy::kGated, 0, "monolithic",
       "gated"},
      {Granularity::kBank, PowerPolicy::kGated, 0, "bank", "gated"},
      {Granularity::kWay, PowerPolicy::kGated, 0, "way", "gated"},
      {Granularity::kLine, PowerPolicy::kGated, 0, "line", "gated"},
      {Granularity::kBank, PowerPolicy::kDrowsyHybrid, 48, "bank",
       "drowsy_hybrid"},
  };

  std::vector<ThroughputRow> rows;
  std::vector<std::pair<std::string, double>> speedups;
  const auto wall_start = std::chrono::steady_clock::now();
  for (const Variant& v : kVariants) {
    const SimConfig cfg =
        throughput_config(v.granularity, v.policy, v.drowsy_window);
    const ThroughputRow scalar =
        measure_throughput(v.backend, v.policy_name, cfg, trace, true, 1);
    const ThroughputRow batched =
        measure_throughput(v.backend, v.policy_name, cfg, trace, false, 256);
    rows.push_back(scalar);
    rows.push_back(batched);
    speedups.emplace_back(
        std::string(v.backend) + "/" + v.policy_name,
        scalar.accesses_per_second > 0.0
            ? batched.accesses_per_second / scalar.accesses_per_second
            : 0.0);
    std::printf("throughput %-12s %-14s scalar %8.2fM/s  batched %8.2fM/s"
                "  speedup %.2fx\n",
                v.backend, v.policy_name,
                scalar.accesses_per_second / 1e6,
                batched.accesses_per_second / 1e6, speedups.back().second);
  }
  // Batch-size sensitivity on the banked gated backend (the paper's
  // default architecture): sizes straddling the 256-entry chunk.
  const SimConfig bank_cfg =
      throughput_config(Granularity::kBank, PowerPolicy::kGated, 0);
  for (const std::uint64_t bs : {64ull, 4096ull})
    rows.push_back(
        measure_throughput("bank", "gated", bank_cfg, trace, false, bs));
  const double wall = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - wall_start)
                          .count();

  SweepStats stats;
  stats.jobs = rows.size();
  stats.threads = 1;
  stats.wall_seconds = wall;
  for (const ThroughputRow& r : rows) stats.total_accesses += r.accesses;
  write_bench_json("micro_ops", stats, [&](std::ostream& f) {
#if defined(NDEBUG)
    f << "  \"build_type\": \"release\",\n";
#else
    f << "  \"build_type\": \"debug\",\n";
#endif
    f << "  \"throughput\": [\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const ThroughputRow& r = rows[i];
      f << "    {\"backend\": \"" << r.backend << "\", \"policy\": \""
        << r.policy << "\", \"mode\": \"" << r.mode
        << "\", \"batch_size\": " << r.batch_size
        << ", \"accesses\": " << r.accesses
        << ", \"wall_seconds\": " << r.wall_seconds
        << ", \"accesses_per_second\": " << r.accesses_per_second << "}"
        << (i + 1 < rows.size() ? "," : "") << "\n";
    }
    f << "  ],\n"
      << "  \"speedup\": {";
    for (std::size_t i = 0; i < speedups.size(); ++i)
      f << (i ? ", " : "") << "\"" << speedups[i].first
        << "\": " << speedups[i].second;
    f << "},\n";
  });
  return 0;
}

}  // namespace
}  // namespace pcal

int main(int argc, char** argv) {
  const int rc = pcal::run_throughput_record();
  if (rc != 0) return rc;
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
