// SweepRunner scaling curve: wall-clock speedup of one fixed grid at
// 1/2/4/8 workers, recorded as BENCH_sweep_scaling.json (the "scaling"
// section docs/PERFORMANCE.md describes and CI uploads).
//
// The grid is deliberately modest (16 jobs x 200k accesses): enough work
// per job that the pool's dispatch overhead is noise, small enough that
// the full four-point curve stays under a minute on one core.  Results
// are worker-count-invariant by construction (the determinism tests pin
// this), so the curve measures scheduling, not simulation differences.
//
// Self-gate: on a host with >= 4 hardware threads, 4 workers must beat 1
// worker on wall clock — a regression here means the pool serialized.
// On smaller hosts (CI containers are often 1-core) the gate is skipped
// and says so; the curve is still recorded.
#include <chrono>
#include <cstdio>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "core/simulator.h"
#include "core/sweep.h"
#include "trace/synthetic.h"
#include "trace/workloads.h"

namespace pcal {
namespace {

std::vector<SweepJob> build_grid(std::uint64_t accesses) {
  // 4 cache sizes x 4 workloads, the paper's default banked topology.
  const std::uint64_t kSizes[] = {4096, 8192, 16384, 32768};
  const char* kWorkloads[] = {"cjpeg", "sha", "rijndael_i", "gsmd"};
  std::vector<SweepJob> jobs;
  for (const std::uint64_t size : kSizes) {
    for (const char* name : kWorkloads) {
      SweepJob job;
      job.config.cache.size_bytes = size;
      job.config.cache.line_bytes = 16;
      job.config.partition.num_banks = 4;
      job.config.indexing = IndexingKind::kProbing;
      job.config.reindex_updates = 8;
      const WorkloadSpec spec = make_mediabench_workload(name);
      job.make_source = [spec, accesses] {
        return std::make_unique<SyntheticTraceSource>(spec, accesses);
      };
      job.label = std::string(name) + "@" + std::to_string(size);
      job.lut = &bench::aging().lut();
      jobs.push_back(std::move(job));
    }
  }
  return jobs;
}

struct ScalingRow {
  unsigned workers;
  double wall_seconds;
  double accesses_per_second;
  double speedup;     // wall(1) / wall(w)
  double efficiency;  // speedup / w
};

int run() {
  const std::uint64_t accesses =
      std::min<std::uint64_t>(bench::accesses(), 200000);
  const std::vector<SweepJob> jobs = build_grid(accesses);
  const unsigned hw = std::thread::hardware_concurrency();

  std::vector<ScalingRow> rows;
  SweepStats total;
  total.threads = 1;
  for (const unsigned w : {1u, 2u, 4u, 8u}) {
    SweepRunner runner(w);
    const std::vector<SweepOutcome> outcomes = runner.run(jobs);
    for (const SweepOutcome& o : outcomes) o.rethrow_if_error();
    const SweepStats& stats = runner.last_stats();
    ScalingRow row;
    row.workers = w;
    row.wall_seconds = stats.wall_seconds;
    row.accesses_per_second = stats.accesses_per_second();
    row.speedup = rows.empty() || stats.wall_seconds <= 0.0
                      ? 1.0
                      : rows.front().wall_seconds / stats.wall_seconds;
    row.efficiency = row.speedup / w;
    rows.push_back(row);
    std::printf("scaling %u worker%s: %.3fs wall, %.2fM accesses/s, "
                "speedup %.2fx, efficiency %.2f\n",
                w, w == 1 ? " " : "s", row.wall_seconds,
                row.accesses_per_second / 1e6, row.speedup, row.efficiency);
    total.jobs += stats.jobs;
    total.failed_jobs += stats.failed_jobs;
    total.total_accesses += stats.total_accesses;
    total.simulated_accesses += stats.simulated_accesses;
    total.intervals_observed += stats.intervals_observed;
    total.steals += stats.steals;
    total.wall_seconds += stats.wall_seconds;
    if (w > total.threads) total.threads = w;
  }

  write_bench_json("sweep_scaling", total, [&](std::ostream& f) {
    f << "  \"hardware_concurrency\": " << hw << ",\n"
      << "  \"grid_jobs\": " << jobs.size() << ",\n"
      << "  \"scaling\": [\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const ScalingRow& r = rows[i];
      f << "    {\"workers\": " << r.workers
        << ", \"wall_seconds\": " << r.wall_seconds
        << ", \"accesses_per_second\": " << r.accesses_per_second
        << ", \"speedup\": " << r.speedup
        << ", \"efficiency\": " << r.efficiency << "}"
        << (i + 1 < rows.size() ? "," : "") << "\n";
    }
    f << "  ],\n";
  });

  if (hw >= 4) {
    const double speedup4 = rows[2].speedup;
    if (!(speedup4 > 1.0)) {
      std::fprintf(stderr,
                   "FAIL: 4 workers did not beat 1 worker (speedup %.2fx) "
                   "on a %u-thread host — the pool serialized\n",
                   speedup4, hw);
      return 1;
    }
    std::printf("gate ok: 4 workers %.2fx over 1 on a %u-thread host\n",
                rows[2].speedup, hw);
  } else {
    std::printf("gate skipped: host has %u hardware thread%s (< 4); "
                "curve recorded without a speedup requirement\n",
                hw, hw == 1 ? "" : "s");
  }
  return 0;
}

}  // namespace
}  // namespace pcal

int main() { return pcal::run(); }
