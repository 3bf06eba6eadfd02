// Noisy-neighbour QoS on the shared LLC: way-partitioned vs fully shared.
//
// The multi-core subsystem (core/multicore.h) puts N private L1s in
// front of one shared LLC.  This bench measures the QoS story that
// motivates way partitioning: a well-behaved "victim" program (cjpeg or
// dijkstra) on core 0 shares the 64kB/8-way LLC with a streaming
// aggressor on core 1 whose 256kB footprint thrashes every way it is
// allowed to allocate into.  Each pairing runs twice — fully shared
// (no masks) and way-partitioned (4 ways per core) — through multi-core
// SweepJobs on the SweepRunner pool, so PCAL_BENCH_THREADS applies and
// CI can diff a 1-worker against an 8-worker run.
//
// Gates (exit 1 on violation):
//   - the victim core's LLC traffic differs between the shared and the
//     partitioned run (the noisy-neighbour effect must be visible);
//   - every core's attributed energy is positive;
//   - per-core accesses sum to the system total.
//
// BENCH_multicore_qos.json carries per-job result rows with the "cores"
// array (per-core workload, accesses, way mask, LLC slice, energy),
// which tools/check_bench_json.py validates in CI.
#include "bench_common.h"

#include <array>
#include <vector>

namespace {

using namespace pcal;
using namespace pcal::bench;

constexpr std::array<const char*, 2> kVictims = {"cjpeg", "dijkstra"};
constexpr std::array<std::uint64_t, 2> kWaysPerCore = {0, 4};
constexpr std::uint64_t kAggressorFootprint = 256 * 1024;

/// The 2-core system: paper L1s (8kB/16B, M=4) over a shared 64kB/8-way
/// LLC, optionally split 4+4 ways between the cores.
MultiCoreConfig system_config(std::uint64_t ways_per_core) {
  SimConfig cfg = paper_config(8192, 16, 4);
  cfg.force_unit_pricing = true;  // cross-config comparison, one model
  LevelConfig llc = cfg.make_level(64 * 1024);
  llc.topology.cache.ways = 8;
  llc.topology.partition.num_banks = 4;
  llc.topology.breakeven_cycles = 64;
  return make_multicore(cfg, 2, llc, ways_per_core);
}

SweepJob make_job(const AgingContext& aging_ctx, const char* victim,
                  std::uint64_t ways_per_core, std::uint64_t n) {
  SweepJob job;
  job.multicore =
      std::make_shared<const MultiCoreConfig>(system_config(ways_per_core));
  const WorkloadSpec victim_spec = make_mediabench_workload(victim);
  const WorkloadSpec aggressor_spec =
      make_streaming_workload(kAggressorFootprint);
  job.core_sources.push_back([victim_spec, n] {
    return std::make_unique<SyntheticTraceSource>(victim_spec, n);
  });
  job.core_sources.push_back([aggressor_spec, n] {
    return std::make_unique<SyntheticTraceSource>(aggressor_spec, n);
  });
  job.lut = &aging_ctx.lut();
  return job;
}

}  // namespace

int main() {
  print_header(
      "Multi-core LLC QoS: shared vs way-partitioned",
      "multi-core extension of DATE'11 (2 cores, streaming noisy "
      "neighbour, 64kB/8-way shared LLC)");

  const std::uint64_t n = accesses();
  std::vector<SweepJob> jobs;
  std::vector<std::string> labels;
  for (const char* victim : kVictims) {
    for (const std::uint64_t wpc : kWaysPerCore) {
      jobs.push_back(make_job(aging(), victim, wpc, n));
      labels.push_back(std::string(victim) + "+streaming");
    }
  }

  SweepRunner runner(bench_threads());
  const std::vector<SweepOutcome> outcomes = runner.run(jobs);
  const SweepStats& stats = runner.last_stats();
  for (const SweepOutcome& o : outcomes) o.rethrow_if_error();

  write_bench_json("multicore_qos", stats, [&](std::ostream& f) {
    f << "  \"cross_product\": " << jobs.size() << ",\n";
    f << "  \"results\": [\n";
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
      f << "    ";
      write_result_row(f, outcomes[i].result, labels[i], outcomes[i].ok(),
                       &outcomes[i].cores);
      f << (i + 1 < outcomes.size() ? ",\n" : "\n");
    }
    f << "  ],\n";
  });

  bool ok = true;
  TextTable table({"victim", "LLC split", "victim L1 hit", "victim LLC hit",
                   "aggr LLC hit", "victim E (pJ)", "system E (pJ)"});
  std::size_t next = 0;
  for (const char* victim : kVictims) {
    const SweepOutcome* per_mode[2] = {nullptr, nullptr};
    for (std::size_t m = 0; m < kWaysPerCore.size(); ++m) {
      const SweepOutcome& o = outcomes[next++];
      per_mode[m] = &o;
      const CoreResult& v = o.cores[0];
      const CoreResult& a = o.cores[1];
      table.add_row(
          {victim, kWaysPerCore[m] == 0 ? "shared" : "4+4 ways",
           TextTable::num(v.l1_hit_rate(), 4),
           TextTable::num(v.llc_hit_rate(), 4),
           TextTable::num(a.llc_hit_rate(), 4),
           TextTable::num(v.energy.partitioned.total_pj(), 0),
           TextTable::num(o.result.energy.partitioned.total_pj(), 0)});
      // Honest-attribution gates.
      std::uint64_t core_accesses = 0;
      for (const CoreResult& c : o.cores) {
        core_accesses += c.accesses;
        if (!(c.energy.partitioned.total_pj() > 0.0)) {
          std::cerr << "FAIL: core '" << c.workload
                    << "' attributed zero energy (" << victim << ", wpc="
                    << kWaysPerCore[m] << ")\n";
          ok = false;
        }
      }
      if (core_accesses != o.result.accesses) {
        std::cerr << "FAIL: per-core accesses sum " << core_accesses
                  << " != system " << o.result.accesses << "\n";
        ok = false;
      }
    }
    // The noisy-neighbour effect: the victim's LLC traffic must change
    // when the aggressor is fenced into its own ways.
    const CacheStats& shared = per_mode[0]->cores[0].llc_stats;
    const CacheStats& part = per_mode[1]->cores[0].llc_stats;
    if (shared.hits == part.hits && shared.misses == part.misses) {
      std::cerr << "FAIL: partitioning the LLC did not change victim '"
                << victim << "' (hits " << shared.hits << ", misses "
                << shared.misses << ")\n";
      ok = false;
    }
  }
  print_table(table);

  std::cout << "expected shape: under the shared LLC the streaming "
               "aggressor evicts the victim's working set from every way; "
               "fencing each core into 4 ways restores the victim's LLC "
               "hit rate at the cost of the aggressor's (already hopeless) "
               "one.\n";
  return ok ? 0 : 1;
}
