// Shared plumbing for the paper-table bench binaries.
//
// Each binary regenerates one table/figure of the DATE'11 evaluation and
// prints (a) the regenerated table in the paper's layout, (b) the paper's
// published value next to ours where available, and (c) a CSV block for
// post-processing.  Absolute agreement is not the goal (the paper's
// numbers come from proprietary traces and an ST design kit); shape and
// calibrated anchors are — see EXPERIMENTS.md.
//
// The tables are cross-products of hundreds of independent Simulator
// runs, so the benches queue their whole grid into a SweepGrid and
// execute it on the SweepRunner thread pool (PCAL_BENCH_THREADS /
// PCAL_SWEEP_THREADS override the worker count; results are identical to
// a serial run by construction).  Each run also drops a machine-readable
// BENCH_<name>.json next to the binary so the repo tracks a perf
// trajectory.
#pragma once

#include <cstdio>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "core/bench_record.h"
#include "core/experiment.h"
#include "core/sweep.h"
#include "util/table.h"

namespace pcal::bench {

/// Accesses per workload run.  Override with PCAL_BENCH_ACCESSES for
/// quicker smoke runs; a malformed override throws.
inline std::uint64_t accesses() {
  return bench_accesses(kDefaultTraceAccesses);
}

/// The process-wide calibrated aging context (the build-embedded LUT).
inline const AgingContext& aging() {
  static AgingContext* ctx = new AgingContext();
  return *ctx;
}

/// The machine-readable perf record of one bench run — shared with the
/// pcalsweep CLI, which writes the same BENCH_<name>.json schema (see
/// core/bench_record.h for the env knobs).
using pcal::write_bench_json;

/// A bench's whole configuration grid, queued up front and executed in
/// one parallel sweep.  Jobs keep their queue order, so consuming
/// results with the same loop structure that queued them is exact.
class SweepGrid {
 public:
  SweepGrid(const AgingContext& aging_ctx, std::uint64_t num_accesses)
      : aging_(&aging_ctx), accesses_(num_accesses) {}

  /// Queues one run; returns its result index.
  std::size_t add(const WorkloadSpec& spec, const SimConfig& config) {
    SweepJob job;
    job.config = config;
    const std::uint64_t n = accesses_;
    job.make_source = [spec, n] {
      return std::make_unique<SyntheticTraceSource>(spec, n);
    };
    job.lut = &aging_->lut();
    jobs_.push_back(std::move(job));
    return jobs_.size() - 1;
  }

  /// Queues the paper's three-architecture comparison (reindexed, static
  /// LT0, monolithic); returns the index to hand to three_way().
  std::size_t add_three_way(const WorkloadSpec& spec,
                            const SimConfig& config) {
    const std::size_t first = add(spec, config);
    add(spec, static_variant(config));
    add(spec, monolithic_variant(config));
    return first;
  }

  /// Executes every queued job on the thread pool and writes
  /// BENCH_<bench_name>.json.  Rethrows the first failed job's exception
  /// (in job order), so error behavior matches the old serial loops.
  /// `extra` (optional) emits additional JSON members into the record;
  /// it runs after the outcomes are in, so it may read result(i).
  void run(const std::string& bench_name,
           const std::function<void(std::ostream&)>& extra = {}) {
    SweepRunner runner(bench_threads());
    outcomes_ = runner.run(jobs_);
    stats_ = runner.last_stats();
    for (const SweepOutcome& o : outcomes_) o.rethrow_if_error();
    write_bench_json(bench_name, stats_, extra);
    std::cerr << "[sweep] " << bench_name << ": " << stats_.jobs
              << " jobs on " << stats_.threads << " threads, "
              << TextTable::num(stats_.wall_seconds, 2) << "s, "
              << TextTable::num(stats_.accesses_per_second() / 1e6, 1)
              << "M accesses/s\n";
  }

  const SimResult& result(std::size_t i) const {
    return outcomes_.at(i).result;
  }

  /// Assembles the ThreeWayResult queued at `first` by add_three_way().
  ThreeWayResult three_way(std::size_t first) const {
    ThreeWayResult r;
    r.reindexed = result(first);
    r.static_pm = result(first + 1);
    r.monolithic = result(first + 2);
    return r;
  }

  std::size_t size() const { return jobs_.size(); }
  const SweepStats& stats() const { return stats_; }

 private:
  const AgingContext* aging_;
  std::uint64_t accesses_;
  std::vector<SweepJob> jobs_;
  std::vector<SweepOutcome> outcomes_;
  SweepStats stats_;
};

inline void print_header(const std::string& title,
                         const std::string& paper_ref) {
  std::cout << "==================================================\n"
            << title << "\n"
            << "reproduces: " << paper_ref << "\n"
            << "nominal cell lifetime: "
            << TextTable::num(aging().nominal_lifetime_years(), 2)
            << " years; drowsy stress factor gamma = "
            << TextTable::num(aging().sleep_stress_factor(), 3) << "\n"
            << "==================================================\n";
}

inline void print_table(const TextTable& table) {
  table.render(std::cout);
  std::cout << "\n--- CSV ---\n";
  table.render_csv(std::cout);
  std::cout << std::endl;
}

}  // namespace pcal::bench
