// Experiment plumbing shared by the paper-table benches and examples.
//
// AgingContext owns the calibrated aging LUT (loaded once, reused across
// hundreds of runs).  run_three_way() evaluates one workload on the three
// architectures every paper table compares:
//   - monolithic: one bank, the 2.93-year reference point,
//   - static:     power-managed partition, no re-indexing (column LT0),
//   - reindexed:  the proposed dynamic-indexing architecture (column LT).
#pragma once

#include <cstdint>

#include "aging/aging_lut.h"
#include "core/simulator.h"
#include "trace/workloads.h"

namespace pcal {

class AgingContext {
 public:
  /// For AgingParams::st45() (the default), loads the table the build
  /// characterized and embedded (embedded_st45_lut()) in well under a
  /// millisecond, and throws Error if its fingerprint shows it was
  /// generated from different parameters (a stale build).  For any other
  /// parameters, calibrates and characterizes at runtime: AgingLut::
  /// characterize, about two seconds of CPU.  Share one instance per
  /// process (api::shared_aging()).
  explicit AgingContext(const AgingParams& params = AgingParams::st45());

  const AgingLut& lut() const { return lut_; }

  /// Lifetime of the never-sleeping nominal cell (the paper's 2.93 years).
  double nominal_lifetime_years() const {
    return lut_.lifetime_years(0.5, 0.0);
  }

  /// The drowsy equivalent-stress factor (DESIGN.md gamma ~= 0.226), in
  /// closed form from NbtiModel::gamma.
  double sleep_stress_factor() const { return gamma_; }

 private:
  AgingLut lut_;
  double gamma_;
};

struct ThreeWayResult {
  SimResult reindexed;
  SimResult static_pm;   // partitioned, power managed, no re-indexing
  SimResult monolithic;  // M = 1 reference

  /// Lifetime extension of re-indexing vs the monolithic reference.
  double extension_vs_monolithic() const {
    return monolithic.lifetime_years() > 0.0
               ? reindexed.lifetime_years() / monolithic.lifetime_years()
               : 0.0;
  }
  /// Lifetime extension of plain power management vs monolithic.
  double static_extension_vs_monolithic() const {
    return monolithic.lifetime_years() > 0.0
               ? static_pm.lifetime_years() / monolithic.lifetime_years()
               : 0.0;
  }
};

/// Runs one workload spec through the three architectures with
/// `num_accesses` accesses each (same trace for all three).
ThreeWayResult run_three_way(const WorkloadSpec& workload,
                             const SimConfig& config,
                             const AgingContext& aging,
                             std::uint64_t num_accesses);

/// Runs just the given configuration.
SimResult run_workload(const WorkloadSpec& workload, const SimConfig& config,
                       const AgingContext& aging,
                       std::uint64_t num_accesses);

/// The reference SimConfig of the paper's evaluation: direct-mapped cache
/// of `size_bytes` with `line_bytes` lines, M banks, Probing re-indexing.
SimConfig paper_config(std::uint64_t size_bytes, std::uint64_t line_bytes,
                       std::uint64_t num_banks);

}  // namespace pcal
