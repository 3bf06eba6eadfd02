// The trace-driven power-managed-cache simulator: the single-stream
// front end of the run engine.
//
// Drives a TraceSource through a ManagedCache at any granularity
// (monolithic, banked, line-grain, way-grain — selected by
// SimConfig::granularity and built via make_managed_cache) under either
// power policy (gated or the drowsy hybrid), optionally stacked over
// further levels with per-level inclusion policies, firing re-indexing
// updates on a configurable cadence (the paper piggybacks them on cache
// flushes that happen anyway; here the cadence is the number of updates
// spread evenly over the run).  Produces the complete set of per-run observables the
// paper's evaluation reports: per-unit useful idleness, energy saving vs
// a monolithic baseline, and — given an aging LUT — the cache lifetime.
//
// Simulator::run owns no loop of its own: it runs the 1-core system of
// one_core_system() (core/multicore.h) — L1..L(n-1) private, the last
// level as that core's "LLC" — and returns the engine's system result.
//
// Timing: the engine runs on the latency-aware clock of core/timing.h.
// Every access consumes one base cycle plus the stall its outcome
// reports (per-level hit latency, miss penalty, wakeup cost); stalls
// advance the global clock with no access consumed, so SimResult carries
// total_cycles, stall_cycles and the average access latency, and
// leakage is priced against the stretched wall clock.  All-zero
// latencies — the default — reproduce the idealized one-access-per-cycle
// engine bit for bit.
//
// Energy pricing: the engine prices every level once, with the
// per-unit model of power/unit_energy.h.  Which parameters it uses is
// resolved before the run (level_energy_models, core/multicore.h):
// a SimConfig::paper_priced() run — single level, gated, monolithic or
// bank — has its L1 priced by paper_energy_model(), the paper's bank
// calibration; every other level (line, way, drowsy hybrid,
// hierarchies, force_unit_pricing) by SimConfig::energy_params, so
// SimResult::energy is nonzero at every granularity (see
// docs/ENERGY_MODEL.md).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "aging/lifetime.h"
#include "core/hierarchy.h"
#include "core/managed_cache.h"
#include "core/timing.h"
#include "power/unit_energy.h"
#include "trace/trace.h"

namespace pcal {

struct SimConfig {
  /// Which architecture to drive.  kMonolithic ignores `partition`;
  /// kLine manages every cache line independently; kWay manages every
  /// (bank, way) column.
  Granularity granularity = Granularity::kBank;

  CacheConfig cache;
  PartitionConfig partition;
  IndexingKind indexing = IndexingKind::kProbing;
  std::uint64_t indexing_seed = 1;
  TechnologyParams tech = TechnologyParams::st45();
  /// Sleep-network / drowsy-state parameters of the per-unit energy
  /// model (unused by a paper_priced() run's L1).
  EnergyParams energy_params = EnergyParams::st45();

  /// What the low-power state is: straight power gating (the paper) or
  /// the drowsy-then-gate hybrid.
  PowerPolicy policy = PowerPolicy::kGated;
  /// kDrowsyHybrid: extra idle cycles at the drowsy voltage before the
  /// unit power-gates.  0 disables the window — the run is then the
  /// gated backend bit for bit, energy included.
  std::uint64_t drowsy_window_cycles = 0;

  /// Levels below L1, in order (L2 first, then L3, ...).  Each level is
  /// a full CacheTopology plus the InclusionPolicy that selects which
  /// stream of its upper neighbour it consumes (core/hierarchy.h).
  /// Zero-size levels are dropped (a disabled level is absent, the
  /// degeneracy the hierarchy tests pin); an empty or all-disabled list
  /// means a single-level run, bit for bit.
  std::vector<LevelConfig> lower_levels;

  /// L1 event costs in stall cycles (core/timing.h); lower levels carry
  /// theirs in their own topology.  All-zero keeps the idealized clock.
  LatencyParams latency;

  /// L1 finite-resource limits (core/contention.h); lower levels carry
  /// theirs in their own topology.  The all-unlimited default keeps
  /// contention off — the run is bit-identical to a config without it.
  ContentionParams contention;

  /// Number of re-indexing updates fired over the run, spread evenly.
  /// The paper's uniformity argument needs at least M updates for Probing;
  /// 16 is a multiple of every M we sweep (2/4/8/16).  Ignored (no
  /// updates) when indexing == kStatic and for a monolithic cache.
  std::uint64_t reindex_updates = 16;

  /// Override the model-derived breakeven time (0 = use the energy model).
  std::uint64_t breakeven_override = 0;

  /// Price this run with energy_params even where the paper parameters
  /// would apply (see paper_priced()).  Off by default — the
  /// paper-table reproductions are calibrated against the paper model —
  /// but cross-backend comparisons should set it so every column pays
  /// the same sleep-network overheads and leakage fractions
  /// (bench/drowsy_comparison.cc does).
  bool force_unit_pricing = false;

  /// Baseline / diagnostic knob: drive the run through the per-access
  /// loop even where the batched path applies.  Only single-level runs
  /// without contention take the batched path; hierarchies and runs
  /// with contention enabled always route one access at a time.
  /// Results are bit-identical either way (batched_access_test pins
  /// it); pcalbench's traced driver reads it to classify a job's path.
  bool force_scalar_loop = false;

  /// The lower levels that are actually enabled (non-zero-sized).
  std::vector<LevelConfig> enabled_lower_levels() const;

  /// Starting point for one more level behind the current stack: a
  /// bank-granularity level of `size_bytes` inheriting this config's
  /// line size and associativity, static indexing, and — the invariant
  /// every front-end must share — an indexing seed offset by the
  /// level's depth so stacked levels never rotate in phase.  Callers
  /// override the remaining knobs before appending to lower_levels.
  LevelConfig make_level(std::uint64_t size_bytes) const;

  bool hierarchy_enabled() const {
    for (const LevelConfig& level : lower_levels)
      if (level.enabled()) return true;
    return false;
  }

  void validate() const;

  /// The L1 CacheTopology this config describes, with the given breakeven.
  CacheTopology topology(std::uint64_t breakeven_cycles) const;

  /// True iff the L1 is priced by paper_energy_model(): a single level,
  /// the gated policy (or a drowsy window of 0, which is the gated
  /// policy), monolithic or bank granularity, and no force_unit_pricing.
  /// Every other level and run is priced with energy_params.
  bool paper_priced() const;

  /// The paper's bank model of this config's L1: EnergyParams::paper(tech)
  /// over the L1's bank partition.  A monolithic cache is priced as one
  /// bank, so each access pays the decoder.  Meaningful at monolithic
  /// and bank granularity, where it also derives the breakeven.
  UnitEnergyModel paper_energy_model() const;
};

/// Per-unit observables of one run (a unit is a bank, a line, a way
/// column, or the whole cache, per SimConfig::granularity; hierarchy runs
/// list L1's units first, then each lower level's in order).
struct UnitResult {
  std::uint64_t accesses = 0;
  std::uint64_t sleep_cycles = 0;
  double sleep_residency = 0.0;        // time-weighted useful idleness
  double useful_idleness_count = 0.0;  // interval-count variant
  std::uint64_t sleep_episodes = 0;
  /// Drowsy split (zero under the pure gated policy): cycles of sleep at
  /// the state-preserving voltage, and episodes that deepened to gating.
  std::uint64_t drowsy_cycles = 0;
  std::uint64_t gated_episodes = 0;
  double lifetime_years = 0.0;         // 0 if no LUT was supplied
};

struct SimResult {
  std::string workload;
  std::string config_label;
  Granularity granularity = Granularity::kBank;
  PowerPolicy policy = PowerPolicy::kGated;
  /// Accesses consumed from the trace.
  std::uint64_t accesses = 0;
  /// Simulated cycles: one per access plus every stall the timing model
  /// charged (== accesses under the default zero latencies).
  std::uint64_t total_cycles = 0;
  /// Cycles the run stalled beyond the access stream (wakeups, hit
  /// latencies, miss penalties — see core/timing.h — plus the
  /// contention breakdown below).
  std::uint64_t stall_cycles = 0;
  /// Finite-resource stall breakdown (core/contention.h): cycles spent
  /// waiting for a free MSHR, an access port, and inter-level fill
  /// bandwidth.  All zero when contention is off; always a subset of
  /// stall_cycles (latency stalls make up the rest).
  std::uint64_t mshr_stall_cycles = 0;
  std::uint64_t port_stall_cycles = 0;
  std::uint64_t bw_stall_cycles = 0;
  std::uint64_t breakeven_cycles = 0;
  std::uint64_t reindex_updates_applied = 0;

  CacheStats cache_stats;
  std::vector<UnitResult> units;  // one per power-management unit
  /// Per-level tag-store statistics, level 0 (== cache_stats) first;
  /// size 1 for single-level runs.
  std::vector<CacheStats> level_stats;
  /// Per-level unit counts: `units` holds level 0's units first, then
  /// each level below in order; level_units[i] entries belong to level i.
  std::vector<std::uint64_t> level_units;
  /// Nonzero at every granularity: the paper parameters for a
  /// paper_priced() run, energy_params for everything else (hierarchies
  /// price each level with its own unit model and sum).
  EnergyReport energy;

  std::optional<CacheLifetimeResult> lifetime;

  // ---- aggregates the paper tables use ----
  double avg_residency() const;
  double min_residency() const;
  /// Total drowsy share of the run (fraction of unit-cycles).
  double drowsy_residency() const;
  double lifetime_years() const {
    return lifetime ? lifetime->lifetime_years : 0.0;
  }
  double energy_saving() const { return energy.saving(); }
  /// Mean cycles per access (>= 1; the paper's idealized clock is 1.0).
  double avg_access_latency() const {
    return accesses > 0 ? static_cast<double>(total_cycles) /
                              static_cast<double>(accesses)
                        : 0.0;
  }
  /// Number of leading entries of `units` that belong to L1.
  std::uint64_t l1_units() const {
    return level_units.empty() ? units.size() : level_units.front();
  }
  std::size_t num_levels() const { return level_stats.size(); }
};

/// Power-state census of one contiguous run of units at a snapshot
/// boundary: which (core, level) the units belong to, where they sit in
/// the engine's concatenated unit vector, and how many are awake /
/// drowsy / gated right now.  A single-core run reports one group per
/// hierarchy level with core == -1; a multi-core run reports every
/// private level of every core plus the shared LLC (core == -1).
struct UnitGroupStates {
  int core = -1;               // owning core; -1 = single-run / shared LLC
  std::uint64_t level = 0;     // hierarchy depth (0 faces the CPU)
  std::uint64_t first_unit = 0;  // index of the group's first unit
  std::uint64_t units = 0;
  std::uint64_t awake = 0;
  std::uint64_t drowsy = 0;
  std::uint64_t gated = 0;
  /// The group's tag-store statistics (cumulative at snapshot time).
  CacheStats stats;
};

/// Streaming view of a run in flight, handed to the interval observer at
/// every update boundary and once more after the run finishes: the
/// clock, the CPU-facing tag-store statistics and the per-group census.
struct IntervalSnapshot {
  std::uint64_t interval = 0;  // 1-based boundary index; 0 on the final call
  std::uint64_t cycles = 0;
  std::uint64_t updates_applied = 0;
  bool fired_update = false;
  bool final_snapshot = false;
  /// True when this boundary coincides with a context switch of a
  /// multiprogrammed source (the boundary's access position is a
  /// multiple of the source's boundary_hint()).  Always false for
  /// sources without a natural boundary.
  bool context_switch = false;
  /// Cumulative accesses consumed and stall cycles charged so far.
  std::uint64_t accesses = 0;
  std::uint64_t stall_cycles = 0;
  /// Core 0's CPU-facing level (the single-stream run's L1).
  const CacheStats* stats = nullptr;
  /// Per-(core, level) power-state census, in unit-vector order, and the
  /// flat per-unit states it was counted from.  Both point at buffers
  /// the engine reuses between boundaries: valid only for the duration
  /// of the observer call — copy what you keep.
  const std::vector<UnitGroupStates>* groups = nullptr;
  const std::vector<UnitPowerState>* unit_states = nullptr;
};

using IntervalObserver = std::function<void(const IntervalSnapshot&)>;

class SystemRun;  // core/multicore.h

class Simulator {
 public:
  explicit Simulator(SimConfig config);

  /// Runs the whole source (until exhaustion).  If `lut` is non-null the
  /// result includes per-unit and cache lifetimes.  If `observer` is
  /// non-null it is called at every re-indexing boundary (for static runs:
  /// at a default cadence of 16 intervals when the source's size is known)
  /// and once after the run completes.
  SimResult run(TraceSource& source, const AgingLut* lut = nullptr,
                const IntervalObserver& observer = {}) const;

  /// run() in three steps, for lockstep runs over one shared stream:
  /// start() one run per simulator on the same `source`, feed them all
  /// with SystemRun::drive(), then finish() each with the simulator that
  /// started it.  Every result is bit-identical to that simulator's
  /// run().  Arguments are borrowed as by run() and must outlive
  /// finish().
  SystemRun start(TraceSource& source, const AgingLut* lut = nullptr,
                  const IntervalObserver& observer = {}) const;
  SimResult finish(SystemRun& run) const;

  const SimConfig& config() const { return config_; }

  /// The breakeven time the run will use: the override if set, else
  /// the gate breakeven of the L1's energy model — paper_energy_model()
  /// at mono/bank granularity however the run is priced, the per-unit
  /// model under energy_params at way/line granularity.
  std::uint64_t breakeven_cycles() const;

 private:
  SimConfig config_;
};

/// Convenience: the monolithic (unmanaged, static indexing) variant of
/// `config`, the paper's lifetime reference point.
SimConfig monolithic_variant(const SimConfig& config);

/// Convenience: same partitioning but no re-indexing (the conventional
/// power-managed cache, the paper's LT0 column).
SimConfig static_variant(const SimConfig& config);

/// Convenience: the per-line upper bound (reference [7]) of `config`.
SimConfig line_grain_variant(const SimConfig& config);

/// Convenience: per-way management over the same banks (units = M x W).
SimConfig way_grain_variant(const SimConfig& config);

/// Convenience: the drowsy/gated hybrid of `config` — drowsy at the
/// breakeven, power-gated `window_cycles` later.
SimConfig drowsy_hybrid_variant(const SimConfig& config,
                                std::uint64_t window_cycles);

/// Convenience: `config` with an L2 of `l2_size_bytes` behind it (same
/// line size, bank granularity with `l2_banks` banks, same indexing,
/// breakeven `l2_breakeven`, non-inclusive — the legacy two-level
/// semantics, preserved bit for bit by the N-level hierarchy).
SimConfig two_level_variant(const SimConfig& config,
                            std::uint64_t l2_size_bytes,
                            std::uint64_t l2_banks = 4,
                            std::uint64_t l2_breakeven = 64);

/// Convenience: appends one more level behind `config`'s current stack
/// (same line size/ways as L1, bank granularity with `banks` banks, the
/// indexing seed offset by the level's depth) and returns the new config.
SimConfig with_lower_level(
    const SimConfig& config, std::uint64_t size_bytes,
    std::uint64_t banks = 4, std::uint64_t breakeven = 64,
    InclusionPolicy inclusion = InclusionPolicy::kNonInclusive);

}  // namespace pcal
