// The energy model: one per-unit pricing of every power-management
// granularity, under one of two named parameter sets.
//
// A *unit* is whatever the architecture gates independently: the whole
// cache, a bank, a (bank, way) column, or a line.  UnitEnergyModel
// prices one unit's leakage (active, drowsy, gated), its accesses and
// its sleep round trips from TechnologyParams, the cache geometry and an
// explicitly parameterized sleep network (EnergyParams):
//
//   - every independently power-managed unit pays for its sleep network:
//     a leakage overhead proportional to the unit's own leakage (sleep
//     transistors are sized to the current they must gate) plus a fixed
//     always-on control tax (breakeven counter, drive, level shifters)
//     that is what actually punishes fine granularity — 512 per-line
//     controllers cost more than 4 per-bank ones;
//   - sleep has two depths: drowsy (state-preserving retention voltage,
//     drowsy_leak_fraction of active leakage, cheap transitions) and
//     power-gated (gated_leak_fraction, full transition cost);
//   - transition energy scales with the unit's capacity plus a fixed
//     per-event control pulse, so gating a line is cheap per event but
//     never free.
//
// The parameter sets: EnergyParams::st45() carries those overheads;
// EnergyParams::paper(tech) drops them and gates at the technology's
// retention leakage, which is the paper's calibrated bank model (its
// Esav, Tables II-III, and Block Control's breakeven) bit for bit.
// Which set prices a run is SimConfig::paper_priced() (core/simulator.h).
//
// The baseline every report compares against is the same for both: the
// never-sleeping monolithic cache of the same total capacity, with no
// sleep network at all.  See docs/ENERGY_MODEL.md for the derivation
// and the defaults.
#pragma once

#include <cstdint>
#include <vector>

#include "core/managed_cache.h"
#include "power/tech_params.h"

namespace pcal {

/// Energy breakdown of one run (all in pJ).
struct EnergyBreakdown {
  double dynamic_pj = 0.0;      // unit accesses incl. decoder + wiring
  double leakage_active_pj = 0.0;
  /// Leakage spent in the deepest low-power state (power-gated; at the
  /// technology's retention leakage under the paper parameters).
  double leakage_retention_pj = 0.0;
  /// Leakage spent at the drowsy voltage (zero under the gated policy).
  double leakage_drowsy_pj = 0.0;
  double transition_pj = 0.0;

  double total_pj() const {
    return dynamic_pj + leakage_active_pj + leakage_retention_pj +
           leakage_drowsy_pj + transition_pj;
  }

  /// Component-wise accumulation (multi-level runs sum their levels).
  /// Keep in lockstep with total_pj() when adding fields.
  EnergyBreakdown& operator+=(const EnergyBreakdown& other) {
    dynamic_pj += other.dynamic_pj;
    leakage_active_pj += other.leakage_active_pj;
    leakage_retention_pj += other.leakage_retention_pj;
    leakage_drowsy_pj += other.leakage_drowsy_pj;
    transition_pj += other.transition_pj;
    return *this;
  }
};

struct EnergyReport {
  EnergyBreakdown partitioned;
  double baseline_pj = 0.0;  // monolithic, never sleeping
  /// Fractional saving vs the monolithic baseline (paper's Esav).
  double saving() const {
    return baseline_pj > 0.0 ? 1.0 - partitioned.total_pj() / baseline_pj
                             : 0.0;
  }

  /// Accumulates another level's report (components and baseline add).
  EnergyReport& operator+=(const EnergyReport& other) {
    partitioned += other.partitioned;
    baseline_pj += other.baseline_pj;
    return *this;
  }
};

/// Sleep-network and drowsy-state parameters of the per-unit model.
/// Leakage fractions are relative to the unit's active leakage.
struct EnergyParams {
  /// Leakage remaining at the drowsy (state-preserving) voltage.
  double drowsy_leak_fraction = 0.25;
  /// Leakage remaining through an off sleep transistor (state lost).
  double gated_leak_fraction = 0.02;
  /// Leakage overhead of the sleep devices themselves, as a fraction of
  /// the unit's active leakage (sleep transistors are sized to the unit's
  /// switched current, so this scales with the unit automatically).
  double sleep_area_leak_overhead = 0.06;
  /// Always-on control leakage per unit (breakeven counter + gate drive +
  /// level shifters), in microwatts.  Unit-count-proportional: the term
  /// that makes per-line management expensive.
  double control_leak_uw_per_unit = 1.2;
  /// Fixed control-pulse energy per gate transition (pJ), on top of the
  /// capacity-proportional part.
  double gate_transition_fixed_pj = 1.0;
  /// Drowsy round trip as a fraction of the full gate round trip of the
  /// same unit (a Vdd dip, not a power cut).
  double drowsy_transition_fraction = 0.12;
  /// Fixed part of one drowsy round trip (pJ).
  double drowsy_transition_fixed_pj = 0.25;
  /// Wakeup latencies of the sleep hardware.  These are the recommended
  /// values for the timing core's LatencyParams wake costs (see
  /// wake_latencies() below); the driver stalls the clock by them when a
  /// run opts into timing, and leakage is then priced against the
  /// stall-stretched wall clock.
  std::uint64_t drowsy_wake_cycles = 1;
  std::uint64_t gated_wake_cycles = 3;

  void validate() const;

  /// The 45nm-class defaults used throughout the reproduction.
  static EnergyParams st45() { return EnergyParams{}; }

  /// The paper's calibration: st45() with no sleep-network overhead (no
  /// area leakage, no control tax, no fixed gate pulse) and gated units
  /// leaking the technology's retention fraction.  Priced at bank
  /// granularity this is the paper's bank model.
  static EnergyParams paper(const TechnologyParams& tech);
};

/// Prices one power-management granularity of one cache level.
class UnitEnergyModel {
 public:
  /// `topology` fixes the geometry, granularity and unit count; `params`
  /// the sleep-network overheads; `tech` the base 45nm-class numbers.
  /// Throws ConfigError on an invalid cache, partition, parameter set or
  /// technology (need vdd > vdd_retention > 0, a retention leakage
  /// fraction in (0, 1) and a positive clock).
  UnitEnergyModel(const EnergyParams& params, const TechnologyParams& tech,
                  const CacheTopology& topology);

  const EnergyParams& params() const { return params_; }
  const CacheTopology& topology() const { return topology_; }
  double clock_ns() const { return tech_.clock_ns; }

  // ---- per-unit building blocks ----

  /// Data bytes of one power-management unit.
  std::uint64_t unit_bytes() const { return unit_bytes_; }

  /// Active leakage power of one unit (mW), including its share of the
  /// sleep network (area overhead + control tax).
  double unit_leak_mw() const { return leak_mw_; }

  /// Leakage power of one unit at the drowsy voltage (mW).  The control
  /// tax never sleeps.
  double unit_drowsy_mw() const { return drowsy_mw_; }

  /// Leakage power of one gated unit (mW).  Ditto.
  double unit_gated_mw() const { return gated_mw_; }

  /// Dynamic energy of one access through this organization (pJ): the
  /// unit's array, plus wiring and the decoder at bank/way granularity,
  /// plus the rotation decoder at line granularity.
  double access_energy_pj() const { return access_pj_; }

  /// One full power-gate round trip of one unit (pJ).
  double gate_transition_pj() const { return gate_pj_; }

  /// One drowsy round trip of one unit (pJ).
  double drowsy_transition_pj() const { return drowsy_pj_; }

  // ---- derived thresholds ----

  /// Idle cycles whose gated-state saving repays one gate round trip.
  std::uint64_t gate_breakeven_cycles() const;

  /// Idle cycles whose drowsy-state saving repays one drowsy round trip
  /// (always <= gate_breakeven_cycles with sane parameters).
  std::uint64_t drowsy_breakeven_cycles() const;

  /// Never-sleeping monolithic baseline of the same total capacity (pJ).
  double baseline_pj(std::uint64_t accesses, std::uint64_t cycles) const;

  /// One unit's energy over a run of `total_cycles` from its activity:
  /// the per-unit body price_unit_run sums.
  EnergyBreakdown price_unit(const UnitActivity& activity,
                             std::uint64_t total_cycles) const;

 private:
  EnergyParams params_;
  TechnologyParams tech_;
  CacheTopology topology_;
  std::uint64_t unit_bytes_ = 0;
  // The per-unit prices above, evaluated once at construction.
  double leak_mw_ = 0.0;
  double drowsy_mw_ = 0.0;
  double gated_mw_ = 0.0;
  double access_pj_ = 0.0;
  double gate_pj_ = 0.0;
  double drowsy_pj_ = 0.0;
};

/// Prices a run at any granularity from the per-unit activity vector
/// (drowsy split included — pure-gated backends report drowsy_cycles = 0
/// and gated_episodes = sleep_episodes, so one formula covers both).
/// `activity.size()` must equal the topology's unit count.
///
/// Stall-aware: `total_cycles` is the timing core's stretched wall clock
/// (accesses + stall cycles), so wakeup and miss stalls are priced as
/// real time — active or sleeping leakage for every unit — on both the
/// managed side and the never-sleeping monolithic baseline, which lives
/// on the same clock.
EnergyReport price_unit_run(const UnitEnergyModel& model,
                            const std::vector<UnitActivity>& activity,
                            std::uint64_t total_cycles);

/// The timing-core wake costs this energy model recommends: a
/// LatencyParams with the drowsy/gated wakeup latencies filled in and
/// hit/miss costs left at zero (those are a cache-geometry property, not
/// a sleep-hardware one).
LatencyParams wake_latencies(const EnergyParams& params);

}  // namespace pcal
