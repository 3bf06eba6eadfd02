#include "power/unit_energy.h"

#include <cmath>

#include "util/error.h"

namespace pcal {
namespace {

// ---- base quantities: TechnologyParams + geometry ----

/// Tag bytes associated with `data_bytes` of data at the cache's line
/// size and tag width.
double tag_bytes(const CacheConfig& cache, std::uint64_t data_bytes) {
  const double lines =
      static_cast<double>(data_bytes) / static_cast<double>(cache.line_bytes);
  return lines * static_cast<double>(cache.tag_bits()) / 8.0;
}

/// Active leakage power (mW) of an array of `bytes` capacity, including
/// its tag bits: superlinear in capacity.
double array_leak_mw(const TechnologyParams& tech, const CacheConfig& cache,
                     std::uint64_t bytes) {
  const double kb =
      (static_cast<double>(bytes) + tag_bytes(cache, bytes)) / 1024.0;
  return tech.leak_mw_per_kb * kb *
         std::pow(kb / tech.leak_ref_kb, tech.leak_size_exponent);
}

/// Dynamic energy (pJ) of one access to an array of `bytes` capacity
/// with the cache's line width (data + tag read).
double array_access_pj(const TechnologyParams& tech, const CacheConfig& cache,
                       std::uint64_t bytes) {
  const double kb = static_cast<double>(bytes) / 1024.0;
  return tech.dyn_base_pj + tech.dyn_sqrt_pj * std::sqrt(kb) +
         tech.dyn_line_pj_per_byte * static_cast<double>(cache.line_bytes);
}

/// Dynamic energy (pJ) of one access to one bank through an M-bank
/// partition: the bank array, the wiring overhead for M banks, and the
/// decoder D.
double banked_access_pj(const TechnologyParams& tech,
                        const CacheConfig& cache,
                        const PartitionConfig& partition) {
  const double wiring =
      1.0 + tech.wiring_dyn_per_bank *
                static_cast<double>(partition.num_banks - 1);
  return array_access_pj(tech, cache, partition.bank_bytes(cache)) * wiring +
         tech.decoder_pj;
}

std::uint64_t unit_bytes_of(const CacheTopology& topology) {
  const CacheConfig& c = topology.cache;
  switch (topology.granularity) {
    case Granularity::kMonolithic: return c.size_bytes;
    case Granularity::kBank:
      return c.size_bytes / topology.partition.num_banks;
    case Granularity::kWay:
      return c.size_bytes / (topology.partition.num_banks * c.ways);
    case Granularity::kLine: return c.line_bytes;
  }
  return c.size_bytes;
}

/// Idle cycles whose leakage saving (mW == pJ/ns) repays `transition_pj`.
std::uint64_t breakeven_for(double saved_mw, double transition_pj,
                            double clock_ns) {
  PCAL_ASSERT(saved_mw > 0.0);
  const double pj_per_cycle = saved_mw * clock_ns;
  return static_cast<std::uint64_t>(std::ceil(transition_pj / pj_per_cycle));
}

}  // namespace

void EnergyParams::validate() const {
  PCAL_CONFIG_CHECK(gated_leak_fraction > 0.0 &&
                        gated_leak_fraction < drowsy_leak_fraction &&
                        drowsy_leak_fraction < 1.0,
                    "need 0 < gated < drowsy < 1 leakage fractions");
  PCAL_CONFIG_CHECK(sleep_area_leak_overhead >= 0.0 &&
                        control_leak_uw_per_unit >= 0.0,
                    "sleep-network overheads must be non-negative");
  PCAL_CONFIG_CHECK(drowsy_transition_fraction > 0.0 &&
                        drowsy_transition_fraction < 1.0,
                    "drowsy transition fraction must be in (0,1)");
  PCAL_CONFIG_CHECK(gate_transition_fixed_pj >= 0.0 &&
                        drowsy_transition_fixed_pj >= 0.0,
                    "fixed transition costs must be non-negative");
}

EnergyParams EnergyParams::paper(const TechnologyParams& tech) {
  EnergyParams p = st45();
  p.sleep_area_leak_overhead = 0.0;
  p.control_leak_uw_per_unit = 0.0;
  p.gate_transition_fixed_pj = 0.0;
  p.gated_leak_fraction = tech.retention_leak_fraction;
  return p;
}

UnitEnergyModel::UnitEnergyModel(const EnergyParams& params,
                                 const TechnologyParams& tech,
                                 const CacheTopology& topology)
    : params_(params), tech_(tech), topology_(topology) {
  const CacheConfig& cache = topology_.cache;
  cache.validate();
  // Monolithic and per-line organizations have no bank partition.
  if (topology_.granularity == Granularity::kBank ||
      topology_.granularity == Granularity::kWay)
    topology_.partition.validate(cache);
  PCAL_CONFIG_CHECK(tech_.vdd > tech_.vdd_retention &&
                        tech_.vdd_retention > 0.0,
                    "need vdd > vdd_retention > 0");
  PCAL_CONFIG_CHECK(tech_.retention_leak_fraction > 0.0 &&
                        tech_.retention_leak_fraction < 1.0,
                    "retention leakage fraction must be in (0,1)");
  PCAL_CONFIG_CHECK(tech_.clock_ns > 0.0, "clock period must be positive");
  params_.validate();
  unit_bytes_ = unit_bytes_of(topology_);
  PCAL_CONFIG_CHECK(unit_bytes_ > 0, "empty power-management unit");

  const double leak = array_leak_mw(tech_, cache, unit_bytes_);
  const double control_mw = params_.control_leak_uw_per_unit * 1e-3;
  leak_mw_ = leak * (1.0 + params_.sleep_area_leak_overhead) + control_mw;
  drowsy_mw_ = leak * params_.drowsy_leak_fraction + control_mw;
  gated_mw_ = leak * params_.gated_leak_fraction + control_mw;

  const double monolithic_pj =
      array_access_pj(tech_, cache, cache.size_bytes);
  switch (topology_.granularity) {
    case Granularity::kMonolithic:
      access_pj_ = monolithic_pj;
      break;
    case Granularity::kBank:
    case Granularity::kWay:
      access_pj_ = banked_access_pj(tech_, cache, topology_.partition);
      break;
    case Granularity::kLine:
      // One flat array plus the full-index rotation decoder of [7].
      access_pj_ = monolithic_pj + tech_.decoder_pj;
      break;
  }

  // Data-array part per kbyte of unit, plus the tag-array part that
  // scales with (tag bits per line) x (line bytes).
  const double unit_kb = static_cast<double>(unit_bytes_) / 1024.0;
  const double tag_component =
      tech_.transition_tag_pj_per_bit_byte *
      static_cast<double>(cache.tag_bits()) *
      static_cast<double>(cache.line_bytes);
  gate_pj_ = tech_.transition_pj_per_kb * unit_kb + tag_component +
             params_.gate_transition_fixed_pj;
  drowsy_pj_ = params_.drowsy_transition_fraction *
                   (gate_pj_ - params_.gate_transition_fixed_pj) +
               params_.drowsy_transition_fixed_pj;
}

std::uint64_t UnitEnergyModel::gate_breakeven_cycles() const {
  return breakeven_for(leak_mw_ - gated_mw_, gate_pj_, tech_.clock_ns);
}

std::uint64_t UnitEnergyModel::drowsy_breakeven_cycles() const {
  return breakeven_for(leak_mw_ - drowsy_mw_, drowsy_pj_, tech_.clock_ns);
}

double UnitEnergyModel::baseline_pj(std::uint64_t accesses,
                                    std::uint64_t cycles) const {
  const CacheConfig& cache = topology_.cache;
  const double t_ns = static_cast<double>(cycles) * tech_.clock_ns;
  return static_cast<double>(accesses) *
             array_access_pj(tech_, cache, cache.size_bytes) +
         array_leak_mw(tech_, cache, cache.size_bytes) * t_ns;
}

EnergyBreakdown UnitEnergyModel::price_unit(const UnitActivity& a,
                                            std::uint64_t total_cycles) const {
  PCAL_ASSERT_MSG(a.sleep_cycles <= total_cycles,
                  "unit sleeps longer than the run");
  PCAL_ASSERT_MSG(a.drowsy_cycles <= a.sleep_cycles,
                  "drowsy cycles exceed sleep cycles");
  PCAL_ASSERT_MSG(a.gated_episodes <= a.sleep_episodes,
                  "gated episodes exceed sleep episodes");
  const double clock_ns = tech_.clock_ns;
  const double t_ns = static_cast<double>(total_cycles) * clock_ns;
  const double sleep_ns = static_cast<double>(a.sleep_cycles) * clock_ns;
  const double drowsy_ns = static_cast<double>(a.drowsy_cycles) * clock_ns;
  const double gated_ns = sleep_ns - drowsy_ns;
  EnergyBreakdown e;
  e.dynamic_pj = static_cast<double>(a.accesses) * access_pj_;
  e.leakage_active_pj = leak_mw_ * (t_ns - sleep_ns);
  e.leakage_drowsy_pj = drowsy_mw_ * drowsy_ns;
  e.leakage_retention_pj = gated_mw_ * gated_ns;
  // Drowsy-only episodes pay the shallow round trip; episodes that
  // deepen into gating pay the full one (the drowsy pass-through is
  // absorbed into the gate cost).
  e.transition_pj =
      static_cast<double>(a.sleep_episodes - a.gated_episodes) * drowsy_pj_ +
      static_cast<double>(a.gated_episodes) * gate_pj_;
  return e;
}

LatencyParams wake_latencies(const EnergyParams& params) {
  LatencyParams latency;
  latency.drowsy_wake_cycles = params.drowsy_wake_cycles;
  latency.gated_wake_cycles = params.gated_wake_cycles;
  return latency;
}

EnergyReport price_unit_run(const UnitEnergyModel& model,
                            const std::vector<UnitActivity>& activity,
                            std::uint64_t total_cycles) {
  PCAL_ASSERT_MSG(activity.size() == model.topology().num_units(),
                  "activity size " << activity.size() << " != units "
                                   << model.topology().num_units());
  EnergyReport report;
  std::uint64_t total_accesses = 0;
  for (const UnitActivity& a : activity) {
    total_accesses += a.accesses;
    report.partitioned += model.price_unit(a, total_cycles);
  }
  report.baseline_pj = model.baseline_pj(total_accesses, total_cycles);
  return report;
}

}  // namespace pcal
