#include "core/simulator.h"

#include <algorithm>

#include "core/multicore.h"

namespace pcal {
namespace {

/// The L1 topology's partition.  A monolithic cache is one bank of the
/// full size regardless of what `partition` says (it is ignored at that
/// granularity).
PartitionConfig effective_partition(const SimConfig& config) {
  if (config.granularity == Granularity::kMonolithic) {
    PartitionConfig mono;
    mono.num_banks = 1;
    return mono;
  }
  return config.partition;
}

}  // namespace

std::vector<LevelConfig> SimConfig::enabled_lower_levels() const {
  std::vector<LevelConfig> enabled;
  for (const LevelConfig& level : lower_levels)
    if (level.enabled()) enabled.push_back(level);
  return enabled;
}

LevelConfig SimConfig::make_level(std::uint64_t size_bytes) const {
  LevelConfig level;
  CacheTopology& topo = level.topology;
  topo.granularity = Granularity::kBank;
  topo.cache = cache;
  topo.cache.size_bytes = size_bytes;
  topo.partition.num_banks = 4;
  topo.indexing = IndexingKind::kStatic;
  // Depth-offset seed: stacked levels must never share rotation phase.
  topo.indexing_seed = indexing_seed + lower_levels.size() + 1;
  topo.breakeven_cycles = 64;
  return level;
}

void SimConfig::validate() const {
  // The L1's topology checks the geometry, f()'s seed, the latencies and
  // the contention limits, and the partition at kBank/kWay only:
  // monolithic and line-grain runs never consult it (the per-unit energy
  // model that derives the kLine breakeven substitutes M = 1).  The
  // breakeven is resolved later; any positive value stands in for it.
  topology(/*breakeven_cycles=*/1).validate();
  energy_params.validate();
  for (const LevelConfig& level : lower_levels)
    if (level.enabled()) level.topology.validate();
}

CacheTopology SimConfig::topology(std::uint64_t breakeven_cycles) const {
  CacheTopology topo;
  topo.granularity = granularity;
  topo.cache = cache;
  topo.partition = effective_partition(*this);
  topo.indexing = indexing;
  topo.indexing_seed = indexing_seed;
  topo.breakeven_cycles = breakeven_cycles;
  topo.policy = policy;
  topo.drowsy_window_cycles = drowsy_window_cycles;
  topo.latency = latency;
  topo.contention = contention;
  return topo;
}

bool SimConfig::paper_priced() const {
  return !force_unit_pricing && !hierarchy_enabled() &&
         !(policy == PowerPolicy::kDrowsyHybrid &&
           drowsy_window_cycles > 0) &&
         (granularity == Granularity::kMonolithic ||
          granularity == Granularity::kBank);
}

UnitEnergyModel SimConfig::paper_energy_model() const {
  CacheTopology topo = topology(/*breakeven_cycles=*/1);
  // The paper prices a cache as its bank partition, a monolithic one
  // as a single bank (topology() already gives it M = 1).
  topo.granularity = Granularity::kBank;
  return UnitEnergyModel(EnergyParams::paper(tech), tech, topo);
}

double SimResult::avg_residency() const {
  if (units.empty()) return 0.0;
  double sum = 0.0;
  for (const auto& u : units) sum += u.sleep_residency;
  return sum / static_cast<double>(units.size());
}

double SimResult::min_residency() const {
  if (units.empty()) return 0.0;
  double lo = units.front().sleep_residency;
  for (const auto& u : units) lo = std::min(lo, u.sleep_residency);
  return lo;
}

double SimResult::drowsy_residency() const {
  if (units.empty() || total_cycles == 0) return 0.0;
  double drowsy = 0.0;
  for (const auto& u : units)
    drowsy += static_cast<double>(u.drowsy_cycles);
  return drowsy / (static_cast<double>(total_cycles) *
                   static_cast<double>(units.size()));
}

Simulator::Simulator(SimConfig config) : config_(std::move(config)) {
  config_.validate();
}

std::uint64_t Simulator::breakeven_cycles() const {
  if (config_.breakeven_override != 0) return config_.breakeven_override;
  // Bank-grain sleep hardware keeps the paper's breakeven; per-way and
  // per-line units take the per-unit model's, sleep-network overheads
  // included.
  const bool bank_grain = config_.granularity == Granularity::kMonolithic ||
                          config_.granularity == Granularity::kBank;
  const UnitEnergyModel model =
      bank_grain ? config_.paper_energy_model()
                 : UnitEnergyModel(config_.energy_params, config_.tech,
                                   config_.topology(/*breakeven=*/1));
  return std::max<std::uint64_t>(1, model.gate_breakeven_cycles());
}

SimResult Simulator::run(TraceSource& source, const AgingLut* lut,
                         const IntervalObserver& observer) const {
  SystemRun run = start(source, lut, observer);
  SystemRun::drive({&run});
  return finish(run);
}

SystemRun Simulator::start(TraceSource& source, const AgingLut* lut,
                           const IntervalObserver& observer) const {
  // The single stream is the 1-core system of the run engine.
  return MultiCoreSystem(one_core_system(config_))
      .start({&source}, lut, observer, config_.force_scalar_loop,
             level_energy_models(config_));
}

SimResult Simulator::finish(SystemRun& run) const {
  return run.finish().system;
}

SimConfig monolithic_variant(const SimConfig& config) {
  SimConfig mono = config;
  mono.granularity = Granularity::kMonolithic;
  mono.partition.num_banks = 1;
  mono.indexing = IndexingKind::kStatic;
  mono.reindex_updates = 0;
  return mono;
}

SimConfig static_variant(const SimConfig& config) {
  SimConfig st = config;
  st.indexing = IndexingKind::kStatic;
  st.reindex_updates = 0;
  return st;
}

SimConfig line_grain_variant(const SimConfig& config) {
  SimConfig line = config;
  line.granularity = Granularity::kLine;
  // Per-line transition energy is tiny, so the breakeven is a property of
  // the line-level sleep hardware, not of the bank energy model; 28 is the
  // reference [7] operating point.
  if (line.breakeven_override == 0) line.breakeven_override = 28;
  return line;
}

SimConfig way_grain_variant(const SimConfig& config) {
  SimConfig way = config;
  way.granularity = Granularity::kWay;
  return way;
}

SimConfig drowsy_hybrid_variant(const SimConfig& config,
                                std::uint64_t window_cycles) {
  SimConfig drowsy = config;
  drowsy.policy = PowerPolicy::kDrowsyHybrid;
  drowsy.drowsy_window_cycles = window_cycles;
  return drowsy;
}

SimConfig two_level_variant(const SimConfig& config,
                            std::uint64_t l2_size_bytes,
                            std::uint64_t l2_banks,
                            std::uint64_t l2_breakeven) {
  SimConfig two = config;
  two.lower_levels.clear();
  return with_lower_level(two, l2_size_bytes, l2_banks, l2_breakeven,
                          InclusionPolicy::kNonInclusive);
}

SimConfig with_lower_level(const SimConfig& config,
                           std::uint64_t size_bytes, std::uint64_t banks,
                           std::uint64_t breakeven,
                           InclusionPolicy inclusion) {
  SimConfig out = config;
  LevelConfig level = config.make_level(size_bytes);
  level.inclusion = inclusion;
  level.topology.partition.num_banks = banks;
  level.topology.indexing = config.indexing;
  level.topology.breakeven_cycles = breakeven;
  out.lower_levels.push_back(level);
  return out;
}

}  // namespace pcal
