#include "core/run_assembly.h"

#include <stdexcept>
#include <type_traits>

#include "util/error.h"
#include "util/string_util.h"

namespace pcal {

namespace {

constexpr std::size_t kNumKeys = std::size(kConfigKeys);

/// kConfigKeys' row of `name`; kNumKeys when there is none.
constexpr std::size_t find_row(std::string_view name) {
  for (std::size_t i = 0; i < kNumKeys; ++i)
    if (name == kConfigKeys[i].name) return i;
  return kNumKeys;
}

/// As find_row, but a missing key is a compile-time error when evaluated
/// as a constant (ROW below).
constexpr std::size_t row_of(std::string_view name) {
  const std::size_t row = find_row(name);
  return row < kNumKeys ? row : throw std::logic_error("no such config key");
}

// The row of a key spelled out in this file, fixed at compile time.
#define ROW(name) std::integral_constant<std::size_t, row_of(name)>::value

// The L3 block repeats the L2 block's suffixes in the same order, so the
// L3 twin of an l2_* row sits kL3Shift rows further on.
constexpr std::size_t kL3Shift = ROW("l3_size") - ROW("l2_size");
constexpr bool l3_mirrors_l2() {
  for (std::size_t i = ROW("l2_size"); i < ROW("l3_size"); ++i) {
    const std::string_view l2 = kConfigKeys[i].name;
    const std::string_view l3 = kConfigKeys[i + kL3Shift].name;
    if (l2.substr(0, 3) != "l2_" || l3.substr(0, 3) != "l3_" ||
        l2.substr(3) != l3.substr(3))
      return false;
  }
  return true;
}
static_assert(l3_mirrors_l2(), "kConfigKeys: L3 rows must mirror L2 rows");

/// Each inheriting row's parent row, resolved once at compile time.
constexpr std::array<std::size_t, kNumKeys> kParent = [] {
  std::array<std::size_t, kNumKeys> parent{};
  for (std::size_t i = 0; i < kNumKeys; ++i)
    parent[i] = kConfigKeys[i].inherits ? row_of(kConfigKeys[i].inherits)
                                        : kNumKeys;
  return parent;
}();

}  // namespace

void check_level_size(std::uint64_t bytes) {
  if (bytes != 0) CacheConfig::check_size(bytes);
}

void check_positive(std::uint64_t n) {
  PCAL_CONFIG_CHECK(n > 0, "must be positive");
}

int core_workload_index(std::string_view key) {
  constexpr std::string_view kPrefix = "core", kSuffix = "_workload";
  if (key.size() <= kPrefix.size() + kSuffix.size() ||
      key.substr(0, kPrefix.size()) != kPrefix ||
      key.substr(key.size() - kSuffix.size()) != kSuffix)
    return -1;
  const std::string_view digits = key.substr(
      kPrefix.size(), key.size() - kPrefix.size() - kSuffix.size());
  if (digits.size() > 6) return -1;
  int core = 0;
  for (const char c : digits) {
    if (c < '0' || c > '9') return -1;
    core = core * 10 + (c - '0');
  }
  return core;
}

const ConfigKey* find_config_key(std::string_view key) {
  if (core_workload_index(key) >= 0)
    return &kConfigKeys[ROW("core<k>_workload")];
  const std::size_t row = find_row(key);
  // The family row's own name is a pattern, not a key.
  return row < kNumKeys && row != ROW("core<k>_workload") ? &kConfigKeys[row]
                                                          : nullptr;
}

void RunAssembly::set(const std::string& key, const std::string& value) {
  set(key, value, "key '" + key + "'");
}

void RunAssembly::set(const std::string& key, const std::string& value,
                      const std::string& where) {
  const ConfigKey* row = find_config_key(key);
  if (row == nullptr) throw ConfigError("unknown config key '" + key + "'");
  Value v;
  switch (row->type) {
    case KeyType::kCount:
      v.count = parse_config_number(value, where);
      if (row->check) {
        try {
          row->check(v.count);
        } catch (const ConfigError& e) {
          throw ConfigError(where + ": " + e.what());
        }
      }
      break;
    case KeyType::kReal:
      v.real = parse_config_real(value, where);
      break;
    case KeyType::kBool:
      v.count = parse_config_bool(value, where) ? 1 : 0;
      break;
    case KeyType::kEnum:
      try {
        v.count = row->parse_enum(value);
      } catch (const ConfigError& e) {
        throw ParseError(where + ": " + e.what());
      }
      break;
    case KeyType::kWorkload:
      if (const int core = core_workload_index(key); core >= 0)
        core_workloads_[core] = value;
      else
        workload_ = value;
      return;
  }
  staged_[static_cast<std::size_t>(row - kConfigKeys)] = v;
  if (starts_with(key, "energy_") && energy_key_.empty()) energy_key_ = key;
}

bool RunAssembly::knows(const std::string& key) {
  return find_config_key(key) != nullptr;
}

const RunAssembly::Value& RunAssembly::resolved(std::size_t row) const {
  // Every row's default, parsed once.
  static const std::array<Value, kNumKeys> kDefaults = [] {
    std::array<Value, kNumKeys> out{};
    RunAssembly parser;
    for (std::size_t i = 0; i < kNumKeys; ++i) {
      const ConfigKey& key = kConfigKeys[i];
      if (!key.fallback || key.type == KeyType::kWorkload) continue;
      parser.set(key.name, key.fallback);
      out[i] = *parser.staged_[i];
    }
    return out;
  }();
  while (!staged_[row] && kParent[row] < kNumKeys) row = kParent[row];
  return staged_[row] ? *staged_[row] : kDefaults[row];
}

const std::string& RunAssembly::workload() const {
  static const std::string kDefault = kConfigKeys[ROW("workload")].fallback;
  return workload_.empty() ? kDefault : workload_;
}

std::uint64_t RunAssembly::accesses() const {
  return resolved(ROW("accesses")).count;
}

std::uint64_t RunAssembly::footprint_bytes() const {
  return resolved(ROW("footprint")).count;
}

std::uint64_t RunAssembly::cores() const {
  return resolved(ROW("cores")).count;
}

RunAssembly::Assembled RunAssembly::assemble() const {
  const auto n = [this](std::size_t row) { return resolved(row).count; };
  const auto real = [this](std::size_t row) { return resolved(row).real; };

  SimConfig cfg;
  cfg.cache.size_bytes = n(ROW("cache_size"));
  cfg.cache.line_bytes = n(ROW("line_size"));
  cfg.cache.ways = n(ROW("ways"));
  cfg.partition.num_banks = n(ROW("banks"));
  cfg.granularity = get<Granularity>(ROW("granularity"));
  cfg.indexing = get<IndexingKind>(ROW("indexing"));
  cfg.reindex_updates = n(ROW("updates"));
  cfg.indexing_seed = n(ROW("seed"));
  cfg.breakeven_override = n(ROW("breakeven"));
  cfg.policy = get<PowerPolicy>(ROW("policy"));
  cfg.drowsy_window_cycles = n(ROW("drowsy_window"));
  cfg.latency.hit_cycles = n(ROW("hit_latency"));
  cfg.latency.miss_cycles = n(ROW("miss_latency"));
  cfg.latency.drowsy_wake_cycles = n(ROW("drowsy_wake"));
  cfg.latency.gated_wake_cycles = n(ROW("gated_wake"));
  cfg.contention.mshrs = n(ROW("mshrs"));
  cfg.contention.ports = n(ROW("ports"));
  cfg.contention.bytes_per_cycle = n(ROW("bandwidth"));
  cfg.contention.mshr_latency_cycles = n(ROW("mshr_latency"));
  cfg.contention.port_cycles = n(ROW("port_cycles"));
  EnergyParams& energy = cfg.energy_params;
  energy.drowsy_leak_fraction = real(ROW("energy_drowsy_leak"));
  energy.gated_leak_fraction = real(ROW("energy_gated_leak"));
  energy.sleep_area_leak_overhead = real(ROW("energy_sleep_overhead"));
  energy.control_leak_uw_per_unit = real(ROW("energy_control_leak_uw"));
  energy.gate_transition_fixed_pj = real(ROW("energy_gate_fixed_pj"));
  cfg.force_unit_pricing = get<bool>(ROW("unit_pricing"));

  // L2, then L3 (shift = kL3Shift): each an l2_* row, shifted.
  const auto add_level = [&](std::size_t shift) {
    const auto at = [shift](std::size_t l2_row) { return l2_row + shift; };
    const std::uint64_t size = n(at(ROW("l2_size")));
    if (size == 0) return;
    LevelConfig level = cfg.make_level(size);  // depth seed + geometry
    level.inclusion = get<InclusionPolicy>(at(ROW("l2_inclusion")));
    CacheTopology& topo = level.topology;
    topo.cache.line_bytes = n(at(ROW("l2_line")));
    topo.cache.ways = n(at(ROW("l2_ways")));
    topo.granularity = get<Granularity>(at(ROW("l2_granularity")));
    topo.partition.num_banks = n(at(ROW("l2_banks")));
    topo.indexing = get<IndexingKind>(at(ROW("l2_indexing")));
    topo.breakeven_cycles = n(at(ROW("l2_breakeven")));
    topo.policy = get<PowerPolicy>(at(ROW("l2_policy")));
    topo.drowsy_window_cycles = n(at(ROW("l2_drowsy_window")));
    topo.latency.hit_cycles = n(at(ROW("l2_hit_latency")));
    topo.latency.miss_cycles = n(at(ROW("l2_miss_latency")));
    topo.latency.drowsy_wake_cycles = n(at(ROW("l2_drowsy_wake")));
    topo.latency.gated_wake_cycles = n(at(ROW("l2_gated_wake")));
    topo.contention.mshrs = n(at(ROW("l2_mshrs")));
    topo.contention.ports = n(at(ROW("l2_ports")));
    topo.contention.bytes_per_cycle = n(at(ROW("l2_bandwidth")));
    topo.contention.mshr_latency_cycles = cfg.contention.mshr_latency_cycles;
    topo.contention.port_cycles = cfg.contention.port_cycles;
    cfg.lower_levels.push_back(level);
  };
  add_level(0);
  add_level(kL3Shift);

  cfg.validate();
  // A paper-priced run ignores energy_params: reject an energy_* key
  // rather than quietly show it having no effect.
  const std::uint64_t cores = n(ROW("cores"));
  PCAL_CONFIG_CHECK(cores > 0 || energy_key_.empty() || !cfg.paper_priced(),
                    "key '" << energy_key_
                            << "' has no effect: a single-level gated "
                               "bank or monolithic run is priced by the "
                               "paper's bank model; set unit_pricing = true "
                               "to price it with the energy_* parameters");

  Assembled out;
  out.config = cfg;
  out.cores = cores;
  if (cores > 0) {
    const std::uint64_t llc_size = n(ROW("llc_size"));
    PCAL_CONFIG_CHECK(llc_size > 0,
                      "cores = " << cores << " needs llc_size > 0");
    LevelConfig llc = cfg.make_level(llc_size);
    llc.inclusion = get<InclusionPolicy>(ROW("llc_inclusion"));
    CacheTopology& topo = llc.topology;
    topo.cache.ways = n(ROW("llc_ways"));
    topo.partition.num_banks = n(ROW("llc_banks"));
    topo.breakeven_cycles = n(ROW("llc_breakeven"));
    topo.contention.mshrs = n(ROW("llc_mshrs"));
    topo.contention.ports = n(ROW("llc_ports"));
    topo.contention.bytes_per_cycle = n(ROW("llc_bandwidth"));
    topo.contention.mshr_latency_cycles = cfg.contention.mshr_latency_cycles;
    topo.contention.port_cycles = cfg.contention.port_cycles;
    MultiCoreConfig mc =
        make_multicore(cfg, cores, llc, n(ROW("llc_ways_per_core")));
    mc.validate();
    out.multicore = std::move(mc);
  }
  return out;
}

#undef ROW

}  // namespace pcal
