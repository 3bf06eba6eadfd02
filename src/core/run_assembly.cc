#include "core/run_assembly.h"

#include "core/enum_strings.h"
#include "util/error.h"
#include "util/string_util.h"

namespace pcal {

namespace {

/// A number with a single-key constraint (`check` throws ConfigError),
/// reported against the key it was set through so every front-end names
/// the key; assemble() still validates the whole config.
std::uint64_t checked_number(const std::string& value, const std::string& where,
                             void (*check)(std::uint64_t)) {
  const std::uint64_t v = parse_config_number(value, where);
  try {
    check(v);
  } catch (const ConfigError& e) {
    throw ConfigError(where + ": " + e.what());
  }
  return v;
}

}  // namespace

int core_workload_index(const std::string& key) {
  if (!starts_with(key, "core")) return -1;
  const std::size_t us = key.find('_');
  if (us == std::string::npos || key.substr(us) != "_workload") return -1;
  const std::string digits = key.substr(4, us - 4);
  if (digits.empty() || digits.size() > 6) return -1;
  for (const char c : digits)
    if (c < '0' || c > '9') return -1;
  return std::stoi(digits);
}

void RunAssembly::set(const std::string& key, const std::string& value) {
  set(key, value, "key '" + key + "'");
}

bool RunAssembly::set_level(LevelStage& level, const std::string& suffix,
                            const std::string& value,
                            const std::string& where) {
  const auto number = [&] { return parse_config_number(value, where); };
  const auto cycles = [&] {
    return checked_number(value, where, &LatencyParams::check_cycles);
  };
  if (suffix == "size")
    level.size = number();
  else if (suffix == "line")
    level.line = number();
  else if (suffix == "ways")
    level.ways = number();
  else if (suffix == "banks")
    level.banks = number();
  else if (suffix == "breakeven")
    level.breakeven = number();
  else if (suffix == "granularity")
    level.granularity = granularity_from_string(value);
  else if (suffix == "indexing")
    level.indexing = indexing_kind_from_string(value);
  else if (suffix == "policy")
    level.policy = power_policy_from_string(value);
  else if (suffix == "drowsy_window")
    level.drowsy_window = number();
  else if (suffix == "hit_latency")
    level.hit_latency = cycles();
  else if (suffix == "miss_latency")
    level.miss_latency = cycles();
  else if (suffix == "drowsy_wake")
    level.drowsy_wake = cycles();
  else if (suffix == "gated_wake")
    level.gated_wake = cycles();
  else if (suffix == "mshrs")
    level.mshrs = checked_number(value, where, &ContentionParams::check_mshrs);
  else if (suffix == "ports")
    level.ports = checked_number(value, where, &ContentionParams::check_ports);
  else if (suffix == "bandwidth")
    level.bandwidth = number();
  else if (suffix == "inclusion")
    level.inclusion = inclusion_policy_from_string(value);
  else
    return false;
  return true;
}

void RunAssembly::set(const std::string& key, const std::string& value,
                      const std::string& where) {
  const auto number = [&] { return parse_config_number(value, where); };
  const auto real = [&] { return parse_config_real(value, where); };
  // Single-key constraints (L1 geometry, what one key can cost) are
  // checked here, where the key is set.
  const auto checked = [&](void (*check)(std::uint64_t)) {
    return checked_number(value, where, check);
  };
  const auto cycles = [&] { return checked(&LatencyParams::check_cycles); };
  // ---- flat L1/global keys (the legacy sweep-axis vocabulary) ----
  if (key == "cache_size")
    config.cache.size_bytes = checked(&CacheConfig::check_size);
  else if (key == "line_size")
    config.cache.line_bytes = checked(&CacheConfig::check_line);
  else if (key == "ways")
    config.cache.ways = checked(&CacheConfig::check_ways);
  else if (key == "banks")
    config.partition.num_banks = number();
  else if (key == "updates")
    config.reindex_updates = number();
  else if (key == "breakeven")
    config.breakeven_override = number();
  else if (key == "drowsy_window")
    config.drowsy_window_cycles = number();
  else if (key == "seed")
    config.indexing_seed = number();
  else if (key == "hit_latency")
    config.latency.hit_cycles = cycles();
  else if (key == "miss_latency")
    config.latency.miss_cycles = cycles();
  else if (key == "drowsy_wake")
    config.latency.drowsy_wake_cycles = cycles();
  else if (key == "gated_wake")
    config.latency.gated_wake_cycles = cycles();
  else if (key == "mshrs")
    config.contention.mshrs = checked(&ContentionParams::check_mshrs);
  else if (key == "ports")
    config.contention.ports = checked(&ContentionParams::check_ports);
  else if (key == "bandwidth")
    config.contention.bytes_per_cycle = number();
  else if (key == "mshr_latency")
    config.contention.mshr_latency_cycles = cycles();
  else if (key == "port_cycles")
    config.contention.port_cycles = cycles();
  else if (key == "energy_drowsy_leak")
    config.energy_params.drowsy_leak_fraction = real();
  else if (key == "energy_gated_leak")
    config.energy_params.gated_leak_fraction = real();
  else if (key == "energy_sleep_overhead")
    config.energy_params.sleep_area_leak_overhead = real();
  else if (key == "energy_control_leak_uw")
    config.energy_params.control_leak_uw_per_unit = real();
  else if (key == "energy_gate_fixed_pj")
    config.energy_params.gate_transition_fixed_pj = real();
  else if (key == "granularity")
    config.granularity = granularity_from_string(value);
  else if (key == "indexing")
    config.indexing = indexing_kind_from_string(value);
  else if (key == "policy")
    config.policy = power_policy_from_string(value);
  else if (key == "unit_pricing")
    config.force_unit_pricing = parse_config_bool(value, where);
  // ---- hierarchy / inclusion ----
  else if (key == "inclusion")
    inclusion_ = inclusion_policy_from_string(value);
  else if (starts_with(key, "l2_") && set_level(l2_, key.substr(3), value,
                                                where)) {
  } else if (starts_with(key, "l3_") && set_level(l3_, key.substr(3), value,
                                                  where)) {
  }
  // ---- multi-core ----
  else if (key == "cores")
    cores_ = number();
  else if (key == "llc_size")
    llc_size_ = number();
  else if (key == "llc_ways")
    llc_ways_ = number();
  else if (key == "llc_banks")
    llc_banks_ = number();
  else if (key == "llc_breakeven")
    llc_breakeven_ = number();
  else if (key == "llc_ways_per_core")
    llc_ways_per_core_ = number();
  else if (key == "llc_mshrs")
    llc_mshrs_ = checked(&ContentionParams::check_mshrs);
  else if (key == "llc_ports")
    llc_ports_ = checked(&ContentionParams::check_ports);
  else if (key == "llc_bandwidth")
    llc_bandwidth_ = number();
  else if (key == "llc_inclusion")
    llc_inclusion_ = inclusion_policy_from_string(value);
  // ---- run-level staging ----
  else if (key == "workload")
    workload_ = value;
  else if (key == "accesses") {
    accesses_ = number();
    if (accesses_ == 0)
      throw ParseError(where + ": accesses must be positive");
  } else if (key == "footprint") {
    footprint_bytes_ = number();
    if (footprint_bytes_ == 0)
      throw ParseError(where + ": footprint must be positive");
  } else if (core_workload_index(key) >= 0)
    core_workloads_[core_workload_index(key)] = value;
  else
    throw ConfigError("unknown config key '" + key + "'");
  if (starts_with(key, "energy_") && energy_key_.empty()) energy_key_ = key;
}

bool RunAssembly::knows(const std::string& key) {
  static constexpr const char* kFlatKeys[] = {
      "cache_size",  "line_size",    "ways",
      "banks",       "updates",      "breakeven",
      "drowsy_window", "seed",       "hit_latency",
      "miss_latency", "drowsy_wake", "gated_wake",
      "mshrs",       "ports",        "bandwidth",
      "mshr_latency", "port_cycles", "energy_drowsy_leak",
      "energy_gated_leak", "energy_sleep_overhead",
      "energy_control_leak_uw", "energy_gate_fixed_pj",
      "granularity", "indexing",     "policy",
      "unit_pricing", "inclusion",   "cores",
      "llc_size",    "llc_ways",     "llc_banks",
      "llc_breakeven", "llc_ways_per_core",
      "llc_mshrs",   "llc_ports",    "llc_bandwidth",
      "llc_inclusion", "workload",   "accesses",
      "footprint"};
  for (const char* k : kFlatKeys)
    if (key == k) return true;
  if (starts_with(key, "l2_") || starts_with(key, "l3_")) {
    static constexpr const char* kLevelKeys[] = {
        "size",       "line",        "ways",        "banks",
        "breakeven",  "granularity", "indexing",    "policy",
        "drowsy_window", "hit_latency", "miss_latency",
        "drowsy_wake", "gated_wake", "mshrs",       "ports",
        "bandwidth",  "inclusion"};
    const std::string suffix = key.substr(3);
    for (const char* k : kLevelKeys)
      if (suffix == k) return true;
    return false;
  }
  return core_workload_index(key) >= 0;
}

RunAssembly::Assembled RunAssembly::assemble() const {
  SimConfig cfg = config;

  // Resolve L2 against the documented defaults, then L3 against the
  // *resolved* L2 (the sweep grid's inheritance, bit for bit).  Knobs
  // left as optionals inherit L1 geometry / wakeup latencies at
  // application time instead of a constant.
  struct Resolved {
    std::optional<std::uint64_t> line, ways, drowsy_wake, gated_wake;
    std::uint64_t banks, breakeven, drowsy_window, hit, miss;
    std::uint64_t mshrs, ports, bandwidth;
    Granularity granularity;
    IndexingKind indexing;
    PowerPolicy policy;
    InclusionPolicy inclusion;
  };
  Resolved l2r;
  l2r.line = l2_.line;
  l2r.ways = l2_.ways;
  l2r.drowsy_wake = l2_.drowsy_wake;
  l2r.gated_wake = l2_.gated_wake;
  l2r.banks = l2_.banks.value_or(4);
  l2r.breakeven = l2_.breakeven.value_or(64);
  l2r.drowsy_window = l2_.drowsy_window.value_or(0);
  l2r.hit = l2_.hit_latency.value_or(0);
  l2r.miss = l2_.miss_latency.value_or(0);
  l2r.mshrs = l2_.mshrs.value_or(0);
  l2r.ports = l2_.ports.value_or(0);
  l2r.bandwidth = l2_.bandwidth.value_or(0);
  l2r.granularity = l2_.granularity.value_or(Granularity::kBank);
  l2r.indexing = l2_.indexing.value_or(IndexingKind::kStatic);
  l2r.policy = l2_.policy.value_or(PowerPolicy::kGated);
  l2r.inclusion = l2_.inclusion.value_or(inclusion_);

  Resolved l3r;
  l3r.line = l3_.line ? l3_.line : l2r.line;
  l3r.ways = l3_.ways ? l3_.ways : l2r.ways;
  l3r.drowsy_wake = l3_.drowsy_wake ? l3_.drowsy_wake : l2r.drowsy_wake;
  l3r.gated_wake = l3_.gated_wake ? l3_.gated_wake : l2r.gated_wake;
  l3r.banks = l3_.banks.value_or(l2r.banks);
  l3r.breakeven = l3_.breakeven.value_or(l2r.breakeven);
  l3r.drowsy_window = l3_.drowsy_window.value_or(l2r.drowsy_window);
  l3r.hit = l3_.hit_latency.value_or(l2r.hit);
  l3r.miss = l3_.miss_latency.value_or(l2r.miss);
  l3r.mshrs = l3_.mshrs.value_or(l2r.mshrs);
  l3r.ports = l3_.ports.value_or(l2r.ports);
  l3r.bandwidth = l3_.bandwidth.value_or(l2r.bandwidth);
  l3r.granularity = l3_.granularity.value_or(l2r.granularity);
  l3r.indexing = l3_.indexing.value_or(l2r.indexing);
  l3r.policy = l3_.policy.value_or(l2r.policy);
  l3r.inclusion = l3_.inclusion.value_or(l2r.inclusion);

  const auto add_level = [&cfg](const Resolved& r, std::uint64_t size) {
    LevelConfig level = cfg.make_level(size);  // depth seed + geometry
    level.inclusion = r.inclusion;
    CacheTopology& topo = level.topology;
    if (r.line) topo.cache.line_bytes = *r.line;
    if (r.ways) topo.cache.ways = *r.ways;
    topo.granularity = r.granularity;
    topo.partition.num_banks = r.banks;
    topo.indexing = r.indexing;
    topo.breakeven_cycles = r.breakeven;
    topo.policy = r.policy;
    topo.drowsy_window_cycles = r.drowsy_window;
    topo.latency.hit_cycles = r.hit;
    topo.latency.miss_cycles = r.miss;
    topo.latency.drowsy_wake_cycles =
        r.drowsy_wake.value_or(cfg.latency.drowsy_wake_cycles);
    topo.latency.gated_wake_cycles =
        r.gated_wake.value_or(cfg.latency.gated_wake_cycles);
    topo.contention.mshrs = r.mshrs;
    topo.contention.ports = r.ports;
    topo.contention.bytes_per_cycle = r.bandwidth;
    topo.contention.mshr_latency_cycles = cfg.contention.mshr_latency_cycles;
    topo.contention.port_cycles = cfg.contention.port_cycles;
    cfg.lower_levels.push_back(level);
  };
  if (l2_.size > 0) add_level(l2r, l2_.size);
  if (l3_.size > 0) add_level(l3r, l3_.size);

  cfg.validate();
  // A paper-priced run ignores energy_params: reject an energy_* key
  // rather than quietly show it having no effect.
  PCAL_CONFIG_CHECK(cores_ > 0 || energy_key_.empty() || !cfg.paper_priced(),
                    "key '" << energy_key_
                            << "' has no effect: a single-level gated "
                               "bank or monolithic run is priced by the "
                               "paper's bank model; set unit_pricing = true "
                               "to price it with the energy_* parameters");

  Assembled out;
  out.config = cfg;
  out.cores = cores_;
  if (cores_ > 0) {
    PCAL_CONFIG_CHECK(llc_size_ > 0,
                      "cores = " << cores_ << " needs llc_size > 0");
    LevelConfig llc = cfg.make_level(llc_size_);
    llc.inclusion = llc_inclusion_.value_or(inclusion_);
    llc.topology.cache.ways = llc_ways_.value_or(8);
    llc.topology.partition.num_banks = llc_banks_.value_or(4);
    llc.topology.breakeven_cycles = llc_breakeven_.value_or(64);
    llc.topology.contention.mshrs = llc_mshrs_.value_or(0);
    llc.topology.contention.ports = llc_ports_.value_or(0);
    llc.topology.contention.bytes_per_cycle = llc_bandwidth_.value_or(0);
    llc.topology.contention.mshr_latency_cycles =
        cfg.contention.mshr_latency_cycles;
    llc.topology.contention.port_cycles = cfg.contention.port_cycles;
    MultiCoreConfig mc =
        make_multicore(cfg, cores_, llc, llc_ways_per_core_);
    mc.validate();
    out.multicore = std::move(mc);
  }
  return out;
}

}  // namespace pcal
