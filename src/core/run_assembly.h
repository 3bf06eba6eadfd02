// The key table: every config key, declared once, and the one path that
// applies keys to a SimConfig.
//
// pcalsweep's [sweep] axes and [grid] scalars, pcalsim's INI sections,
// the pcal::api facade and the Python bindings all describe the same
// thing: a flat bag of "key = value" strings that must become a
// SimConfig (plus, for cores > 0, a MultiCoreConfig).  kConfigKeys holds
// one row per key: its name, value type, single-key check, default and
// a doc line.  Everything that lists, types, checks or defaults a key
// derives from that row: RunAssembly::set and knows, the .sweep reader's
// axis typing, [grid] and scope checks, pcalsim's [l2]/[l3] keys and its
// [l3] defaults, and every "valid: ..." hint.  A new key is one row (and
// its use in assemble()).
//
// Defaults and inheritance: an unset key takes its row's default, or —
// for a row that inherits — the resolved value of the key it names.  So
// an unset L2 knob takes the documented L2 default (bank granularity,
// static indexing, gated policy, 4 banks, breakeven 64), or, for geometry
// (line, ways) and wakeup latencies, the L1 value; an unset L3 knob takes
// the *resolved* L2 value; an unset LLC knob takes the shared-LLC default
// (8 ways, 4 banks, breakeven 64).  `inclusion` applies to every lower
// level and the LLC unless an l2_inclusion / l3_inclusion /
// llc_inclusion narrows it.
//
// A front-end that must keep different *defaults* (pcalsim's [l3] does
// not inherit [l2]) stages those values explicitly, reading them from the
// table — the application path is shared, the default policy stays the
// front-end's.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>

#include "core/enum_strings.h"
#include "core/multicore.h"
#include "core/simulator.h"
#include "util/config_file.h"

namespace pcal {

/// How a key's value is spelled, checked and swept.
enum class KeyType {
  kCount,     // unsigned integer, k/M suffixes; a sweep axis takes ranges
  kReal,      // finite non-negative real
  kBool,      // true/false, yes/no, on/off, 1/0
  kEnum,      // one spelling of an enum (core/enum_strings.h)
  kWorkload,  // a workload item, kept verbatim
};

/// One row of the key table.
struct ConfigKey {
  const char* name;
  KeyType type;
  /// The value an unset key takes, spelled as in a config file; nullptr
  /// when the key inherits instead.
  const char* fallback;
  /// The key whose resolved value an unset key takes, or nullptr.
  const char* inherits;
  /// kCount: the single-key constraint (throws ConfigError), applied
  /// wherever the key is set; nullptr when any count is accepted.
  void (*check)(std::uint64_t);
  /// kEnum: the spelling's enumerator (throws ConfigError).
  std::uint64_t (*parse_enum)(const std::string&);
  const char* doc;
};

// Single-key checks of the rows below that no config struct declares.
/// A lower level's size: 0 (the level is absent) or a power of 2.
void check_level_size(std::uint64_t bytes);
/// accesses, footprint: at least 1.
void check_positive(std::uint64_t n);

namespace key_rows {

/// A row's default: a value, or from(key) to inherit that key's.
struct Fallback {
  constexpr Fallback(const char* value) : value(value) {}
  const char* value = nullptr;
  const char* key = nullptr;
};
constexpr Fallback from(const char* key) {
  Fallback f{nullptr};
  f.key = key;
  return f;
}

template <auto Parse>
std::uint64_t enumerator(const std::string& spelling) {
  return static_cast<std::uint64_t>(Parse(spelling));
}

constexpr ConfigKey row(const char* name, KeyType type, Fallback fallback,
                        const char* doc,
                        void (*check)(std::uint64_t) = nullptr,
                        std::uint64_t (*parse_enum)(const std::string&) =
                            nullptr) {
  return {name, type, fallback.value, fallback.key, check, parse_enum, doc};
}
constexpr ConfigKey count(const char* name, Fallback fallback,
                          const char* doc,
                          void (*check)(std::uint64_t) = nullptr) {
  return row(name, KeyType::kCount, fallback, doc, check);
}
constexpr ConfigKey real(const char* name, Fallback fallback,
                         const char* doc) {
  return row(name, KeyType::kReal, fallback, doc);
}
template <auto Parse>
constexpr ConfigKey choice(const char* name, Fallback fallback,
                           const char* doc) {
  return row(name, KeyType::kEnum, fallback, doc, nullptr,
             &enumerator<Parse>);
}

constexpr auto kSize = &CacheConfig::check_size;
constexpr auto kLine = &CacheConfig::check_line;
constexpr auto kWays = &CacheConfig::check_ways;
constexpr auto kCycles = &LatencyParams::check_cycles;
constexpr auto kMshrs = &ContentionParams::check_mshrs;
constexpr auto kPorts = &ContentionParams::check_ports;
constexpr auto kGranularity = granularity_from_string;
constexpr auto kIndexing = indexing_kind_from_string;
constexpr auto kPolicy = power_policy_from_string;
constexpr auto kInclusion = inclusion_policy_from_string;

/// Every config key, one row each.  The L2 and L3 blocks list the same
/// suffixes in the same order (run_assembly.cc checks this at compile
/// time); "core<k>_workload" stands for core0_workload, core1_workload...
inline constexpr ConfigKey kTable[] = {
    // ---- L1, and the knobs every level shares ----
    count("cache_size", "16k", "L1 size in bytes", kSize),
    count("line_size", "16", "L1 line size in bytes", kLine),
    count("ways", "1", "L1 associativity (1 = direct-mapped)", kWays),
    count("banks", "4", "L1 bank count M"),
    choice<kGranularity>("granularity", "bank", "L1 power-managed unit"),
    choice<kIndexing>("indexing", "probing", "L1 re-indexing f()"),
    count("updates", "16", "re-indexing updates over the run"),
    count("seed", "1", "indexing seed"),
    count("breakeven", "0", "L1 breakeven (0 = from the energy model)"),
    choice<kPolicy>("policy", "gated", "L1 low-power state"),
    count("drowsy_window", "0", "L1 drowsy dwell before gating"),
    count("hit_latency", "0", "L1 hit stall in cycles", kCycles),
    count("miss_latency", "0", "L1 miss stall in cycles", kCycles),
    count("drowsy_wake", "0", "drowsy wakeup stall, every level", kCycles),
    count("gated_wake", "0", "gated wakeup stall, every level", kCycles),
    count("mshrs", "0", "L1 outstanding misses (0 = unlimited)", kMshrs),
    count("ports", "0", "L1 ports per bank (0 = unlimited)", kPorts),
    count("bandwidth", "0", "L1 fill bytes per cycle (0 = unlimited)"),
    count("mshr_latency", "32", "MSHR lifetime, every level", kCycles),
    count("port_cycles", "1", "port cycles per access, every level", kCycles),
    real("energy_drowsy_leak", "0.25", "EnergyParams::drowsy_leak_fraction"),
    real("energy_gated_leak", "0.02", "EnergyParams::gated_leak_fraction"),
    real("energy_sleep_overhead", "0.06", "sleep_area_leak_overhead"),
    real("energy_control_leak_uw", "1.2", "control_leak_uw_per_unit"),
    real("energy_gate_fixed_pj", "1", "gate_transition_fixed_pj"),
    row("unit_pricing", KeyType::kBool, "false", "price paper runs per unit"),
    choice<kInclusion>("inclusion", "noninclusive", "every level's inclusion"),
    // ---- L2 (size 0 = absent) ----
    count("l2_size", "0", "L2 size in bytes (0 = no L2)", check_level_size),
    count("l2_line", from("line_size"), "L2 line size in bytes", kLine),
    count("l2_ways", from("ways"), "L2 associativity", kWays),
    count("l2_banks", "4", "L2 bank count"),
    choice<kGranularity>("l2_granularity", "bank", "L2 power-managed unit"),
    choice<kIndexing>("l2_indexing", "static", "L2 re-indexing f()"),
    count("l2_breakeven", "64", "L2 breakeven in cycles"),
    choice<kPolicy>("l2_policy", "gated", "L2 low-power state"),
    count("l2_drowsy_window", "0", "L2 drowsy dwell in cycles"),
    count("l2_hit_latency", "0", "L2 hit stall in cycles", kCycles),
    count("l2_miss_latency", "0", "L2 miss stall in cycles", kCycles),
    count("l2_drowsy_wake", from("drowsy_wake"), "L2 drowsy wakeup", kCycles),
    count("l2_gated_wake", from("gated_wake"), "L2 gated wakeup", kCycles),
    count("l2_mshrs", "0", "L2 outstanding misses", kMshrs),
    count("l2_ports", "0", "L2 ports per bank", kPorts),
    count("l2_bandwidth", "0", "L2 fill bytes per cycle"),
    choice<kInclusion>("l2_inclusion", from("inclusion"), "L2 inclusion"),
    // ---- L3 (size 0 = absent); every other key inherits the L2's ----
    count("l3_size", "0", "L3 size in bytes (0 = no L3)", check_level_size),
    count("l3_line", from("l2_line"), "L3 line size in bytes", kLine),
    count("l3_ways", from("l2_ways"), "L3 associativity", kWays),
    count("l3_banks", from("l2_banks"), "L3 bank count"),
    choice<kGranularity>("l3_granularity", from("l2_granularity"), "L3 unit"),
    choice<kIndexing>("l3_indexing", from("l2_indexing"), "L3 re-indexing"),
    count("l3_breakeven", from("l2_breakeven"), "L3 breakeven in cycles"),
    choice<kPolicy>("l3_policy", from("l2_policy"), "L3 low-power state"),
    count("l3_drowsy_window", from("l2_drowsy_window"), "L3 drowsy dwell"),
    count("l3_hit_latency", from("l2_hit_latency"), "L3 hit stall", kCycles),
    count("l3_miss_latency", from("l2_miss_latency"), "L3 miss stall", kCycles),
    count("l3_drowsy_wake", from("l2_drowsy_wake"), "L3 drowsy wake", kCycles),
    count("l3_gated_wake", from("l2_gated_wake"), "L3 gated wakeup", kCycles),
    count("l3_mshrs", from("l2_mshrs"), "L3 outstanding misses", kMshrs),
    count("l3_ports", from("l2_ports"), "L3 ports per bank", kPorts),
    count("l3_bandwidth", from("l2_bandwidth"), "L3 fill bytes per cycle"),
    choice<kInclusion>("l3_inclusion", from("l2_inclusion"), "L3 inclusion"),
    // ---- multi-core: private stacks over a shared LLC ----
    count("cores", "0", "cores over a shared LLC (0 = one stream)"),
    count("llc_size", "0", "shared LLC size in bytes", check_level_size),
    count("llc_ways", "8", "LLC associativity", kWays),
    count("llc_banks", "4", "LLC bank count"),
    count("llc_breakeven", "64", "LLC breakeven in cycles"),
    count("llc_ways_per_core", "0", "LLC ways per core (0 = fully shared)"),
    count("llc_mshrs", "0", "LLC outstanding misses", kMshrs),
    count("llc_ports", "0", "LLC ports per bank", kPorts),
    count("llc_bandwidth", "0", "LLC fill bytes per cycle"),
    choice<kInclusion>("llc_inclusion", from("inclusion"), "LLC inclusion"),
    // ---- the run ----
    row("workload", KeyType::kWorkload, "uniform", "every core's stream"),
    row("core<k>_workload", KeyType::kWorkload, from("workload"),
        "core k's stream"),
    count("accesses", "2000000", "accesses per core", check_positive),
    count("footprint", "64k", "bytes a synthetic stream touches",
          check_positive),
};

}  // namespace key_rows

inline constexpr const auto& kConfigKeys = key_rows::kTable;

/// "core<k>_workload" keys pin one core of a multi-core run to its own
/// workload; returns the core index, or -1 for any other key.
int core_workload_index(std::string_view key);

/// The row of `key` ("core3_workload" finds the core<k>_workload row), or
/// nullptr for a key no front-end accepts.
const ConfigKey* find_config_key(std::string_view key);

class RunAssembly {
 public:
  /// What assemble() yields: the (validated) single-stream config, plus
  /// the multi-core system when `cores` was staged nonzero.
  struct Assembled {
    SimConfig config;
    std::optional<MultiCoreConfig> multicore;
    std::uint64_t cores = 0;
  };

  /// Stages one "key = value" pair.  Throws ConfigError on an unknown key
  /// or a value its row's check rejects, and ParseError on a malformed
  /// value, all naming `where` (defaults to the key itself).
  void set(const std::string& key, const std::string& value);
  void set(const std::string& key, const std::string& value,
           const std::string& where);

  /// True iff set() accepts this key.
  static bool knows(const std::string& key);

  /// Builds the configs from the staged keys and the table's defaults:
  /// lower levels are appended (L2 then L3, zero size = absent), the
  /// result validated, then — when cores > 0 — the shared LLC is built
  /// and the MultiCoreConfig assembled and validated.  Throws ConfigError
  /// / ParseError on invalid combinations, among them an energy_* key on
  /// a single-stream SimConfig::paper_priced() run (which energy_params
  /// do not price).
  Assembled assemble() const;

  // ---- run-level values (not part of the SimConfig) ----
  const std::string& workload() const;
  std::uint64_t accesses() const;
  std::uint64_t footprint_bytes() const;
  std::uint64_t cores() const;
  /// Per-core workload overrides (core<k>_workload), by core index.
  const std::map<int, std::string>& core_workloads() const {
    return core_workloads_;
  }

 private:
  /// One staged value: counts, flags and enumerators in `count`, reals in
  /// `real`.
  struct Value {
    std::uint64_t count = 0;
    double real = 0.0;
  };

  /// The value of the key in table row `row`: staged, else its default,
  /// else the resolved value of the key it inherits.
  const Value& resolved(std::size_t row) const;
  /// resolved(row) as a count, flag or enumerator.
  template <typename T>
  T get(std::size_t row) const {
    return static_cast<T>(resolved(row).count);
  }

  std::array<std::optional<Value>, std::size(kConfigKeys)> staged_;
  std::string workload_;
  std::map<int, std::string> core_workloads_;
  std::string energy_key_;  // the first energy_* key staged, if any
};

}  // namespace pcal
