// pcalsim — the command-line front-end to the simulator.
//
// Runs one workload on one architecture configuration described by an
// INI file (plus command-line overrides) and prints the full report:
// idleness, energy breakdown, lifetime, cache statistics.
//
// Usage:
//   pcalsim <config.ini> [section.key=value ...] [--timeline out.json]
//   pcalsim --example            # print an annotated example config
//
// README.md ("Running one simulation") lists every accepted section.key,
// the shared run-assembly key it maps to, and its default.  The INI is
// read by the strict reader pcalsweep's specs use (util/config_file.h),
// and the run goes through api::run, the path pcal.run takes.
#include <algorithm>
#include <iostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "api/pcal.h"
#include "api/timeline.h"
#include "core/run_assembly.h"
#include "trace/multiprogram.h"
#include "util/config_file.h"
#include "util/error.h"
#include "util/string_util.h"
#include "util/table.h"

namespace {

using namespace pcal;

constexpr const char* kExampleConfig = R"(# pcalsim example configuration
[workload]
name = rijndael_i
accesses = 2000000

[cache]
size = 8k
line = 16
ways = 1

[partition]
granularity = bank
banks = 4
indexing = probing
updates = 16
policy = gated
drowsy_window = 0

[latency]
hit = 0
miss = 0
drowsy_wake = 0
gated_wake = 0

# Finite L1 resources, 0 = unlimited (docs/CONTENTION.md):
[contention]
mshrs = 0
ports = 0
bandwidth = 0
mshr_latency = 32
port_cycles = 1

[l2]
size = 0
banks = 4
granularity = bank
breakeven = 64
inclusion = noninclusive
hit_latency = 0
miss_latency = 0

[l3]
size = 0

# Interleave programs in round-robin quanta (overrides workload.name):
# [multiprogram]
# programs = cjpeg+sha
# quantum = 100000

# N cores of the stack above over a shared LLC (docs/MULTICORE.md):
# [multicore]
# cores = 2
# llc_size = 64k
# llc_ways_per_core = 4
# [core1]
# workload = streaming
)";

/// One accepted INI key and the shared run-assembly key
/// (core/run_assembly.h) it stages.  Besides these, [l2]/[l3] take every
/// l2_<key>/l3_<key> run key as <key>, and [core<k>] takes `workload` as
/// core<k>_workload.  The [multiprogram] keys have no run key of their
/// own: they compose the workload (stage_ini()).
struct IniKey {
  const char* section;
  const char* key;
  const char* run_key;
};

constexpr IniKey kIniKeys[] = {
    {"workload", "name", "workload"},
    {"workload", "accesses", "accesses"},
    {"workload", "footprint", "footprint"},
    {"cache", "size", "cache_size"},
    {"cache", "line", "line_size"},
    {"cache", "ways", "ways"},
    {"partition", "granularity", "granularity"},
    {"partition", "banks", "banks"},
    {"partition", "indexing", "indexing"},
    {"partition", "updates", "updates"},
    {"partition", "breakeven", "breakeven"},
    {"partition", "policy", "policy"},
    {"partition", "drowsy_window", "drowsy_window"},
    {"latency", "hit", "hit_latency"},
    {"latency", "miss", "miss_latency"},
    {"latency", "drowsy_wake", "drowsy_wake"},
    {"latency", "gated_wake", "gated_wake"},
    {"contention", "mshrs", "mshrs"},
    {"contention", "ports", "ports"},
    {"contention", "bandwidth", "bandwidth"},
    {"contention", "mshr_latency", "mshr_latency"},
    {"contention", "port_cycles", "port_cycles"},
    {"multiprogram", "programs", nullptr},
    {"multiprogram", "quantum", nullptr},
    {"multicore", "cores", "cores"},
    {"multicore", "llc_size", "llc_size"},
    {"multicore", "inclusion", "llc_inclusion"},
    {"multicore", "llc_ways", "llc_ways"},
    {"multicore", "llc_banks", "llc_banks"},
    {"multicore", "llc_breakeven", "llc_breakeven"},
    {"multicore", "llc_ways_per_core", "llc_ways_per_core"},
    {"multicore", "llc_mshrs", "llc_mshrs"},
    {"multicore", "llc_ports", "llc_ports"},
    {"multicore", "llc_bandwidth", "llc_bandwidth"},
};

/// The INI's sections; [core<k>] pins core k's workload.
const std::vector<std::string> kSections = {
    "workload", "cache", "partition",    "latency",   "contention",
    "l2",       "l3",    "multiprogram", "multicore", "core<k>"};

/// pcalsim's defaults where they differ from the shared ones; staged
/// first, so any INI entry replaces them.
constexpr std::pair<const char*, const char*> kDefaults[] = {
    {"cache_size", "8k"}, {"workload", "rijndael_i"}};

const ConfigEntry* find_entry(const std::vector<ConfigEntry>& entries,
                              const std::string& section,
                              const std::string& key) {
  for (const ConfigEntry& e : entries)
    if (e.section == section && e.key == key) return &e;
  return nullptr;
}

/// The run key `e` stages, "" for the [multiprogram] keys; throws
/// ParseError naming the file, line, section and key of a key the
/// section does not accept.
std::string run_key(const ConfigEntry& e, const std::string& path) {
  std::string valid;
  if (e.section == "l2" || e.section == "l3") {
    const std::string prefix = e.section + "_";
    if (find_config_key(prefix + e.key)) return prefix + e.key;
    for (const ConfigKey& k : kConfigKeys)
      if (starts_with(k.name, prefix))
        valid += (valid.empty() ? "" : " ") + std::string(k.name + 3);
  } else if (starts_with(e.section, "core")) {  // [core<k>]
    if (e.key == "workload") return e.section + "_workload";
    valid = "workload";
  } else {
    for (const IniKey& k : kIniKeys) {
      if (e.section != k.section) continue;
      if (e.key == k.key) return k.run_key ? k.run_key : "";
      valid += (valid.empty() ? "" : " ") + std::string(k.key);
    }
  }
  throw ParseError(path + " " + e.where + ": unknown key '" + e.key +
                   "' in [" + e.section + "] (valid: " + valid + ")");
}

/// Maps the INI entries onto the shared run-assembly keys, after
/// pcalsim's own defaults.
api::RunConfig stage_ini(const std::vector<ConfigEntry>& entries,
                         const std::string& path) {
  std::vector<std::string> keys;  // each entry's run key
  for (const ConfigEntry& e : entries) keys.push_back(run_key(e, path));
  const auto staged = [&](const std::string& key) -> const std::string* {
    for (std::size_t i = 0; i < entries.size(); ++i)
      if (keys[i] == key) return &entries[i].value;
    return nullptr;
  };

  api::RunConfig rc;
  for (const auto& [key, value] : kDefaults) rc.set(key, value);
  // An [l3] does not inherit [l2]: an l3 key unset where its [l2] twin is
  // set is staged at the value the unset l2 key would take — its default,
  // or for geometry and wakeup latencies the L1 value.
  for (const ConfigKey& l3 : kConfigKeys) {
    if (!starts_with(l3.name, "l3_") || staged(l3.name)) continue;
    const std::string l2 = std::string("l2_") + (l3.name + 3);
    if (!staged(l2)) continue;
    const ConfigKey* key = find_config_key(l2);
    const std::string* value = nullptr;
    while (key->inherits && !(value = staged(key->inherits)))
      key = find_config_key(key->inherits);
    rc.set(l3.name, value ? *value : key->fallback);
  }
  for (std::size_t i = 0; i < entries.size(); ++i)
    if (!keys[i].empty()) rc.set(keys[i], entries[i].value);
  // A [multiprogram] program list replaces the workload with an
  // interleaved multiprog: stream, whose quantum boundaries align
  // re-indexing to context switches.  A quantum is checked wherever it
  // is set, like every other key of a switched-off section; without
  // programs it is inert.
  const ConfigEntry* quantum = find_entry(entries, "multiprogram", "quantum");
  if (quantum) {
    try {
      parse_multiprogram_quantum(quantum->value);
    } catch (const ConfigError& e) {
      throw ParseError(path + " " + quantum->where +
                       ": [multiprogram] quantum: " + e.what());
    }
  }
  const ConfigEntry* programs = find_entry(entries, "multiprogram", "programs");
  if (programs && !programs->value.empty()) {
    std::string spec = programs->value;
    std::replace(spec.begin(), spec.end(), ',', '+');
    if (quantum) spec += "@" + quantum->value;
    rc.set("workload", "multiprog:" + spec);
  }
  return rc;
}

std::string hex_mask(std::uint64_t mask) {
  std::ostringstream os;
  os << "0x" << std::hex << mask;
  return os.str();
}

/// The multi-core report: system totals, one row per core, the LLC.
void print_multicore(const api::RunOutput& out) {
  const SimResult& r = out.result;

  std::cout << "pcalsim: " << r.workload << " on " << r.config_label
            << "\n"
            << "accesses: " << r.accesses << ", cycles: " << r.total_cycles
            << " total, " << r.stall_cycles
            << " stalled, avg access latency "
            << TextTable::num(r.avg_access_latency(), 3) << "\n";
  if (r.mshr_stall_cycles + r.port_stall_cycles + r.bw_stall_cycles > 0)
    std::cout << "contention stalls: mshr " << r.mshr_stall_cycles
              << ", port " << r.port_stall_cycles << ", bandwidth "
              << r.bw_stall_cycles << "\n";
  std::cout << "\n";

  TextTable cores({"core", "workload", "accesses", "stalls", "L1 hit",
                   "LLC acc", "LLC hit", "way mask", "energy (pJ)",
                   "idleness"});
  for (std::size_t k = 0; k < out.cores.size(); ++k) {
    const CoreResult& c = out.cores[k];
    cores.add_row({std::to_string(k), c.workload,
                   std::to_string(c.accesses),
                   std::to_string(c.stall_cycles),
                   TextTable::num(c.l1_hit_rate(), 4),
                   std::to_string(c.llc_stats.accesses),
                   TextTable::num(c.llc_hit_rate(), 4),
                   hex_mask(c.llc_way_mask),
                   TextTable::num(c.energy.partitioned.total_pj(), 0),
                   TextTable::pct(c.avg_residency, 2)});
  }
  cores.render(std::cout);

  const CacheStats& llc_stats = r.level_stats.back();
  const EnergyBreakdown& e = r.energy.partitioned;
  std::cout << "\nLLC: hit rate " << TextTable::num(llc_stats.hit_rate(), 4)
            << " (" << llc_stats.accesses << " accesses, " << llc_stats.hits
            << " hits, " << llc_stats.misses << " misses)\n"
            << "energy (pJ): total " << TextTable::num(e.total_pj(), 0)
            << ", saving vs monolithic baseline "
            << TextTable::pct(r.energy_saving(), 2) << " %\n"
            << "system idleness: " << TextTable::pct(r.avg_residency(), 2)
            << " %, lifetime " << TextTable::num(r.lifetime_years(), 3)
            << " years\n";
}

/// The single-stream report: per-unit table, every level, energy.
void print_single(const SimResult& r) {
  std::cout << "pcalsim: " << r.workload << " on " << r.config_label
            << "\n"
            << "accesses: " << r.accesses
            << ", breakeven: " << r.breakeven_cycles << " cycles"
            << ", re-indexing updates: " << r.reindex_updates_applied
            << "\n"
            << "cycles: " << r.total_cycles << " total, "
            << r.stall_cycles << " stalled, avg access latency "
            << TextTable::num(r.avg_access_latency(), 3) << "\n";
  if (r.mshr_stall_cycles + r.port_stall_cycles + r.bw_stall_cycles > 0)
    std::cout << "contention stalls: mshr " << r.mshr_stall_cycles
              << ", port " << r.port_stall_cycles << ", bandwidth "
              << r.bw_stall_cycles << "\n";
  std::cout << "\n";

  // At line granularity there are hundreds of units; cap the table.
  const std::size_t shown = std::min<std::size_t>(r.units.size(), 32);
  TextTable units({"unit", "accesses", "sleep residency",
                   "idle intervals > BE", "sleep episodes",
                   "lifetime (y)"});
  for (std::size_t u = 0; u < shown; ++u) {
    const UnitResult& ur = r.units[u];
    units.add_row({std::to_string(u), std::to_string(ur.accesses),
                   TextTable::pct(ur.sleep_residency, 2),
                   TextTable::pct(ur.useful_idleness_count, 2),
                   std::to_string(ur.sleep_episodes),
                   TextTable::num(ur.lifetime_years, 3)});
  }
  units.render(std::cout);
  if (shown < r.units.size())
    std::cout << "... (" << r.units.size() - shown << " more units)\n";

  std::cout << "\ncache: hit rate "
            << TextTable::num(r.cache_stats.hit_rate(), 4) << " ("
            << r.cache_stats.hits << " hits, " << r.cache_stats.misses
            << " misses, " << r.cache_stats.writebacks
            << " writebacks, " << r.cache_stats.flushes << " flushes)\n";
  for (std::size_t lvl = 1; lvl < r.num_levels(); ++lvl) {
    const CacheStats& s = r.level_stats[lvl];
    std::cout << "L" << (lvl + 1) << ": hit rate "
              << TextTable::num(s.hit_rate(), 4) << " (" << s.accesses
              << " accesses, " << s.hits << " hits, " << s.misses
              << " misses)\n";
  }

  const EnergyBreakdown& e = r.energy.partitioned;
  std::cout << "energy (pJ): dynamic " << TextTable::num(e.dynamic_pj, 0)
            << ", leakage active "
            << TextTable::num(e.leakage_active_pj, 0)
            << ", leakage drowsy "
            << TextTable::num(e.leakage_drowsy_pj, 0)
            << ", leakage gated/retention "
            << TextTable::num(e.leakage_retention_pj, 0)
            << ", transitions " << TextTable::num(e.transition_pj, 0)
            << "\n"
            << "saving vs monolithic baseline: "
            << TextTable::pct(r.energy_saving(), 2) << " %\n"
            << "cache lifetime: " << TextTable::num(r.lifetime_years(), 3)
            << " years (limiting bank "
            << (r.lifetime ? r.lifetime->limiting_bank : 0) << ")\n";
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2 && std::string(argv[1]) == "--example") {
    std::cout << kExampleConfig;
    return 0;
  }
  // --timeline <out.json>: write the per-interval power-state timeline
  // artifact (docs/TIMELINE.md).  Off by default — without the flag no
  // observer is attached and the run (and its output) is bit-identical.
  std::string timeline_path;
  std::vector<std::string> args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--timeline") {
      if (i + 1 >= argc) {
        std::cerr << "pcalsim: --timeline needs an output path\n";
        return 2;
      }
      timeline_path = argv[++i];
      continue;
    }
    args.push_back(arg);
  }
  if (args.empty()) {
    std::cerr << "usage: pcalsim <config.ini> [section.key=value ...] "
                 "[--timeline out.json]\n"
                 "       pcalsim --example\n";
    return 2;
  }
  try {
    const std::vector<std::string> overrides(args.begin() + 1, args.end());
    const std::vector<ConfigEntry> entries =
        load_config(args[0], {args[0], kSections, {}}, overrides);
    const api::RunConfig rc = stage_ini(entries, args[0]);

    // Structured pre-flight: every bad key/value and every invalid
    // combination reported at once (api::RunConfig::validate), instead
    // of failing on the first.
    const std::vector<api::ConfigIssue> issues = rc.validate();
    if (!issues.empty()) {
      std::cerr << "pcalsim: invalid configuration:\n";
      for (const api::ConfigIssue& issue : issues) {
        std::cerr << "  ";
        if (!issue.key.empty())
          std::cerr << issue.key << " = " << issue.value << ": ";
        std::cerr << issue.reason << "\n";
      }
      return 1;
    }

    api::TimelineRecorder recorder;
    api::RunOptions options;
    if (!timeline_path.empty()) {
      recorder.price_with(rc);
      options.observer = recorder.observer();
    }
    const api::RunOutput out = api::run(rc, options);
    if (out.cores.empty())
      print_single(out.result);
    else
      print_multicore(out);

    if (!timeline_path.empty()) {
      recorder.set_run_label(out.result.workload + " on " +
                             out.result.config_label);
      recorder.write_json_file(timeline_path);
      std::cerr << "pcalsim: timeline written to " << timeline_path << "\n";
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "pcalsim: error: " << e.what() << "\n";
    return 1;
  }
}
