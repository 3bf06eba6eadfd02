// pcalsim — the command-line front-end to the simulator.
//
// Runs one workload on one architecture configuration described by an
// INI file (plus command-line overrides) and prints the full report:
// idleness, energy breakdown, lifetime, cache statistics.
//
// Usage:
//   pcalsim <config.ini> [section.key=value ...]
//   pcalsim --example            # print an annotated example config
//
// Example config:
//   [workload]
//   name = rijndael_i        # a MediaBench name, or uniform/streaming/
//                            # hotspot, or trace:<path>
//   accesses = 2000000
//   [cache]
//   size = 8k
//   line = 16
//   ways = 1
//   [partition]
//   granularity = bank       # monolithic | bank | line | way
//   banks = 4
//   indexing = probing       # static | probing | scrambling
//   updates = 16
//   policy = gated           # gated | drowsy
//   drowsy_window = 0        # extra idle cycles at the drowsy voltage
//   [latency]                # stall cycles (0 = idealized clock)
//   hit = 0
//   miss = 0
//   drowsy_wake = 0
//   gated_wake = 0
//   [contention]             # finite L1 resources (0 = unlimited; see
//   mshrs = 0                # docs/CONTENTION.md)
//   ports = 0                # access ports per bank
//   bandwidth = 0            # fill bytes per cycle toward the next level
//   mshr_latency = 32        # cycles an MSHR stays allocated per miss
//   port_cycles = 1          # bank busy cycles per access
//   [l2]                     # optional second level (size 0 = disabled)
//   size = 0
//   banks = 4
//   granularity = bank
//   breakeven = 64
//   inclusion = noninclusive # noninclusive | inclusive | exclusive | victim
//   hit_latency = 0
//   miss_latency = 0
//   mshrs = 0                # per-level resources ([contention] shapes L1)
//   ports = 0
//   bandwidth = 0
//   [l3]                     # optional third level (same keys as [l2])
//   size = 0
//   [multiprogram]           # optional: interleave several programs in
//   programs = cjpeg+sha     # round-robin quanta (overrides [workload]
//   quantum = 100000         # name); boundaries align re-indexing
//   stride = 1m              # per-program address-space offset
//   [multicore]              # optional: N copies of the stack above a
//   cores = 0                # shared LLC (see docs/MULTICORE.md)
//   llc_size = 64k           # required when cores > 0
//   llc_ways = 8
//   llc_banks = 4
//   llc_breakeven = 64
//   llc_ways_per_core = 0    # > 0 way-partitions the LLC per core
//   llc_mshrs = 0            # finite shared-LLC resources (0 = unlimited)
//   llc_ports = 0
//   llc_bandwidth = 0
//   [core1]                  # optional per-core workload override
//   workload = streaming
#include <algorithm>
#include <iostream>
#include <memory>
#include <sstream>
#include <vector>

#include "api/pcal.h"
#include "api/timeline.h"
#include "core/experiment.h"
#include "core/multicore.h"
#include "core/run_assembly.h"
#include "trace/multiprogram.h"
#include "trace/trace_io.h"
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

std::unique_ptr<TraceSource> make_named_source(const ConfigFile& cfg,
                                               const std::string& name,
                                               std::uint64_t accesses) {
  const std::uint64_t footprint =
      cfg.get_u64("workload", "footprint", 64 * 1024);
  if (starts_with(name, "trace:"))
    return std::make_unique<Trace>(load_trace_file(name.substr(6)));
  if (starts_with(name, "multiprog:"))
    return std::make_unique<MultiProgramSource>(
        parse_multiprogram_spec(name.substr(10), footprint), accesses);
  WorkloadSpec spec;
  if (name == "uniform")
    spec = make_uniform_workload(footprint);
  else if (name == "streaming")
    spec = make_streaming_workload(footprint);
  else if (name == "hotspot")
    spec = make_hotspot_workload(footprint);
  else
    spec = make_mediabench_workload(name);
  return std::make_unique<SyntheticTraceSource>(spec, accesses);
}

std::unique_ptr<TraceSource> make_source(const ConfigFile& cfg,
                                         std::uint64_t accesses) {
  // A [multiprogram] section overrides the [workload] name with an
  // interleaved multi-program stream; its quantum boundaries feed the
  // simulator's context-switch-aligned re-indexing.
  const std::string programs =
      cfg.get_string("multiprogram", "programs", "");
  if (!programs.empty()) {
    std::string spec = programs;
    std::replace(spec.begin(), spec.end(), ',', '+');
    MultiProgramConfig mp = parse_multiprogram_spec(
        spec, cfg.get_u64("workload", "footprint", 64 * 1024));
    mp.quantum_accesses =
        cfg.get_u64("multiprogram", "quantum", mp.quantum_accesses);
    mp.address_stride =
        cfg.get_u64("multiprogram", "stride", mp.address_stride);
    mp.validate();
    return std::make_unique<MultiProgramSource>(std::move(mp), accesses);
  }
  return make_named_source(
      cfg, cfg.get_string("workload", "name", "rijndael_i"), accesses);
}

std::string hex_mask(std::uint64_t mask) {
  std::ostringstream os;
  os << "0x" << std::hex << mask;
  return os.str();
}

/// The [multicore] run path: N copies of the configured stack over a
/// shared LLC, per-core workloads from [core<k>] sections.
int run_multicore(const ConfigFile& cfg, MultiCoreConfig mc,
                  std::uint64_t num_cores, std::uint64_t accesses,
                  const std::string& timeline_path) {
  const std::string default_name =
      cfg.get_string("workload", "name", "rijndael_i");
  std::vector<std::unique_ptr<TraceSource>> owned;
  std::vector<TraceSource*> sources;
  for (std::uint64_t k = 0; k < num_cores; ++k) {
    const std::string name = cfg.get_string(
        "core" + std::to_string(k), "workload", default_name);
    owned.push_back(make_named_source(cfg, name, accesses));
    sources.push_back(owned.back().get());
  }

  api::TimelineRecorder recorder;
  IntervalObserver observer;
  if (!timeline_path.empty()) {
    recorder.price_with(mc);
    observer = recorder.observer();
  }

  const MultiCoreResult mr = MultiCoreSystem(std::move(mc))
                                 .run(sources, &api::shared_aging().lut(),
                                      observer);
  const SimResult& r = mr.system;

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
  for (std::size_t k = 0; k < mr.cores.size(); ++k) {
    const CoreResult& c = mr.cores[k];
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

  if (!timeline_path.empty()) {
    recorder.set_run_label(r.workload + " on " + r.config_label);
    recorder.write_json_file(timeline_path);
    std::cerr << "pcalsim: timeline written to " << timeline_path << "\n";
  }
  return 0;
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
    ConfigFile cfg = ConfigFile::load(args[0]);
    for (std::size_t i = 1; i < args.size(); ++i)
      cfg.apply_override(args[i]);

    // Translate the INI sections into the shared key -> config path
    // (core/run_assembly.h) pcalsweep and the api facade use.  Every
    // value is passed explicitly with pcalsim's own ConfigFile default,
    // so pcalsim keeps its documented defaults (an [l3] does NOT
    // inherit [l2] here) while the application/validation code is the
    // shared one.  Staged through api::RunConfig so validation reports
    // every problem at once, not just the first.
    api::RunConfig rc;
    const auto set_num = [&](const std::string& key, std::uint64_t v) {
      rc.set(key, std::to_string(v));
    };
    rc.set("granularity",
           cfg.get_string("partition", "granularity", "bank"));
    set_num("cache_size", cfg.get_u64("cache", "size", 8192));
    set_num("line_size", cfg.get_u64("cache", "line", 16));
    set_num("ways", cfg.get_u64("cache", "ways", 1));
    set_num("banks", cfg.get_u64("partition", "banks", 4));
    rc.set("indexing", cfg.get_string("partition", "indexing", "probing"));
    set_num("updates", cfg.get_u64("partition", "updates", 16));
    // 0 = derive the breakeven from the energy model; line-grain sleep
    // hardware usually wants an explicit value (e.g. 28).
    set_num("breakeven", cfg.get_u64("partition", "breakeven", 0));
    rc.set("policy", cfg.get_string("partition", "policy", "gated"));
    set_num("drowsy_window", cfg.get_u64("partition", "drowsy_window", 0));
    // The L1 latency point; all-zero (the default) keeps the idealized
    // one-access-per-cycle clock.  Wakeup latencies are shared by every
    // level unless a level overrides them.
    set_num("hit_latency", cfg.get_u64("latency", "hit", 0));
    set_num("miss_latency", cfg.get_u64("latency", "miss", 0));
    set_num("drowsy_wake", cfg.get_u64("latency", "drowsy_wake", 0));
    set_num("gated_wake", cfg.get_u64("latency", "gated_wake", 0));
    // Finite L1 resources (core/contention.h); all-zero limits keep the
    // run bit-identical to a config without a [contention] section.
    set_num("mshrs", cfg.get_u64("contention", "mshrs", 0));
    set_num("ports", cfg.get_u64("contention", "ports", 0));
    set_num("bandwidth", cfg.get_u64("contention", "bandwidth", 0));
    set_num("mshr_latency", cfg.get_u64("contention", "mshr_latency", 32));
    set_num("port_cycles", cfg.get_u64("contention", "port_cycles", 1));
    // Optional lower levels: [l2] / [l3], size = 0 disables a level.
    for (const std::string section : {"l2", "l3"}) {
      if (cfg.get_u64(section, "size", 0) == 0) continue;
      const std::string p = section + "_";
      const auto lvl_num = [&](const char* key, std::uint64_t v) {
        rc.set(p + key, std::to_string(v));
      };
      lvl_num("size", cfg.get_u64(section, "size", 0));
      rc.set(p + "inclusion",
             cfg.get_string(section, "inclusion", "noninclusive"));
      // Geometry and wakeup latencies default to the L1 values staged
      // above (the documented make_level inheritance).
      lvl_num("line",
              cfg.get_u64(section, "line", cfg.get_u64("cache", "line", 16)));
      lvl_num("ways",
              cfg.get_u64(section, "ways", cfg.get_u64("cache", "ways", 1)));
      rc.set(p + "granularity",
             cfg.get_string(section, "granularity", "bank"));
      lvl_num("banks", cfg.get_u64(section, "banks", 4));
      rc.set(p + "indexing", cfg.get_string(section, "indexing", "static"));
      lvl_num("breakeven", cfg.get_u64(section, "breakeven", 64));
      rc.set(p + "policy", cfg.get_string(section, "policy", "gated"));
      lvl_num("drowsy_window", cfg.get_u64(section, "drowsy_window", 0));
      lvl_num("hit_latency", cfg.get_u64(section, "hit_latency", 0));
      lvl_num("miss_latency", cfg.get_u64(section, "miss_latency", 0));
      lvl_num("drowsy_wake",
              cfg.get_u64(section, "drowsy_wake",
                          cfg.get_u64("latency", "drowsy_wake", 0)));
      lvl_num("gated_wake",
              cfg.get_u64(section, "gated_wake",
                          cfg.get_u64("latency", "gated_wake", 0)));
      // Per-level resource limits; the timing scalars are shared with
      // the [contention] section (one resource technology).
      lvl_num("mshrs", cfg.get_u64(section, "mshrs", 0));
      lvl_num("ports", cfg.get_u64(section, "ports", 0));
      lvl_num("bandwidth", cfg.get_u64(section, "bandwidth", 0));
    }

    const std::uint64_t accesses =
        cfg.get_u64("workload", "accesses", 2'000'000);
    set_num("accesses", accesses);

    const std::uint64_t num_cores = cfg.get_u64("multicore", "cores", 0);
    if (num_cores > 0) {
      set_num("cores", num_cores);
      set_num("llc_size", cfg.get_u64("multicore", "llc_size", 0));
      rc.set("llc_inclusion",
             cfg.get_string("multicore", "inclusion", "noninclusive"));
      set_num("llc_ways", cfg.get_u64("multicore", "llc_ways", 8));
      set_num("llc_banks", cfg.get_u64("multicore", "llc_banks", 4));
      set_num("llc_breakeven",
              cfg.get_u64("multicore", "llc_breakeven", 64));
      set_num("llc_ways_per_core",
              cfg.get_u64("multicore", "llc_ways_per_core", 0));
      set_num("llc_mshrs", cfg.get_u64("multicore", "llc_mshrs", 0));
      set_num("llc_ports", cfg.get_u64("multicore", "llc_ports", 0));
      set_num("llc_bandwidth",
              cfg.get_u64("multicore", "llc_bandwidth", 0));
    }

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

    RunAssembly asmb;
    for (const auto& [key, value] : rc.entries()) asmb.set(key, value);
    RunAssembly::Assembled assembled = asmb.assemble();
    if (assembled.multicore)
      return run_multicore(cfg, std::move(*assembled.multicore), num_cores,
                           accesses, timeline_path);
    const SimConfig& sim = assembled.config;

    auto source = make_source(cfg, accesses);

    api::TimelineRecorder recorder;
    IntervalObserver observer;
    if (!timeline_path.empty()) {
      recorder.price_with(sim);
      observer = recorder.observer();
    }

    const SimResult r =
        Simulator(sim).run(*source, &api::shared_aging().lut(), observer);

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

    if (!timeline_path.empty()) {
      recorder.set_run_label(r.workload + " on " + r.config_label);
      recorder.write_json_file(timeline_path);
      std::cerr << "pcalsim: timeline written to " << timeline_path << "\n";
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "pcalsim: error: " << e.what() << "\n";
    return 1;
  }
}
