// The key table (core/run_assembly.h) is the one vocabulary of every
// front-end.  For each row, one valid non-default value must reach the
// config alike through RunAssembly::set, a one-value [sweep] axis and a
// [grid] scalar (pcalsim's INI spellings stage the same run keys, which
// tests/cli/check_key_docs.py pins), and the table's defaults must be
// SimConfig's own.
#include "core/run_assembly.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/grid_spec.h"
#include "trace/workloads.h"
#include "util/error.h"

namespace pcal {
namespace {

void put(std::ostream& os, const CacheConfig& c) {
  os << c.size_bytes << ' ' << c.line_bytes << ' ' << c.ways << ' '
     << c.address_bits;
}

void put(std::ostream& os, const LatencyParams& l) {
  os << " lat " << l.hit_cycles << ' ' << l.miss_cycles << ' '
     << l.drowsy_wake_cycles << ' ' << l.gated_wake_cycles;
}

void put(std::ostream& os, const ContentionParams& c) {
  os << " cont " << c.mshrs << ' ' << c.ports << ' ' << c.bytes_per_cycle
     << ' ' << c.mshr_latency_cycles << ' ' << c.port_cycles;
}

void put(std::ostream& os, const LevelConfig& level) {
  const CacheTopology& t = level.topology;
  os << " | incl " << static_cast<int>(level.inclusion) << ' ';
  put(os, t.cache);
  os << " gran " << static_cast<int>(t.granularity) << " banks "
     << t.partition.num_banks << " idx " << static_cast<int>(t.indexing)
     << " seed " << t.indexing_seed << " be " << t.breakeven_cycles
     << " pol " << static_cast<int>(t.policy) << " dw "
     << t.drowsy_window_cycles;
  put(os, t.latency);
  put(os, t.contention);
}

/// Every field a key can reach, and the ones next to them.
std::string digest(const SimConfig& c, const MultiCoreConfig* mc) {
  std::ostringstream os;
  os.precision(17);
  put(os, c.cache);
  os << " gran " << static_cast<int>(c.granularity) << " banks "
     << c.partition.num_banks << " idx " << static_cast<int>(c.indexing)
     << " seed " << c.indexing_seed << " pol " << static_cast<int>(c.policy)
     << " dw " << c.drowsy_window_cycles << " upd " << c.reindex_updates
     << " be " << c.breakeven_override << " unit " << c.force_unit_pricing
     << " scalar " << c.force_scalar_loop;
  put(os, c.latency);
  put(os, c.contention);
  const EnergyParams& e = c.energy_params;
  os << " energy " << e.drowsy_leak_fraction << ' ' << e.gated_leak_fraction
     << ' ' << e.sleep_area_leak_overhead << ' ' << e.control_leak_uw_per_unit
     << ' ' << e.gate_transition_fixed_pj << ' '
     << e.drowsy_transition_fraction << ' ' << e.drowsy_transition_fixed_pj;
  for (const LevelConfig& level : c.lower_levels) put(os, level);
  if (mc != nullptr) {
    os << " || cores " << mc->cores.size() << " upd " << mc->reindex_updates;
    for (const MultiCoreConfig::Core& core : mc->cores) {
      os << " || mask " << core.llc_way_mask;
      for (const LevelConfig& level : core.levels) put(os, level);
    }
    os << " || llc";
    put(os, mc->llc);
  }
  return os.str();
}

/// A context in which every key reaches the config: two cores, each with
/// an L2 and an L3, over a shared LLC, priced per unit (so energy_* keys
/// apply).
const std::vector<std::pair<std::string, std::string>> kBase = {
    {"l2_size", "32k"},  {"l3_size", "128k"},      {"cores", "2"},
    {"llc_size", "256k"}, {"unit_pricing", "true"},
};

/// A run key as a spec would spell it: core<k>_workload as core1_workload.
std::string spelled(const ConfigKey& key) {
  return key.type == KeyType::kWorkload && key.inherits
             ? std::string("core1_workload")
             : std::string(key.name);
}

RunAssembly staged(const std::string& key, const std::string& value) {
  RunAssembly asmb;
  for (const auto& [k, v] : kBase)
    if (k != key) asmb.set(k, v);
  asmb.set(key, value);
  return asmb;
}

std::string digest(const RunAssembly& asmb) {
  const RunAssembly::Assembled out = asmb.assemble();
  return digest(out.config, out.multicore ? &*out.multicore : nullptr);
}

std::string digest(const GridJob& job) {
  return digest(job.config, job.multicore.get());
}

/// A spec with `key = value` under [grid] (as_axis false) or [sweep].
GridSpec spec_with(const std::string& key, const std::string& value,
                   bool as_axis) {
  std::string text = "[grid]\n";
  for (const auto& [k, v] : kBase)
    if (k != key) text += k + " = " + v + "\n";
  const std::string line = key + " = " + value + "\n";
  if (!as_axis) text += line;
  text += "[sweep]\n";
  if (as_axis) text += line;
  if (key != "workload") text += "workload = cjpeg\n";
  std::istringstream is(text);
  return GridSpec::parse(is, "keys");
}

/// A valid value of `key` that changes what the base context assembles.
std::string non_default_value(const ConfigKey& key) {
  static const std::vector<std::string> kByType[] = {
      /*kCount*/ {"2", "8", "64k"},
      /*kReal*/ {"0.5", "0.01"},
      /*kBool*/ {"true", "false"},
      /*kEnum*/ {"monolithic", "line", "static", "probing", "drowsy",
                 "inclusive"},
      /*kWorkload*/ {"sha"}};
  RunAssembly base;
  for (const auto& [k, v] : kBase) base.set(k, v);
  const std::string name = spelled(key);
  for (const std::string& value : kByType[static_cast<int>(key.type)]) {
    try {
      const RunAssembly asmb = staged(name, value);
      if (digest(asmb) != digest(base) ||
          asmb.accesses() != base.accesses() ||
          asmb.footprint_bytes() != base.footprint_bytes() ||
          asmb.workload() != base.workload() ||
          asmb.core_workloads() != base.core_workloads())
        return value;
    } catch (const Error&) {
    }
  }
  return "";
}

TEST(KeyTable, DefaultsAreSimConfigDefaults) {
  const RunAssembly::Assembled out = RunAssembly().assemble();
  EXPECT_EQ(digest(out.config, nullptr), digest(SimConfig{}, nullptr));
  EXPECT_FALSE(out.multicore.has_value());
  const RunAssembly defaults;
  EXPECT_EQ(defaults.accesses(), kDefaultTraceAccesses);
  EXPECT_EQ(defaults.footprint_bytes(), 64u * 1024);
  EXPECT_EQ(defaults.workload(), "uniform");
}

TEST(KeyTable, EveryRowReachesTheConfigAlikeOnEverySurface) {
  RunAssembly base;
  for (const auto& [k, v] : kBase) base.set(k, v);
  for (const ConfigKey& key : kConfigKeys) {
    const std::string name = spelled(key);
    SCOPED_TRACE(name);
    EXPECT_TRUE(RunAssembly::knows(name));
    EXPECT_NE(key.doc, nullptr);
    EXPECT_NE(key.fallback == nullptr, key.inherits == nullptr);
    const std::string value = non_default_value(key);
    ASSERT_FALSE(value.empty()) << "no value of this key changes the run";
    const RunAssembly asmb = staged(name, value);

    if (name == "accesses" || name == "footprint") {
      // Grid-wide: a [grid] scalar, never an axis.
      EXPECT_THROW(spec_with(name, value, true), ParseError);
      const GridSpec grid = spec_with(name, value, false);
      if (name == "accesses") {
        EXPECT_EQ(grid.accesses(), asmb.accesses());
      } else {
        ASSERT_FALSE(grid.fixed().empty());
        EXPECT_EQ(grid.fixed().back().key, name);
        EXPECT_EQ(grid.fixed().back().value,
                  std::to_string(asmb.footprint_bytes()));
      }
      continue;
    }
    const std::vector<GridJob> swept =
        spec_with(name, value, true).expand(1000);
    ASSERT_EQ(swept.size(), 1u);
    if (key.type == KeyType::kWorkload) {
      // Axis-only: a stream is a grid coordinate.
      EXPECT_THROW(spec_with(name, value, false), ParseError);
      if (name == "workload") {
        EXPECT_EQ(swept[0].workload, asmb.workload());
      } else {
        ASSERT_EQ(swept[0].core_sources.size(), 2u);
        EXPECT_EQ(swept[0].core_sources[1]()->name(),
                  asmb.core_workloads().at(1));
      }
      continue;
    }
    const std::string expected = digest(asmb);
    EXPECT_NE(expected, digest(base));
    EXPECT_EQ(digest(swept[0]), expected) << "[sweep] " << name;
    const std::vector<GridJob> fixed =
        spec_with(name, value, false).expand(1000);
    ASSERT_EQ(fixed.size(), 1u);
    EXPECT_EQ(digest(fixed[0]), expected) << "[grid] " << name;
  }
}

TEST(KeyTable, LowerLevelsInheritAlongTheTable) {
  // An unset L2 key takes the L1 value (geometry, wakeups) or its own
  // default; an unset L3 key the resolved L2 value.
  RunAssembly asmb;
  asmb.set("line_size", "32");
  asmb.set("gated_wake", "3");
  asmb.set("l2_size", "64k");
  asmb.set("l2_banks", "8");
  asmb.set("l3_size", "256k");
  asmb.set("inclusion", "victim");
  const SimConfig cfg = asmb.assemble().config;
  ASSERT_EQ(cfg.lower_levels.size(), 2u);
  for (const LevelConfig& level : cfg.lower_levels) {
    EXPECT_EQ(level.topology.cache.line_bytes, 32u);
    EXPECT_EQ(level.topology.latency.gated_wake_cycles, 3u);
    EXPECT_EQ(level.topology.partition.num_banks, 8u);
    EXPECT_EQ(level.topology.breakeven_cycles, 64u);
    EXPECT_EQ(level.topology.indexing, IndexingKind::kStatic);
    EXPECT_EQ(level.inclusion, InclusionPolicy::kVictim);
  }
}

}  // namespace
}  // namespace pcal
