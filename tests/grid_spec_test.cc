// GridSpec: the .sweep parser, cross-product expansion, trace-file
// workload factories and the pivot renderer behind pcalsweep.
#include "core/grid_spec.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "core/sweep.h"
#include "trace/binary_trace.h"
#include "trace/trace_io.h"
#include "trace/workloads.h"
#include "util/error.h"

namespace pcal {
namespace {

GridSpec parse(const std::string& text,
               const std::vector<std::string>& overrides = {}) {
  std::istringstream is(text);
  return GridSpec::parse(is, "test", overrides);
}

constexpr const char* kMinimal = R"(
[sweep]
banks = 2, 4
workload = cjpeg
)";

TEST(GridSpecParse, AxesAndCrossProduct) {
  const GridSpec spec = parse(R"(
[grid]
name = demo
accesses = 50000

[sweep]
cache_size = 8192, 16k
banks = 2, 4, 8
workload = cjpeg, sha
)");
  EXPECT_EQ(spec.name(), "demo");
  EXPECT_EQ(spec.accesses(), 50000u);
  ASSERT_EQ(spec.axes().size(), 3u);
  EXPECT_EQ(spec.axes()[0].key, "cache_size");
  // Numeric values canonicalize ("16k" -> "16384").
  EXPECT_EQ(spec.axes()[0].values,
            (std::vector<std::string>{"8192", "16384"}));
  EXPECT_EQ(spec.cross_product_size(), 2u * 3u * 2u);
  EXPECT_EQ(spec.describe_axes(),
            "cache_size x2, banks x3, workload x2");
}

TEST(GridSpecParse, CountsAreDecimal) {
  // A leading zero is decimal, not octal, and a 0x prefix is rejected:
  // a spec's counts read as SWEEP_CLI.md documents them.
  EXPECT_EQ(parse("[grid]\naccesses = 010000\n[sweep]\nworkload = cjpeg\n")
                .accesses(),
            10000u);
  EXPECT_THROW(parse("[grid]\naccesses = 0x3000\n[sweep]\nworkload = cjpeg\n"),
               ParseError);
  EXPECT_THROW(parse(kMinimal, {"sweep.banks=0x4"}), ParseError);
}

TEST(GridSpecParse, RangeSyntax) {
  const GridSpec spec = parse(R"(
[sweep]
banks = 1..32 log2
updates = 2..8 step 3
breakeven = 3..5
workload = cjpeg
)");
  EXPECT_EQ(spec.find_axis("banks")->values,
            (std::vector<std::string>{"1", "2", "4", "8", "16", "32"}));
  EXPECT_EQ(spec.find_axis("updates")->values,
            (std::vector<std::string>{"2", "5", "8"}));
  EXPECT_EQ(spec.find_axis("breakeven")->values,
            (std::vector<std::string>{"3", "4", "5"}));
  // A step larger than the whole range yields just the start value
  // (regression: `hi - step` used to underflow).
  const GridSpec one = parse("[sweep]\nbanks = 1..1 step 2\nworkload = cjpeg\n");
  EXPECT_EQ(one.find_axis("banks")->values, (std::vector<std::string>{"1"}));
  // k/M suffixes that would overflow 64 bits fail instead of wrapping.
  EXPECT_THROW(
      parse("[sweep]\ncache_size = 18014398509481985k\nworkload = cjpeg\n"),
      ParseError);
}

TEST(GridSpecParse, MediabenchExpandsToAllWorkloads) {
  const GridSpec spec = parse(R"(
[sweep]
workload = mediabench
)");
  EXPECT_EQ(spec.find_axis("workload")->values.size(),
            mediabench_signatures().size());
  EXPECT_EQ(spec.find_axis("workload")->values.front(),
            mediabench_signatures().front().name);
}

TEST(GridSpecParse, MalformedRangesRejected) {
  // Descending, zero step, trailing garbage, non-numeric — all named
  // with the offending line.
  EXPECT_THROW(parse("[sweep]\nbanks = 8..2\nworkload = cjpeg\n"),
               ParseError);
  EXPECT_THROW(parse("[sweep]\nbanks = 2..8 step 0\nworkload = cjpeg\n"),
               ParseError);
  EXPECT_THROW(parse("[sweep]\nbanks = 2..8 warp\nworkload = cjpeg\n"),
               ParseError);
  EXPECT_THROW(parse("[sweep]\nbanks = 2..8 log2 9\nworkload = cjpeg\n"),
               ParseError);
  EXPECT_THROW(parse("[sweep]\nbanks = banana\nworkload = cjpeg\n"),
               ParseError);
  EXPECT_THROW(parse("[sweep]\nbanks = -4\nworkload = cjpeg\n"),
               ParseError);
  try {
    parse("[sweep]\nworkload = cjpeg\nbanks = 8..2\n");
    FAIL() << "descending range accepted";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos)
        << e.what();
  }
}

TEST(GridSpecParse, EmptyAxisIsEmptyCrossProduct) {
  EXPECT_THROW(parse("[sweep]\nbanks =\nworkload = cjpeg\n"), ParseError);
  EXPECT_THROW(parse("[sweep]\nbanks = 2,,4\nworkload = cjpeg\n"),
               ParseError);
  // No [sweep] section at all.
  EXPECT_THROW(parse("[grid]\nname = x\n"), ConfigError);
  // Axes but no workload axis.
  EXPECT_THROW(parse("[sweep]\nbanks = 4\n"), ConfigError);
}

TEST(GridSpecParse, DuplicateKeysRejected) {
  try {
    parse("[sweep]\nbanks = 2\nbanks = 4\nworkload = cjpeg\n");
    FAIL() << "duplicate key accepted";
  } catch (const ParseError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("duplicate key 'sweep.banks'"), std::string::npos)
        << what;
    EXPECT_NE(what.find("line 2"), std::string::npos) << what;
  }
}

TEST(GridSpecParse, UnknownKeysAndSectionsRejected) {
  try {
    parse("[sweep]\nbankz = 2\nworkload = cjpeg\n");
    FAIL() << "unknown axis accepted";
  } catch (const ParseError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("unknown sweep axis 'bankz'"), std::string::npos)
        << what;
    EXPECT_NE(what.find("banks"), std::string::npos)
        << "error should list the valid axes: " << what;
  }
  EXPECT_THROW(parse("[grid]\ncolour = blue\n"), ParseError);
  EXPECT_THROW(parse("[settings]\nbanks = 2\n"), ParseError);
  EXPECT_THROW(parse("banks = 2\n"), ParseError);  // key before any section
  EXPECT_THROW(parse("[sweep]\nworkload = quake3\n"), ParseError);
  EXPECT_THROW(parse("[sweep]\npolicy = sleepy\nworkload = cjpeg\n"),
               ParseError);
}

TEST(GridSpecParse, OverridesReplaceAndAppend) {
  const GridSpec spec =
      parse(kMinimal, {"sweep.banks=8, 16", "grid.name=patched",
                       "sweep.line_size=32"});
  EXPECT_EQ(spec.name(), "patched");
  EXPECT_EQ(spec.find_axis("banks")->values,
            (std::vector<std::string>{"8", "16"}));
  // New keys append as innermost axes.
  EXPECT_EQ(spec.axes().back().key, "line_size");
  EXPECT_THROW(parse(kMinimal, {"nonsense"}), ParseError);
  EXPECT_THROW(parse(kMinimal, {"sweep.banks=0x"}), ParseError);
}

TEST(GridSpecFilter, PrunesCrossProductAndExpansion) {
  const GridSpec spec = parse(R"(
[sweep]
banks = 1..32 log2
workload = cjpeg, sha

[filter]
banks <= 8
)");
  ASSERT_EQ(spec.filters().size(), 1u);
  EXPECT_EQ(spec.filters()[0].key, "banks");
  EXPECT_EQ(spec.filters()[0].op, "<=");
  EXPECT_EQ(spec.filters()[0].value, "8");
  // Axes keep their full value lists; only the expansion is pruned.
  EXPECT_EQ(spec.find_axis("banks")->values.size(), 6u);
  EXPECT_EQ(spec.cross_product_size(), 4u * 2u);  // banks 1,2,4,8
  const std::vector<GridJob> jobs = spec.expand(1000);
  ASSERT_EQ(jobs.size(), 8u);
  // Declaration order survives pruning: banks outermost, ascending.
  EXPECT_EQ(jobs.front().coords,
            (std::vector<std::string>{"1", "cjpeg"}));
  EXPECT_EQ(jobs.back().coords, (std::vector<std::string>{"8", "sha"}));
  for (const GridJob& job : jobs)
    EXPECT_LE(std::stoul(job.coords[0]), 8u) << spec.job_label(job);
}

TEST(GridSpecFilter, ConjunctionsAndSpellings) {
  // Multiple filters AND together; numeric rhs canonicalizes ("16k").
  const GridSpec spec = parse(R"(
[sweep]
cache_size = 8192, 16k, 32k
banks = 2, 4, 8
workload = cjpeg

[filter]
cache_size < 16k
banks >= 4
banks != 8
)");
  EXPECT_EQ(spec.filters()[0].value, "16384");
  EXPECT_EQ(spec.cross_product_size(), 1u * 1u * 1u);
  const std::vector<GridJob> jobs = spec.expand(1000);
  ASSERT_EQ(jobs.size(), 1u);
  EXPECT_EQ(jobs[0].coords,
            (std::vector<std::string>{"8192", "4", "cjpeg"}));
}

TEST(GridSpecFilter, StringAxesEqualityOnly) {
  const GridSpec spec = parse(R"(
[sweep]
banks = 2
policy = gated, drowsy, drowsy_hybrid
workload = cjpeg

[filter]
policy != drowsy
)");
  EXPECT_EQ(spec.cross_product_size(), 2u);
  for (const GridJob& job : spec.expand(1000))
    EXPECT_NE(job.coords[1], "drowsy");
  // Ordering operators are meaningless on enum/string axes.
  EXPECT_THROW(parse(std::string(kMinimal) + "[filter]\nworkload < sha\n"),
               ParseError);
}

TEST(GridSpecFilter, MalformedAndImpossibleFiltersRejected) {
  // No operator, bare '=' and '!' operators, unknown axis key.
  EXPECT_THROW(parse(std::string(kMinimal) + "[filter]\nbanks 8\n"),
               ParseError);
  EXPECT_THROW(parse(std::string(kMinimal) + "[filter]\nbanks = 8\n"),
               ParseError);
  EXPECT_THROW(parse(std::string(kMinimal) + "[filter]\nbanks ! 8\n"),
               ParseError);
  EXPECT_THROW(parse(std::string(kMinimal) + "[filter]\nbankz == 8\n"),
               ParseError);
  // A verbatim duplicate line is a spec bug, same as duplicate keys.
  EXPECT_THROW(
      parse(std::string(kMinimal) + "[filter]\nbanks <= 8\nbanks <= 8\n"),
      ParseError);
  // Filters that empty an axis would expand zero jobs — rejected with
  // the axis named, not silently reported as an empty sweep.
  try {
    parse(std::string(kMinimal) + "[filter]\nbanks > 64\n");
    FAIL() << "impossible filter accepted";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("banks"), std::string::npos)
        << e.what();
  }
}

TEST(GridSpecFilter, OverridesAppendFilters) {
  // Overrides split at their first '=': "filter.banks<=8" reassembles to
  // "banks<=8"; operators without '=' take a trailing '='.
  const GridSpec le = parse(kMinimal, {"filter.banks<=2"});
  EXPECT_EQ(le.cross_product_size(), 1u);
  EXPECT_EQ(le.expand(1000).front().coords[0], "2");
  const GridSpec lt = parse(kMinimal, {"filter.banks<4="});
  ASSERT_EQ(lt.filters().size(), 1u);
  EXPECT_EQ(lt.filters()[0].op, "<");
  EXPECT_EQ(lt.cross_product_size(), 1u);
}

TEST(GridSpecExpand, FirstAxisIsOutermostLoop) {
  const GridSpec spec = parse(R"(
[sweep]
cache_size = 8192, 16384
banks = 2, 4
workload = cjpeg
)");
  const std::vector<GridJob> jobs = spec.expand(5000);
  ASSERT_EQ(jobs.size(), 4u);
  // Last axis spins fastest — a bench's loop nest in declaration order.
  EXPECT_EQ(jobs[0].coords, (std::vector<std::string>{"8192", "2", "cjpeg"}));
  EXPECT_EQ(jobs[1].coords, (std::vector<std::string>{"8192", "4", "cjpeg"}));
  EXPECT_EQ(jobs[2].coords, (std::vector<std::string>{"16384", "2", "cjpeg"}));
  EXPECT_EQ(jobs[3].coords, (std::vector<std::string>{"16384", "4", "cjpeg"}));
  EXPECT_EQ(jobs[3].config.cache.size_bytes, 16384u);
  EXPECT_EQ(jobs[3].config.partition.num_banks, 4u);
  EXPECT_EQ(jobs[3].workload, "cjpeg");
}

TEST(GridSpecExpand, AppliesConfigAxes) {
  const GridSpec spec = parse(R"(
[grid]
unit_pricing = true

[sweep]
granularity = way
ways = 4
indexing = scrambling
policy = drowsy
drowsy_window = 64
updates = 32
breakeven = 48
seed = 9
workload = uniform
)");
  const std::vector<GridJob> jobs = spec.expand(5000);
  ASSERT_EQ(jobs.size(), 1u);
  const SimConfig& cfg = jobs[0].config;
  EXPECT_EQ(cfg.granularity, Granularity::kWay);
  EXPECT_EQ(cfg.cache.ways, 4u);
  EXPECT_EQ(cfg.indexing, IndexingKind::kScrambling);
  EXPECT_EQ(cfg.policy, PowerPolicy::kDrowsyHybrid);
  EXPECT_EQ(cfg.drowsy_window_cycles, 64u);
  EXPECT_EQ(cfg.reindex_updates, 32u);
  EXPECT_EQ(cfg.breakeven_override, 48u);
  EXPECT_EQ(cfg.indexing_seed, 9u);
  EXPECT_TRUE(cfg.force_unit_pricing);
}

TEST(GridSpecExpand, L2AxisBuildsHierarchy) {
  const GridSpec spec = parse(R"(
[grid]
l2_banks = 8
l2_breakeven = 96

[sweep]
l2_size = 0, 65536
workload = cjpeg
)");
  const std::vector<GridJob> jobs = spec.expand(5000);
  ASSERT_EQ(jobs.size(), 2u);
  EXPECT_FALSE(jobs[0].config.hierarchy_enabled());
  ASSERT_TRUE(jobs[1].config.hierarchy_enabled());
  ASSERT_EQ(jobs[1].config.lower_levels.size(), 1u);
  const CacheTopology& l2 = jobs[1].config.lower_levels[0].topology;
  EXPECT_EQ(l2.cache.size_bytes, 65536u);
  EXPECT_EQ(l2.partition.num_banks, 8u);
  EXPECT_EQ(l2.breakeven_cycles, 96u);
  EXPECT_EQ(jobs[1].config.lower_levels[0].inclusion,
            InclusionPolicy::kNonInclusive);
}

TEST(GridSpecExpand, HierarchyAxesBuildThreeLevelsWithPoliciesAndTiming) {
  const GridSpec spec = parse(R"(
[grid]
l2_banks = 4
l2_breakeven = 64

[sweep]
l2_size = 32k
l3_size = 128k
inclusion = victim
l2_indexing = probing
l2_policy = drowsy_hybrid
l2_drowsy_window = 64
hit_latency = 1
miss_latency = 8
l2_hit_latency = 2
l2_miss_latency = 30
drowsy_wake = 1
gated_wake = 3
workload = cjpeg
)");
  const std::vector<GridJob> jobs = spec.expand(5000);
  ASSERT_EQ(jobs.size(), 1u);
  const SimConfig& cfg = jobs[0].config;
  ASSERT_EQ(cfg.lower_levels.size(), 2u);
  EXPECT_EQ(cfg.latency.hit_cycles, 1u);
  EXPECT_EQ(cfg.latency.miss_cycles, 8u);
  EXPECT_EQ(cfg.latency.drowsy_wake_cycles, 1u);
  EXPECT_EQ(cfg.latency.gated_wake_cycles, 3u);
  const LevelConfig& l2 = cfg.lower_levels[0];
  EXPECT_EQ(l2.inclusion, InclusionPolicy::kVictim);
  EXPECT_EQ(l2.topology.cache.size_bytes, 32u * 1024);
  EXPECT_EQ(l2.topology.indexing, IndexingKind::kProbing);
  EXPECT_EQ(l2.topology.policy, PowerPolicy::kDrowsyHybrid);
  EXPECT_EQ(l2.topology.drowsy_window_cycles, 64u);
  EXPECT_EQ(l2.topology.latency.hit_cycles, 2u);
  EXPECT_EQ(l2.topology.latency.miss_cycles, 30u);
  EXPECT_EQ(l2.topology.latency.gated_wake_cycles, 3u);
  const LevelConfig& l3 = cfg.lower_levels[1];
  EXPECT_EQ(l3.inclusion, InclusionPolicy::kVictim);
  EXPECT_EQ(l3.topology.cache.size_bytes, 128u * 1024);
}

TEST(GridSpecExpand, L3AxesOverrideInheritedL2Values) {
  // Without l3_* axes the L3 inherits every L2 knob (the historical
  // behavior); with them, only the L3 changes.
  const GridSpec spec = parse(R"(
[grid]
l2_banks = 4
l2_breakeven = 64
l3_banks = 8
l3_breakeven = 128

[sweep]
l2_size = 32k
l3_size = 256k
l2_indexing = probing
l2_policy = drowsy_hybrid
l2_drowsy_window = 64
l3_indexing = static
l3_policy = gated
l3_drowsy_window = 0
l2_hit_latency = 2
l3_hit_latency = 6
l3_miss_latency = 60
workload = cjpeg
)");
  const std::vector<GridJob> jobs = spec.expand(5000);
  ASSERT_EQ(jobs.size(), 1u);
  const SimConfig& cfg = jobs[0].config;
  ASSERT_EQ(cfg.lower_levels.size(), 2u);
  const CacheTopology& l2 = cfg.lower_levels[0].topology;
  const CacheTopology& l3 = cfg.lower_levels[1].topology;
  EXPECT_EQ(l2.indexing, IndexingKind::kProbing);
  EXPECT_EQ(l2.policy, PowerPolicy::kDrowsyHybrid);
  EXPECT_EQ(l2.partition.num_banks, 4u);
  EXPECT_EQ(l2.breakeven_cycles, 64u);
  EXPECT_EQ(l3.indexing, IndexingKind::kStatic);
  EXPECT_EQ(l3.policy, PowerPolicy::kGated);
  EXPECT_EQ(l3.drowsy_window_cycles, 0u);
  EXPECT_EQ(l3.partition.num_banks, 8u);
  EXPECT_EQ(l3.breakeven_cycles, 128u);
  EXPECT_EQ(l3.latency.hit_cycles, 6u);
  EXPECT_EQ(l3.latency.miss_cycles, 60u);

  // Inheritance without overrides: the L3 mirrors the L2 (regression
  // for the silent l2_*-applies-to-L3 gap, now intentional fallback).
  const GridSpec inherit = parse(R"(
[sweep]
l2_size = 32k
l3_size = 256k
l2_indexing = probing
l2_drowsy_window = 32
workload = cjpeg
)");
  const SimConfig icfg = inherit.expand(5000)[0].config;
  EXPECT_EQ(icfg.lower_levels[1].topology.indexing, IndexingKind::kProbing);
  EXPECT_EQ(icfg.lower_levels[1].topology.drowsy_window_cycles, 32u);
}

TEST(GridSpecParse, L3AxesNeedAnL3) {
  EXPECT_THROW(parse(R"(
[sweep]
l2_size = 32k
l3_indexing = probing
workload = cjpeg
)"),
               ConfigError);
}

TEST(GridSpecExpand, ScramblingSeedMustBeNonzeroInItsLfsrWidth) {
  // Scrambling steps a min(24, max(2, bits) + 8)-bit LFSR over f()'s
  // index bits, whose state must start nonzero: a seed that is zero in
  // those low bits fails the grid's validation, naming seed and width,
  // before any job runs.
  const auto expand_error = [](const std::string& sweep) -> std::string {
    try {
      parse("[sweep]\nworkload = cjpeg\n" + sweep).expand(1000);
    } catch (const ConfigError& e) {
      return e.what();
    }
    return "";
  };
  // M = 4: p = 2 bank bits, a 10-bit LFSR.
  const std::string bank =
      expand_error("indexing = scrambling\nbanks = 4\nseed = 1, 1024\n");
  EXPECT_NE(bank.find("seed 1024 is zero in its low 10 bits"),
            std::string::npos)
      << bank;
  EXPECT_NE(expand_error("indexing = scrambling\nbanks = 4\nseed = 0\n")
                .find("seed 0 "),
            std::string::npos);
  // Line grain, 8 kB / 16 B: n = 9 index bits, a 17-bit LFSR.
  const std::string line = expand_error(
      "granularity = line\ncache_size = 8192\nindexing = scrambling\n"
      "seed = 131072\n");
  EXPECT_NE(line.find("low 17 bits"), std::string::npos) << line;
  EXPECT_EQ(expand_error("granularity = line\ncache_size = 8192\n"
                         "indexing = scrambling\nseed = 65536, 1025\n"),
            "");
  // Probing and a monolithic cache read no seed.
  EXPECT_EQ(expand_error("indexing = probing\nseed = 0, 1024\n"), "");
  EXPECT_EQ(expand_error("granularity = monolithic\n"
                         "indexing = scrambling\nseed = 0\n"),
            "");
}

TEST(GridSpecParse, GridScalarsFixAnyConfigKey) {
  // [grid] takes name, accesses, footprint and every config key but a
  // workload; fixing a key is a one-value axis without a coordinate.
  const GridSpec spec = parse(R"(
[grid]
name = fixed
granularity = way
ways = 4
footprint = 16k
unit_pricing = yes
energy_gated_leak = 0.01
accesses = 3000
l3_banks = 8

[sweep]
banks = 2, 4
workload = uniform
)");
  EXPECT_EQ(spec.accesses(), 3000u);
  const std::vector<GridFixed> expected = {
      {"granularity", "way"}, {"ways", "4"},
      {"footprint", "16384"},  // counts canonicalize, like axis values
      {"unit_pricing", "yes"}, {"energy_gated_leak", "0.01"},
      {"l3_banks", "8"}};     // inert without an L3, like pcalsim's [l3]
  ASSERT_EQ(spec.fixed().size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(spec.fixed()[i].key, expected[i].key);
    EXPECT_EQ(spec.fixed()[i].value, expected[i].value);
  }
  const std::vector<GridJob> jobs = spec.expand(1000);
  ASSERT_EQ(jobs.size(), 2u);
  EXPECT_EQ(jobs[0].coords, (std::vector<std::string>{"2", "uniform"}));
  for (const GridJob& job : jobs) {
    EXPECT_EQ(job.config.granularity, Granularity::kWay);
    EXPECT_EQ(job.config.cache.ways, 4u);
    EXPECT_TRUE(job.config.force_unit_pricing);
    EXPECT_DOUBLE_EQ(job.config.energy_params.gated_leak_fraction, 0.01);
    EXPECT_TRUE(job.config.lower_levels.empty());
  }

  // A bad scalar fails at its line, naming its key.
  try {
    parse("[grid]\nname = x\nllc_ways = 0\n[sweep]\nworkload = cjpeg\n");
    FAIL() << "llc_ways = 0 accepted";
  } catch (const ConfigError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("line 3"), std::string::npos) << what;
    EXPECT_NE(what.find("llc_ways"), std::string::npos) << what;
  }
  EXPECT_THROW(parse("[grid]\ngranularity = rows\n[sweep]\nworkload = sha\n"),
               ParseError);
  // Streams are coordinates: workloads stay axis-only.
  EXPECT_THROW(parse("[grid]\nworkload = sha\n[sweep]\nbanks = 2\n"),
               ParseError);
  EXPECT_THROW(
      parse("[grid]\ncore1_workload = sha\n[sweep]\nworkload = cjpeg\n"),
      ParseError);
  try {
    parse("[grid]\nwidth = 2\n[sweep]\nworkload = cjpeg\n");
    FAIL() << "unknown [grid] key accepted";
  } catch (const ParseError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("unknown [grid] key 'width'"), std::string::npos)
        << what;
    EXPECT_NE(what.find("valid: name"), std::string::npos) << what;
    EXPECT_NE(what.find(" llc_inclusion "), std::string::npos) << what;
    EXPECT_EQ(what.find("workload"), std::string::npos) << what;
  }
}

TEST(GridSpecParse, AKeyIsFixedOrSweptNotBoth) {
  try {
    parse("[grid]\nbanks = 4\n[sweep]\nworkload = cjpeg\nbanks = 2, 8\n");
    FAIL() << "a key both fixed and swept accepted";
  } catch (const ParseError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("line 5"), std::string::npos) << what;
    EXPECT_NE(what.find("'banks'"), std::string::npos) << what;
  }
  // accesses and footprint stay grid-wide: a shared stream is keyed by its
  // workload value alone.
  EXPECT_THROW(parse("[sweep]\naccesses = 1000, 2000\nworkload = cjpeg\n"),
               ParseError);
  EXPECT_THROW(parse("[sweep]\nfootprint = 16k\nworkload = uniform\n"),
               ParseError);
  try {
    parse("[sweep]\nl9_size = 2\nworkload = cjpeg\n");
    FAIL() << "unknown axis accepted";
  } catch (const ParseError& e) {
    const std::string what = e.what();
    for (const char* key : {" l3_mshrs ", " llc_inclusion ", " unit_pricing ",
                            "core<k>_workload"})
      EXPECT_NE(what.find(key), std::string::npos) << key << ": " << what;
    EXPECT_EQ(what.find("accesses"), std::string::npos) << what;
  }
}

TEST(GridSpecParse, ScopeCoversEveryLevelKey) {
  // Every l2_*/l3_*/llc_* axis needs its level; inclusion a lower level.
  for (const char* axis :
       {"l2_ways = 2", "l2_inclusion = victim", "l2_drowsy_wake = 1",
        "inclusion = victim"})
    EXPECT_THROW(parse(std::string("[sweep]\n") + axis +
                       "\nworkload = cjpeg\n"),
                 ConfigError)
        << axis;
  for (const char* axis : {"l3_mshrs = 2", "l3_line = 32", "l3_banks = 8"})
    EXPECT_THROW(parse(std::string("[sweep]\nl2_size = 32k\n") + axis +
                       "\nworkload = cjpeg\n"),
                 ConfigError)
        << axis;
  for (const char* axis : {"llc_inclusion = victim", "llc_ways = 4"})
    EXPECT_THROW(parse(std::string("[sweep]\n") + axis +
                       "\nworkload = cjpeg\n"),
                 ConfigError)
        << axis;
  // A level fixed in [grid] counts as declared.
  const GridSpec spec = parse(R"(
[grid]
l2_size = 32k
cores = 2
llc_size = 64k

[sweep]
l2_ways = 2, 4
l2_inclusion = inclusive
llc_inclusion = victim
workload = cjpeg
core1_workload = sha
)");
  const std::vector<GridJob> jobs = spec.expand(1000);
  ASSERT_EQ(jobs.size(), 2u);
  ASSERT_NE(jobs[1].multicore, nullptr);
  EXPECT_EQ(jobs[1].multicore->cores[0].levels[1].topology.cache.ways, 4u);
  EXPECT_EQ(jobs[1].multicore->cores[0].levels[1].inclusion,
            InclusionPolicy::kInclusive);
  EXPECT_EQ(jobs[1].multicore->llc.inclusion, InclusionPolicy::kVictim);
  EXPECT_EQ(jobs[1].core_sources[1]()->name(), "sha");
}

TEST(GridSpecExpand, MultiprogWorkloadBuildsInterleavedSource) {
  const GridSpec spec = parse(R"(
[grid]
accesses = 4000
footprint = 32k

[sweep]
banks = 2
workload = multiprog:sha+cjpeg@1k
)");
  EXPECT_EQ(spec.find_axis("workload")->values,
            (std::vector<std::string>{"multiprog:sha+cjpeg@1k"}));
  const std::vector<GridJob> jobs = spec.expand(4000);
  ASSERT_EQ(jobs.size(), 1u);
  auto src = jobs[0].make_source();
  EXPECT_EQ(src->name(), "multi[sha+cjpeg]");
  ASSERT_TRUE(src->boundary_hint().has_value());
  EXPECT_EQ(*src->boundary_hint(), 1024u);
  std::uint64_t n = 0;
  while (src->next()) ++n;
  EXPECT_EQ(n, 4000u);
  // Bad program lists fail at parse time, with the offending line.
  EXPECT_THROW(parse("[sweep]\nworkload = multiprog:sha+nosuch\n"),
               ParseError);
  EXPECT_THROW(parse("[sweep]\nworkload = multiprog:sha+cjpeg@0\n"),
               ParseError);
}

TEST(GridSpecExpand, CoresAxisBuildsMultiCoreJobs) {
  const GridSpec spec = parse(R"(
[grid]
accesses = 2000
llc_banks = 2
llc_ways = 8
llc_breakeven = 96

[sweep]
cores = 1, 2
llc_size = 64k
llc_ways_per_core = 0, 4
workload = cjpeg
core1_workload = streaming
)");
  const std::vector<GridJob> jobs = spec.expand(2000);
  ASSERT_EQ(jobs.size(), 4u);
  for (const GridJob& job : jobs) {
    ASSERT_NE(job.multicore, nullptr) << job.coords[0];
    const MultiCoreConfig& mc = *job.multicore;
    EXPECT_EQ(mc.llc.topology.cache.size_bytes, 64u * 1024);
    EXPECT_EQ(mc.llc.topology.cache.ways, 8u);
    EXPECT_EQ(mc.llc.topology.partition.num_banks, 2u);
    EXPECT_EQ(mc.llc.topology.breakeven_cycles, 96u);
    EXPECT_EQ(job.core_sources.size(), mc.cores.size());
  }
  // coords order: cores, llc_size, llc_ways_per_core, workload, core1_…
  EXPECT_EQ(jobs[0].multicore->cores.size(), 1u);
  EXPECT_FALSE(jobs[0].multicore->partitioned());
  EXPECT_TRUE(jobs[1].multicore->partitioned());
  EXPECT_EQ(jobs[2].multicore->cores.size(), 2u);
  // Core 1 runs the core1_workload override; core 0 the workload axis.
  EXPECT_EQ(jobs[2].core_sources[0]()->name(), "cjpeg");
  EXPECT_EQ(jobs[2].core_sources[1]()->name(), "streaming");
  // 2 cores * 4 ways each on the 8-way LLC: disjoint contiguous masks.
  EXPECT_EQ(jobs[3].multicore->cores[0].llc_way_mask, 0x0Fu);
  EXPECT_EQ(jobs[3].multicore->cores[1].llc_way_mask, 0xF0u);
}

TEST(GridSpecParse, MultiCoreAxesAreCoupled) {
  // cores needs an LLC; llc_* and core<k>_workload need cores.
  EXPECT_THROW(parse("[sweep]\ncores = 2\nworkload = cjpeg\n"), ConfigError);
  EXPECT_THROW(
      parse("[sweep]\nllc_size = 64k\nworkload = cjpeg\n"), ConfigError);
  EXPECT_THROW(
      parse("[sweep]\nllc_ways_per_core = 4\nworkload = cjpeg\n"),
      ConfigError);
  EXPECT_THROW(
      parse("[sweep]\ncore1_workload = sha\nworkload = cjpeg\n"),
      ConfigError);
  // A core index past the largest cores value is dead configuration.
  EXPECT_THROW(parse("[sweep]\ncores = 2\nllc_size = 64k\n"
                     "core2_workload = sha\nworkload = cjpeg\n"),
               ConfigError);
  EXPECT_THROW(parse("[sweep]\ncores = 0\nllc_size = 64k\nworkload = cjpeg\n"),
               ConfigError);
  // An over-committed partition fails at expansion with its coordinates.
  const GridSpec spec = parse(R"(
[sweep]
cores = 2
llc_size = 64k
llc_ways_per_core = 8
workload = cjpeg
)");
  try {
    spec.expand(1000);
    FAIL() << "overlapping partition accepted";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("llc_ways_per_core=8"),
              std::string::npos)
        << e.what();
  }
}

TEST(GridSpecExpand, EnergyAxesApplyToEnergyParams) {
  const GridSpec spec = parse(R"(
[grid]
unit_pricing = true

[sweep]
energy_drowsy_leak = 0.3, 0.5
energy_control_leak_uw = 2.5
workload = cjpeg
)");
  const GridAxis* axis = spec.find_axis("energy_drowsy_leak");
  ASSERT_NE(axis, nullptr);
  EXPECT_EQ(axis->values, (std::vector<std::string>{"0.3", "0.5"}));
  const std::vector<GridJob> jobs = spec.expand(5000);
  ASSERT_EQ(jobs.size(), 2u);
  EXPECT_DOUBLE_EQ(jobs[0].config.energy_params.drowsy_leak_fraction, 0.3);
  EXPECT_DOUBLE_EQ(jobs[1].config.energy_params.drowsy_leak_fraction, 0.5);
  EXPECT_DOUBLE_EQ(jobs[0].config.energy_params.control_leak_uw_per_unit,
                   2.5);
}

TEST(GridSpecExpand, RejectsEnergyAxesOnPaperPricedPoints) {
  // Default jobs (single-level gated banks) are priced by the paper's
  // bank model, which no energy_* key reaches: both points would show
  // the axis having no effect.
  const GridSpec spec = parse(R"(
[sweep]
energy_gated_leak = 0.01, 0.04
workload = cjpeg
)");
  try {
    spec.expand(5000);
    FAIL() << "energy axis on a paper-priced grid accepted";
  } catch (const ConfigError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("grid point (energy_gated_leak=0.01"),
              std::string::npos)
        << what;
    EXPECT_NE(what.find("key 'energy_gated_leak'"), std::string::npos)
        << what;
    EXPECT_NE(what.find("unit_pricing = true"), std::string::npos) << what;
  }
  // Priced per unit — by request, or by granularity — the axis applies.
  const GridSpec unit_priced = parse(R"(
[grid]
unit_pricing = true

[sweep]
energy_gated_leak = 0.01, 0.04
workload = cjpeg
)");
  EXPECT_EQ(unit_priced.expand(5000).size(), 2u);
  const GridSpec line = parse(R"(
[sweep]
granularity = line
energy_gated_leak = 0.01, 0.04
workload = cjpeg
)");
  EXPECT_EQ(line.expand(5000).size(), 2u);
}

TEST(GridSpecParse, RejectsBadEnumAndFloatAxisValues) {
  EXPECT_THROW(parse(R"(
[sweep]
l2_size = 32k
inclusion = sideways
workload = cjpeg
)"),
               ParseError);
  EXPECT_THROW(parse(R"(
[sweep]
energy_gated_leak = -0.5
workload = cjpeg
)"),
               ParseError);
  // inf/nan would serialize as invalid JSON in the BENCH record.
  EXPECT_THROW(parse(R"(
[sweep]
energy_gated_leak = inf
workload = cjpeg
)"),
               ParseError);
}

TEST(GridSpecParse, RejectsLowerLevelAxesWithoutALowerLevel) {
  // An inclusion/l2_* axis with no l2_size or l3_size would expand
  // duplicate single-level jobs and quietly show the axis having no
  // effect.
  EXPECT_THROW(parse(R"(
[sweep]
inclusion = noninclusive, victim
workload = cjpeg
)"),
               ConfigError);
  EXPECT_THROW(parse(R"(
[sweep]
l2_hit_latency = 0, 2
workload = cjpeg
)"),
               ConfigError);
  // An all-zero size axis enables nothing either.
  EXPECT_THROW(parse(R"(
[sweep]
l2_size = 0
inclusion = noninclusive, victim
workload = cjpeg
)"),
               ConfigError);
  // With a lower level the same axes are fine — l3_size alone counts.
  EXPECT_NO_THROW(parse(R"(
[sweep]
l3_size = 128k
inclusion = noninclusive, victim
workload = cjpeg
)"));
}

TEST(GridSpecExpand, InvalidGridPointNamesItsCoordinates) {
  // 8kB cache with 3 banks: not a power-of-two partition.
  const GridSpec spec = parse(R"(
[sweep]
banks = 3
workload = cjpeg
)");
  try {
    spec.expand(5000);
    FAIL() << "invalid grid point accepted";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("banks=3"), std::string::npos)
        << e.what();
  }
}

TEST(GridSpecExpand, SingleKeyErrorNamesItsCoordinates) {
  // cache_size is checked where the key is set, not in the assembled
  // whole; the grid point must still be named.
  const GridSpec spec = parse(R"(
[sweep]
cache_size = 8k, 3000
workload = cjpeg
)");
  try {
    spec.expand(5000);
    FAIL() << "invalid grid point accepted";
  } catch (const ConfigError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("grid point (cache_size=3000 workload=cjpeg)"),
              std::string::npos)
        << what;
    EXPECT_NE(what.find("cache size must be a power of 2"), std::string::npos)
        << what;
  }
}

TEST(GridSpecExpand, PctTraceWorkloadOpensPerJobSources) {
  const std::string path = ::testing::TempDir() + "/grid_spec_test.pct";
  Trace trace("packed", {});
  for (std::uint64_t i = 0; i < 100; ++i)
    trace.push_back({i * 64, i % 3 == 0 ? AccessKind::kWrite
                                        : AccessKind::kRead});
  write_pct_file(trace, path);

  const GridSpec spec = parse("[sweep]\nbanks = 2, 4\nworkload = trace:" +
                              path + "\n");
  const std::vector<GridJob> jobs = spec.expand(1000);
  ASSERT_EQ(jobs.size(), 2u);
  // Each factory invocation yields an independent source (own mapping,
  // own cursor): drain one fully, then check the other still starts at
  // the beginning.
  auto a = jobs[0].make_source();
  auto b = jobs[1].make_source();
  std::uint64_t n = 0;
  while (a->next()) ++n;
  EXPECT_EQ(n, 100u);
  const auto first = b->next();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->address, 0u);

  // An accesses limit below the trace length truncates the replay, on
  // the per-access and the batched path alike.
  const std::vector<GridJob> limited = spec.expand(10);
  auto c = limited[0].make_source();
  ASSERT_TRUE(c->size_hint().has_value());
  EXPECT_EQ(*c->size_hint(), 10u);
  n = 0;
  while (c->next()) ++n;
  EXPECT_EQ(n, 10u);
  auto d = limited[1].make_source();
  MemAccess batch[64];
  n = 0;
  while (const std::size_t got = d->next_batch(batch, 64)) n += got;
  EXPECT_EQ(n, 10u);
  EXPECT_EQ(batch[9].address, 9u * 64);
}

TEST(GridSpecExpand, TextTraceWorkloadSharesOneParse) {
  const std::string path = ::testing::TempDir() + "/grid_spec_test.trace";
  {
    Trace trace("text", {});
    for (std::uint64_t i = 0; i < 50; ++i)
      trace.push_back({0x1000 + i * 16, AccessKind::kRead});
    save_trace_file(trace, path, /*binary=*/false);
  }
  const GridSpec spec = parse("[sweep]\nbanks = 2, 4\nworkload = trace:" +
                              path + "\n");
  const std::vector<GridJob> jobs = spec.expand(1000);
  auto a = jobs[0].make_source();
  auto b = jobs[1].make_source();
  // Independent cursors over the shared parse.
  EXPECT_TRUE(a->next().has_value());
  EXPECT_EQ(b->size_hint(), std::optional<std::uint64_t>(50));
  std::uint64_t n = 1;
  while (a->next()) ++n;
  EXPECT_EQ(n, 50u);
  EXPECT_TRUE(b->next().has_value());
}

TEST(GridSpecExpand, MissingTraceFileFailsExpansion) {
  const GridSpec spec =
      parse("[sweep]\nbanks = 2\nworkload = trace:/no/such/file.pct\n");
  EXPECT_THROW(spec.expand(1000), Error);
}

TEST(GridSpecTable, ParsesPivotAndPaper) {
  const GridSpec spec = parse(R"(
[sweep]
cache_size = 8192, 16384
banks = 2, 4
workload = cjpeg

[table]
rows = cache_size
row_header = size
row_format = size
cols = banks
col_prefix = M=
cells = idleness:Idl:pct:0, lifetime:LT:num:2
reduce = mean

[paper]
Idl = 10 20 ; 30 40
)");
  ASSERT_TRUE(spec.has_table());
  const TableSpec& t = spec.table();
  EXPECT_EQ(t.rows, "cache_size");
  EXPECT_EQ(t.row_header, "size");
  ASSERT_EQ(t.metrics.size(), 2u);
  EXPECT_EQ(t.metrics[0].label, "Idl");
  EXPECT_TRUE(t.metrics[0].percent);
  EXPECT_EQ(t.metrics[0].decimals, 0);
  ASSERT_EQ(t.metrics[0].paper.size(), 2u);
  EXPECT_EQ(t.metrics[0].paper[1][1], 40.0);
  EXPECT_TRUE(t.metrics[1].paper.empty());
}

TEST(GridSpecTable, MalformedTableRejected) {
  const std::string base =
      "[sweep]\ncache_size = 8192\nbanks = 2, 4\nworkload = cjpeg\n";
  // rows must name an axis; rows != cols; unknown metric; paper label
  // and shape mismatches; paper without table.
  EXPECT_THROW(parse(base + "[table]\nrows = nope\ncells = lifetime\n"),
               ConfigError);
  EXPECT_THROW(parse(base + "[table]\nrows = banks\ncols = banks\n"
                            "cells = lifetime\n"),
               ConfigError);
  EXPECT_THROW(parse(base + "[table]\nrows = banks\ncells = vibes\n"),
               ParseError);
  EXPECT_THROW(parse(base + "[table]\nrows = banks\ncells = lifetime\n"
                            "reduce = max\n"),
               ParseError);
  EXPECT_THROW(parse(base + "[table]\nrows = banks\ncells = lifetime:LT\n"
                            "[paper]\nWrong = 1 2\n"),
               ParseError);
  EXPECT_THROW(parse(base + "[table]\nrows = banks\ncells = lifetime:LT\n"
                            "[paper]\nLT = 1 2 3\n"),
               ParseError);  // 1 paper row, banks axis has 2 values
  EXPECT_THROW(parse(base + "[paper]\nLT = 1 2\n"), ParseError);
}

// End-to-end: a small grid through the SweepRunner renders the same
// pivot at any worker count (the CLI-level determinism CI re-checks on
// the full table4 grid).
TEST(GridSpecRun, PivotTableIsThreadCountInvariant) {
  const GridSpec spec = parse(R"(
[grid]
accesses = 20000

[sweep]
cache_size = 8192, 16384
banks = 2, 4
workload = cjpeg, sha

[table]
rows = cache_size
row_format = size
cols = banks
col_prefix = M=
cells = idleness:Idl:pct:1, hit_rate:hit:num:4
)");
  const std::vector<GridJob> jobs = spec.expand(spec.accesses());
  std::vector<SweepJob> sweep_jobs;
  for (const GridJob& g : jobs) {
    SweepJob j;
    j.config = g.config;
    j.make_source = g.make_source;
    j.multicore = g.multicore;
    j.core_sources = g.core_sources;
    sweep_jobs.push_back(std::move(j));
  }

  std::string rendered[2];
  const unsigned threads[2] = {1, 4};
  for (int t = 0; t < 2; ++t) {
    SweepRunner runner(threads[t]);
    const auto outcomes = runner.run(sweep_jobs);
    for (const SweepOutcome& o : outcomes) o.rethrow_if_error();
    std::ostringstream os;
    spec.render_table(jobs, outcomes).render(os);
    rendered[t] = os.str();
  }
  EXPECT_EQ(rendered[0], rendered[1]);
  // Row labels went through the size formatter.
  EXPECT_NE(rendered[0].find("8kB"), std::string::npos) << rendered[0];
  EXPECT_NE(rendered[0].find("M=4:hit"), std::string::npos) << rendered[0];
}

TEST(GridSpecRun, GenericTableListsEveryJob) {
  const GridSpec spec = parse(kMinimal);
  const std::vector<GridJob> jobs = spec.expand(5000);
  std::vector<SweepJob> sweep_jobs;
  for (const GridJob& g : jobs) {
    SweepJob j;
    j.config = g.config;
    j.make_source = g.make_source;
    j.multicore = g.multicore;
    j.core_sources = g.core_sources;
    sweep_jobs.push_back(std::move(j));
  }
  SweepRunner runner(1);
  const auto outcomes = runner.run(sweep_jobs);
  const TextTable table = spec.render_table(jobs, outcomes);
  EXPECT_EQ(table.rows(), jobs.size());
  // job + 2 axes + Idl/LT/Esav/hit.
  EXPECT_EQ(table.cols(), 1u + 2u + 4u);
}

TEST(GridSpecLoad, NameDefaultsToFileBasename) {
  const std::string path = ::testing::TempDir() + "/my_grid.sweep";
  {
    std::ofstream f(path);
    f << kMinimal;
  }
  EXPECT_EQ(GridSpec::load(path).name(), "my_grid");
  EXPECT_THROW(GridSpec::load("/no/such/spec.sweep"), ParseError);
}

}  // namespace
}  // namespace pcal
