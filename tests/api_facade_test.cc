// The embeddable facade (api/pcal.h) must be a veneer, not a second
// engine: run() has to match a hand-assembled Simulator run bit for
// bit, run_grid() has to match pcalsweep's row shape at any worker
// count, and validate() has to report every problem structurally
// instead of throwing at the first.
#include "api/pcal.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <string>
#include <vector>

#include "core/experiment.h"
#include "core/run_assembly.h"
#include "util/error.h"

namespace pcal {
namespace {

using api::ConfigIssue;
using api::RunConfig;

RunConfig small_config() {
  RunConfig rc;
  rc.set("cache_size", "8192")
      .set("banks", "4")
      .set("workload", "uniform")
      .set("accesses", "20000");
  return rc;
}

const char kSpec[] =
    "[sweep]\n"
    "workload = uniform, streaming\n"
    "banks = 2, 4\n"
    "[grid]\n"
    "accesses = 20000\n";

TEST(RunConfigTest, KnowsTheSharedVocabulary) {
  // The 74 run keys every front-end has accepted, plus core<k>_workload —
  // no more, no fewer.
  const std::vector<std::string> flat = {
      "cache_size", "line_size", "ways", "banks", "updates", "breakeven",
      "drowsy_window", "seed", "hit_latency", "miss_latency", "drowsy_wake",
      "gated_wake", "mshrs", "ports", "bandwidth", "mshr_latency",
      "port_cycles", "energy_drowsy_leak", "energy_gated_leak",
      "energy_sleep_overhead", "energy_control_leak_uw",
      "energy_gate_fixed_pj", "granularity", "indexing", "policy",
      "unit_pricing", "inclusion", "cores", "llc_size", "llc_ways",
      "llc_banks", "llc_breakeven", "llc_ways_per_core", "llc_mshrs",
      "llc_ports", "llc_bandwidth", "llc_inclusion", "workload", "accesses",
      "footprint"};
  const std::vector<std::string> level = {
      "size", "line", "ways", "banks", "breakeven", "granularity",
      "indexing", "policy", "drowsy_window", "hit_latency", "miss_latency",
      "drowsy_wake", "gated_wake", "mshrs", "ports", "bandwidth",
      "inclusion"};
  std::vector<std::string> vocabulary = flat;
  for (const char* prefix : {"l2_", "l3_"})
    for (const std::string& suffix : level)
      vocabulary.push_back(prefix + suffix);
  ASSERT_EQ(vocabulary.size(), 74u);
  for (const std::string& key : vocabulary)
    EXPECT_TRUE(RunConfig::knows(key)) << key;
  std::size_t rows = 0;
  for (const ConfigKey& key : kConfigKeys) {
    ++rows;
    const bool known =
        std::find(vocabulary.begin(), vocabulary.end(), key.name) !=
        vocabulary.end();
    EXPECT_TRUE(known || std::string(key.name) == "core<k>_workload")
        << key.name;
  }
  EXPECT_EQ(rows, vocabulary.size() + 1);  // + the core<k>_workload family
  for (const char* key : {"core0_workload", "core3_workload",
                          "core123456_workload"})
    EXPECT_TRUE(RunConfig::knows(key)) << key;
  for (const char* key :
       {"no_such_knob", "core<k>_workload", "core_workload", "corex_workload",
        "core1234567_workload", "core1_workloads", "l2_", "l4_size",
        "l2_cores", "l3_seed", "llc_line", "llc_updates", "L2_size", ""})
    EXPECT_FALSE(RunConfig::knows(key)) << key;
}

TEST(RunConfigTest, ValidateAcceptsCleanConfig) {
  EXPECT_TRUE(small_config().validate().empty());
}

TEST(RunConfigTest, ValidateReportsEveryEntryProblem) {
  RunConfig rc;
  rc.set("no_such_knob", "1").set("banks", "three").set("cache_size", "8k");
  const std::vector<ConfigIssue> issues = rc.validate();
  ASSERT_EQ(issues.size(), 2u);
  EXPECT_EQ(issues[0].key, "no_such_knob");
  EXPECT_EQ(issues[0].value, "1");
  EXPECT_EQ(issues[1].key, "banks");
  EXPECT_NE(issues[1].reason.find("three"), std::string::npos);
  EXPECT_NE(api::describe(issues).find("no_such_knob"), std::string::npos);
}

TEST(RunConfigTest, ValidateChecksTheAssembledWhole) {
  RunConfig rc;
  rc.set("cores", "2");  // needs llc_size > 0 -- only assemble() knows
  const std::vector<ConfigIssue> issues = rc.validate();
  ASSERT_EQ(issues.size(), 1u);
  EXPECT_EQ(issues[0].key, "");
  EXPECT_NE(issues[0].reason.find("llc_size"), std::string::npos);
}

TEST(RunConfigTest, ValidateNamesTheKeyOfAGeometryError) {
  // Single-key geometry constraints are reported against their key, so
  // pcalsim can print the promised "key = value: reason" line; before,
  // they surfaced from the assembled whole with an empty key.
  RunConfig rc = small_config();
  rc.set("cache_size", "3000").set("line_size", "2").set("ways", "3");
  const std::vector<ConfigIssue> issues = rc.validate();
  ASSERT_EQ(issues.size(), 3u) << api::describe(issues);
  EXPECT_EQ(issues[0].key, "cache_size");
  EXPECT_EQ(issues[0].value, "3000");
  EXPECT_NE(issues[0].reason.find("cache size must be a power of 2"),
            std::string::npos);
  EXPECT_EQ(issues[1].key, "line_size");
  EXPECT_NE(issues[1].reason.find("line size must be a power of 2"),
            std::string::npos);
  EXPECT_EQ(issues[2].key, "ways");
  EXPECT_NE(issues[2].reason.find("associativity must be a power of 2"),
            std::string::npos);
  EXPECT_EQ(api::describe({issues[0]}).find("cache_size = 3000: "), 0u);

  // One check per quantity, at every level: lower levels and the LLC too.
  RunConfig lower = small_config();
  lower.set("l2_size", "64k").set("l3_size", "256k").set("cores", "2");
  lower.set("llc_size", "256k");
  lower.set("l2_ways", "3").set("l3_line", "24").set("l2_size", "33k");
  lower.set("llc_ways", "0");
  const std::vector<ConfigIssue> lower_issues = lower.validate();
  ASSERT_EQ(lower_issues.size(), 4u) << api::describe(lower_issues);
  const char* keys[] = {"l2_ways", "l3_line", "l2_size", "llc_ways"};
  const char* reasons[] = {"associativity must be a power of 2",
                           "line size must be a power of 2",
                           "cache size must be a power of 2",
                           "associativity must be a power of 2"};
  for (std::size_t i = 0; i < lower_issues.size(); ++i) {
    EXPECT_EQ(lower_issues[i].key, keys[i]);
    EXPECT_NE(lower_issues[i].reason.find(std::string("key '") + keys[i] +
                                          "'"),
              std::string::npos)
        << lower_issues[i].reason;
    EXPECT_NE(lower_issues[i].reason.find(reasons[i]), std::string::npos)
        << lower_issues[i].reason;
  }
  // A zero lower-level size still means "absent".
  RunConfig absent = small_config();
  absent.set("l2_size", "0").set("l3_size", "0");
  EXPECT_TRUE(absent.validate().empty()) << api::describe(absent.validate());
}

TEST(RunConfigTest, ValidateRejectsAScramblingSeedTheLfsrCannotTake) {
  // What pcal.run pre-flights: a seed that is zero in the low bits of
  // Scrambling's LFSR fails before the run, naming seed and width.
  RunConfig rc = small_config();
  rc.set("indexing", "scrambling").set("banks", "4").set("seed", "1024");
  const std::vector<ConfigIssue> issues = rc.validate();
  ASSERT_EQ(issues.size(), 1u) << api::describe(issues);
  EXPECT_NE(issues[0].reason.find("seed 1024 is zero in its low 10 bits"),
            std::string::npos)
      << issues[0].reason;
  EXPECT_THROW(api::run(rc), ConfigError);
  rc.set("seed", "1025");
  EXPECT_TRUE(rc.validate().empty()) << api::describe(rc.validate());
}

TEST(RunConfigTest, ValidateResolvesWorkloads) {
  RunConfig rc = small_config();
  rc.set("workload", "no_such_workload");
  std::vector<ConfigIssue> issues = rc.validate();
  ASSERT_EQ(issues.size(), 1u);
  EXPECT_EQ(issues[0].key, "workload");

  RunConfig mc;
  mc.set("cores", "2").set("llc_size", "65536").set("cache_size", "8192");
  mc.set("core1_workload", "also_not_a_workload");
  issues = mc.validate();
  ASSERT_EQ(issues.size(), 1u);
  EXPECT_EQ(issues[0].key, "core1_workload");
}

TEST(RunConfigTest, ValidateRejectsCoreWorkloadsPastTheCoreCount) {
  // GridSpec's rule for a cores axis, applied to one run: a
  // core<k>_workload must name a core the run has.
  RunConfig mc;
  mc.set("cores", "2").set("llc_size", "64k").set("workload", "cjpeg");
  mc.set("core7_workload", "sha");
  std::vector<ConfigIssue> issues = mc.validate();
  ASSERT_EQ(issues.size(), 1u) << api::describe(issues);
  EXPECT_EQ(issues[0].key, "core7_workload");
  EXPECT_EQ(issues[0].value, "sha");
  EXPECT_NE(issues[0].reason.find("2 cores"), std::string::npos);
  try {
    api::run(mc);
    FAIL() << "core7_workload ran on a 2-core system";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("core7_workload"), std::string::npos)
        << e.what();
  }

  RunConfig single = small_config();
  single.set("core1_workload", "sha");
  issues = single.validate();
  ASSERT_EQ(issues.size(), 1u) << api::describe(issues);
  EXPECT_EQ(issues[0].key, "core1_workload");
  EXPECT_THROW(api::run(single), ConfigError);
}

TEST(RunConfigTest, ValidateNamesTheKeyOfACostCap) {
  // What one key can cost is bounded where the key is set.
  RunConfig rc = small_config();
  rc.set("miss_latency", "18446744073709551615")
      .set("mshrs", "1M")
      .set("ports", "17")
      .set("mshr_latency", "2M")
      .set("l2_gated_wake", "2M")
      .set("llc_mshrs", "257");
  const std::vector<ConfigIssue> issues = rc.validate();
  ASSERT_EQ(issues.size(), 6u) << api::describe(issues);
  const char* keys[] = {"miss_latency", "mshrs", "ports", "mshr_latency",
                        "l2_gated_wake", "llc_mshrs"};
  for (std::size_t i = 0; i < issues.size(); ++i) {
    EXPECT_EQ(issues[i].key, keys[i]);
    EXPECT_NE(issues[i].reason.find(std::string("key '") + keys[i] + "'"),
              std::string::npos)
        << issues[i].reason;
  }
  // The caps themselves are accepted.
  RunConfig at_cap = small_config();
  at_cap.set("miss_latency", "1M").set("mshrs", "256").set("ports", "16");
  EXPECT_TRUE(at_cap.validate().empty()) << api::describe(at_cap.validate());
}

TEST(RunConfigTest, RejectsEnergyKeysOnAPaperPricedRun) {
  // small_config() is a single-level gated bank run: the paper's bank
  // model prices it and no energy_* key reaches that model.
  RunConfig rc = small_config();
  rc.set("workload", "cjpeg").set("energy_gated_leak", "0.01");
  const std::vector<ConfigIssue> issues = rc.validate();
  ASSERT_EQ(issues.size(), 1u) << api::describe(issues);
  EXPECT_NE(issues[0].reason.find("key 'energy_gated_leak'"),
            std::string::npos)
      << issues[0].reason;
  EXPECT_NE(issues[0].reason.find("unit_pricing = true"), std::string::npos)
      << issues[0].reason;
  EXPECT_THROW(api::run(rc), ConfigError);

  RunConfig unit_priced = rc;
  unit_priced.set("unit_pricing", "true");
  EXPECT_TRUE(unit_priced.validate().empty())
      << api::describe(unit_priced.validate());
  RunConfig line = rc;
  line.set("granularity", "line");
  EXPECT_TRUE(line.validate().empty()) << api::describe(line.validate());
  RunConfig st45 = small_config();
  st45.set("workload", "cjpeg").set("unit_pricing", "true");
  EXPECT_NE(api::run(unit_priced).result.energy.partitioned.total_pj(),
            api::run(st45).result.energy.partitioned.total_pj());
}

TEST(ApiRunTest, MatchesHandAssembledSimulatorRun) {
  const RunConfig rc = small_config();
  const api::RunOutput out = api::run(rc);

  RunAssembly asmb;
  for (const auto& [key, value] : rc.entries()) asmb.set(key, value);
  const RunAssembly::Assembled assembled = asmb.assemble();
  const auto source = make_workload_factory(
      asmb.workload(), asmb.accesses(), asmb.footprint_bytes())();
  Simulator sim(assembled.config);
  const SimResult direct = sim.run(*source, &api::shared_aging().lut());

  EXPECT_EQ(out.result.accesses, direct.accesses);
  EXPECT_EQ(out.result.total_cycles, direct.total_cycles);
  EXPECT_EQ(out.result.cache_stats.hits, direct.cache_stats.hits);
  EXPECT_EQ(out.result.cache_stats.misses, direct.cache_stats.misses);
  EXPECT_EQ(out.result.energy.partitioned.total_pj(),
            direct.energy.partitioned.total_pj());
  EXPECT_EQ(out.result.lifetime_years(), direct.lifetime_years());
  EXPECT_TRUE(out.cores.empty());
}

TEST(ApiRunTest, DefaultsToUniformWorkload) {
  RunConfig with_default;
  with_default.set("cache_size", "8192").set("banks", "4").set("accesses",
                                                               "20000");
  const api::RunOutput a = api::run(with_default);
  const api::RunOutput b = api::run(small_config());
  EXPECT_EQ(a.result.workload, b.result.workload);
  EXPECT_EQ(a.result.total_cycles, b.result.total_cycles);
  EXPECT_EQ(a.result.cache_stats.hits, b.result.cache_stats.hits);
}

TEST(ApiRunTest, MultiCoreRunsPartitionedLlc) {
  RunConfig rc;
  rc.set("cores", "2")
      .set("llc_size", "65536")
      .set("llc_ways_per_core", "4")
      .set("cache_size", "8192")
      .set("banks", "4")
      .set("workload", "uniform")
      .set("accesses", "20000");
  const api::RunOutput out = api::run(rc);
  ASSERT_EQ(out.cores.size(), 2u);
  EXPECT_EQ(out.cores[0].llc_way_mask & out.cores[1].llc_way_mask, 0u);
  EXPECT_EQ(out.cores[0].accesses + out.cores[1].accesses,
            out.result.accesses);
}

TEST(ApiRunTest, ThrowsOnInvalidConfig) {
  RunConfig rc;
  rc.set("banks", "x");
  EXPECT_THROW(api::run(rc), Error);
}

TEST(ApiGridTest, WorkerCountDoesNotChangeResults) {
  api::GridOptions one;
  one.workers = 1;
  api::GridOptions eight;
  eight.workers = 8;
  const api::GridRun a = api::run_grid_text(kSpec, one, "par");
  const api::GridRun b = api::run_grid_text(kSpec, eight, "par");
  ASSERT_EQ(a.outcomes.size(), 4u);
  ASSERT_EQ(b.outcomes.size(), 4u);
  EXPECT_EQ(a.failed_jobs(), 0u);
  for (std::size_t i = 0; i < a.outcomes.size(); ++i)
    EXPECT_EQ(a.result_row(i), b.result_row(i)) << "job " << i;
  EXPECT_EQ(a.table, b.table);
}

TEST(ApiGridTest, ResultRowsCarryBenchShapeAndLabels) {
  const api::GridRun run = api::run_grid_text(kSpec, {}, "par");
  ASSERT_EQ(run.jobs.size(), 4u);
  const std::string row = run.result_row(0);
  EXPECT_EQ(row.find("{\"job\": 0, \"workload\": \"uniform\""), 0u);
  EXPECT_NE(row.find("\"ok\": true"), std::string::npos);
  EXPECT_NE(row.find("\"energy_pj\": "), std::string::npos);
  ASSERT_FALSE(run.outcomes.empty());
  EXPECT_EQ(run.outcomes[0].label, "workload=uniform banks=2");
  EXPECT_EQ(run.outcomes[3].label, "workload=streaming banks=4");
}

TEST(ApiGridTest, ObserverFactoryAttachesPerJob) {
  std::vector<std::atomic<int>> fired(4);
  for (auto& f : fired) f = 0;
  api::GridOptions options;
  options.workers = 2;
  options.make_observer = [&fired](std::size_t i) -> IntervalObserver {
    return [&fired, i](const IntervalSnapshot&) { ++fired[i]; };
  };
  const api::GridRun run = api::run_grid_text(kSpec, options, "obs");
  ASSERT_EQ(run.outcomes.size(), fired.size());
  for (std::size_t i = 0; i < fired.size(); ++i)
    EXPECT_GT(fired[i].load(), 0) << "job " << i;
}

TEST(ApiGridTest, ThrowsOnMalformedSpec) {
  EXPECT_THROW(api::run_grid_text("[sweep]\nbanks = oops\n"), Error);
}

}  // namespace
}  // namespace pcal
