// TimelineRecorder invariants: the artifact must be a faithful,
// self-consistent account of the engine's interval stream — the same
// invariants tools/check_timeline_json.py enforces on the JSON, checked
// here at the C++ layer where the numbers originate, plus the uniform
// census shape across Simulator and MultiCoreSystem observers.
#include "api/timeline.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "api/pcal.h"
#include "core/run_assembly.h"

namespace pcal {
namespace {

using api::RunConfig;
using api::TimelineGroup;
using api::TimelineGroupSample;
using api::TimelineInterval;
using api::TimelineRecorder;

RunConfig hierarchy_config() {
  RunConfig rc;
  rc.set("cache_size", "8192")
      .set("banks", "4")
      .set("l2_size", "32768")
      .set("l2_banks", "8")
      .set("policy", "drowsy")
      .set("drowsy_window", "64")
      .set("workload", "streaming")
      .set("accesses", "40000");
  return rc;
}

api::RunOutput record_run(const RunConfig& rc, TimelineRecorder* recorder) {
  api::RunOptions options;
  options.observer = recorder->observer();
  return api::run(rc, options);
}

TEST(TimelineRecorderTest, GroupsTileTheUnitVectorPerLevel) {
  TimelineRecorder recorder;
  const api::RunOutput out = record_run(hierarchy_config(), &recorder);

  const std::vector<TimelineGroup>& groups = recorder.groups();
  ASSERT_EQ(groups.size(), out.result.level_units.size());
  std::uint64_t next_unit = 0;
  for (std::size_t i = 0; i < groups.size(); ++i) {
    EXPECT_EQ(groups[i].core, -1);
    EXPECT_EQ(groups[i].level, i);
    EXPECT_EQ(groups[i].first_unit, next_unit);
    EXPECT_EQ(groups[i].units, out.result.level_units[i]);
    next_unit += groups[i].units;
  }
}

TEST(TimelineRecorderTest, CensusMatchesStatesString) {
  TimelineRecorder recorder;
  record_run(hierarchy_config(), &recorder);

  ASSERT_FALSE(recorder.intervals().empty());
  for (const TimelineInterval& rec : recorder.intervals()) {
    ASSERT_EQ(rec.groups.size(), recorder.groups().size());
    for (std::size_t g = 0; g < rec.groups.size(); ++g) {
      const TimelineGroupSample& s = rec.groups[g];
      ASSERT_EQ(s.states.size(), recorder.groups()[g].units);
      std::uint64_t awake = 0, drowsy = 0, gated = 0;
      for (const char c : s.states) {
        if (c == 'A') ++awake;
        if (c == 'D') ++drowsy;
        if (c == 'G') ++gated;
      }
      EXPECT_EQ(awake + drowsy + gated, s.states.size());
      EXPECT_EQ(s.awake, awake);
      EXPECT_EQ(s.drowsy, drowsy);
      EXPECT_EQ(s.gated, gated);
      EXPECT_EQ(s.hits + s.misses, s.accesses);
    }
  }
}

TEST(TimelineRecorderTest, DeltasSumToRunTotals) {
  TimelineRecorder recorder;
  const api::RunOutput out = record_run(hierarchy_config(), &recorder);

  std::uint64_t span_sum = 0, stall_sum = 0;
  std::vector<std::uint64_t> accesses(recorder.groups().size(), 0);
  std::uint64_t prev_cycles = 0;
  bool saw_final = false;
  for (const TimelineInterval& rec : recorder.intervals()) {
    EXPECT_GE(rec.cycles, prev_cycles);
    EXPECT_EQ(rec.span_cycles, rec.cycles - prev_cycles);
    prev_cycles = rec.cycles;
    span_sum += rec.span_cycles;
    stall_sum += rec.stall_delta;
    for (std::size_t g = 0; g < rec.groups.size(); ++g)
      accesses[g] += rec.groups[g].accesses;
    EXPECT_FALSE(saw_final) << "records after the final snapshot";
    saw_final = rec.final_snapshot;
  }
  EXPECT_TRUE(saw_final);
  EXPECT_EQ(span_sum, out.result.total_cycles);
  EXPECT_EQ(stall_sum, out.result.stall_cycles);
  ASSERT_EQ(accesses.size(), out.result.level_stats.size());
  for (std::size_t g = 0; g < accesses.size(); ++g)
    EXPECT_EQ(accesses[g], out.result.level_stats[g].accesses)
        << "level " << g;
}

TEST(TimelineRecorderTest, PricingFillsEnergyEstimates) {
  RunConfig rc = hierarchy_config();

  TimelineRecorder unpriced;
  record_run(rc, &unpriced);
  for (const TimelineInterval& rec : unpriced.intervals())
    for (const TimelineGroupSample& s : rec.groups)
      EXPECT_EQ(s.energy_est_pj, 0.0);

  RunAssembly asmb;
  for (const auto& [key, value] : rc.entries()) asmb.set(key, value);
  TimelineRecorder priced;
  priced.price_with(asmb.assemble().config);
  record_run(rc, &priced);
  double total = 0.0;
  for (const TimelineInterval& rec : priced.intervals())
    for (const TimelineGroupSample& s : rec.groups) total += s.energy_est_pj;
  EXPECT_GT(total, 0.0);
}

TEST(TimelineRecorderTest, PricesWithTheReportsModel) {
  // A single-level gated bank run's report is priced by the paper's
  // bank model, a unit-priced one's by energy_params: the estimates
  // must follow the same switch.
  RunConfig rc;
  rc.set("cache_size", "8192")
      .set("banks", "4")
      .set("workload", "cjpeg")
      .set("accesses", "40000");
  RunConfig unit_priced = rc;
  unit_priced.set("unit_pricing", "true");
  const auto estimates = [](const RunConfig& config) {
    TimelineRecorder recorder;
    recorder.price_with(config);
    record_run(config, &recorder);
    std::vector<double> out;
    for (const TimelineInterval& rec : recorder.intervals())
      for (const TimelineGroupSample& s : rec.groups)
        out.push_back(s.energy_est_pj);
    return out;
  };
  const std::vector<double> paper = estimates(rc);
  const std::vector<double> unit = estimates(unit_priced);
  ASSERT_EQ(paper.size(), unit.size());
  ASSERT_FALSE(paper.empty());
  EXPECT_NE(paper, unit);
}

// Satellite of the uniform-observer contract: a MultiCoreSystem run
// reports every private level of every core plus the shared LLC,
// depth-major, through the same snapshot fields a Simulator run uses.
TEST(TimelineRecorderTest, MultiCoreCensusIsUniformAcrossEngines) {
  RunConfig rc;
  rc.set("cores", "2")
      .set("llc_size", "65536")
      .set("llc_ways_per_core", "4")
      .set("cache_size", "8192")
      .set("banks", "4")
      .set("workload", "uniform")
      .set("accesses", "40000");
  TimelineRecorder recorder;
  const api::RunOutput out = record_run(rc, &recorder);
  ASSERT_EQ(out.cores.size(), 2u);

  const std::vector<TimelineGroup>& groups = recorder.groups();
  ASSERT_EQ(groups.size(), 3u);  // core0 L1, core1 L1, shared LLC
  EXPECT_EQ(groups[0].core, 0);
  EXPECT_EQ(groups[1].core, 1);
  EXPECT_EQ(groups[2].core, -1);
  EXPECT_EQ(groups[0].level, 0u);
  EXPECT_EQ(groups[1].level, 0u);
  EXPECT_GT(groups[2].level, 0u);
  std::uint64_t next_unit = 0;
  for (const TimelineGroup& g : groups) {
    EXPECT_EQ(g.first_unit, next_unit);
    next_unit += g.units;
  }
  ASSERT_FALSE(recorder.intervals().empty());
  for (const TimelineInterval& rec : recorder.intervals())
    ASSERT_EQ(rec.groups.size(), groups.size());
}

TEST(TimelineRecorderTest, ContextSwitchFlagsMultiprogramQuanta) {
  RunConfig rc;
  rc.set("cache_size", "8192")
      .set("banks", "4")
      .set("workload", "multiprog:cjpeg+sha@5000")
      .set("updates", "7")  // 40000/(7+1): every boundary on a quantum
      .set("accesses", "40000");
  TimelineRecorder recorder;
  record_run(rc, &recorder);

  // The engine aligns re-indexing boundaries to whole quanta, so every
  // non-final record of this run sits on a context switch.
  ASSERT_GT(recorder.intervals().size(), 1u);
  bool saw_switch = false;
  for (const TimelineInterval& rec : recorder.intervals())
    if (rec.context_switch) saw_switch = true;
  EXPECT_TRUE(saw_switch);
}

TEST(TimelineRecorderTest, WritesVersionedJson) {
  TimelineRecorder recorder("unit test run");
  record_run(hierarchy_config(), &recorder);

  std::ostringstream os;
  recorder.write_json(os);
  const std::string doc = os.str();
  EXPECT_EQ(doc.find("{\n  \"schema\": \"pcal-timeline\",\n"
                     "  \"version\": 1,\n"),
            0u);
  EXPECT_NE(doc.find("\"name\": \"unit test run\""), std::string::npos);
  EXPECT_NE(doc.find("\"groups\": ["), std::string::npos);
  EXPECT_NE(doc.find("\"context_switch\": "), std::string::npos);
  // Exactly one record is final.
  std::size_t finals = 0, pos = 0;
  while ((pos = doc.find("\"final\": true", pos)) != std::string::npos) {
    ++finals;
    pos += 1;
  }
  EXPECT_EQ(finals, 1u);
}

}  // namespace
}  // namespace pcal
