// The per-unit energy model: EnergyParams + UnitEnergyModel.
//
// What "honest at every granularity" means operationally: nonzero
// pricing everywhere (kLine included), leakage ordering gated < drowsy <
// active, transition ordering drowsy < gate, overheads that grow with
// unit count, and a line-grain gate breakeven that is *long* — the
// sleep-network tax is exactly why the paper stopped at banks and why
// pre-PR-3 kLine energy was reported as zero instead of guessed.
#include "power/unit_energy.h"

#include <gtest/gtest.h>

#include "core/enum_strings.h"
#include "util/error.h"

namespace pcal {
namespace {

CacheTopology topo_for(Granularity g, std::uint64_t ways = 1) {
  CacheTopology t;
  t.granularity = g;
  t.cache.size_bytes = 8192;
  t.cache.line_bytes = 16;
  t.cache.ways = ways;
  t.partition.num_banks = 4;
  t.breakeven_cycles = 24;
  return t;
}

UnitEnergyModel model_for(Granularity g, std::uint64_t ways = 1) {
  return UnitEnergyModel(EnergyParams::st45(), TechnologyParams::st45(),
                         topo_for(g, ways));
}

TEST(EnergyParams, ValidatesOrdering) {
  EnergyParams p;
  EXPECT_NO_THROW(p.validate());
  p.gated_leak_fraction = 0.5;  // above drowsy
  EXPECT_THROW(p.validate(), ConfigError);
  p = EnergyParams::st45();
  p.drowsy_transition_fraction = 1.5;
  EXPECT_THROW(p.validate(), ConfigError);
}

TEST(UnitEnergyModel, UnitBytesPerGranularity) {
  EXPECT_EQ(model_for(Granularity::kMonolithic).unit_bytes(), 8192u);
  EXPECT_EQ(model_for(Granularity::kBank).unit_bytes(), 2048u);
  EXPECT_EQ(model_for(Granularity::kWay, 4).unit_bytes(), 512u);
  EXPECT_EQ(model_for(Granularity::kLine).unit_bytes(), 16u);
}

TEST(UnitEnergyModel, LeakageStateOrdering) {
  for (Granularity g : {Granularity::kMonolithic, Granularity::kBank,
                        Granularity::kWay, Granularity::kLine}) {
    const UnitEnergyModel m = model_for(g, g == Granularity::kWay ? 4 : 1);
    EXPECT_GT(m.unit_leak_mw(), m.unit_drowsy_mw()) << to_string(g);
    EXPECT_GT(m.unit_drowsy_mw(), m.unit_gated_mw()) << to_string(g);
    EXPECT_GT(m.unit_gated_mw(), 0.0) << to_string(g);
  }
}

TEST(UnitEnergyModel, TransitionOrdering) {
  for (Granularity g : {Granularity::kBank, Granularity::kWay,
                        Granularity::kLine}) {
    const UnitEnergyModel m = model_for(g, g == Granularity::kWay ? 4 : 1);
    EXPECT_GT(m.gate_transition_pj(), m.drowsy_transition_pj())
        << to_string(g);
    EXPECT_GT(m.drowsy_transition_pj(), 0.0) << to_string(g);
  }
}

TEST(UnitEnergyModel, ControlTaxGrowsWithUnitCount) {
  // Total always-on sleep-network leakage across all units must grow as
  // the granularity refines: that is the honest cost of fine grain.  The
  // paper parameters price the same unit with no sleep network.
  const auto total_overhead = [](const UnitEnergyModel& m) {
    const TechnologyParams tech = TechnologyParams::st45();
    const double per_unit =
        m.unit_leak_mw() -
        UnitEnergyModel(EnergyParams::paper(tech), tech, m.topology())
            .unit_leak_mw();
    return per_unit * static_cast<double>(m.topology().num_units());
  };
  const double bank = total_overhead(model_for(Granularity::kBank));
  const double line = total_overhead(model_for(Granularity::kLine));
  EXPECT_GT(line, bank);
}

TEST(UnitEnergyModel, LineGateBreakevenIsLong) {
  // Gating a 16B line saves so little leakage per cycle that the gate
  // round trip only pays off over hundreds-to-thousands of idle cycles
  // — far beyond [7]'s 28-cycle aging-optimal operating point.  This is
  // the honest pricing of the per-line bound.
  const UnitEnergyModel line = model_for(Granularity::kLine);
  EXPECT_GT(line.gate_breakeven_cycles(), 200u);
  const UnitEnergyModel bank = model_for(Granularity::kBank);
  EXPECT_LT(bank.gate_breakeven_cycles(), line.gate_breakeven_cycles());
  // Drowsy transitions are shallow, so the drowsy breakeven is shorter.
  EXPECT_LT(line.drowsy_breakeven_cycles(), line.gate_breakeven_cycles());
}

TEST(PriceUnitRun, SleepingSavesAgainstBaseline) {
  const UnitEnergyModel m = model_for(Granularity::kBank);
  const std::uint64_t cycles = 100'000;
  std::vector<UnitActivity> busy(4), sleepy(4);
  for (std::uint64_t u = 0; u < 4; ++u) {
    busy[u].accesses = cycles / 4;
    busy[u].gated_episodes = busy[u].sleep_episodes = 0;
    sleepy[u].accesses = cycles / 4;
    sleepy[u].sleep_cycles = cycles / 2;
    sleepy[u].sleep_episodes = sleepy[u].gated_episodes = 10;
  }
  const EnergyReport rb = price_unit_run(m, busy, cycles);
  const EnergyReport rs = price_unit_run(m, sleepy, cycles);
  EXPECT_GT(rb.partitioned.total_pj(), rs.partitioned.total_pj());
  EXPECT_DOUBLE_EQ(rb.baseline_pj, rs.baseline_pj);
  EXPECT_GT(rs.saving(), rb.saving());
  EXPECT_EQ(rb.partitioned.leakage_drowsy_pj, 0.0);
}

TEST(PriceUnitRun, DrowsySplitPricesBothStates) {
  const UnitEnergyModel m = model_for(Granularity::kBank);
  const std::uint64_t cycles = 100'000;
  std::vector<UnitActivity> act(4);
  for (std::uint64_t u = 0; u < 4; ++u) {
    act[u].accesses = cycles / 4;
    act[u].sleep_cycles = 40'000;
    act[u].drowsy_cycles = 30'000;
    act[u].sleep_episodes = 20;
    act[u].gated_episodes = 5;
  }
  const EnergyReport r = price_unit_run(m, act, cycles);
  EXPECT_GT(r.partitioned.leakage_drowsy_pj, 0.0);
  EXPECT_GT(r.partitioned.leakage_retention_pj, 0.0);
  // Drowsy leaks more than gated for the same time split differently.
  std::vector<UnitActivity> gated = act;
  for (auto& a : gated) {
    a.drowsy_cycles = 0;
    a.gated_episodes = a.sleep_episodes;
  }
  const EnergyReport rg = price_unit_run(m, gated, cycles);
  EXPECT_GT(r.partitioned.leakage_drowsy_pj +
                r.partitioned.leakage_retention_pj,
            rg.partitioned.leakage_drowsy_pj +
                rg.partitioned.leakage_retention_pj);
  // ... but pays fewer/cheaper full transitions.
  EXPECT_LT(r.partitioned.transition_pj, rg.partitioned.transition_pj);
}

TEST(PriceUnitRun, RejectsMismatchedActivity) {
  const UnitEnergyModel m = model_for(Granularity::kBank);
  std::vector<UnitActivity> wrong(3);
  EXPECT_THROW(price_unit_run(m, wrong, 1000), Error);
}

}  // namespace
}  // namespace pcal
