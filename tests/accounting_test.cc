// Pricing a run under the paper's parameters: per-bank activity against
// the never-sleeping monolithic baseline (Esav), through price_unit_run
// of UnitEnergyModel under EnergyParams::paper(st45).
#include "power/unit_energy.h"

#include <gtest/gtest.h>

#include <vector>

#include "paper_model.h"
#include "util/error.h"

namespace pcal {
namespace {

TEST(PaperParams, RejectsWrongUnitCount) {
  const UnitEnergyModel m = paper_model(8192);
  EXPECT_THROW(price_unit_run(m, std::vector<UnitActivity>(3), 100), Error);
}

TEST(PaperParams, RejectsImpossibleSleep) {
  const UnitEnergyModel m = paper_model(8192);
  std::vector<UnitActivity> act(4);
  act[0].sleep_cycles = 101;
  EXPECT_THROW(price_unit_run(m, act, 100), Error);
}

UnitActivity gated(std::uint64_t accesses, std::uint64_t sleep_cycles,
                   std::uint64_t episodes) {
  UnitActivity a;
  a.accesses = accesses;
  a.sleep_cycles = sleep_cycles;
  a.sleep_episodes = a.gated_episodes = episodes;
  return a;
}

TEST(PaperParams, HandComputedScenario) {
  const UnitEnergyModel m = paper_model(8192);
  const UnitEnergyModel mono = paper_mono(8192);
  const double t_ns = 1000.0;  // 1000 cycles at 1ns

  const std::vector<UnitActivity> act = {
      gated(1000, 0, 0),  // the hot bank takes all accesses
      gated(0, 900, 1),   // sleeps 90% with one episode
      gated(0, 900, 1),
      gated(0, 0, 0),     // idle but never long enough to sleep
  };
  const EnergyReport r = price_unit_run(m, act, 1000);
  const double bank_leak = m.unit_leak_mw();
  const double expect_dyn = 1000.0 * m.access_energy_pj();
  const double expect_active =
      bank_leak * (t_ns + 100.0 + 100.0 + t_ns);  // banks 0,3 full time
  const double expect_ret = m.unit_gated_mw() * 1800.0;
  const double expect_tr = 2.0 * m.gate_transition_pj();
  EXPECT_NEAR(r.partitioned.dynamic_pj, expect_dyn, 1e-6);
  EXPECT_NEAR(r.partitioned.leakage_active_pj, expect_active, 1e-6);
  EXPECT_NEAR(r.partitioned.leakage_retention_pj, expect_ret, 1e-6);
  EXPECT_EQ(r.partitioned.leakage_drowsy_pj, 0.0);
  EXPECT_NEAR(r.partitioned.transition_pj, expect_tr, 1e-6);
  EXPECT_NEAR(r.partitioned.total_pj(),
              expect_dyn + expect_active + expect_ret + expect_tr, 1e-6);

  // The baseline: the never-sleeping monolithic cache.
  const double expect_base =
      1000.0 * mono.access_energy_pj() + mono.unit_leak_mw() * t_ns;
  EXPECT_NEAR(r.baseline_pj, expect_base, 1e-6);
  EXPECT_NEAR(r.saving(), 1.0 - r.partitioned.total_pj() / expect_base,
              1e-12);
}

TEST(PaperParams, SleepingSavesEnergy) {
  const UnitEnergyModel m = paper_model(8192);
  std::vector<UnitActivity> never(4), often(4);
  for (int b = 0; b < 4; ++b) {
    never[b] = gated(250, 0, 0);
    often[b] = gated(250, 800, 2);
  }
  EXPECT_LT(price_unit_run(m, often, 1000).partitioned.total_pj(),
            price_unit_run(m, never, 1000).partitioned.total_pj());
}

TEST(PaperParams, SavingIsZeroWithoutBaseline) {
  EnergyReport r;
  EXPECT_EQ(r.saving(), 0.0);
}

}  // namespace
}  // namespace pcal
