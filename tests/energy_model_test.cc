// The per-bank prices of UnitEnergyModel under EnergyParams::paper(st45):
// leakage, access, gate transition and Block Control's breakeven, and
// how they scale with cache size, line width and bank count.
#include "power/unit_energy.h"

#include <gtest/gtest.h>

#include <cstdint>

#include "paper_model.h"
#include "util/error.h"

namespace pcal {
namespace {

TEST(PaperParams, IsTheSt45SetWithoutTheSleepNetwork) {
  const TechnologyParams tech = TechnologyParams::st45();
  const EnergyParams p = EnergyParams::paper(tech);
  EXPECT_NO_THROW(p.validate());
  EXPECT_EQ(p.sleep_area_leak_overhead, 0.0);
  EXPECT_EQ(p.control_leak_uw_per_unit, 0.0);
  EXPECT_EQ(p.gate_transition_fixed_pj, 0.0);
  EXPECT_EQ(p.gated_leak_fraction, tech.retention_leak_fraction);
  const EnergyParams st45 = EnergyParams::st45();
  EXPECT_EQ(p.drowsy_leak_fraction, st45.drowsy_leak_fraction);
  EXPECT_EQ(p.drowsy_transition_fraction, st45.drowsy_transition_fraction);
}

TEST(PaperParams, BreakevenIsAFewTensOfCycles) {
  // The paper: breakeven times "in the order of a few tens of cycles",
  // representable with 5-6 bit Block Control counters (its configurations
  // use M = 4).  The smallest banks (1kB at 8kB/M=8) leak so little that
  // their breakeven stretches to a 7-bit counter — still "a few tens".
  for (std::uint64_t size : {8u, 16u, 32u}) {
    for (std::uint64_t m : {2u, 4u, 8u}) {
      const std::uint64_t be =
          paper_model(size * 1024, 16, m).gate_breakeven_cycles();
      EXPECT_GE(be, 8u) << size << "kB M=" << m;
      EXPECT_LE(be, 128u) << size << "kB M=" << m;
      if (m == 4) {
        EXPECT_LE(be, 64u) << size << "kB M=" << m;
      }
    }
  }
}

TEST(PaperParams, LeakageGrowsSuperlinearly) {
  // 8/16/32 kB banks of one 32kB cache (one tag width).
  const double l8 = paper_model(32768, 16, 4).unit_leak_mw();
  const double l16 = paper_model(32768, 16, 2).unit_leak_mw();
  const double l32 = paper_model(32768, 16, 1).unit_leak_mw();
  EXPECT_GT(l16, 2.0 * l8 * 0.99);   // at least ~linear
  EXPECT_GT(l32 / l16, l16 / l8 * 0.999);  // ratio non-decreasing
  EXPECT_GT(l32, 2.0 * l16);         // strictly superlinear
}

TEST(PaperParams, GatedLeakageIsTheRetentionFraction) {
  const UnitEnergyModel m = paper_model(16384);
  const double frac = m.unit_gated_mw() / m.unit_leak_mw();
  EXPECT_NEAR(frac, TechnologyParams::st45().retention_leak_fraction, 1e-12);
  EXPECT_LT(frac, 0.2);
}

TEST(PaperParams, AccessEnergyGrowsWithSizeAndLine) {
  EXPECT_GT(paper_mono(8192).access_energy_pj(),
            paper_mono(2048).access_energy_pj());
  EXPECT_GT(paper_mono(4096, 32).access_energy_pj(),
            paper_mono(4096, 16).access_energy_pj());
}

TEST(PaperParams, BankedAccessCheaperThanMonolithic) {
  // The whole point of partitioned access: activating one 4kB bank costs
  // less than driving the full 16kB array, decoder overhead included.
  EXPECT_LT(paper_model(16384).access_energy_pj(),
            paper_mono(16384).access_energy_pj());
}

TEST(PaperParams, WiringOverheadGrowsWithBanks) {
  // Overhead factor = banked / plain access of a bank-sized array;
  // grows with M.
  const double e2 = paper_model(16384, 16, 2).access_energy_pj();
  const double e2_ref = paper_mono(8192).access_energy_pj();
  const double e16 = paper_model(16384, 16, 16).access_energy_pj();
  const double e16_ref = paper_mono(1024).access_energy_pj();
  EXPECT_GT(e16 / e16_ref, e2 / e2_ref);
}

TEST(PaperParams, TransitionEnergyGrowsWithLineWidth) {
  // Larger lines -> larger per-line tag reactivation cost (Table III's
  // mechanism): the 32B-line transition costs more than the 16B one even
  // though the bank capacity is identical.
  EXPECT_GT(paper_model(16384, 32).gate_transition_pj(),
            paper_model(16384, 16).gate_transition_pj());
}

TEST(PaperParams, LineSizeLengthensBreakeven) {
  EXPECT_GT(paper_model(16384, 32).gate_breakeven_cycles(),
            paper_model(16384, 16).gate_breakeven_cycles());
}

TEST(PaperParams, RejectsBadTech) {
  const CacheTopology topo = bank_topology(8192);
  TechnologyParams tech = TechnologyParams::st45();
  tech.vdd_retention = tech.vdd + 0.1;
  EXPECT_THROW(UnitEnergyModel(EnergyParams::paper(tech), tech, topo),
               ConfigError);
  tech = TechnologyParams::st45();
  tech.retention_leak_fraction = 1.5;
  EXPECT_THROW(UnitEnergyModel(EnergyParams::paper(tech), tech, topo),
               ConfigError);
  tech = TechnologyParams::st45();
  tech.clock_ns = 0.0;
  EXPECT_THROW(UnitEnergyModel(EnergyParams::paper(tech), tech, topo),
               ConfigError);
}

}  // namespace
}  // namespace pcal
