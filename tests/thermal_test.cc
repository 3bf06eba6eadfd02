#include "power/thermal.h"

#include <gtest/gtest.h>

#include "aging/lifetime.h"
#include "util/error.h"

namespace pcal {
namespace {

TEST(Thermal, AmbientWhenNoPower) {
  BankThermalModel model;
  const auto t = model.temperatures({0.0, 0.0});
  EXPECT_DOUBLE_EQ(t[0], model.params().ambient_c);
  EXPECT_DOUBLE_EQ(t[1], model.params().ambient_c);
}

TEST(Thermal, HotterBankIsHotter) {
  BankThermalModel model;
  const auto t = model.temperatures({10.0, 2.0, 2.0, 2.0});
  EXPECT_GT(t[0], t[1]);
  EXPECT_DOUBLE_EQ(t[1], t[2]);
  // Self-heating dominates coupling.
  EXPECT_GT(t[0] - model.params().ambient_c,
            (t[1] - model.params().ambient_c));
}

TEST(Thermal, CouplingSharesHeat) {
  ThermalParams p;
  p.neighbor_coupling = 0.5;
  BankThermalModel coupled(p);
  p.neighbor_coupling = 0.0;
  BankThermalModel isolated(p);
  const std::vector<double> power = {8.0, 0.0};
  EXPECT_GT(coupled.temperatures(power)[1], isolated.temperatures(power)[1]);
  EXPECT_DOUBLE_EQ(isolated.temperatures(power)[1], p.ambient_c);
}

TEST(Thermal, SingleBank) {
  BankThermalModel model;
  const auto t = model.temperatures({5.0});
  EXPECT_DOUBLE_EQ(t[0], model.params().ambient_c +
                             model.params().r_th_c_per_mw * 5.0);
}

TEST(Thermal, RejectsBadInput) {
  BankThermalModel model;
  EXPECT_THROW(model.temperatures({}), Error);
  EXPECT_THROW(model.temperatures({-1.0}), Error);
}

TEST(Thermal, AveragePowerAccounting) {
  CacheTopology topo;
  topo.granularity = Granularity::kBank;
  topo.cache.size_bytes = 8192;
  topo.cache.line_bytes = 16;
  topo.partition.num_banks = 4;
  const TechnologyParams tech = TechnologyParams::st45();
  const UnitEnergyModel model(EnergyParams::paper(tech), tech, topo);
  // A bank that sleeps the whole run draws ~retention leakage only.
  UnitActivity asleep;
  asleep.sleep_cycles = 1000;
  asleep.sleep_episodes = asleep.gated_episodes = 1;
  const double p_sleep =
      BankThermalModel::average_power_mw(model, asleep, 1000);
  UnitActivity busy;
  busy.accesses = 1000;
  const double p_busy = BankThermalModel::average_power_mw(model, busy, 1000);
  EXPECT_GT(p_busy, 10.0 * p_sleep);
  EXPECT_GT(p_sleep, 0.0);
  EXPECT_EQ(BankThermalModel::average_power_mw(model, busy, 0), 0.0);
}

TEST(ThermalLifetime, HotBankDiesSooner) {
  CellAgingCharacterizer chr(AgingParams::st45());
  chr.calibrate();
  const AgingLut lut = AgingLut::build(chr);
  const CacheLifetimeEvaluator eval(lut);
  const NbtiModel& nbti = chr.nbti();
  // Same residency, different temperatures: the hot bank limits.
  const auto r = eval.evaluate_with_temperature({0.4, 0.4}, {105.0, 60.0},
                                                nbti);
  EXPECT_EQ(r.limiting_bank, 0u);
  EXPECT_LT(r.banks[0].lifetime_years, r.banks[1].lifetime_years);
  // At the reference temperature the thermal variant matches the plain one.
  const auto ref = eval.evaluate_with_temperature({0.4, 0.4}, {80.0, 80.0},
                                                  nbti);
  const auto plain = eval.evaluate({0.4, 0.4});
  EXPECT_NEAR(ref.lifetime_years, plain.lifetime_years,
              plain.lifetime_years * 1e-9);
}

TEST(ThermalLifetime, ScaleIsMonotoneAndAnchored) {
  const NbtiModel nbti{NbtiParams{}};
  EXPECT_NEAR(nbti.thermal_lifetime_scale(80.0), 1.0, 1e-12);
  EXPECT_LT(nbti.thermal_lifetime_scale(105.0), 1.0);
  EXPECT_GT(nbti.thermal_lifetime_scale(50.0), 1.0);
  // Roughly halves per +25C with the default 0.08 eV prefactor activation.
  const double s105 = nbti.thermal_lifetime_scale(105.0);
  EXPECT_GT(s105, 0.2);
  EXPECT_LT(s105, 0.6);
}

TEST(ThermalLifetime, MismatchedSizesRejected) {
  CellAgingCharacterizer chr(AgingParams::st45());
  chr.calibrate();
  const AgingLut lut = AgingLut::build(chr);
  const CacheLifetimeEvaluator eval(lut);
  EXPECT_THROW(
      eval.evaluate_with_temperature({0.4, 0.4}, {80.0}, chr.nbti()),
      Error);
}

}  // namespace
}  // namespace pcal
