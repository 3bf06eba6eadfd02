#include "aging/flipping.h"

#include <gtest/gtest.h>

#include "aging/characterizer.h"
#include "util/error.h"
#include "util/units.h"

namespace pcal {
namespace {

TEST(Flipping, DisabledIsIdentity) {
  FlippingScheme off;
  EXPECT_DOUBLE_EQ(effective_worst_duty(0.8, off, 1e8), 0.8);
  EXPECT_DOUBLE_EQ(effective_worst_duty(0.2, off, 1e8), 0.8);
  EXPECT_DOUBLE_EQ(effective_worst_duty(0.5, off, 1e8), 0.5);
  EXPECT_EQ(flipping_energy_pj(1000, off, 1e8), 0.0);
}

TEST(Flipping, FastFlippingBalancesToHalf) {
  FlippingScheme fast;
  fast.flip_period_s = 1.0;
  EXPECT_NEAR(effective_worst_duty(0.9, fast, 1e8), 0.5, 1e-6);
  EXPECT_NEAR(effective_worst_duty(1.0, fast, 1e8), 0.5, 1e-6);
}

TEST(Flipping, SlowFlippingIsUseless) {
  FlippingScheme slow;
  slow.flip_period_s = 1e9;  // longer than the horizon
  EXPECT_DOUBLE_EQ(effective_worst_duty(0.9, slow, 1e8), 0.9);
}

TEST(Flipping, ResidualImbalanceShrinksWithFlipCount) {
  const double horizon = 1e6;
  double prev = 1.0;
  for (double period : {4e5, 1e5, 1e4, 1e3}) {
    FlippingScheme s;
    s.flip_period_s = period;
    const double duty = effective_worst_duty(0.95, s, horizon);
    EXPECT_LE(duty, prev + 1e-12) << period;
    EXPECT_GE(duty, 0.5);
    prev = duty;
  }
  EXPECT_NEAR(prev, 0.5, 1e-3);
}

TEST(Flipping, SymmetricInP0) {
  FlippingScheme s;
  s.flip_period_s = 3e5;
  EXPECT_DOUBLE_EQ(effective_worst_duty(0.7, s, 1e7),
                   effective_worst_duty(0.3, s, 1e7));
}

TEST(Flipping, FlipEnergyPerPeriod) {
  FlippingScheme s;
  s.flip_period_s = 10.0;
  s.flip_energy_pj_per_bit = 0.5;
  EXPECT_DOUBLE_EQ(flipping_energy_pj(100, s, 100.0), 10 * 100 * 0.5);
  EXPECT_DOUBLE_EQ(flipping_energy_pj(100, s, 5.0), 0.0);
}

TEST(Flipping, CombinesWithAgingModel) {
  // The full related-work story: skewed content (p0 = 0.9) ages a cell
  // fast; flipping recovers most of the balanced lifetime; re-indexing
  // idleness then multiplies on top.
  CellAgingCharacterizer chr(AgingParams::st45());
  chr.calibrate();
  FlippingScheme flip;
  flip.flip_period_s = units::years_to_seconds(0.01);
  const double horizon = units::years_to_seconds(10.0);

  const double lt_skewed = chr.lifetime_years(0.9, 0.0);
  const double lt_flipped =
      chr.lifetime_years(effective_p0(0.9, flip, horizon), 0.0);
  const double lt_flipped_idle =
      chr.lifetime_years(effective_p0(0.9, flip, horizon), 0.42);
  EXPECT_LT(lt_skewed, 2.93);
  EXPECT_NEAR(lt_flipped, 2.93, 0.03);
  EXPECT_GT(lt_flipped_idle, lt_flipped * 1.4);
}

TEST(Flipping, RejectsBadArguments) {
  FlippingScheme s;
  EXPECT_THROW(effective_worst_duty(1.5, s, 1e6), Error);
  EXPECT_THROW(effective_worst_duty(0.5, s, 0.0), Error);
}

}  // namespace
}  // namespace pcal
