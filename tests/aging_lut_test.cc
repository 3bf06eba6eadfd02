#include "aging/aging_lut.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "bit_identical.h"
#include "core/experiment.h"
#include "util/error.h"

namespace pcal {
namespace {

const CellAgingCharacterizer& calibrated() {
  static CellAgingCharacterizer* chr = [] {
    auto* c = new CellAgingCharacterizer(AgingParams::st45());
    c->calibrate();
    return c;
  }();
  return *chr;
}

const AgingLut& default_lut() {
  static AgingLut* lut = new AgingLut(AgingLut::build(calibrated()));
  return *lut;
}

TEST(AgingLut, ExactAtGridPoints) {
  const auto& lut = default_lut();
  for (double p0 : {0.0, 0.3, 0.5, 0.9}) {
    for (double s : {0.0, 0.4, 0.85, 1.0}) {
      EXPECT_NEAR(lut.lifetime_years(p0, s),
                  calibrated().lifetime_years(p0, s), 1e-6)
          << "p0=" << p0 << " s=" << s;
    }
  }
}

// Interpolation error between grid points stays small — this is what makes
// LUT-based bank evaluation safe.
class LutInterpolation : public ::testing::TestWithParam<double> {};

TEST_P(LutInterpolation, CloseToDirectCharacterization) {
  const double s = GetParam();
  const double direct = calibrated().lifetime_years(0.5, s);
  const double via_lut = default_lut().lifetime_years(0.5, s);
  EXPECT_NEAR(via_lut, direct, direct * 0.02) << "s=" << s;
}

INSTANTIATE_TEST_SUITE_P(OffGridSleeps, LutInterpolation,
                         ::testing::Values(0.05, 0.17, 0.33, 0.55, 0.77,
                                           0.87, 0.94, 0.97));

TEST(AgingLut, ClampsArguments) {
  const auto& lut = default_lut();
  EXPECT_DOUBLE_EQ(lut.lifetime_years(-1.0, -1.0),
                   lut.lifetime_years(0.0, 0.0));
  EXPECT_DOUBLE_EQ(lut.lifetime_years(2.0, 2.0),
                   lut.lifetime_years(1.0, 1.0));
}

TEST(AgingLut, SerializationRoundTrip) {
  const auto& lut = default_lut();
  std::stringstream ss;
  lut.serialize(ss);
  const AgingLut restored = AgingLut::deserialize(ss);
  EXPECT_TRUE(BitIdentical(restored.table(), lut.table()));
  EXPECT_EQ(restored.fingerprint(), lut.fingerprint());
}

TEST(AgingLut, DeserializeRejectsBadStamp) {
  std::stringstream no_magic("pcal-bilinear-v2\n1 1\n0\n0\n1\n");
  EXPECT_THROW(AgingLut::deserialize(no_magic), ParseError);
  std::stringstream short_stamp(
      "pcal-aging-lut 12ab\npcal-bilinear-v2\n1 1\n0\n0\n1\n");
  EXPECT_THROW(AgingLut::deserialize(short_stamp), ParseError);
}

// The table the build characterized and compiled in is exactly what a
// runtime characterization builds with this toolchain: same axes, same
// value bits, same stamp.
TEST(AgingLut, EmbeddedTableEqualsFreshCharacterization) {
  std::istringstream is{std::string(embedded_st45_lut())};
  const AgingLut embedded = AgingLut::deserialize(is);
  EXPECT_TRUE(BitIdentical(embedded.table(), default_lut().table()));
  EXPECT_EQ(embedded.fingerprint(), default_lut().fingerprint());
  EXPECT_EQ(embedded.fingerprint(),
            AgingLut::fingerprint(AgingParams::st45(),
                                  AgingLut::default_p0_axis(),
                                  AgingLut::default_sleep_axis()));
  // The default context serves that table (and re-serializes it to the
  // embedded text byte for byte).
  const AgingContext context;
  EXPECT_TRUE(BitIdentical(context.lut().table(), embedded.table()));
  std::ostringstream text;
  context.lut().serialize(text);
  EXPECT_EQ(text.str(), embedded_st45_lut());
  EXPECT_EQ(context.sleep_stress_factor(),
            calibrated().sleep_stress_factor());
}

TEST(AgingLut, FingerprintCoversEveryParamsField) {
  // One entry per AgingParams field (the static_assert in
  // AgingLut::fingerprint keeps that list and the struct in step).
  using Mutate = void (*)(AgingParams&);
  const Mutate fields[] = {
      [](AgingParams& p) { p.cell.nmos_driver.vth += 0.01; },
      [](AgingParams& p) { p.cell.nmos_driver.alpha += 0.01; },
      [](AgingParams& p) { p.cell.nmos_driver.beta += 0.01; },
      [](AgingParams& p) { p.cell.pmos_load.vth += 0.01; },
      [](AgingParams& p) { p.cell.pmos_load.alpha += 0.01; },
      [](AgingParams& p) { p.cell.pmos_load.beta += 0.01; },
      [](AgingParams& p) { p.cell.nmos_access.vth += 0.01; },
      [](AgingParams& p) { p.cell.nmos_access.alpha += 0.01; },
      [](AgingParams& p) { p.cell.nmos_access.beta += 0.01; },
      [](AgingParams& p) { p.cell.vdd += 0.01; },
      [](AgingParams& p) { p.nbti.n += 0.01; },
      [](AgingParams& p) { p.nbti.kdc *= 1.01; },
      [](AgingParams& p) { p.nbti.tox_nm += 0.01; },
      [](AgingParams& p) { p.nbti.e0_v_per_nm += 0.01; },
      [](AgingParams& p) { p.nbti.ea_ev += 0.01; },
      [](AgingParams& p) { p.nbti.temp_ref_c += 1.0; },
      [](AgingParams& p) { p.nbti.vdd_ref += 0.01; },
      [](AgingParams& p) { p.nbti.recoverable_fraction += 0.01; },
      [](AgingParams& p) { p.nbti.recovery_tau_s += 1.0; },
      [](AgingParams& p) { p.criterion.snm_degradation += 0.01; },
      [](AgingParams& p) { p.temperature_c += 1.0; },
      [](AgingParams& p) { p.vdd += 0.01; },
      [](AgingParams& p) { p.vdd_retention += 0.01; },
      [](AgingParams& p) { p.nominal_lifetime_years += 0.01; },
  };
  static_assert(sizeof(fields) / sizeof(fields[0]) ==
                    sizeof(AgingParams) / sizeof(double),
                "one mutation per AgingParams field");
  const std::vector<double> p0 = AgingLut::default_p0_axis();
  const std::vector<double> sleep = AgingLut::default_sleep_axis();
  const std::uint64_t base = AgingLut::fingerprint(AgingParams::st45(), p0,
                                                   sleep);
  std::set<std::uint64_t> seen{base};
  for (std::size_t i = 0; i < sizeof(fields) / sizeof(fields[0]); ++i) {
    AgingParams p = AgingParams::st45();
    fields[i](p);
    const std::uint64_t fp = AgingLut::fingerprint(p, p0, sleep);
    EXPECT_NE(fp, base) << "field " << i;
    EXPECT_TRUE(seen.insert(fp).second) << "field " << i << " collides";
  }
  // Both axes are part of the stamp too, including their lengths.
  std::vector<double> p0_moved = p0;
  p0_moved[3] = std::nextafter(p0_moved[3], 1.0);
  EXPECT_NE(AgingLut::fingerprint(AgingParams::st45(), p0_moved, sleep),
            base);
  std::vector<double> sleep_short(sleep.begin(), sleep.end() - 1);
  EXPECT_NE(AgingLut::fingerprint(AgingParams::st45(), p0, sleep_short),
            base);
  // Calibration rescales the characterizer's model, not the parameters it
  // reports, so a calibrated build carries the st45 stamp.
  EXPECT_EQ(default_lut().fingerprint(), base);
}

TEST(AgingLut, NonSt45ContextDoesNotUseTheEmbeddedTable) {
  AgingParams hot = AgingParams::st45();
  hot.temperature_c = 100.0;
  const AgingContext context(hot);
  const std::uint64_t embedded_fp = AgingContext().lut().fingerprint();
  EXPECT_NE(context.lut().fingerprint(), embedded_fp);
  EXPECT_EQ(context.lut().fingerprint(),
            AgingLut::fingerprint(hot, AgingLut::default_p0_axis(),
                                  AgingLut::default_sleep_axis()));
  // Characterized for its own parameters: calibrated to the same nominal
  // lifetime at the new temperature.
  EXPECT_NEAR(context.nominal_lifetime_years(), 2.93, 0.01);
}

TEST(AgingLut, CustomAxes) {
  const AgingLut lut =
      AgingLut::build(calibrated(), {0.5}, {0.0, 0.5, 1.0});
  EXPECT_NEAR(lut.lifetime_years(0.5, 0.0), 2.93, 0.01);
  // Bilinear between 0 and 0.5 on a sparse axis is only an approximation;
  // it must still be monotone and bounded by the endpoints.
  const double mid = lut.lifetime_years(0.5, 0.25);
  EXPECT_GT(mid, lut.lifetime_years(0.5, 0.0));
  EXPECT_LT(mid, lut.lifetime_years(0.5, 0.5));
}

}  // namespace
}  // namespace pcal
