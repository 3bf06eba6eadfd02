#include "util/interp.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "bit_identical.h"
#include "util/error.h"

namespace pcal {
namespace {

TEST(Linear1D, ExactAtKnotsLinearBetween) {
  LinearTable1D t({0.0, 1.0, 3.0}, {10.0, 20.0, 0.0});
  EXPECT_DOUBLE_EQ(t(0.0), 10.0);
  EXPECT_DOUBLE_EQ(t(1.0), 20.0);
  EXPECT_DOUBLE_EQ(t(3.0), 0.0);
  EXPECT_DOUBLE_EQ(t(0.5), 15.0);
  EXPECT_DOUBLE_EQ(t(2.0), 10.0);
}

TEST(Linear1D, ClampsOutside) {
  LinearTable1D t({0.0, 1.0}, {5.0, 7.0});
  EXPECT_DOUBLE_EQ(t(-100.0), 5.0);
  EXPECT_DOUBLE_EQ(t(100.0), 7.0);
}

TEST(Linear1D, SinglePoint) {
  LinearTable1D t({2.0}, {42.0});
  EXPECT_DOUBLE_EQ(t(-1.0), 42.0);
  EXPECT_DOUBLE_EQ(t(9.0), 42.0);
}

TEST(Linear1D, RejectsMalformed) {
  EXPECT_THROW(LinearTable1D({1.0, 1.0}, {0.0, 0.0}), Error);
  EXPECT_THROW(LinearTable1D({2.0, 1.0}, {0.0, 0.0}), Error);
  EXPECT_THROW(LinearTable1D({1.0, 2.0}, {0.0}), Error);
  EXPECT_THROW(LinearTable1D({}, {}), Error);
}

BilinearTable2D make_plane(double a, double b, double c) {
  // z = a*x + b*y + c sampled on a non-uniform grid.
  std::vector<double> xs = {0.0, 0.5, 2.0, 3.0};
  std::vector<double> ys = {-1.0, 0.0, 4.0};
  std::vector<double> vals;
  for (double x : xs)
    for (double y : ys) vals.push_back(a * x + b * y + c);
  return BilinearTable2D(xs, ys, vals);
}

// Bilinear interpolation reproduces affine functions exactly inside the
// grid — the property that validates the index arithmetic.
class BilinearPlane
    : public ::testing::TestWithParam<std::tuple<double, double, double>> {};

TEST_P(BilinearPlane, ReproducesAffineFunction) {
  const auto [a, b, c] = GetParam();
  const BilinearTable2D t = make_plane(a, b, c);
  for (double x : {0.0, 0.1, 0.77, 1.9, 2.5, 3.0}) {
    for (double y : {-1.0, -0.3, 0.0, 1.7, 3.99}) {
      EXPECT_NEAR(t(x, y), a * x + b * y + c, 1e-12)
          << "x=" << x << " y=" << y;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Planes, BilinearPlane,
    ::testing::Values(std::make_tuple(0.0, 0.0, 5.0),
                      std::make_tuple(1.0, 0.0, 0.0),
                      std::make_tuple(0.0, -2.0, 1.0),
                      std::make_tuple(3.5, 1.25, -7.0)));

TEST(Bilinear2D, ClampsAtBorders) {
  const BilinearTable2D t = make_plane(1.0, 1.0, 0.0);
  EXPECT_DOUBLE_EQ(t(-50.0, -50.0), t(0.0, -1.0));
  EXPECT_DOUBLE_EQ(t(50.0, 50.0), t(3.0, 4.0));
}

TEST(Bilinear2D, DegenerateAxes) {
  const BilinearTable2D row({1.0}, {0.0, 1.0}, {3.0, 5.0});
  EXPECT_DOUBLE_EQ(row(99.0, 0.5), 4.0);
  const BilinearTable2D col({0.0, 1.0}, {1.0}, {3.0, 5.0});
  EXPECT_DOUBLE_EQ(col(0.5, 99.0), 4.0);
  const BilinearTable2D pt({1.0}, {1.0}, {7.0});
  EXPECT_DOUBLE_EQ(pt(0.0, 0.0), 7.0);
}

TEST(Bilinear2D, At) {
  const BilinearTable2D t({0.0, 1.0}, {0.0, 1.0}, {1.0, 2.0, 3.0, 4.0});
  EXPECT_DOUBLE_EQ(t.at(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(t.at(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(t.at(1, 0), 3.0);
  EXPECT_THROW(t.at(2, 0), Error);
}

TEST(Bilinear2D, RejectsSizeMismatch) {
  EXPECT_THROW(BilinearTable2D({0.0, 1.0}, {0.0}, {1.0}), Error);
}

TEST(Bilinear2D, SerializationRoundTrip) {
  // Values with no short decimal spelling: a rounding serializer would
  // lose their last bits.
  const BilinearTable2D t({0.0, 0.1, 1.0 / 3.0}, {-1.0, 0.7},
                          {0.1, 0.2, 1.0 / 7.0, 1e-300, 6.02214076e23,
                           -2.0 / 3.0});
  std::stringstream ss;
  t.serialize(ss);
  const BilinearTable2D u = BilinearTable2D::deserialize(ss);
  EXPECT_TRUE(BitIdentical(t, u));
}

/// deserialize(text) must throw ParseError whose message names `field`.
void expect_rejected(const std::string& text, const std::string& field) {
  std::stringstream ss(text);
  try {
    (void)BilinearTable2D::deserialize(ss);
    ADD_FAILURE() << "accepted: " << text;
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
        << "'" << e.what() << "' does not name " << field;
  }
}

TEST(Bilinear2D, DeserializeRejectsGarbage) {
  expect_rejected("not-a-table", "magic");
  // The v1 decimal format is no longer read.
  expect_rejected("pcal-bilinear-v1\n1 1\n0\n0\n1\n", "magic");
  // Truncated value grid: names the first missing value.
  expect_rejected("pcal-bilinear-v2\n2 2\n0 1\n0 1\n1 2 3", "value(1, 1)");
  expect_rejected("pcal-bilinear-v2\n0 0\n", "nx");
  expect_rejected("pcal-bilinear-v2\n2 -1\n", "ny");
  expect_rejected("pcal-bilinear-v2\n0x2 2\n", "nx");
  expect_rejected("pcal-bilinear-v2\n2 2\n0 one\n", "xs[1]");
}

TEST(Bilinear2D, DeserializeRejectsOversizedHeaderBeforeAllocating) {
  // Declared sizes whose product overflows 64 bits, exceeds the cap, or
  // does not even fit a count: rejected from the header alone (no data
  // follows, so an allocation sized by them would be the only failure).
  expect_rejected("pcal-bilinear-v2\n4294967296 4294967296\n", "nx * ny");
  expect_rejected("pcal-bilinear-v2\n18446744073709551615 2\n", "nx * ny");
  expect_rejected("pcal-bilinear-v2\n99999999999999999999999 1\n", "nx");
  expect_rejected("pcal-bilinear-v2\n2048 1024\n", "nx * ny");
  // Exactly at the cap is a legal header (it fails later, on data).
  expect_rejected("pcal-bilinear-v2\n1024 1024\n", "xs[0]");
}

TEST(Bilinear2D, DeserializeRejectsNonIncreasingAxis) {
  expect_rejected("pcal-bilinear-v2\n3 1\n0 0x1p-1 0x1p-1\n0\n1 2 3\n",
                  "xs[2]");
  expect_rejected("pcal-bilinear-v2\n1 2\n0\n1 0\n1 2\n", "ys[1]");
}

TEST(Bilinear2D, DeserializeRejectsNonFiniteValues) {
  expect_rejected("pcal-bilinear-v2\n2 1\n0 inf\n0\n1 2\n", "xs[1]");
  expect_rejected("pcal-bilinear-v2\n1 1\nnan\n0\n1\n", "xs[0]");
  expect_rejected("pcal-bilinear-v2\n2 2\n0 1\n0 1\n1 2 -inf 4\n",
                  "value(1, 0)");
  expect_rejected("pcal-bilinear-v2\n2 2\n0 1\n0 1\n1 2 3 1e999\n",
                  "value(1, 1)");
}

}  // namespace
}  // namespace pcal
