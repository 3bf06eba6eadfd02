// Bit-for-bit comparison of interpolation tables for the test suites.
//
// EXPECT_DOUBLE_EQ accepts values up to 4 ulps apart, which would let a
// serializer that rounds (or a build-time table that drifted from the
// runtime one) pass.  These helpers compare exact bit patterns instead.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>

#include "util/interp.h"

namespace pcal {

inline std::uint64_t double_bits(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

inline std::string hexfloat(double v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

/// Success iff both tables have the same axis sizes and every axis point
/// and value has the same bit pattern; otherwise names the first field
/// that differs.
inline ::testing::AssertionResult BitIdentical(const BilinearTable2D& a,
                                               const BilinearTable2D& b) {
  if (a.xs().size() != b.xs().size() || a.ys().size() != b.ys().size())
    return ::testing::AssertionFailure()
           << "shape " << a.xs().size() << "x" << a.ys().size() << " vs "
           << b.xs().size() << "x" << b.ys().size();
  for (std::size_t i = 0; i < a.xs().size(); ++i)
    if (double_bits(a.xs()[i]) != double_bits(b.xs()[i]))
      return ::testing::AssertionFailure()
             << "xs[" << i << "] differs: " << hexfloat(a.xs()[i]) << " vs "
             << hexfloat(b.xs()[i]);
  for (std::size_t j = 0; j < a.ys().size(); ++j)
    if (double_bits(a.ys()[j]) != double_bits(b.ys()[j]))
      return ::testing::AssertionFailure()
             << "ys[" << j << "] differs: " << hexfloat(a.ys()[j]) << " vs "
             << hexfloat(b.ys()[j]);
  for (std::size_t i = 0; i < a.xs().size(); ++i)
    for (std::size_t j = 0; j < a.ys().size(); ++j)
      if (double_bits(a.at(i, j)) != double_bits(b.at(i, j)))
        return ::testing::AssertionFailure()
               << "value(" << i << ", " << j
               << ") differs: " << hexfloat(a.at(i, j)) << " vs "
               << hexfloat(b.at(i, j));
  return ::testing::AssertionSuccess();
}

}  // namespace pcal
