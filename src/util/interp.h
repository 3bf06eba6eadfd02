// Interpolated lookup tables.
//
// The aging characterizer produces a (p0, P_sleep) -> lifetime table, the
// software analogue of the SPICE-derived LUT the paper stores; the cache
// simulator queries it with bilinear interpolation.  Grid axes are strictly
// increasing but need not be uniform.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <vector>

namespace pcal {

/// 1-D piecewise-linear table y(x) over a strictly increasing axis.
/// Queries outside the axis clamp to the end values.
class LinearTable1D {
 public:
  LinearTable1D() = default;
  LinearTable1D(std::vector<double> xs, std::vector<double> ys);

  double operator()(double x) const;

  std::size_t size() const { return xs_.size(); }
  const std::vector<double>& xs() const { return xs_; }
  const std::vector<double>& ys() const { return ys_; }

 private:
  std::vector<double> xs_;
  std::vector<double> ys_;
};

/// 2-D bilinear table z(x, y) over strictly increasing axes, clamped at the
/// borders.  Values are stored row-major: value(i, j) = z(xs[i], ys[j]).
class BilinearTable2D {
 public:
  BilinearTable2D() = default;
  BilinearTable2D(std::vector<double> xs, std::vector<double> ys,
                  std::vector<double> values_row_major);

  double operator()(double x, double y) const;

  double at(std::size_t i, std::size_t j) const;

  const std::vector<double>& xs() const { return xs_; }
  const std::vector<double>& ys() const { return ys_; }

  bool empty() const { return values_.empty(); }

  /// Text serialization, "pcal-bilinear-v2": the axis sizes in decimal,
  /// then every axis point and value as a C99 hexfloat, so deserialize
  /// restores each double bit for bit.
  void serialize(std::ostream& os) const;

  /// Parses serialize()'s output.  Throws ParseError naming the field
  /// on any malformed input, before the table is built: a bad magic, a
  /// size that is not a count or whose nx * ny grid exceeds
  /// kMaxDeserializeValues (checked before anything is allocated), a
  /// token that is not a number, a non-finite number, an axis that is
  /// not strictly increasing, or a truncated stream.
  static BilinearTable2D deserialize(std::istream& is);

  /// Largest grid (nx * ny values) deserialize accepts.
  static constexpr std::size_t kMaxDeserializeValues = std::size_t{1} << 20;

 private:
  std::vector<double> xs_;
  std::vector<double> ys_;
  std::vector<double> values_;  // row-major, size xs_.size() * ys_.size()
};

}  // namespace pcal
