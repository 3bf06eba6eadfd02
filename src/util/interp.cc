#include "util/interp.h"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <istream>
#include <ostream>
#include <string>

#include "util/error.h"

namespace pcal {
namespace {

constexpr char kMagic[] = "pcal-bilinear-v2";

// ---- deserialize helpers: each throws ParseError naming its field ----

std::string take_token(std::istream& is, const std::string& field) {
  std::string tok;
  if (!(is >> tok))
    throw ParseError("bilinear table: truncated before " + field);
  return tok;
}

/// A positive decimal count (digits only: no sign, no base prefix).
unsigned long long take_count(std::istream& is, const char* field) {
  const std::string tok = take_token(is, field);
  errno = 0;
  const unsigned long long v =
      tok.find_first_not_of("0123456789") == std::string::npos
          ? std::strtoull(tok.c_str(), nullptr, 10)
          : 0;
  if (v == 0 || errno == ERANGE)
    throw ParseError(std::string("bilinear table: ") + field + " '" + tok +
                     "' is not a positive count");
  return v;
}

double take_double(std::istream& is, const std::string& field) {
  const std::string tok = take_token(is, field);
  char* end = nullptr;
  const double v = std::strtod(tok.c_str(), &end);
  if (end == tok.c_str() || *end != '\0')
    throw ParseError("bilinear table: " + field + " '" + tok +
                     "' is not a number");
  if (!std::isfinite(v))
    throw ParseError("bilinear table: " + field + " = " + tok +
                     " is not finite");
  return v;
}

std::vector<double> take_axis(std::istream& is, const std::string& name,
                              std::size_t n) {
  std::vector<double> axis;
  axis.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::string field = name + "[" + std::to_string(i) + "]";
    const double v = take_double(is, field);
    if (i > 0 && !(v > axis.back()))
      throw ParseError("bilinear table: " + field +
                       " is not greater than the point before it (axis " +
                       name + " must be strictly increasing)");
    axis.push_back(v);
  }
  return axis;
}

void check_axis(const std::vector<double>& xs, const char* name) {
  PCAL_ASSERT_MSG(!xs.empty(), "empty axis " << name);
  for (std::size_t i = 1; i < xs.size(); ++i) {
    PCAL_ASSERT_MSG(xs[i] > xs[i - 1],
                    "axis " << name << " not strictly increasing at " << i);
  }
}

/// Returns the left index i of the segment containing x, clamped so that
/// both i and i+1 are valid (for a size-1 axis returns 0 with weight 0).
std::pair<std::size_t, double> segment(const std::vector<double>& xs,
                                       double x) {
  if (xs.size() == 1 || x <= xs.front()) return {0, 0.0};
  if (x >= xs.back()) return {xs.size() - 2, 1.0};
  const auto it = std::upper_bound(xs.begin(), xs.end(), x);
  const std::size_t i = static_cast<std::size_t>(it - xs.begin()) - 1;
  const double t = (x - xs[i]) / (xs[i + 1] - xs[i]);
  return {i, t};
}

}  // namespace

LinearTable1D::LinearTable1D(std::vector<double> xs, std::vector<double> ys)
    : xs_(std::move(xs)), ys_(std::move(ys)) {
  check_axis(xs_, "x");
  PCAL_ASSERT_MSG(xs_.size() == ys_.size(), "axis/value size mismatch");
}

double LinearTable1D::operator()(double x) const {
  PCAL_ASSERT(!xs_.empty());
  if (xs_.size() == 1) return ys_[0];
  const auto [i, t] = segment(xs_, x);
  return ys_[i] + t * (ys_[i + 1] - ys_[i]);
}

BilinearTable2D::BilinearTable2D(std::vector<double> xs,
                                 std::vector<double> ys,
                                 std::vector<double> values_row_major)
    : xs_(std::move(xs)),
      ys_(std::move(ys)),
      values_(std::move(values_row_major)) {
  check_axis(xs_, "x");
  check_axis(ys_, "y");
  PCAL_ASSERT_MSG(values_.size() == xs_.size() * ys_.size(),
                  "value grid size mismatch: " << values_.size() << " != "
                                               << xs_.size() * ys_.size());
}

double BilinearTable2D::at(std::size_t i, std::size_t j) const {
  PCAL_ASSERT(i < xs_.size() && j < ys_.size());
  return values_[i * ys_.size() + j];
}

double BilinearTable2D::operator()(double x, double y) const {
  PCAL_ASSERT(!values_.empty());
  const auto [i, tx] = segment(xs_, x);
  const auto [j, ty] = segment(ys_, y);
  if (xs_.size() == 1 && ys_.size() == 1) return at(0, 0);
  if (xs_.size() == 1) return at(0, j) + ty * (at(0, j + 1) - at(0, j));
  if (ys_.size() == 1) return at(i, 0) + tx * (at(i + 1, 0) - at(i, 0));
  const double z00 = at(i, j), z01 = at(i, j + 1);
  const double z10 = at(i + 1, j), z11 = at(i + 1, j + 1);
  const double z0 = z00 + ty * (z01 - z00);
  const double z1 = z10 + ty * (z11 - z10);
  return z0 + tx * (z1 - z0);
}

void BilinearTable2D::serialize(std::ostream& os) const {
  const auto put_row = [&os](const double* v, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      // C99 hexfloat prints the exact bit pattern; strtod restores it.
      char buf[48];
      std::snprintf(buf, sizeof(buf), "%a", v[i]);
      os << (i ? " " : "") << buf;
    }
    os << '\n';
  };
  os << kMagic << '\n' << xs_.size() << ' ' << ys_.size() << '\n';
  put_row(xs_.data(), xs_.size());
  put_row(ys_.data(), ys_.size());
  for (std::size_t i = 0; i < xs_.size(); ++i)
    put_row(values_.data() + i * ys_.size(), ys_.size());
}

BilinearTable2D BilinearTable2D::deserialize(std::istream& is) {
  std::string magic;
  if (!(is >> magic) || magic != kMagic)
    throw ParseError("bilinear table: bad magic '" + magic + "' (want " +
                     kMagic + ")");
  const unsigned long long nx = take_count(is, "nx");
  const unsigned long long ny = take_count(is, "ny");
  if (nx > kMaxDeserializeValues / ny)
    throw ParseError("bilinear table: nx * ny = " + std::to_string(nx) +
                     " * " + std::to_string(ny) + " exceeds the " +
                     std::to_string(kMaxDeserializeValues) + "-value cap");
  std::vector<double> xs = take_axis(is, "xs", nx);
  std::vector<double> ys = take_axis(is, "ys", ny);
  std::vector<double> vals;
  vals.reserve(nx * ny);
  for (std::size_t i = 0; i < nx; ++i)
    for (std::size_t j = 0; j < ny; ++j)
      vals.push_back(take_double(is, "value(" + std::to_string(i) + ", " +
                                         std::to_string(j) + ")"));
  return BilinearTable2D(std::move(xs), std::move(ys), std::move(vals));
}

}  // namespace pcal
