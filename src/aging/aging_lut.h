// The (p0, P_sleep) -> lifetime lookup table.
//
// "The collected data are stored in a lookup table, which is used by the
// cache simulator to estimate the aging of the cache banks" — this is that
// table.  Building it runs the characterizer over a grid (seconds of CPU);
// queries are then O(log grid) bilinear interpolations, which is what the
// per-bank lifetime evaluation in the simulator uses.
//
// Like the paper's, the table is characterized once and then only read:
// the build runs tools/genlut.cc to characterize AgingParams::st45() and
// compiles the serialized table into the pcal library
// (embedded_st45_lut()), so a process prices lifetimes without
// re-characterizing the cell.  Every table carries a fingerprint of the
// parameters and axes it was computed from; AgingContext
// (core/experiment.h) uses it to refuse a stale embedded table.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string_view>
#include <vector>

#include "aging/characterizer.h"
#include "util/interp.h"

namespace pcal {

class AgingLut {
 public:
  /// The default axes: p0 every 0.1; sleep residency denser near 1,
  /// where the lifetime curve bends.
  static std::vector<double> default_p0_axis();
  static std::vector<double> default_sleep_axis();

  /// Builds from a characterizer on the default axes.
  static AgingLut build(const CellAgingCharacterizer& characterizer);

  /// Builds on caller-provided axes.
  static AgingLut build(const CellAgingCharacterizer& characterizer,
                        std::vector<double> p0_axis,
                        std::vector<double> sleep_axis);

  /// Calibrates a fresh characterizer for `params` and builds on the
  /// default axes (seconds of CPU): the table the build embeds for
  /// AgingParams::st45(), and what AgingContext computes for any other
  /// parameters.
  static AgingLut characterize(const AgingParams& params);

  /// 64-bit stamp of every AgingParams field (by exact bit pattern) and
  /// both axes.  It names the inputs a table was computed from; whether
  /// the characterizer was calibrated first is the caller's recipe (the
  /// build and AgingContext always calibrate).
  static std::uint64_t fingerprint(const AgingParams& params,
                                   const std::vector<double>& p0_axis,
                                   const std::vector<double>& sleep_axis);

  /// The stamp of this table: fingerprint(characterizer.params(), axes)
  /// at build time, restored by deserialize.
  std::uint64_t fingerprint() const { return fingerprint_; }

  /// Lifetime (years) for a cell population with stored-zero probability
  /// `p0` and sleep residency `sleep`; arguments are clamped to [0, 1].
  double lifetime_years(double p0, double sleep) const;

  /// "pcal-aging-lut <fingerprint as 16 hex digits>" on its own line,
  /// then the table (BilinearTable2D's exact hexfloat format).
  void serialize(std::ostream& os) const;
  static AgingLut deserialize(std::istream& is);

  const BilinearTable2D& table() const { return table_; }

 private:
  AgingLut(BilinearTable2D table, std::uint64_t fingerprint)
      : table_(std::move(table)), fingerprint_(fingerprint) {}
  BilinearTable2D table_;
  std::uint64_t fingerprint_;
};

/// AgingLut::characterize(AgingParams::st45()) as serialize() wrote it at
/// build time.  Defined in a source file the build generates and compiles
/// into the pcal library only: the cell-physics objects the generator
/// links must not reference it.
std::string_view embedded_st45_lut();

}  // namespace pcal
