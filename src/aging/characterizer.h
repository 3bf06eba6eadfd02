// Cell aging characterization: the software analogue of the paper's
// SPICE-based framework.
//
// The paper's flow: (1) pre-stress simulation computes pMOS aging from
// functional conditions (stored-zero probability p0, idleness P_sleep);
// (2) the resulting ΔVth is annotated onto the cell netlist; (3) post-
// stress simulation extracts the read SNM; (4) lifetime = time at which
// read SNM has degraded 20%; (5) results populate a lookup table the cache
// simulator queries.  We reproduce the same pipeline with the analytical
// models in this directory, plus a one-shot calibration that pins the
// nominal-cell lifetime to the paper's 2.93 years.
#pragma once

#include "aging/aging_params.h"
#include "aging/nbti.h"
#include "aging/snm.h"
#include "aging/sram_cell.h"
#include "util/interp.h"

namespace pcal {

class CellAgingCharacterizer {
 public:
  explicit CellAgingCharacterizer(const AgingParams& params);

  /// Fresh-cell read SNM (volts).
  double nominal_snm() const { return snm0_; }

  /// Read SNM after `t_years` of operation with stored-zero probability
  /// `p0` and sleep residency `sleep` (post-stress simulation).
  double snm_after(double t_years, double p0, double sleep) const;

  /// Lifetime (years) of a cell operated at (p0, sleep): the time at which
  /// the read SNM crosses (1 - criterion) * SNM0.
  ///
  /// Solved exactly in two steps: the two loads' ΔVth ratio depends only on
  /// p0 (not on time or sleep), so the critical shift along that ray is
  /// found once by bisection on the SNM, and the crossing time follows in
  /// closed form from the NBTI power law.
  double lifetime_years(double p0, double sleep) const;

  /// The critical worst-load ΔVth (volts) at which the SNM criterion is
  /// violated, for stored-zero probability p0.  Exposed for tests and for
  /// batch LUT construction.
  double critical_shift(double p0) const;

  /// Equivalent-stress factor of the drowsy state for these parameters
  /// (the gamma of DESIGN.md §3; ~0.226 for the default technology).
  double sleep_stress_factor() const { return gamma_; }

  /// Rescales the NBTI prefactor so that lifetime(0.5, 0) equals
  /// params.nominal_lifetime_years.  Exact in one step because lifetime
  /// scales as kdc^(-1/n) at fixed (p0, sleep).  Returns the applied
  /// scale factor.
  double calibrate();

  /// Builds a (p0, sleep) -> lifetime-years table on the given axes.
  BilinearTable2D build_lut(const std::vector<double>& p0_axis,
                            const std::vector<double>& sleep_axis) const;

  /// The parameters this characterizer was constructed from; calibrate()
  /// rescales nbti()'s prefactor, not these.
  const AgingParams& params() const { return params_; }
  const NbtiModel& nbti() const { return nbti_; }

 private:
  /// Per-pMOS stress duties implied by p0 (the two loads are stressed in
  /// complementary value phases).
  static void stress_duties(double p0, double& alpha0, double& alpha1);

  AgingParams params_;
  SramCell cell_;
  NbtiModel nbti_;
  double gamma_ = 1.0;
  double snm0_ = 0.0;
};

}  // namespace pcal
