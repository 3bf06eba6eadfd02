#include "aging/characterizer.h"

#include <cmath>

#include "util/error.h"
#include "util/units.h"

namespace pcal {

CellAgingCharacterizer::CellAgingCharacterizer(const AgingParams& params)
    : params_(params), cell_(params.cell), nbti_(params.nbti) {
  gamma_ = nbti_.gamma(params_.vdd_retention, params_.vdd,
                       params_.temperature_c);
  snm0_ = read_snm(cell_, 0.0, 0.0).snm;
  PCAL_CONFIG_CHECK(snm0_ > 0.0,
                    "cell is not read-stable at time zero; check device "
                    "parameters");
}

void CellAgingCharacterizer::stress_duties(double p0, double& alpha0,
                                           double& alpha1) {
  PCAL_ASSERT(p0 >= 0.0 && p0 <= 1.0);
  // While the cell stores one value, exactly one of the two pMOS loads has
  // a '0' on its gate (negative bias); the other recovers.  So one load is
  // stressed a fraction p0 of the time and the other the complement.
  alpha0 = p0;
  alpha1 = 1.0 - p0;
}

double CellAgingCharacterizer::snm_after(double t_years, double p0,
                                         double sleep) const {
  double a0 = 0.0, a1 = 0.0;
  stress_duties(p0, a0, a1);
  const double t_s = units::years_to_seconds(t_years);
  const double e0 = NbtiModel::effective_duty(a0, sleep, gamma_);
  const double e1 = NbtiModel::effective_duty(a1, sleep, gamma_);
  const double dv0 = nbti_.delta_vth(t_s, e0, params_.vdd,
                                     params_.temperature_c);
  const double dv1 = nbti_.delta_vth(t_s, e1, params_.vdd,
                                     params_.temperature_c);
  return read_snm(cell_, dv0, dv1).snm;
}

double CellAgingCharacterizer::critical_shift(double p0) const {
  const double threshold = (1.0 - params_.criterion.snm_degradation) * snm0_;
  double a0 = 0.0, a1 = 0.0;
  stress_duties(p0, a0, a1);
  const double amax = std::max(a0, a1);
  const double amin = std::min(a0, a1);
  // Both shifts grow along a fixed ray: dv_min/dv_max = (amin/amax)^n.
  const double ratio =
      amax > 0.0 ? std::pow(amin / amax, params_.nbti.n) : 0.0;
  const auto snm_at = [&](double c) {
    // SNM is symmetric under swapping the two loads, so the assignment of
    // (c, c*ratio) to the inverters does not matter.
    return read_snm(cell_, c, c * ratio).snm;
  };
  // Find an upper bracket by doubling, then bisect.  SNM is monotone
  // non-increasing in the shift magnitude.
  double hi = 0.05;
  while (snm_at(hi) >= threshold) {
    hi *= 2.0;
    PCAL_ASSERT_MSG(hi < 4.0, "SNM never crosses the failure threshold");
  }
  double lo = hi * 0.5 > 0.05 ? hi * 0.5 : 0.0;
  for (int it = 0; it < 40; ++it) {
    const double mid = 0.5 * (lo + hi);
    if (snm_at(mid) >= threshold)
      lo = mid;
    else
      hi = mid;
  }
  return 0.5 * (lo + hi);
}

double CellAgingCharacterizer::lifetime_years(double p0, double sleep) const {
  double a0 = 0.0, a1 = 0.0;
  stress_duties(p0, a0, a1);
  const double amax = std::max(a0, a1);
  const double crit = critical_shift(p0);
  const double alpha_eff = NbtiModel::effective_duty(amax, sleep, gamma_);
  const double t_s = nbti_.time_to_reach(crit, alpha_eff, params_.vdd,
                                         params_.temperature_c);
  // Cap at a 1000-year horizon: beyond it the cell is "immortal" for any
  // practical purpose (e.g. a bank that sleeps ~always with gamma -> 0).
  return std::min(units::seconds_to_years(t_s), 1000.0);
}

double CellAgingCharacterizer::calibrate() {
  // ΔVth_crit is fixed by the SNM criterion and independent of the
  // prefactor, so the prefactor that puts the nominal cell's lifetime
  // exactly on target follows in closed form from the power law:
  //   crit = K * (alpha * t_target)^n  =>  K = crit / (alpha * t_target)^n.
  const double crit = critical_shift(0.5);
  const double t_target_s =
      units::years_to_seconds(params_.nominal_lifetime_years);
  const double k_needed = crit / std::pow(0.5 * t_target_s, params_.nbti.n);
  const double k_current =
      nbti_.prefactor(params_.vdd, params_.temperature_c);
  const double scale = k_needed / k_current;
  nbti_.scale_prefactor(scale);
  return scale;
}

BilinearTable2D CellAgingCharacterizer::build_lut(
    const std::vector<double>& p0_axis,
    const std::vector<double>& sleep_axis) const {
  std::vector<double> values;
  values.reserve(p0_axis.size() * sleep_axis.size());
  for (double p0 : p0_axis) {
    // One SNM bisection per p0; each sleep point is then closed form.
    double a0 = 0.0, a1 = 0.0;
    stress_duties(p0, a0, a1);
    const double amax = std::max(a0, a1);
    const double crit = critical_shift(p0);
    for (double s : sleep_axis) {
      const double alpha_eff = NbtiModel::effective_duty(amax, s, gamma_);
      const double t_s = nbti_.time_to_reach(crit, alpha_eff, params_.vdd,
                                             params_.temperature_c);
      values.push_back(std::min(units::seconds_to_years(t_s), 1000.0));
    }
  }
  return BilinearTable2D(p0_axis, sleep_axis, std::move(values));
}

}  // namespace pcal
