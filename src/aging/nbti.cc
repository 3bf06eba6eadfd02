#include "aging/nbti.h"

#include <cmath>
#include <limits>

#include "util/error.h"

namespace pcal {
namespace {

constexpr double kBoltzmannEv = 8.617333262e-5;  // eV / K

double celsius_to_kelvin(double c) { return c + 273.15; }

}  // namespace

NbtiModel::NbtiModel(const NbtiParams& params) : params_(params) {
  PCAL_CONFIG_CHECK(params_.n > 0.0 && params_.n < 1.0,
                    "NBTI exponent must be in (0,1)");
  PCAL_CONFIG_CHECK(params_.kdc > 0.0, "NBTI prefactor must be positive");
  PCAL_CONFIG_CHECK(params_.tox_nm > 0.0 && params_.e0_v_per_nm > 0.0,
                    "oxide parameters must be positive");
}

double NbtiModel::prefactor(double vdd, double temperature_c) const {
  const double field = (vdd - params_.vdd_ref) /
                       (params_.tox_nm * params_.e0_v_per_nm);
  const double t_k = celsius_to_kelvin(temperature_c);
  const double tref_k = celsius_to_kelvin(params_.temp_ref_c);
  const double arrhenius =
      std::exp(params_.ea_ev / kBoltzmannEv * (1.0 / tref_k - 1.0 / t_k));
  return params_.kdc * std::exp(field) * arrhenius;
}

double NbtiModel::delta_vth(double t_seconds, double alpha_eff, double vdd,
                            double temperature_c) const {
  PCAL_ASSERT(t_seconds >= 0.0 && alpha_eff >= 0.0);
  if (t_seconds == 0.0 || alpha_eff == 0.0) return 0.0;
  return prefactor(vdd, temperature_c) *
         std::pow(alpha_eff * t_seconds, params_.n);
}

double NbtiModel::gamma(double vdd_low, double vdd_nom,
                        double temperature_c) const {
  PCAL_ASSERT(vdd_low > 0.0 && vdd_low <= vdd_nom);
  const double ratio = prefactor(vdd_low, temperature_c) /
                       prefactor(vdd_nom, temperature_c);
  return std::pow(ratio, 1.0 / params_.n);
}

double NbtiModel::effective_duty(double alpha, double sleep_residency,
                                 double g) {
  PCAL_ASSERT(alpha >= 0.0 && alpha <= 1.0);
  PCAL_ASSERT(sleep_residency >= 0.0 && sleep_residency <= 1.0 + 1e-12);
  PCAL_ASSERT(g >= 0.0 && g <= 1.0);
  return alpha * (1.0 - sleep_residency + g * sleep_residency);
}

double NbtiModel::time_to_reach(double dvth, double alpha_eff, double vdd,
                                double temperature_c) const {
  PCAL_ASSERT(dvth > 0.0);
  if (alpha_eff <= 0.0) return std::numeric_limits<double>::infinity();
  const double k = prefactor(vdd, temperature_c);
  return std::pow(dvth / k, 1.0 / params_.n) / alpha_eff;
}

void NbtiModel::scale_prefactor(double factor) {
  PCAL_ASSERT(factor > 0.0);
  params_.kdc *= factor;
}

SteppedNbtiIntegrator::SteppedNbtiIntegrator(const NbtiModel& model,
                                             double vdd_nom,
                                             double temperature_c)
    : model_(&model), vdd_nom_(vdd_nom), temperature_c_(temperature_c) {}

void SteppedNbtiIntegrator::stress(double dt_seconds, double vdd) {
  PCAL_ASSERT(dt_seconds >= 0.0);
  // Equivalent-time mapping: dt at `vdd` ages like gamma(vdd) * dt at
  // nominal stress.
  const double g =
      vdd >= vdd_nom_ ? 1.0 : model_->gamma(vdd, vdd_nom_, temperature_c_);
  tau_ += g * dt_seconds;
  // The fast component charges toward its share of the permanent level.
  const double target = model_->params().recoverable_fraction *
                        delta_vth_permanent();
  const double rate = dt_seconds / model_->params().recovery_tau_s;
  recoverable_ += (target - recoverable_) * (1.0 - std::exp(-rate));
}

void SteppedNbtiIntegrator::recover(double dt_seconds) {
  PCAL_ASSERT(dt_seconds >= 0.0);
  const double rate = dt_seconds / model_->params().recovery_tau_s;
  recoverable_ *= std::exp(-rate);
}

double SteppedNbtiIntegrator::delta_vth_permanent() const {
  if (tau_ <= 0.0) return 0.0;
  return model_->prefactor(vdd_nom_, temperature_c_) *
         std::pow(tau_, model_->params().n);
}

double SteppedNbtiIntegrator::delta_vth() const {
  return delta_vth_permanent() + recoverable_;
}

}  // namespace pcal
