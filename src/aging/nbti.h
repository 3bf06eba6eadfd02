// NBTI threshold-shift model (reaction–diffusion, long-term form).
//
// Long-term power law with duty folded inside (Alam/Paul):
//     ΔVth(t) = K(V, T) * (alpha_eff * t)^n ,   n ~= 1/6
// where alpha_eff is the *effective* stress duty.  Two reductions feed it:
//   - the stored-value probability: a pMOS stressed a fraction alpha of
//     the time contributes alpha * t of stress (recovery during the rest
//     is what the sub-linear exponent captures);
//   - the drowsy state: stress at the retention voltage is field
//     decelerated, contributing gamma < 1 *equivalent* seconds of nominal
//     stress per second, gamma = (K(V_ret)/K(V_nom))^(1/n).
// The model also offers a cycle-stepped stress/recovery integrator with an
// explicit fast-recoverable component; its period average converges to the
// closed form (property tested), which is why the closed form is safe for
// year-scale extrapolation.
#pragma once

#include "aging/aging_params.h"

namespace pcal {

class NbtiModel {
 public:
  explicit NbtiModel(const NbtiParams& params);

  const NbtiParams& params() const { return params_; }

  /// Voltage/temperature-dependent prefactor K(V, T) in V * s^-n.
  double prefactor(double vdd, double temperature_c) const;

  /// Closed-form ΔVth after `t_seconds` of operation with effective stress
  /// duty `alpha_eff` at (vdd, T).
  double delta_vth(double t_seconds, double alpha_eff, double vdd,
                   double temperature_c) const;

  /// Equivalent-stress-time factor of a reduced stress voltage:
  /// one second at `vdd_low` ages like gamma seconds at `vdd_nom`.
  double gamma(double vdd_low, double vdd_nom, double temperature_c) const;

  /// Effective duty combining stored-value stress probability `alpha` with
  /// sleep residency `s` at retention voltage (gamma precomputed):
  ///   alpha_eff = alpha * (1 - s + gamma * s).
  static double effective_duty(double alpha, double sleep_residency,
                               double gamma);

  /// Inverse of delta_vth in time: seconds until ΔVth reaches `dvth` under
  /// constant (alpha_eff, vdd, T).  Returns +inf when alpha_eff == 0.
  double time_to_reach(double dvth, double alpha_eff, double vdd,
                       double temperature_c) const;

  /// Globally rescales the prefactor (calibration hook).
  void scale_prefactor(double factor);

 private:
  NbtiParams params_;
};

/// Cycle-stepped stress/recovery integrator.  Tracks a permanent component
/// (equivalent stressed seconds tau, ΔVth_perm = K * tau^n) plus a fast
/// recoverable component that charges during stress and relaxes during
/// recovery with time constant recovery_tau_s.
class SteppedNbtiIntegrator {
 public:
  SteppedNbtiIntegrator(const NbtiModel& model, double vdd_nom,
                        double temperature_c);

  /// Advance `dt_seconds` under stress at voltage `vdd` (the gate sees a
  /// '0'; vdd is the magnitude of the bias).
  void stress(double dt_seconds, double vdd);

  /// Advance `dt_seconds` in recovery (gate sees a '1').
  void recover(double dt_seconds);

  /// Current total ΔVth (permanent + recoverable component).
  double delta_vth() const;

  /// Permanent component only.
  double delta_vth_permanent() const;

  double equivalent_stress_seconds() const { return tau_; }

 private:
  const NbtiModel* model_;
  double vdd_nom_;
  double temperature_c_;
  double tau_ = 0.0;         // equivalent stressed seconds at vdd_nom
  double recoverable_ = 0.0; // fast component, in volts
};

}  // namespace pcal
