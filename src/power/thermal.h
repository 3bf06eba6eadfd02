// Per-bank thermal model (extension beyond the paper).
//
// NBTI is thermally activated, and a bank's temperature tracks its power.
// A static partition therefore suffers twice: its hot bank has both the
// least recovery idleness *and* the highest temperature.  Re-indexing
// equalizes activity, hence temperature, hence thermal aging — a second
// balancing effect on top of the idleness one.  The model is a simple
// steady-state resistance network: T_bank = T_ambient + R_th * P_bank.
#pragma once

#include <vector>

#include "power/unit_energy.h"

namespace pcal {

struct ThermalParams {
  // Die-level baseline: chosen so a typically-loaded bank sits near the
  // 80C reference temperature the aging model is calibrated at.
  double ambient_c = 70.0;
  double r_th_c_per_mw = 2.2;      // per-bank thermal resistance
  double neighbor_coupling = 0.3;  // fraction of neighbours' heat received
};

class BankThermalModel {
 public:
  explicit BankThermalModel(ThermalParams params = ThermalParams{})
      : params_(params) {}

  const ThermalParams& params() const { return params_; }

  /// Steady-state temperatures from per-bank average powers (mW).  Each
  /// bank heats itself through R_th and receives a coupled share of the
  /// average of all other banks (lumped lateral conduction).
  std::vector<double> temperatures(
      const std::vector<double>& bank_power_mw) const;

  /// Average power (mW) of one unit over a run, from its activity, as
  /// `model` prices it (UnitEnergyModel::price_unit).
  static double average_power_mw(const UnitEnergyModel& model,
                                 const UnitActivity& activity,
                                 std::uint64_t total_cycles);

 private:
  ThermalParams params_;
};

}  // namespace pcal
