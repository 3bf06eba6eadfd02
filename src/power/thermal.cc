#include "power/thermal.h"

#include "util/error.h"

namespace pcal {

std::vector<double> BankThermalModel::temperatures(
    const std::vector<double>& bank_power_mw) const {
  PCAL_ASSERT_MSG(!bank_power_mw.empty(), "no banks");
  const double n = static_cast<double>(bank_power_mw.size());
  double total = 0.0;
  for (double p : bank_power_mw) {
    PCAL_ASSERT_MSG(p >= 0.0, "negative bank power");
    total += p;
  }
  std::vector<double> temps;
  temps.reserve(bank_power_mw.size());
  for (double p : bank_power_mw) {
    const double others = bank_power_mw.size() > 1
                              ? (total - p) / (n - 1.0)
                              : 0.0;
    const double effective = p + params_.neighbor_coupling * others;
    temps.push_back(params_.ambient_c + params_.r_th_c_per_mw * effective);
  }
  return temps;
}

double BankThermalModel::average_power_mw(const UnitEnergyModel& model,
                                          const UnitActivity& activity,
                                          std::uint64_t total_cycles) {
  if (total_cycles == 0) return 0.0;
  const double t_ns = static_cast<double>(total_cycles) * model.clock_ns();
  // pJ / ns == mW
  return model.price_unit(activity, total_cycles).total_pj() / t_ns;
}

}  // namespace pcal
