#include "aging/lifetime.h"

#include <algorithm>

#include "util/error.h"

namespace pcal {

double CacheLifetimeResult::mean_bank_lifetime() const {
  if (banks.empty()) return 0.0;
  double sum = 0.0;
  for (const auto& b : banks) sum += b.lifetime_years;
  return sum / static_cast<double>(banks.size());
}

double CacheLifetimeResult::imbalance() const {
  if (banks.empty()) return 1.0;
  double lo = banks.front().lifetime_years;
  double hi = lo;
  for (const auto& b : banks) {
    lo = std::min(lo, b.lifetime_years);
    hi = std::max(hi, b.lifetime_years);
  }
  return lo > 0.0 ? hi / lo : 1.0;
}

namespace {

CacheLifetimeResult finalize(CacheLifetimeResult result) {
  result.limiting_bank = 0;
  result.lifetime_years = result.banks.front().lifetime_years;
  for (std::size_t i = 1; i < result.banks.size(); ++i) {
    if (result.banks[i].lifetime_years < result.lifetime_years) {
      result.lifetime_years = result.banks[i].lifetime_years;
      result.limiting_bank = i;
    }
  }
  return result;
}

}  // namespace

CacheLifetimeResult CacheLifetimeEvaluator::evaluate(
    const std::vector<double>& bank_residency, double p0) const {
  PCAL_ASSERT_MSG(!bank_residency.empty(), "no banks to evaluate");
  CacheLifetimeResult result;
  result.banks.reserve(bank_residency.size());
  for (double s : bank_residency) {
    BankLifetime bl;
    bl.sleep_residency = s;
    bl.p0 = p0;
    bl.lifetime_years = lut_->lifetime_years(p0, s);
    result.banks.push_back(bl);
  }
  return finalize(std::move(result));
}

}  // namespace pcal
