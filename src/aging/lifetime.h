// Cache-level lifetime evaluation.
//
// Aging is a worst-case metric: the cache dies when its first bank can no
// longer store data reliably.  Per-bank lifetime comes from the aging LUT
// queried with the bank's measured sleep residency; the cache lifetime is
// the minimum over banks.  This asymmetry against power (an average
// metric) is the paper's central observation and the reason re-indexing
// helps aging even though it leaves total energy unchanged.
#pragma once

#include <cstdint>
#include <vector>

#include "aging/aging_lut.h"

namespace pcal {

struct BankLifetime {
  double sleep_residency = 0.0;
  double p0 = 0.5;
  double lifetime_years = 0.0;
};

struct CacheLifetimeResult {
  std::vector<BankLifetime> banks;
  double lifetime_years = 0.0;   // min over banks
  std::uint64_t limiting_bank = 0;

  double mean_bank_lifetime() const;
  /// Spread diagnostic: max/min bank lifetime (1.0 == perfectly uniform).
  double imbalance() const;
};

class CacheLifetimeEvaluator {
 public:
  explicit CacheLifetimeEvaluator(const AgingLut& lut) : lut_(&lut) {}

  /// Evaluates a cache whose banks slept the given residencies.  `p0` is
  /// the stored-zero probability (0.5 unless value profiling says
  /// otherwise).
  CacheLifetimeResult evaluate(const std::vector<double>& bank_residency,
                               double p0 = 0.5) const;

 private:
  const AgingLut* lut_;
};

}  // namespace pcal
