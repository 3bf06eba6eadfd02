#include "util/rng.h"

#include <cmath>

namespace pcal {

Xoshiro256::Xoshiro256(std::uint64_t seed) {
  SplitMix64 sm(seed);
  for (auto& w : s_) w = sm.next();
  // An all-zero state would be absorbing; SplitMix64 cannot produce four
  // consecutive zeros from any seed, but guard anyway.
  if (s_[0] == 0 && s_[1] == 0 && s_[2] == 0 && s_[3] == 0) s_[0] = 1;
}

std::uint64_t Xoshiro256::next_in(std::uint64_t lo, std::uint64_t hi) {
  PCAL_ASSERT(lo <= hi);
  return lo + next_below(hi - lo + 1);
}

ZipfSampler::ZipfSampler(std::uint64_t n, double s) {
  PCAL_ASSERT_MSG(n > 0, "ZipfSampler needs a nonempty support");
  cdf_.resize(n);
  double acc = 0.0;
  for (std::uint64_t r = 0; r < n; ++r) {
    acc += std::pow(static_cast<double>(r + 1), -s);
    cdf_[r] = acc;
  }
  const double total = acc;
  for (auto& c : cdf_) c /= total;
  cdf_.back() = 1.0;  // guard against accumulated rounding
}

}  // namespace pcal
