// A test-owned routing chain: one make_managed_cache backend per level,
// driven through route_access exactly as the run engine drives a core's
// private levels with the LLC appended.  Lets the suites pin the
// per-access stream semantics of core/hierarchy.h on bare backends,
// below the engine's cadence, census and pricing.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/hierarchy.h"

namespace pcal {

class RouteChain {
 public:
  explicit RouteChain(const std::vector<LevelConfig>& levels) {
    for (const LevelConfig& level : levels) {
      levels_.push_back(make_managed_cache(level.topology));
      route_.push_back({levels_.back().get(), level.inclusion});
    }
  }

  /// One CPU access through every level (level 0 faces the CPU).
  AccessOutcome access(std::uint64_t address, bool is_write) {
    return route_access(route_.data(), route_.size(), address, is_write);
  }

  /// Stalls and idle time advance every level, as the engine does.
  void advance_idle(std::uint64_t cycles) {
    for (auto& level : levels_) level->advance_idle(cycles);
  }

  void finish() {
    for (auto& level : levels_) level->finish();
  }

  std::size_t num_levels() const { return levels_.size(); }
  const ManagedCache& level(std::size_t i) const { return *levels_.at(i); }
  const CacheStats& stats(std::size_t i) const { return level(i).stats(); }

 private:
  std::vector<std::unique_ptr<ManagedCache>> levels_;
  std::vector<RoutedLevel> route_;
};

}  // namespace pcal
