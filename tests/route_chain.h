// A test-owned routing chain: one make_managed_cache backend per level,
// all on one chain clock, driven through route_access exactly as the run
// engine drives a core's private levels with the LLC appended.  Lets the
// suites pin the per-access stream semantics of core/hierarchy.h on bare
// backends, below the engine's cadence, census and pricing.
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
      levels_.push_back(make_managed_cache(level.topology, &clock_));
      route_.push_back({levels_.back().get(), level.inclusion});
    }
  }
  // The levels hold the address of the chain's clock.
  RouteChain(const RouteChain&) = delete;
  RouteChain& operator=(const RouteChain&) = delete;

  /// One CPU access through every level (level 0 faces the CPU); then
  /// the chain's clock advances by 1 + its stall, as the engine's does.
  AccessOutcome access(std::uint64_t address, bool is_write) {
    const AccessOutcome out =
        route_access(route_.data(), route_.size(), address, is_write);
    clock_.on_access(out.stall_cycles);
    return out;
  }

  /// The chain's clock; idle time between accesses advances it.
  TimingModel& clock() { return clock_; }

  void finish() {
    for (auto& level : levels_) level->finish();
  }

  std::size_t num_levels() const { return levels_.size(); }
  const ManagedCache& level(std::size_t i) const { return *levels_.at(i); }
  const CacheStats& stats(std::size_t i) const { return level(i).stats(); }

 private:
  TimingModel clock_;
  std::vector<std::unique_ptr<ManagedCache>> levels_;
  std::vector<RoutedLevel> route_;
};

}  // namespace pcal
