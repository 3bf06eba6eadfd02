// Latency-aware timing core for the trace-driven simulator.
//
// The original driver assumed an idealized one-access-per-cycle clock:
// every access, hit or miss, woke or not, consumed exactly one cycle, so
// wakeup and miss costs appeared only in energy and the drowsy-vs-gated
// comparison had no performance axis.  This file makes time a first-class
// observable without touching the backends' unit-clock semantics:
//
//   - LatencyParams prices one cache level's events in *stall cycles
//     beyond the one base cycle* every access already consumes: extra
//     hit latency, miss penalty (the path to the next level, or to
//     memory at the last level), and the wakeup cost of an access that
//     finds its unit in a low-power state (cheap from drowsy, full from
//     power-gated — the same constants power/unit_energy.h documents).
//   - WakeDepth classifies that wakeup: backends report how deep the
//     serving unit was sleeping when the access arrived.
//   - TimingModel is the run's clock: the run engine advances it by
//     every access and its stall, every cache of the run reads it, and
//     it yields total cycles, stall cycles and the average access
//     latency for SimResult.
//
// Stall semantics: stall cycles advance the run's clock with no access
// consumed, so every unit at every level accumulates the stall as idle
// time and leakage is priced against the stretched wall clock.  Whether
// a unit may enter a low-power state during a long stall is governed by
// the same breakeven rule as any other idleness — the model has one
// currency for idle time.
//
// Degeneracy contract (pinned in tests/timing_test.cc and the backend
// parity suite): all-zero LatencyParams — the default — produce zero
// stall on every event, the driver never advances the clock beyond the
// access stream, and every observable (stats, residencies, energy) is
// bit-identical to the pre-timing one-access-per-cycle engine.
#pragma once

#include <cstdint>
#include <string>

namespace pcal {

/// How deep the serving unit was sleeping when an access arrived.
enum class WakeDepth : std::uint8_t {
  kAwake = 0,   // unit was active: no wakeup cost
  kDrowsy = 1,  // state-preserving retention voltage: cheap wakeup
  kGated = 2,   // power-gated: full wakeup
};

const char* to_string(WakeDepth depth);

/// Per-level event costs in stall cycles beyond the one base cycle every
/// access consumes.  All-zero (the default) is the idealized clock.
struct LatencyParams {
  /// The cap on any one event's cost, here and in ContentionParams'
  /// hold times.  At 2^20 cycles per event a six-level access needs
  /// about 2^39 accesses before the 64-bit clock can overflow.
  static constexpr std::uint64_t kMaxEventCycles = std::uint64_t{1} << 20;

  /// Extra cycles a hit in this level costs.
  std::uint64_t hit_cycles = 0;
  /// Penalty when this level misses: the request leaves the level — to
  /// the next level down, or to memory when nothing sits below.
  std::uint64_t miss_cycles = 0;
  /// Wakeup cost when the access finds its unit at the drowsy voltage.
  std::uint64_t drowsy_wake_cycles = 0;
  /// Wakeup cost when the access finds its unit power-gated.
  std::uint64_t gated_wake_cycles = 0;

  bool zero() const {
    return hit_cycles == 0 && miss_cycles == 0 &&
           drowsy_wake_cycles == 0 && gated_wake_cycles == 0;
  }

  /// Stall cycles of one event through this level.
  std::uint64_t event_stall(bool hit, WakeDepth wake) const {
    std::uint64_t stall = hit ? hit_cycles : miss_cycles;
    if (wake == WakeDepth::kDrowsy) stall += drowsy_wake_cycles;
    else if (wake == WakeDepth::kGated) stall += gated_wake_cycles;
    return stall;
  }

  /// Compact label suffix ("h1/m8/w1:3"); empty when zero() — so config
  /// labels of untimed runs are unchanged.
  std::string describe() const;

  /// Throws ConfigError when one event's cost exceeds kMaxEventCycles.
  static void check_cycles(std::uint64_t cycles);
  /// check_cycles() on every field.
  void validate() const;
};

/// Classifies a wakeup.  `idle_gap` is the serving unit's idle cycles
/// immediately before the access; `gate_cycles` the threshold past which
/// the unit was power-gated (== the breakeven for pure gated policies,
/// breakeven + window for the drowsy hybrid).
inline WakeDepth classify_wake(bool woke, std::uint64_t idle_gap,
                               std::uint64_t gate_cycles) {
  if (!woke) return WakeDepth::kAwake;
  return idle_gap >= gate_cycles ? WakeDepth::kGated : WakeDepth::kDrowsy;
}

/// The run's clock: the one cycle count every cache of a run reads.
/// Only its owner advances it — the run engine, by 1 + stall per routed
/// access and by n + stalls per batched chunk, or a standalone cache
/// (make_managed_cache without a clock), by each access it serves.
/// Plain data, no threading.
class TimingModel {
 public:
  /// Records one consumed access and its stall: 1 + stall_cycles cycles.
  void on_access(std::uint64_t stall_cycles) { on_batch(1, stall_cycles); }

  /// Records `n` consumed accesses with `stall_cycles` total stalls in
  /// one step — numerically identical to n on_access calls, so the
  /// batched driver loop lands on the same clock as the scalar one.
  /// n == 0 is idle time: cycles pass with no access consumed.
  void on_batch(std::uint64_t n, std::uint64_t stall_cycles) {
    accesses_ += n;
    cycles_ += n + stall_cycles;
  }

  std::uint64_t accesses() const { return accesses_; }
  std::uint64_t stall_cycles() const { return cycles_ - accesses_; }
  /// Total simulated cycles: one per access plus every stall — the
  /// current cycle of every cache on this clock.
  std::uint64_t total_cycles() const { return cycles_; }
  /// Mean cycles per access (>= 1; 0 for an empty run).
  double avg_access_latency() const;

 private:
  std::uint64_t accesses_ = 0;
  std::uint64_t cycles_ = 0;
};

}  // namespace pcal
