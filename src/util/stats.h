// Idle-interval statistics of one power-managed block.
//
// The paper's "useful idleness" of a bank is the share of its idle time
// that power management can actually convert into sleep: an idle
// interval of `len` cycles sleeps `len - d` cycles iff it outlives the
// breakeven `d`.  Everything the tables, the aging model and the energy
// model read about idleness is a count or a sum over the intervals
// longer than a threshold, and a run only ever asks at the two
// thresholds its Block Control is built with — the breakeven `d` and
// the gate `g` (where the drowsy hybrid power-gates; `g == d` under the
// gated policy).  IdleSums keeps exactly those running counts and sums,
// O(1) per interval and a fixed 40 bytes per block.
#pragma once

#include <cstdint>

namespace pcal {

/// Running counts and sums over one block's idle intervals at two fixed
/// thresholds, the breakeven `d` and the gate `g` (`g >= d`).  An
/// interval counts at a threshold iff it is *strictly* longer, and then
/// contributes `len - threshold` cycles.  The thresholds are passed in
/// rather than stored, so a column of blocks that shares them (Block
/// Control, bank/block_control.h) holds them once.
struct IdleSums {
  std::uint64_t intervals = 0;  // nonzero idle intervals
  std::uint64_t above_d = 0;    // intervals longer than d
  std::uint64_t excess_d = 0;   // their sum of (len - d): sleep cycles
  std::uint64_t above_g = 0;    // intervals longer than g
  std::uint64_t excess_g = 0;   // their sum of (len - g): gated cycles

  /// Records one completed idle interval of `len` cycles; a zero-length
  /// interval (no idle gap) is ignored.  Requires g >= d.  Branch-free:
  /// the interval lengths of a real trace make every threshold test a
  /// coin flip the predictor cannot learn, so each sum adds an excess
  /// masked to zero when the interval does not count.
  void add(std::uint64_t len, std::uint64_t d, std::uint64_t g) {
    const bool past_d = len > d;
    const bool past_g = len > g;
    intervals += len != 0;
    above_d += past_d;
    excess_d += (len - d) & (std::uint64_t{0} - past_d);
    above_g += past_g;
    excess_g += (len - g) & (std::uint64_t{0} - past_g);
  }

  /// Time-weighted useful idleness: sleep cycles over `total_cycles` of
  /// observation (0 when nothing was observed).  A block only enters the
  /// low-power state after its breakeven counter saturates, so this is
  /// the quantity that drives both leakage savings and NBTI relief.
  double useful_idleness_time(std::uint64_t total_cycles) const {
    if (total_cycles == 0) return 0.0;
    return static_cast<double>(excess_d) / static_cast<double>(total_cycles);
  }

  /// Count-weighted useful idleness: the share of idle intervals longer
  /// than the breakeven (0 with no interval).
  double useful_idleness_count() const {
    if (intervals == 0) return 0.0;
    return static_cast<double>(above_d) / static_cast<double>(intervals);
  }
};

}  // namespace pcal
