// Block Control: per-bank idleness detection (paper Fig. 1).
//
// Hardware view: one saturating counter per bank, incremented on every
// cycle the bank's 1-hot select line is 0, reset on access; when a counter
// saturates at the breakeven time, its terminal-count signal puts the bank
// into the low-power state, and the next access wakes it.
//
// Model view: with one access per cycle, a bank's behaviour is fully
// determined by the gaps between its accesses, so we close each bank's
// idle interval in O(1) per access and keep running counts and sums of
// the intervals longer than the two thresholds Block Control is built
// with (util/stats.h): the breakeven, where a bank goes to sleep, and the
// gate, where the drowsy hybrid power-gates it.  Sleep residency, sleep
// episodes (= Vdd transitions), their gated share and the paper's
// "useful idleness" metrics are exact reads of those sums.  The
// SaturatingCounter below mirrors the hardware bit-level semantics and
// is cross-checked against the interval arithmetic in the tests.
#pragma once

#include <cstdint>
#include <vector>

#include "util/error.h"
#include "util/stats.h"

namespace pcal {

/// Bit-accurate model of one Block Control counter (5-6 bits in the paper).
class SaturatingCounter {
 public:
  explicit SaturatingCounter(std::uint64_t saturation)
      : saturation_(saturation) {
    PCAL_ASSERT(saturation > 0);
  }

  /// Clock edge: `accessed` is the bank's 1-hot select line this cycle.
  void tick(bool accessed) {
    if (accessed)
      value_ = 0;
    else if (value_ < saturation_)
      ++value_;
  }

  /// Terminal count: asserted when the counter has saturated.
  bool terminal() const { return value_ >= saturation_; }

  std::uint64_t value() const { return value_; }
  std::uint64_t saturation() const { return saturation_; }

 private:
  std::uint64_t saturation_;
  std::uint64_t value_ = 0;
};

/// Per-bank activity bookkeeping for the whole partitioned cache.
///
/// State is one small record per bank (its next free cycle, access count
/// and idle sums), so an access touches one contiguous record and the
/// batched backend hot loops allocate nothing; the per-bank query API
/// below reads those records.
class BlockControl {
  struct Bank;

 public:
  /// The batched power step's handle on Block Control: the bank records
  /// and both thresholds, by value.  A loop that holds one in a local
  /// keeps the thresholds and the record pointer in registers for a whole
  /// chunk (stores through the records cannot alias a local).  record()
  /// is on_access without its checks: the caller's clock, advancing at
  /// least one cycle per access, guarantees them by construction.
  class Recorder {
   public:
    std::uint64_t breakeven() const { return breakeven_; }
    std::uint64_t gate() const { return gate_; }

    /// Records that `bank` is accessed at `cycle`; returns the idle
    /// cycles that preceded the access.
    std::uint64_t record(std::uint64_t bank, std::uint64_t cycle) const {
      Bank& b = banks_[bank];
      const std::uint64_t gap = cycle - b.next_free;
      b.idle.add(gap, breakeven_, gate_);
      b.next_free = cycle + 1;
      ++b.accesses;
      return gap;
    }

   private:
    friend class BlockControl;
    Recorder(Bank* banks, std::uint64_t breakeven, std::uint64_t gate)
        : banks_(banks), breakeven_(breakeven), gate_(gate) {}

    Bank* banks_;
    std::uint64_t breakeven_;
    std::uint64_t gate_;
  };

  /// `breakeven_cycles`: idle cycles before a bank is put to sleep.
  /// `gate_cycles` (>= the breakeven): idle cycles before it counts as
  /// power-gated; equal to the breakeven under the gated policy.
  BlockControl(std::uint64_t num_banks, std::uint64_t breakeven_cycles,
               std::uint64_t gate_cycles);

  /// Records that `bank` is accessed at `cycle`; returns the idle cycles
  /// that preceded the access.  Cycles must be non-decreasing; exactly
  /// one bank is accessed per cycle.
  std::uint64_t on_access(std::uint64_t bank, std::uint64_t cycle) {
    PCAL_ASSERT_MSG(!finished_, "BlockControl already finished");
    PCAL_ASSERT_MSG(bank < banks_.size(), "bank out of range");
    PCAL_ASSERT_MSG(cycle >= last_cycle_, "cycles must be non-decreasing");
    PCAL_ASSERT_MSG(cycle >= banks_[bank].next_free,
                    "bank accessed twice in one cycle");
    last_cycle_ = cycle;
    return recorder().record(bank, cycle);
  }

  /// The unchecked recorder of the batched hot path (see Recorder).
  Recorder recorder() { return {banks_.data(), breakeven_, gate_}; }

  /// Closes the trailing idle intervals at the end of simulation
  /// (`end_cycle` = one past the last simulated cycle).  Must be called
  /// before reading the statistics.
  void finish(std::uint64_t end_cycle);

  /// True iff the bank would be in the low-power state at `cycle` (its
  /// idle counter has saturated).
  bool is_sleeping(std::uint64_t bank, std::uint64_t cycle) const {
    const std::uint64_t nf = at(bank).next_free;
    // Sleeping iff the bank has been idle for more than `breakeven_`
    // cycles: the counter starts at the first idle cycle (next_free) and
    // saturates after breakeven_ increments.
    return cycle >= nf && (cycle - nf) >= breakeven_;
  }

  /// Idle cycles the bank has accumulated by `cycle` since its last
  /// access (0 while it is still busy).  This is what lets the timing
  /// core classify a wakeup's depth: gap >= the gate threshold means the
  /// unit had already power-gated, a shorter gap means it was drowsy.
  std::uint64_t idle_gap(std::uint64_t bank, std::uint64_t cycle) const {
    const std::uint64_t nf = at(bank).next_free;
    return cycle >= nf ? cycle - nf : 0;
  }

  std::uint64_t num_banks() const { return banks_.size(); }
  std::uint64_t breakeven_cycles() const { return breakeven_; }
  std::uint64_t gate_cycles() const { return gate_; }
  bool finished() const { return finished_; }

  // ---- per-bank statistics (valid after finish()) ----

  std::uint64_t accesses(std::uint64_t bank) const;
  /// Cycles spent in the low-power state.
  std::uint64_t sleep_cycles(std::uint64_t bank) const;
  /// Number of sleep episodes == number of wake transitions.
  std::uint64_t sleep_episodes(std::uint64_t bank) const;
  /// The power-gated share of sleep: cycles past the gate threshold, and
  /// the episodes that reached it.
  std::uint64_t gated_cycles(std::uint64_t bank) const;
  std::uint64_t gated_episodes(std::uint64_t bank) const;
  /// Time-weighted useful idleness (sleep residency / total time).
  double sleep_residency(std::uint64_t bank, std::uint64_t total_cycles) const;
  /// Count-weighted useful idleness (share of idle intervals > breakeven).
  double useful_idleness_count(std::uint64_t bank) const;

 private:
  struct Bank {
    std::uint64_t next_free = 0;  // first cycle after the last access
    std::uint64_t accesses = 0;
    IdleSums idle;
  };

  /// Bounds-checked read of one bank's record (the scalar-path view).
  const Bank& at(std::uint64_t bank) const {
    PCAL_ASSERT_MSG(bank < banks_.size(), "bank out of range");
    return banks_[bank];
  }
  /// at() for the statistics, which are valid only after finish().
  const IdleSums& finished_sums(std::uint64_t bank) const;

  std::vector<Bank> banks_;
  std::uint64_t breakeven_;
  std::uint64_t gate_;
  std::uint64_t last_cycle_ = 0;
  bool finished_ = false;
};

}  // namespace pcal
