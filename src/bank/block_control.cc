#include "bank/block_control.h"

namespace pcal {

BlockControl::BlockControl(std::uint64_t num_banks,
                           std::uint64_t breakeven_cycles,
                           std::uint64_t gate_cycles)
    : breakeven_(breakeven_cycles), gate_(gate_cycles) {
  PCAL_ASSERT_MSG(num_banks > 0, "need at least one bank");
  PCAL_ASSERT_MSG(gate_cycles >= breakeven_cycles,
                  "gate threshold precedes the breakeven");
  banks_.resize(num_banks);
}

void BlockControl::finish(std::uint64_t end_cycle) {
  if (finished_) return;
  for (Bank& b : banks_) {
    PCAL_ASSERT_MSG(end_cycle >= b.next_free,
                    "end cycle precedes last access");
    b.idle.add(end_cycle - b.next_free, breakeven_, gate_);
  }
  finished_ = true;
}

const IdleSums& BlockControl::finished_sums(std::uint64_t bank) const {
  PCAL_ASSERT_MSG(finished_, "call finish() first");
  return at(bank).idle;
}

std::uint64_t BlockControl::accesses(std::uint64_t bank) const {
  return at(bank).accesses;
}

std::uint64_t BlockControl::sleep_cycles(std::uint64_t bank) const {
  return finished_sums(bank).excess_d;
}

std::uint64_t BlockControl::sleep_episodes(std::uint64_t bank) const {
  return finished_sums(bank).above_d;
}

std::uint64_t BlockControl::gated_cycles(std::uint64_t bank) const {
  return finished_sums(bank).excess_g;
}

std::uint64_t BlockControl::gated_episodes(std::uint64_t bank) const {
  return finished_sums(bank).above_g;
}

double BlockControl::sleep_residency(std::uint64_t bank,
                                     std::uint64_t total_cycles) const {
  return finished_sums(bank).useful_idleness_time(total_cycles);
}

double BlockControl::useful_idleness_count(std::uint64_t bank) const {
  return finished_sums(bank).useful_idleness_count();
}

}  // namespace pcal
