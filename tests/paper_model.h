// Test-owned builders for UnitEnergyModel under EnergyParams::paper(st45):
// a bank partition (or a monolithic cache, priced as one bank) of the
// given size, line width and bank count.  Shared by accounting_test and
// energy_model_test, which pin the paper parameter set's own behaviour.
#pragma once

#include <cstdint>

#include "power/unit_energy.h"

namespace pcal {

inline CacheTopology bank_topology(std::uint64_t size_bytes,
                                   std::uint64_t line = 16,
                                   std::uint64_t banks = 4,
                                   Granularity g = Granularity::kBank) {
  CacheTopology t;
  t.granularity = g;
  t.cache.size_bytes = size_bytes;
  t.cache.line_bytes = line;
  t.partition.num_banks = banks;
  return t;
}

inline UnitEnergyModel paper_model(std::uint64_t size_bytes,
                                   std::uint64_t line = 16,
                                   std::uint64_t banks = 4,
                                   Granularity g = Granularity::kBank) {
  const TechnologyParams tech = TechnologyParams::st45();
  return UnitEnergyModel(EnergyParams::paper(tech), tech,
                         bank_topology(size_bytes, line, banks, g));
}

inline UnitEnergyModel paper_mono(std::uint64_t size_bytes,
                                  std::uint64_t line = 16) {
  return paper_model(size_bytes, line, 1, Granularity::kMonolithic);
}

}  // namespace pcal
