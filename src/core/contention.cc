#include "core/contention.h"

#include <algorithm>
#include <sstream>

#include "core/managed_cache.h"
#include "core/timing.h"
#include "util/bitops.h"
#include "util/error.h"

namespace pcal {

void ContentionParams::check_mshrs(std::uint64_t n) {
  PCAL_CONFIG_CHECK(n <= kMaxMshrs,
                    "at most " << kMaxMshrs << " MSHRs, got " << n);
}

void ContentionParams::check_ports(std::uint64_t n) {
  PCAL_CONFIG_CHECK(n <= kMaxPortsPerBank,
                    "at most " << kMaxPortsPerBank << " ports per bank, got "
                               << n);
}

void ContentionParams::validate() const {
  check_mshrs(mshrs);
  check_ports(ports);
  LatencyParams::check_cycles(mshr_latency_cycles);
  LatencyParams::check_cycles(port_cycles);
  PCAL_CONFIG_CHECK(mshrs == 0 || mshr_latency_cycles > 0,
                    "finite MSHRs need a positive mshr_latency_cycles");
  PCAL_CONFIG_CHECK(ports == 0 || port_cycles > 0,
                    "finite ports need a positive port_cycles");
}

std::string ContentionParams::describe() const {
  if (!enabled()) return "";
  std::ostringstream os;
  bool sep = false;
  if (mshrs > 0) {
    os << "mshr" << mshrs;
    if (mshr_latency_cycles != 32) os << ":" << mshr_latency_cycles;
    sep = true;
  }
  if (ports > 0) {
    if (sep) os << "/";
    os << "p" << ports;
    if (port_cycles != 1) os << "x" << port_cycles;
    sep = true;
  }
  if (bytes_per_cycle > 0) {
    if (sep) os << "/";
    os << "bw" << bytes_per_cycle;
  }
  return os.str();
}

ContentionLevelShape contention_shape_of(const CacheTopology& topology) {
  ContentionLevelShape shape;
  shape.params = topology.contention;
  shape.num_units = topology.num_units();
  // Port pools attach to physical banks.  kBank and kWay derive the bank
  // from the unit index (units are bank-major); a monolithic or per-line
  // level has no unit->bank mapping, so it contends on a single pool.
  switch (topology.granularity) {
    case Granularity::kBank:
    case Granularity::kWay:
      shape.num_banks = topology.partition.num_banks;
      break;
    case Granularity::kMonolithic:
    case Granularity::kLine:
      shape.num_banks = 1;
      break;
  }
  shape.line_bytes = topology.cache.line_bytes;
  return shape;
}

ContentionModel::ContentionModel(std::vector<ContentionLevelShape> shapes) {
  levels_.reserve(shapes.size());
  for (const ContentionLevelShape& shape : shapes) {
    const ContentionParams& p = shape.params;
    p.validate();
    LevelState state;
    state.params = p;
    state.enabled = p.enabled();
    state.num_banks = shape.num_banks;
    if (shape.num_banks > 0 && shape.num_units >= shape.num_banks)
      state.units_per_bank = shape.num_units / shape.num_banks;
    state.line_shift = log2_exact(shape.line_bytes);
    if (p.bytes_per_cycle > 0)
      state.transfer_cycles =
          (shape.line_bytes + p.bytes_per_cycle - 1) / p.bytes_per_cycle;
    if (p.mshrs > 0) state.mshrs.resize(p.mshrs);
    if (p.ports > 0) state.port_free.resize(shape.num_banks * p.ports, 0);
    enabled_ = enabled_ || state.enabled;
    levels_.push_back(std::move(state));
  }
}

ContentionStall ContentionModel::charge(LevelState& level,
                                        const ContentionEvent& event,
                                        std::uint64_t now) {
  ContentionStall stall;
  const ContentionParams& p = level.params;
  std::uint64_t t = now;

  // Port: every reference claims a port of its bank for port_cycles.
  if (p.ports > 0) {
    const std::uint64_t bank =
        std::min(event.unit / level.units_per_bank, level.num_banks - 1);
    std::uint64_t* slot = &level.port_free[bank * p.ports];
    for (std::uint64_t i = 1; i < p.ports; ++i)
      if (level.port_free[bank * p.ports + i] < *slot)
        slot = &level.port_free[bank * p.ports + i];
    if (*slot > t) {
      stall.port += *slot - t;
      t = *slot;
    }
    *slot = t + p.port_cycles;
  }

  if (event.miss) {
    // MSHR: merge onto an in-flight fill of the same line, else allocate
    // the earliest-freeing entry (stalling until it frees if every entry
    // is busy).
    bool merged = false;
    if (p.mshrs > 0) {
      const std::uint64_t line = event.address >> level.line_shift;
      Mshr* victim = &level.mshrs[0];
      for (Mshr& entry : level.mshrs) {
        if (entry.free_at > t && entry.line == line) {
          merged = true;
          break;
        }
        if (entry.free_at < victim->free_at) victim = &entry;
      }
      if (!merged) {
        if (victim->free_at > t) {
          stall.mshr += victim->free_at - t;
          t = victim->free_at;
        }
        victim->line = line;
        victim->free_at = t + p.mshr_latency_cycles;
      }
    }

    // Bandwidth: the fill occupies the downstream edge and stalls until
    // it is free; the writeback riding the same miss is posted (it holds
    // the edge longer but does not stall the access).  A merged miss
    // shares the in-flight fill — no second transfer.
    if (!merged && p.bytes_per_cycle > 0) {
      if (level.edge_busy_until > t) {
        stall.bw += level.edge_busy_until - t;
        t = level.edge_busy_until;
      }
      level.edge_busy_until = t + level.transfer_cycles;
      if (event.writeback) level.edge_busy_until += level.transfer_cycles;
    }
  }

  totals_ += stall;
  return stall;
}

}  // namespace pcal
