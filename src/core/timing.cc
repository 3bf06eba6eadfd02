#include "core/timing.h"

#include <sstream>

#include "util/error.h"

namespace pcal {

const char* to_string(WakeDepth depth) {
  switch (depth) {
    case WakeDepth::kAwake: return "awake";
    case WakeDepth::kDrowsy: return "drowsy";
    case WakeDepth::kGated: return "gated";
  }
  return "?";
}

std::string LatencyParams::describe() const {
  if (zero()) return {};
  std::ostringstream os;
  os << "h" << hit_cycles << "/m" << miss_cycles;
  if (drowsy_wake_cycles != 0 || gated_wake_cycles != 0)
    os << "/w" << drowsy_wake_cycles << ":" << gated_wake_cycles;
  return os.str();
}

void LatencyParams::check_cycles(std::uint64_t cycles) {
  PCAL_CONFIG_CHECK(cycles <= kMaxEventCycles,
                    "an event costs at most " << kMaxEventCycles
                                              << " cycles, got " << cycles);
}

void LatencyParams::validate() const {
  for (const std::uint64_t cycles :
       {hit_cycles, miss_cycles, drowsy_wake_cycles, gated_wake_cycles})
    check_cycles(cycles);
}

double TimingModel::avg_access_latency() const {
  if (accesses_ == 0) return 0.0;
  return static_cast<double>(total_cycles()) /
         static_cast<double>(accesses_);
}

}  // namespace pcal
