#include "core/hierarchy.h"

#include <sstream>

#include "core/enum_strings.h"
#include "util/error.h"

namespace pcal {

std::string HierarchyConfig::describe() const {
  std::ostringstream os;
  for (std::size_t i = 0; i < levels.size(); ++i) {
    if (i > 0) {
      os << " | L" << (i + 1);
      if (levels[i].inclusion != InclusionPolicy::kNonInclusive)
        os << "/" << to_string(levels[i].inclusion);
      os << " ";
    }
    os << levels[i].topology.describe();
  }
  return os.str();
}

AccessOutcome route_access(RoutedLevel* levels, std::size_t num_levels,
                           std::uint64_t address, bool is_write,
                           LevelTrace* trace) {
  PCAL_ASSERT_MSG(trace == nullptr || num_levels <= kMaxTraceLevels,
                  "a " << num_levels << "-level chain outgrows the trace");
  const auto record = [trace](std::size_t level, const AccessOutcome& out,
                              std::uint64_t level_address) {
    if (trace != nullptr)
      trace->events[trace->size++] = {static_cast<std::uint8_t>(level),
                                      out.hit, out.writeback,
                                      out.physical_unit, level_address};
  };
  if (trace != nullptr) trace->size = 0;
  AccessOutcome top = levels[0].cache->access(address, is_write);
  record(0, top, address);
  std::uint64_t stall = top.stall_cycles;

  // Route one event per level down the hierarchy.  Every policy
  // references a level only on an upper miss (the victim sink only on
  // one that evicted), so the walk stops at the first level with nothing
  // to do: on the run's one clock, an unreferenced level simply idles.
  AccessOutcome cur = top;
  std::uint64_t cur_address = address;
  for (std::size_t i = 1; i < num_levels && !cur.hit; ++i) {
    const RoutedLevel& level = levels[i];
    // Exclusive and victim levels consume the eviction stream, the
    // others the miss stream.
    const bool takes_victims = level.inclusion == InclusionPolicy::kExclusive ||
                               level.inclusion == InclusionPolicy::kVictim;
    if (takes_victims && !cur.evicted) {
      if (level.inclusion == InclusionPolicy::kVictim) break;
      // Exclusive, victimless (cold) miss: a non-allocating probe — the
      // missed line fills the level above, never this one, so
      // exclusivity survives post-flush refill bursts.
      cur = level.cache->probe(cur_address);
      stall += cur.stall_cycles;
      record(i, cur, cur_address);
      continue;
    }
    // The miss stream's event is the fill, the eviction stream's the
    // victim moving down; either way a dirty upper victim makes it a
    // write (single-port approximation).
    const std::uint64_t event_address =
        takes_victims ? cur.victim_address : cur_address;
    cur = level.cache->access(event_address, cur.writeback);
    cur_address = event_address;
    stall += cur.stall_cycles;
    record(i, cur, event_address);
    // Inclusive back-invalidation at line granularity: a victim leaving
    // an inclusive level may still be resident above, where its frame
    // must be dropped to keep the subset property.  A pure tag-store
    // operation on the whole upper stack (a dirty upper copy is dropped
    // without a writeback — the documented approximation; the upper
    // levels' line containing the victim's base address is invalidated
    // when line sizes differ).
    if (level.inclusion == InclusionPolicy::kInclusive && cur.evicted)
      for (std::size_t j = 0; j < i; ++j)
        levels[j].cache->invalidate_line(cur.victim_address);
  }

  top.stall_cycles = stall;
  return top;
}

}  // namespace pcal
