#include "core/hierarchy.h"

#include <sstream>

#include "core/enum_strings.h"

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
                           std::uint64_t address, bool is_write) {
  AccessOutcome top = levels[0].cache->access(address, is_write);
  std::uint64_t stall = top.stall_cycles;
  top.num_events = 0;
  top.add_event(0, top.hit, top.writeback, top.physical_unit, address);

  // Route one event per level down the hierarchy; once a level is not
  // referenced (its policy has nothing for it this cycle), it and every
  // level below idle the cycle away.
  AccessOutcome cur = top;
  std::uint64_t cur_address = address;
  bool active = true;
  for (std::size_t i = 1; i < num_levels; ++i) {
    RoutedLevel& level = levels[i];
    if (active) {
      bool referenced = false;
      std::uint64_t event_address = 0;
      bool event_write = false;
      switch (level.inclusion) {
        case InclusionPolicy::kNonInclusive:
        case InclusionPolicy::kInclusive:
          // The upper miss stream: the fill, with a dirty upper victim
          // folded in as a write (single-port approximation).
          if (!cur.hit) {
            referenced = true;
            event_address = cur_address;
            event_write = cur.writeback;
          }
          break;
        case InclusionPolicy::kExclusive:
          if (!cur.hit) {
            referenced = true;
            if (cur.evicted) {
              event_address = cur.victim_address;  // the victim moves down
              event_write = cur.writeback;
            } else {
              // Victimless (cold) miss: a non-allocating probe — the
              // missed line fills the level above, never this one, so
              // exclusivity survives post-flush refill bursts.
              cur = level.cache->probe(cur_address);
              stall += cur.stall_cycles;
              top.add_event(static_cast<std::uint8_t>(i), cur.hit,
                            cur.writeback, cur.physical_unit, cur_address);
              continue;
            }
          }
          break;
        case InclusionPolicy::kVictim:
          if (!cur.hit && cur.evicted) {
            referenced = true;
            event_address = cur.victim_address;
            event_write = cur.writeback;
          }
          break;
      }
      if (referenced) {
        cur = level.cache->access(event_address, event_write);
        cur_address = event_address;
        stall += cur.stall_cycles;
        top.add_event(static_cast<std::uint8_t>(i), cur.hit, cur.writeback,
                      cur.physical_unit, event_address);
        // Inclusive back-invalidation at line granularity: a victim
        // leaving an inclusive level may still be resident above, where
        // its frame must be dropped to keep the subset property.  A pure
        // tag-store operation on the whole upper stack (a dirty upper
        // copy is dropped without a writeback — the documented
        // approximation; the upper levels' line containing the victim's
        // base address is invalidated when line sizes differ).
        if (level.inclusion == InclusionPolicy::kInclusive && cur.evicted)
          for (std::size_t j = 0; j < i; ++j)
            levels[j].cache->invalidate_line(cur.victim_address);
        continue;
      }
      active = false;
    }
    level.cache->advance_idle(1);
  }

  top.stall_cycles = stall;
  return top;
}

}  // namespace pcal
