#include "api/timeline.h"

#include <fstream>
#include <ostream>
#include <utility>

#include "api/pcal.h"
#include "core/bench_record.h"
#include "core/run_assembly.h"
#include "util/error.h"

namespace pcal::api {

TimelineRecorder::TimelineRecorder(std::string run_label)
    : run_label_(std::move(run_label)) {}

IntervalObserver TimelineRecorder::observer() {
  return [this](const IntervalSnapshot& snap) { record(snap); };
}

void TimelineRecorder::price_with(const SimConfig& config) {
  models_ = level_energy_models(config);
}

void TimelineRecorder::price_with(const RunConfig& config) {
  RunAssembly asmb;
  for (const auto& [key, value] : config.entries()) asmb.set(key, value);
  const RunAssembly::Assembled assembled = asmb.assemble();
  if (assembled.multicore)
    price_with(*assembled.multicore);
  else
    price_with(assembled.config);
}

void TimelineRecorder::price_with(const MultiCoreConfig& config) {
  models_ = level_energy_models(config);
}

void TimelineRecorder::record(const IntervalSnapshot& snap) {
  if (snap.groups == nullptr || snap.unit_states == nullptr) return;
  if (groups_.empty()) {
    groups_.reserve(snap.groups->size());
    for (const UnitGroupStates& g : *snap.groups)
      groups_.push_back({g.core, g.level, g.first_unit, g.units});
    prev_stats_.resize(snap.groups->size());
  }

  TimelineInterval rec;
  rec.interval = snap.interval;
  rec.cycles = snap.cycles;
  rec.span_cycles = snap.cycles >= prev_cycles_ ? snap.cycles - prev_cycles_
                                                : 0;
  rec.accesses = snap.accesses;
  rec.stall_delta =
      snap.stall_cycles >= prev_stalls_ ? snap.stall_cycles - prev_stalls_ : 0;
  rec.fired_update = snap.fired_update;
  rec.context_switch = snap.context_switch;
  rec.final_snapshot = snap.final_snapshot;

  rec.groups.reserve(snap.groups->size());
  const bool priced = models_.size() == snap.groups->size();
  for (std::size_t i = 0; i < snap.groups->size(); ++i) {
    const UnitGroupStates& g = (*snap.groups)[i];
    TimelineGroupSample sample;
    sample.awake = g.awake;
    sample.drowsy = g.drowsy;
    sample.gated = g.gated;
    sample.states.reserve(g.units);
    for (std::uint64_t u = 0; u < g.units; ++u)
      sample.states += to_char((*snap.unit_states)[g.first_unit + u]);
    if (i < prev_stats_.size()) {
      const CacheStats& prev = prev_stats_[i];
      sample.accesses = g.stats.accesses - prev.accesses;
      sample.hits = g.stats.hits - prev.hits;
      sample.misses = g.stats.misses - prev.misses;
      sample.writebacks = g.stats.writebacks - prev.writebacks;
      prev_stats_[i] = g.stats;
    }
    if (priced) {
      const UnitEnergyModel& model = models_[i];
      const double leak_mw =
          static_cast<double>(sample.awake) * model.unit_leak_mw() +
          static_cast<double>(sample.drowsy) * model.unit_drowsy_mw() +
          static_cast<double>(sample.gated) * model.unit_gated_mw();
      // mW x ns = pJ: leakage over the span at the boundary's state mix,
      // plus the interval's dynamic accesses.
      sample.energy_est_pj =
          leak_mw * static_cast<double>(rec.span_cycles) * model.clock_ns() +
          static_cast<double>(sample.accesses) * model.access_energy_pj();
    }
    rec.groups.push_back(std::move(sample));
  }

  prev_cycles_ = snap.cycles;
  prev_stalls_ = snap.stall_cycles;
  intervals_.push_back(std::move(rec));
}

void TimelineRecorder::write_json(std::ostream& os) const {
  os << "{\n"
     << "  \"schema\": \"" << kTimelineSchema << "\",\n"
     << "  \"version\": " << kTimelineVersion << ",\n"
     << "  \"name\": \"" << json_escape(run_label_) << "\",\n"
     << "  \"groups\": [";
  for (std::size_t i = 0; i < groups_.size(); ++i) {
    const TimelineGroup& g = groups_[i];
    os << (i ? ",\n    " : "\n    ") << "{\"core\": " << g.core
       << ", \"level\": " << g.level << ", \"first_unit\": " << g.first_unit
       << ", \"units\": " << g.units << "}";
  }
  os << (groups_.empty() ? "]" : "\n  ]") << ",\n  \"intervals\": [";
  for (std::size_t i = 0; i < intervals_.size(); ++i) {
    const TimelineInterval& rec = intervals_[i];
    os << (i ? ",\n    " : "\n    ") << "{\"interval\": " << rec.interval
       << ", \"cycles\": " << rec.cycles
       << ", \"span_cycles\": " << rec.span_cycles
       << ", \"accesses\": " << rec.accesses
       << ", \"stall_delta\": " << rec.stall_delta << ", \"fired_update\": "
       << (rec.fired_update ? "true" : "false") << ", \"context_switch\": "
       << (rec.context_switch ? "true" : "false")
       << ", \"final\": " << (rec.final_snapshot ? "true" : "false")
       << ",\n     \"groups\": [";
    for (std::size_t k = 0; k < rec.groups.size(); ++k) {
      const TimelineGroupSample& s = rec.groups[k];
      os << (k ? ",\n       " : "\n       ") << "{\"states\": \"" << s.states
         << "\", \"awake\": " << s.awake << ", \"drowsy\": " << s.drowsy
         << ", \"gated\": " << s.gated << ", \"accesses\": " << s.accesses
         << ", \"hits\": " << s.hits << ", \"misses\": " << s.misses
         << ", \"writebacks\": " << s.writebacks
         << ", \"energy_est_pj\": " << s.energy_est_pj << "}";
    }
    os << (rec.groups.empty() ? "]}" : "\n     ]}");
  }
  os << (intervals_.empty() ? "]" : "\n  ]") << "\n}\n";
}

void TimelineRecorder::write_json_file(const std::string& path) const {
  std::ofstream f(path);
  if (!f) throw Error("cannot write timeline file " + path);
  write_json(f);
  if (!f) throw Error("failed writing timeline file " + path);
}

}  // namespace pcal::api
