// Power-state timeline artifact: what every power-management unit was
// doing, interval by interval.
//
// The run engine streams IntervalSnapshots (core/simulator.h) with a
// per-(core, level) power-state census at every re-indexing boundary.  A
// TimelineRecorder is the observer that turns that stream into a durable
// artifact: a versioned JSON document ("pcal-timeline", version 1,
// schema in docs/timeline_schema_v1.json, validated by
// tools/check_timeline_json.py) holding the group table plus one record
// per interval — the compact per-unit state string ("AADG...", one char
// per unit: Awake/Drowsy/Gated), awake/drowsy/gated counts, tag-store
// deltas, stall delta, and an optional per-group energy estimate priced
// by the models that price the run's report.
//
// Recording is strictly additive: attach the recorder's observer() to a
// run and the run's results are bit-identical to an unobserved run (the
// engine's observer contract); skip the recorder and nothing here
// executes at all — which is what keeps `pcalsim`/`pcalsweep` output
// byte-identical when no timeline is requested.
//
// Threading: one recorder records one run.  In a sweep, give every job
// its own recorder (SweepJob::observer runs on the worker thread that
// owns the job; distinct recorders never share state).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "core/multicore.h"
#include "core/simulator.h"
#include "power/unit_energy.h"

namespace pcal::api {

class RunConfig;

/// One row of the artifact's group table: a contiguous run of units and
/// the (core, level) that owns it, copied from the engine's census
/// (core == -1: a single-core run's level, or the shared LLC).
struct TimelineGroup {
  int core = -1;
  std::uint64_t level = 0;
  std::uint64_t first_unit = 0;
  std::uint64_t units = 0;
};

/// One group's slice of one interval record.  Tag-store counters are
/// deltas over the interval (the snapshot census is cumulative; the
/// recorder differences it).
struct TimelineGroupSample {
  std::uint64_t awake = 0;
  std::uint64_t drowsy = 0;
  std::uint64_t gated = 0;
  /// One char per unit, in unit order: 'A' / 'D' / 'G'.
  std::string states;
  std::uint64_t accesses = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t writebacks = 0;
  /// Interval energy estimate (pJ): state-weighted leakage over the
  /// interval's span plus the dynamic cost of its accesses, priced by
  /// the group's level model — the one that prices the run's report.
  /// An *estimate* — transition energy is not attributable per interval
  /// — and 0 unless pricing was attached (price_with()).
  double energy_est_pj = 0.0;
};

struct TimelineInterval {
  /// The snapshot's 1-based boundary index; 0 on the final record (the
  /// engine's final-snapshot convention).
  std::uint64_t interval = 0;
  std::uint64_t cycles = 0;       // wall clock at the boundary
  std::uint64_t span_cycles = 0;  // cycles since the previous record
  std::uint64_t accesses = 0;     // cumulative accesses consumed
  std::uint64_t stall_delta = 0;  // stall cycles charged this interval
  bool fired_update = false;
  bool context_switch = false;
  bool final_snapshot = false;
  /// One sample per group-table row, in order.
  std::vector<TimelineGroupSample> groups;
};

class TimelineRecorder {
 public:
  /// `run_label` names the run in the artifact header ("name" member);
  /// sweeps pass the job's coordinate label.
  explicit TimelineRecorder(std::string run_label = "run");

  /// The observer to attach to Simulator::run / MultiCoreSystem::run /
  /// SweepJob::observer.  Snapshot buffers are engine-owned and reused;
  /// the recorder copies everything it keeps during the callback.
  IntervalObserver observer();

  /// Attaches per-group energy pricing so records carry energy_est_pj:
  /// one UnitEnergyModel per group-table row, the run's own
  /// level_energy_models() (core/multicore.h) — the models the engine
  /// prices the report with, in census order.  Optional — an unpriced
  /// recorder emits energy_est_pj = 0.
  void price_with(const SimConfig& config);
  void price_with(const MultiCoreConfig& config);
  /// As above, for the system api::run() executes for `config`; throws
  /// ConfigError / ParseError on an invalid config.
  void price_with(const RunConfig& config);

  const std::string& run_label() const { return run_label_; }
  /// Renames the artifact; callers often know the best name (workload,
  /// resolved config label) only after the run finished.
  void set_run_label(std::string label) { run_label_ = std::move(label); }
  const std::vector<TimelineGroup>& groups() const { return groups_; }
  const std::vector<TimelineInterval>& intervals() const {
    return intervals_;
  }

  /// Writes the versioned JSON artifact (schema "pcal-timeline",
  /// version 1 — docs/timeline_schema_v1.json).
  void write_json(std::ostream& os) const;
  /// As above, to a file; throws Error when the file cannot be written.
  void write_json_file(const std::string& path) const;

 private:
  void record(const IntervalSnapshot& snap);

  std::string run_label_;
  std::vector<TimelineGroup> groups_;
  std::vector<TimelineInterval> intervals_;
  std::vector<UnitEnergyModel> models_;  // one per group when priced
  std::vector<CacheStats> prev_stats_;   // per group, cumulative
  std::uint64_t prev_cycles_ = 0;
  std::uint64_t prev_stalls_ = 0;
};

/// The artifact's schema identity, shared with the validator.
inline constexpr const char kTimelineSchema[] = "pcal-timeline";
inline constexpr int kTimelineVersion = 1;

}  // namespace pcal::api
