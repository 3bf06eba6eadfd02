// Embeddable library surface: one header for driving pcal from C++ (and,
// through bindings/, from Python) without touching the engine headers.
//
// The facade speaks the flat "key = value" vocabulary every front-end
// shares (core/run_assembly.h): a RunConfig is an ordered bag of entries,
// validate() turns mistakes into structured ConfigIssue records instead
// of exceptions (every problem reported, not just the first), run()
// executes one configuration on the Simulator/MultiCoreSystem engine
// (pcalsim's path: pcalsim maps its INI onto a RunConfig and calls
// run()), and run_grid() executes a declarative sweep spec
// through the same GridSpec + SweepRunner path pcalsweep takes —
// GridRun::result_row() reproduces pcalsweep's BENCH JSON result rows
// byte for byte, which is what the bindings' parity tests pin.
//
// Everything here is a thin, value-typed veneer: the engine types
// (SimResult, CoreResult, SweepOutcome) pass through unwrapped so an
// embedder graduates to the engine headers without a rewrite.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "core/grid_spec.h"
#include "core/multicore.h"
#include "core/simulator.h"
#include "core/sweep.h"

namespace pcal {

class AgingContext;

namespace api {

/// One structured validation finding: the offending key, the value it
/// carried ("" for problems of the assembled whole, e.g. a missing
/// llc_size), and the human-readable reason.
struct ConfigIssue {
  std::string key;
  std::string value;
  std::string reason;
};

/// Renders issues one per line ("key = value: reason") for error logs.
std::string describe(const std::vector<ConfigIssue>& issues);

/// An ordered bag of "key = value" entries in the shared sweep-axis
/// vocabulary (cache_size, banks, policy, l2_size, cores, llc_size,
/// workload, accesses, ... — see core/run_assembly.h).  Later entries
/// override earlier ones key-wise, exactly as repeated sweep axes would.
class RunConfig {
 public:
  /// Appends one entry.  Never throws — malformed keys and values are
  /// reported by validate() (and by run(), which throws).
  RunConfig& set(std::string key, std::string value);

  /// True iff the shared vocabulary knows this key.
  static bool knows(const std::string& key);

  /// Every entry, in insertion order.
  const std::vector<std::pair<std::string, std::string>>& entries() const {
    return entries_;
  }

  /// Checks every entry and the assembled whole without throwing:
  /// unknown keys, malformed values, invalid combinations (e.g. cores
  /// without llc_size, or a core<k>_workload for a core the run does not
  /// have) and unresolvable workloads each yield one ConfigIssue.  Empty
  /// result == run() will not throw a config error.
  std::vector<ConfigIssue> validate() const;

 private:
  std::vector<std::pair<std::string, std::string>> entries_;
};

struct RunOptions {
  /// Attach the process-wide calibrated aging LUT so the result carries
  /// per-unit and whole-cache lifetimes (the paper's LT columns).  The
  /// LUT is built once per process on first use (a few hundred ms).
  bool aging = true;
  /// Optional interval observer (core/simulator.h) — timeline recorders
  /// attach here.
  IntervalObserver observer;
};

struct RunOutput {
  /// The system-wide result (for multi-core runs: the depth-major
  /// MultiCoreResult::system view).
  SimResult result;
  /// Per-core slices of a multi-core run; empty for single-stream runs.
  std::vector<CoreResult> cores;
};

/// Runs one configuration end to end: workload resolution exactly as the
/// sweep grid ("workload" entry; default "uniform"), single-stream
/// Simulator or — when `cores` > 0 — MultiCoreSystem with per-core
/// workload overrides (core<k>_workload, k < cores).  Throws ConfigError
/// / ParseError on invalid configs (pre-flight with validate() for
/// structured errors).
RunOutput run(const RunConfig& config, const RunOptions& options = {});

struct GridOptions {
  /// Worker threads; 0 picks SweepRunner::default_threads()
  /// (PCAL_SWEEP_THREADS or hardware concurrency).  Outcomes are
  /// bit-identical at any worker count.
  unsigned workers = 0;
  /// Attach the aging LUT to every job (as pcalsweep does).
  bool aging = true;
  /// Optional per-job observer factory, called with the job's index
  /// before the sweep starts; a returned observer runs on the worker
  /// thread that executes the job.  Timeline recorders attach here.
  std::function<IntervalObserver(std::size_t)> make_observer;
};

/// Everything a finished grid run yields, in job order.
struct GridRun {
  std::vector<GridJob> jobs;           // the expanded grid points
  std::vector<SweepOutcome> outcomes;  // one per job, by index
  SweepStats stats;
  /// The rendered result table ([table] pivot or one row per job) —
  /// exactly pcalsweep's stdout table.
  std::string table;

  /// BENCH-parity JSON result row of job `i` — byte-identical to the
  /// "results" array entries pcalsweep writes for the same spec.
  std::string result_row(std::size_t i) const;

  std::size_t failed_jobs() const { return stats.failed_jobs; }
};

/// Expands `spec` and runs every grid point on `workers` threads —
/// pcalsweep's execution path (labels, aging LUT, job order) without the
/// CLI, journaling or BENCH-file plumbing.  Throws ConfigError /
/// ParseError on specs that fail to expand.
GridRun run_grid(const GridSpec& spec, const GridOptions& options = {});

/// Convenience: parses a spec from text (the .sweep file format), then
/// runs it.  `name` seeds the grid name when the spec has none.
GridRun run_grid_text(const std::string& spec_text,
                      const GridOptions& options = {},
                      const std::string& name = "api");

/// The process-wide calibrated aging context (built once, lazily, behind
/// a magic static; thread-safe).  Exposed so embedders composing their
/// own Simulator runs share the LUT with run()/run_grid().
const AgingContext& shared_aging();

/// Library version string ("<major>.<minor>"), bumped with the facade.
const char* version();

}  // namespace api
}  // namespace pcal
