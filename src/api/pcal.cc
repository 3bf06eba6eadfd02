#include "api/pcal.h"

#include <memory>
#include <sstream>
#include <utility>

#include "core/bench_record.h"
#include "core/experiment.h"
#include "core/run_assembly.h"
#include "util/error.h"

namespace pcal::api {

namespace {

/// Applies every entry to one RunAssembly; throws on the first problem
/// (the run() path — validate() collects instead).
RunAssembly assemble_from(const RunConfig& config) {
  RunAssembly asmb;
  for (const auto& [key, value] : config.entries()) asmb.set(key, value);
  return asmb;
}

/// Why a core<k>_workload entry names no core of a run with `cores`
/// cores, or "" when it does — the sweep grid's rule for a cores axis,
/// applied to one run.  (RunAssembly accepts any k: a sweep's 1-core
/// points carry the cores axis's core1_workload.)
std::string missing_core(int core, std::uint64_t cores) {
  if (static_cast<std::uint64_t>(core) < cores) return "";
  if (cores == 0)
    return "names core " + std::to_string(core) +
           "; the run is single-stream (cores = 0)";
  return "names core " + std::to_string(core) + "; the run has " +
         std::to_string(cores) + " cores (indices 0.." +
         std::to_string(cores - 1) + ")";
}

}  // namespace

std::string describe(const std::vector<ConfigIssue>& issues) {
  std::string out;
  for (const ConfigIssue& issue : issues) {
    if (!out.empty()) out += '\n';
    if (!issue.key.empty()) {
      out += issue.key;
      if (!issue.value.empty()) out += " = " + issue.value;
      out += ": ";
    }
    out += issue.reason;
  }
  return out;
}

RunConfig& RunConfig::set(std::string key, std::string value) {
  entries_.emplace_back(std::move(key), std::move(value));
  return *this;
}

bool RunConfig::knows(const std::string& key) {
  return RunAssembly::knows(key);
}

std::vector<ConfigIssue> RunConfig::validate() const {
  std::vector<ConfigIssue> issues;
  RunAssembly asmb;
  for (const auto& [key, value] : entries_) {
    try {
      asmb.set(key, value);
    } catch (const Error& e) {
      issues.push_back({key, value, e.what()});
    }
  }
  // The assembled whole (level stacking, multi-core wiring) — reported
  // against no single entry.  Skipped when entries already failed: the
  // staged state is partial and the follow-on error would be noise.
  if (issues.empty()) {
    try {
      (void)asmb.assemble();
    } catch (const Error& e) {
      issues.push_back({"", "", e.what()});
    }
  }
  // Workload resolution, exactly as the sweep grid would do it (named
  // workloads, trace files validated by header, multiprog specs parsed).
  const auto check_workload = [&](const std::string& key,
                                  const std::string& value) {
    try {
      (void)make_workload_factory(value, asmb.accesses(),
                                  asmb.footprint_bytes());
    } catch (const Error& e) {
      issues.push_back({key, value, e.what()});
    }
  };
  check_workload("workload", asmb.workload());
  for (const auto& [core, workload] : asmb.core_workloads()) {
    const std::string key = "core" + std::to_string(core) + "_workload";
    const std::string missing = missing_core(core, asmb.cores());
    if (!missing.empty())
      issues.push_back({key, workload, missing});
    else
      check_workload(key, workload);
  }
  return issues;
}

RunOutput run(const RunConfig& config, const RunOptions& options) {
  RunAssembly asmb = assemble_from(config);
  RunAssembly::Assembled assembled = asmb.assemble();
  for (const auto& [core, workload] : asmb.core_workloads()) {
    const std::string missing = missing_core(core, asmb.cores());
    if (!missing.empty())
      throw ConfigError("key 'core" + std::to_string(core) +
                        "_workload': " + missing);
  }
  const std::uint64_t accesses = asmb.accesses();
  const std::string& workload = asmb.workload();
  const AgingLut* lut = options.aging ? &shared_aging().lut() : nullptr;

  RunOutput out;
  if (assembled.multicore) {
    const std::size_t num_cores = assembled.multicore->cores.size();
    std::vector<std::unique_ptr<TraceSource>> owned;
    std::vector<TraceSource*> sources;
    owned.reserve(num_cores);
    sources.reserve(num_cores);
    for (std::size_t k = 0; k < num_cores; ++k) {
      const auto it = asmb.core_workloads().find(static_cast<int>(k));
      const std::string& value =
          it != asmb.core_workloads().end() ? it->second : workload;
      owned.push_back(
          make_workload_factory(value, accesses, asmb.footprint_bytes())());
      sources.push_back(owned.back().get());
    }
    MultiCoreResult mc = MultiCoreSystem(std::move(*assembled.multicore))
                             .run(sources, lut, options.observer);
    out.result = std::move(mc.system);
    out.cores = std::move(mc.cores);
  } else {
    std::unique_ptr<TraceSource> source =
        make_workload_factory(workload, accesses, asmb.footprint_bytes())();
    out.result =
        Simulator(assembled.config).run(*source, lut, options.observer);
  }
  return out;
}

std::string GridRun::result_row(std::size_t i) const {
  const SweepOutcome& outcome = outcomes.at(i);
  std::ostringstream os;
  write_result_row(os, outcome.result, jobs.at(i).workload, outcome.ok(),
                   outcome.cores.empty() ? nullptr : &outcome.cores,
                   static_cast<long>(i));
  return os.str();
}

GridRun run_grid(const GridSpec& spec, const GridOptions& options) {
  GridRun out;
  out.jobs = spec.expand();
  const AgingLut* lut = options.aging ? &shared_aging().lut() : nullptr;

  std::vector<SweepJob> sweep_jobs;
  sweep_jobs.reserve(out.jobs.size());
  for (std::size_t i = 0; i < out.jobs.size(); ++i) {
    SweepJob j = spec.sweep_job(out.jobs[i], lut);
    if (options.make_observer) j.observer = options.make_observer(i);
    sweep_jobs.push_back(std::move(j));
  }

  SweepRunner runner(options.workers);
  out.outcomes = runner.run(sweep_jobs);
  out.stats = runner.last_stats();

  std::ostringstream table;
  spec.render_table(out.jobs, out.outcomes).render(table);
  out.table = table.str();
  return out;
}

GridRun run_grid_text(const std::string& spec_text, const GridOptions& options,
                      const std::string& name) {
  std::istringstream is{spec_text};
  return run_grid(GridSpec::parse(is, name), options);
}

const AgingContext& shared_aging() {
  static const AgingContext context;
  return context;
}

const char* version() { return "1.0"; }

}  // namespace pcal::api
