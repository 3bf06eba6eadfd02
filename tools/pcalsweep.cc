// pcalsweep — declarative grid sweeps over the simulator.
//
// Reads a .sweep spec (core/grid_spec.h), expands the declared
// cross-product of axes into independent simulation jobs, runs them on
// the SweepRunner thread pool, and reports:
//   - stdout: the result table (the spec's [table] pivot, or one row per
//     job) followed by its CSV block — and nothing else, so output can
//     be diffed across worker counts and against the bench binaries;
//   - stderr: progress and sweep statistics;
//   - BENCH_<name>.json: the machine-readable perf record (same path and
//     schema as the bench binaries; tools/check_bench_json.py gates it).
//
// Crash safety (docs/ROBUSTNESS.md):
//   --journal <file>   checkpoint completed jobs to an append-only
//                      journal as they finish (fsync'd in batches)
//   --resume <file>    load a journal, skip its completed jobs, append
//                      the rest; output is bit-identical to an
//                      uninterrupted run at any worker count
//   --shard k/N        run the deterministic 1/N slice (global job
//                      index % N == k-1) and emit a shard-tagged record
//                      that check_bench_json.py --merge recombines
//   --on-failure m     skip (default: report, record, exit 1) | record
//                      (failures are data: structured "failures"
//                      entries, table holes, exit 0) | abort (cancel
//                      jobs not yet started)
//   --timeout-ms <ms>  cooperative per-job deadline (JobTimeoutError)
//   --retry-failed     with --resume: re-run journaled failures too
//
// Usage:
//   pcalsweep <spec.sweep> [section.key=value ...]
//   pcalsweep --dry-run <spec.sweep> [...]   # expand + validate only
//   pcalsweep --example                      # print an annotated spec
//
// Environment (same knobs as the bench binaries):
//   PCAL_BENCH_ACCESSES   override accesses per job (> 1000)
//   PCAL_BENCH_THREADS    worker count (else PCAL_SWEEP_THREADS / cores)
//   PCAL_BENCH_JSON_DIR   where BENCH_<name>.json lands (default: cwd)
//   PCAL_BENCH_JSON=0     suppress the JSON record
//   PCAL_FAULT_INJECT     job=<i>:access=<n>:mode=<throw|hang|exit> —
//                         deterministic fault injection for the
//                         crash-safety tests
#include <sys/stat.h>

#include <cerrno>
#include <cstring>
#include <iostream>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "api/pcal.h"
#include "api/timeline.h"
#include "core/bench_record.h"
#include "core/checkpoint.h"
#include "core/experiment.h"
#include "core/grid_spec.h"
#include "trace/fault_inject.h"
#include "util/error.h"
#include "util/fingerprint.h"
#include "util/string_util.h"

namespace {

using namespace pcal;

constexpr const char* kExampleSpec = R"(# pcalsweep example specification
#
# A .sweep file declares a grid of independent simulator runs: every key
# under [sweep] is one axis, and the cross-product of all axis values is
# executed in one parallel sweep.  See docs/SWEEP_CLI.md for the full
# grammar and axis reference.

# Comments occupy whole lines ('#' or ';'); there are no trailing
# comments, so a value can never be truncated by accident.

[grid]
# `name` names the BENCH_<name>.json perf record; `accesses` is the
# per-job trace length (trace-file workloads cap at their own length).
name = example
accesses = 2000000

[sweep]
# Declaration order is loop order: the first axis is the outermost loop.
# Numeric axes take comma lists and ranges: "1..16 log2" = 1 2 4 8 16,
# "2..8 step 2" = 2 4 6 8, and k/M size suffixes ("8k" = 8192).
cache_size = 8192, 16384, 32768
line_size = 16
banks = 1..16 log2
policy = gated
# Workloads: MediaBench names, `mediabench` (all 18 of them),
# uniform / streaming / hotspot, and trace:<file> (.pct or text).
workload = cjpeg, rijndael_i

# Optional: pivot the results into a paper-style table instead of the
# default one-row-per-job listing.  Cells are metric:label:fmt:decimals;
# reduce = mean averages over the remaining axes (here: workload).
[table]
rows = cache_size
row_header = size
row_format = size
cols = banks
col_prefix = M=
cells = idleness:Idl:pct:0, lifetime:LT:num:2
reduce = mean
)";

/// Ensures the [timeline] artifact directory exists (one level; an
/// existing directory is fine).  Throws so the failure surfaces before
/// any simulation time is spent.
void ensure_timeline_dir(const std::string& dir) {
  if (mkdir(dir.c_str(), 0777) == 0 || errno == EEXIST) return;
  throw Error("cannot create timeline dir " + dir + ": " +
              std::strerror(errno));
}

/// Length-prefixed string hashing so adjacent fields can never alias.
void add_str(Fingerprint* fp, const std::string& s) {
  fp->add_u64(s.size());
  fp->add(s);
}

/// The run fingerprint: a stable 64-bit identity of the expanded
/// cross-product — spec name, per-job accesses, every axis key and its
/// values in declaration order, the filters and the fixed [grid] keys.
/// Shard slices of the same grid share it (the shard coordinates live in
/// the journal/record headers), so a journal or shard record can never
/// silently seed a different grid.
std::uint64_t run_fingerprint(const GridSpec& spec, std::uint64_t accesses) {
  Fingerprint fp;
  add_str(&fp, spec.name());
  fp.add_u64(accesses);
  for (const GridAxis& axis : spec.axes()) {
    add_str(&fp, axis.key);
    fp.add_u64(axis.values.size());
    for (const std::string& v : axis.values) add_str(&fp, v);
  }
  // [filter] predicates change which points expand; mix them only when
  // present so every pre-filter spec keeps its historical fingerprint
  // (journals written before this feature still resume).
  if (!spec.filters().empty()) {
    fp.add_u64(spec.filters().size());
    for (const GridFilter& f : spec.filters()) {
      add_str(&fp, f.key);
      add_str(&fp, f.op);
      add_str(&fp, f.value);
    }
  }
  // Likewise the fixed [grid] keys: a spec whose [grid] holds only name
  // and accesses keeps its historical fingerprint.
  if (!spec.fixed().empty()) {
    fp.add_u64(spec.fixed().size());
    for (const GridFixed& f : spec.fixed()) {
      add_str(&fp, f.key);
      add_str(&fp, f.value);
    }
  }
  return fp.value();
}

/// Per-job fingerprint: the run fingerprint mixed with the job's global
/// index, coordinates and workload.
std::uint64_t job_fingerprint(std::uint64_t run_fp, std::size_t index,
                              const GridJob& job) {
  Fingerprint fp;
  fp.add_u64(run_fp);
  fp.add_u64(index);
  for (const std::string& c : job.coords) add_str(&fp, c);
  add_str(&fp, job.workload);
  return fp.value();
}

/// Translates the runner's slice-local job indices to global
/// cross-product indices before they reach the journal.
class MappedJournalSink final : public JobCompletionSink {
 public:
  MappedJournalSink(JournalWriter* writer,
                    const std::vector<std::size_t>* local_to_global)
      : writer_(writer), local_to_global_(local_to_global) {}
  void on_job_complete(std::size_t index,
                       const SweepOutcome& outcome) override {
    writer_->on_job_complete((*local_to_global_)[index], outcome);
  }

 private:
  JournalWriter* writer_;
  const std::vector<std::size_t>* local_to_global_;
};

struct CliOptions {
  bool dry_run = false;
  bool retry_failed = false;
  // --on-failure record: failures are data, and the run exits 0.
  bool record_failures = false;
  std::string spec_path;
  std::vector<std::string> overrides;
  std::string journal_path;
  std::string resume_path;
  unsigned shard_index = 1;
  unsigned shard_count = 1;
  JobPolicy policy;
};

int usage() {
  std::cerr
      << "usage: pcalsweep <spec.sweep> [section.key=value ...]\n"
         "       pcalsweep --dry-run <spec.sweep> [...]\n"
         "       pcalsweep --example\n"
         "options:\n"
         "  --journal <file>         checkpoint completed jobs\n"
         "  --resume <file>          resume from a journal (appends to it)\n"
         "  --shard k/N              run the k-th of N deterministic slices\n"
         "  --on-failure skip|record|abort   failed-job handling\n"
         "  --timeout-ms <ms>        cooperative per-job deadline\n"
         "  --retry-failed           with --resume: re-run journaled "
         "failures\n";
  return 2;
}

bool parse_shard(const std::string& arg, unsigned* index, unsigned* count) {
  const std::size_t slash = arg.find('/');
  if (slash == std::string::npos) return false;
  const std::optional<std::uint64_t> k = parse_count(arg.substr(0, slash));
  const std::optional<std::uint64_t> n = parse_count(arg.substr(slash + 1));
  if (!k || !n || *k < 1 || *k > *n ||
      *n > std::numeric_limits<unsigned>::max())
    return false;
  *index = static_cast<unsigned>(*k);
  *count = static_cast<unsigned>(*n);
  return true;
}

bool parse_cli(int argc, char** argv, CliOptions* opt, int* exit_code) {
  const auto need_value = [&](int* i) -> const char* {
    if (*i + 1 >= argc) return nullptr;
    return argv[++*i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--example") {
      std::cout << kExampleSpec;
      *exit_code = 0;
      return false;
    }
    if (arg == "--dry-run") {
      opt->dry_run = true;
      continue;
    }
    if (arg == "--retry-failed") {
      opt->retry_failed = true;
      continue;
    }
    if (arg == "--journal" || arg == "--resume" || arg == "--shard" ||
        arg == "--on-failure" || arg == "--timeout-ms") {
      const char* value = need_value(&i);
      if (value == nullptr) {
        std::cerr << "pcalsweep: " << arg << " needs a value\n";
        *exit_code = usage();
        return false;
      }
      if (arg == "--journal") {
        opt->journal_path = value;
      } else if (arg == "--resume") {
        opt->resume_path = value;
      } else if (arg == "--shard") {
        if (!parse_shard(value, &opt->shard_index, &opt->shard_count)) {
          std::cerr << "pcalsweep: bad --shard '" << value
                    << "' (want k/N with 1 <= k <= N)\n";
          *exit_code = usage();
          return false;
        }
      } else if (arg == "--on-failure") {
        const std::string v = value;
        if (v == "skip" || v == "record" || v == "abort") {
          opt->record_failures = v == "record";
          opt->policy.abort_on_failure = v == "abort";
        } else {
          std::cerr << "pcalsweep: bad --on-failure '" << v
                    << "' (skip|record|abort)\n";
          *exit_code = usage();
          return false;
        }
      } else {  // --timeout-ms
        const std::optional<std::uint64_t> n = parse_count(value);
        if (!n) {
          std::cerr << "pcalsweep: bad " << arg << " '" << value
                    << "' (want a decimal count of milliseconds)\n";
          *exit_code = usage();
          return false;
        }
        opt->policy.deadline_ms = *n;
      }
      continue;
    }
    if (starts_with(arg, "--")) {
      std::cerr << "pcalsweep: unknown option '" << arg << "'\n";
      *exit_code = usage();
      return false;
    }
    // An override is "section.key=value" — a dot before the '=' and no
    // path separator in the key part, so a spec path containing '='
    // still resolves as a path.
    const std::size_t eq = arg.find('=');
    const std::size_t dot = arg.find('.');
    const bool is_override = eq != std::string::npos &&
                             dot != std::string::npos && dot < eq &&
                             arg.find('/') >= eq;
    if (is_override) {
      opt->overrides.push_back(arg);
    } else if (opt->spec_path.empty()) {
      opt->spec_path = arg;
    } else {
      std::cerr << "pcalsweep: unexpected argument '" << arg
                << "': a run takes one spec path plus section.key=value "
                   "overrides\n";
      *exit_code = usage();
      return false;
    }
  }
  if (opt->spec_path.empty()) {
    *exit_code = usage();
    return false;
  }
  if (!opt->resume_path.empty() && !opt->journal_path.empty()) {
    std::cerr << "pcalsweep: --resume already appends to its journal; "
                 "drop --journal\n";
    *exit_code = usage();
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions opt;
  int exit_code = 0;
  if (!parse_cli(argc, argv, &opt, &exit_code)) return exit_code;
  const bool sharded = opt.shard_count > 1;

  try {
    const GridSpec spec = GridSpec::load(opt.spec_path, opt.overrides);
    const std::uint64_t accesses = bench_accesses(spec.accesses());
    std::cerr << "[pcalsweep] " << spec.name() << ": "
              << spec.cross_product_size() << " jobs ("
              << spec.describe_axes() << "), " << accesses
              << " accesses/job\n";

    // expand() also validates trace-file workloads (missing files, bad
    // .pct headers) — which is everything --dry-run wants checked.
    const std::vector<GridJob> jobs = spec.expand(accesses);
    const std::uint64_t run_fp = run_fingerprint(spec, accesses);

    // The deterministic shard slice: global job index % N == k-1.  Every
    // job keeps its global index for journals, records and merges.
    std::vector<std::size_t> slice;
    slice.reserve(jobs.size() / opt.shard_count + 1);
    for (std::size_t i = 0; i < jobs.size(); ++i)
      if (i % opt.shard_count == opt.shard_index - 1) slice.push_back(i);
    if (sharded)
      std::cerr << "[pcalsweep] shard " << opt.shard_index << "/"
                << opt.shard_count << ": " << slice.size() << " of "
                << jobs.size() << " jobs\n";

    if (opt.dry_run) {
      std::cout << spec.name() << ": " << jobs.size() << " jobs ("
                << spec.describe_axes() << ")"
                << (spec.has_table() ? ", [table] pivot" : "") << "\n";
      if (sharded)
        std::cout << "shard " << opt.shard_index << "/" << opt.shard_count
                  << ": " << slice.size() << " jobs\n";
      return 0;
    }

    std::vector<std::uint64_t> job_fps(jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i)
      job_fps[i] = job_fingerprint(run_fp, i, jobs[i]);

    const std::optional<FaultSpec> fault = fault_spec_from_env();

    const AgingLut& lut = api::shared_aging().lut();
    std::vector<SweepJob> sweep_jobs;
    sweep_jobs.reserve(slice.size());
    for (const std::size_t g : slice) {
      SweepJob j = spec.sweep_job(jobs[g], &lut);
      if (fault && fault->job == g) arm_fault(j, *fault);
      sweep_jobs.push_back(std::move(j));
    }

    // [timeline] dir: one TimelineRecorder per job on this shard's
    // slice.  The observer runs on the worker thread but only touches
    // its own recorder; artifacts are written after the run.  Without
    // the section `recorders` stays empty, every observer stays unset,
    // and the run is bit-identical to one without the knob.
    std::vector<std::unique_ptr<api::TimelineRecorder>> recorders;
    if (!spec.timeline_dir().empty()) {
      ensure_timeline_dir(spec.timeline_dir());
      recorders.resize(sweep_jobs.size());
      for (std::size_t i = 0; i < sweep_jobs.size(); ++i) {
        auto rec =
            std::make_unique<api::TimelineRecorder>(sweep_jobs[i].label);
        if (sweep_jobs[i].multicore)
          rec->price_with(*sweep_jobs[i].multicore);
        else
          rec->price_with(sweep_jobs[i].config);
        sweep_jobs[i].observer = rec->observer();
        recorders[i] = std::move(rec);
      }
    }

    // Journal setup.  The header pins the grid identity (fingerprint),
    // the full cross-product size, the per-job accesses and the shard
    // slice; resume refuses a journal whose header disagrees.
    JournalHeader header;
    header.name = spec.name();
    header.fingerprint = run_fp;
    header.jobs = jobs.size();
    header.accesses = accesses;
    header.shard_index = opt.shard_index;
    header.shard_count = opt.shard_count;

    std::vector<bool> skip;
    std::vector<SweepOutcome> journaled(jobs.size());
    std::vector<bool> have_journaled(jobs.size(), false);
    if (!opt.resume_path.empty()) {
      const LoadedJournal loaded = load_journal(opt.resume_path);
      if (loaded.header.fingerprint != header.fingerprint ||
          loaded.header.jobs != header.jobs ||
          loaded.header.accesses != header.accesses ||
          loaded.header.shard_index != header.shard_index ||
          loaded.header.shard_count != header.shard_count) {
        std::cerr << "pcalsweep: error: " << opt.resume_path
                  << " was journaled for a different run (fingerprint "
                  << hex16(loaded.header.fingerprint) << ", "
                  << loaded.header.jobs << " jobs, "
                  << loaded.header.accesses << " accesses, shard "
                  << loaded.header.shard_index << "/"
                  << loaded.header.shard_count << "; this run is "
                  << hex16(header.fingerprint) << ", " << header.jobs
                  << " jobs, " << header.accesses << " accesses, shard "
                  << header.shard_index << "/" << header.shard_count
                  << ")\n";
        return 1;
      }
      std::size_t restored = 0, refused = 0;
      skip.assign(slice.size(), false);
      for (const JournalEntry& entry : loaded.entries) {
        if (entry.job_fingerprint != job_fps[entry.index]) {
          std::cerr << "pcalsweep: error: " << opt.resume_path
                    << ": job " << entry.index
                    << " fingerprint mismatch — journal does not match "
                       "this grid\n";
          return 1;
        }
        if (!entry.outcome.ok() && opt.retry_failed) {
          ++refused;  // leave it runnable
          continue;
        }
        journaled[entry.index] = entry.outcome;
        have_journaled[entry.index] = true;
      }
      for (std::size_t i = 0; i < slice.size(); ++i) {
        if (have_journaled[slice[i]]) {
          skip[i] = true;
          ++restored;
        }
      }
      std::cerr << "[pcalsweep] resume: " << restored
                << " jobs restored from " << opt.resume_path
                << (loaded.torn_tail ? " (torn tail discarded)" : "");
      if (refused > 0) std::cerr << ", " << refused << " failures re-run";
      std::cerr << "\n";
    }

    std::unique_ptr<JournalWriter> writer;
    if (!opt.resume_path.empty())
      writer = std::make_unique<JournalWriter>(opt.resume_path, header,
                                               job_fps, /*append=*/true);
    else if (!opt.journal_path.empty())
      writer = std::make_unique<JournalWriter>(opt.journal_path, header,
                                               job_fps, /*append=*/false);
    MappedJournalSink sink(writer.get(), &slice);

    SweepRunOptions run_options;
    run_options.policy = opt.policy;
    if (writer) run_options.checkpoint = &sink;
    if (!skip.empty()) run_options.skip = &skip;

    SweepRunner runner(bench_threads());
    std::vector<SweepOutcome> outcomes = runner.run(sweep_jobs, run_options);
    if (writer) writer->flush();

    // Fill skipped slots from the journal so downstream consumers (the
    // table, the record) see one complete, ordered outcome set —
    // bit-identical to an uninterrupted run.
    for (std::size_t i = 0; i < outcomes.size(); ++i)
      if (outcomes[i].skipped) outcomes[i] = journaled[slice[i]];

    // Write one timeline artifact per job that actually ran this
    // invocation (journal-restored and failed jobs recorded nothing).
    // Named by *global* job index so sharded runs drop disjoint files
    // into a shared directory.
    if (!recorders.empty()) {
      std::size_t written = 0;
      for (std::size_t i = 0; i < recorders.size(); ++i) {
        if (recorders[i]->intervals().empty()) continue;
        recorders[i]->write_json_file(spec.timeline_dir() + "/" +
                                      spec.name() + "_job" +
                                      std::to_string(slice[i]) + ".json");
        ++written;
      }
      std::cerr << "[pcalsweep] " << written << " timeline artifact(s) in "
                << spec.timeline_dir() << "\n";
    }

    // Resumed runs recompute the merged aggregate; plain runs keep the
    // runner's stats verbatim (threads/wall/steals are run-varying
    // either way and normalized out of record diffs).  The rate keeps
    // the runner's simulated_accesses: a restored job was simulated by
    // the run that journaled it, not in this invocation's wall time.
    SweepStats stats = runner.last_stats();
    if (!opt.resume_path.empty()) {
      stats.jobs = outcomes.size();
      stats.failed_jobs = 0;
      stats.total_accesses = 0;
      stats.intervals_observed = 0;
      for (const SweepOutcome& o : outcomes) {
        if (o.ok())
          stats.total_accesses += o.result.accesses;
        else
          ++stats.failed_jobs;
        stats.intervals_observed += o.intervals;
      }
    }

    std::size_t failed = 0;
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
      if (outcomes[i].ok()) continue;
      ++failed;
      std::cerr << "[pcalsweep] job " << slice[i] << " ("
                << spec.job_label(jobs[slice[i]]) << ") failed";
      if (outcomes[i].timed_out) std::cerr << " (deadline exceeded)";
      if (outcomes[i].cancelled) std::cerr << " (cancelled)";
      std::cerr << ": " << outcomes[i].error_what << "\n";
    }

    // The perf record is written even on failure — failed_jobs > 0 is
    // exactly what the CI bench-JSON gate wants to see and reject
    // (unless the run opted into --on-failure record, whose structured
    // "failures" entries check_bench_json.py --allow-failures accepts).
    const std::string record_name =
        sharded ? spec.name() + "_shard" + std::to_string(opt.shard_index) +
                      "of" + std::to_string(opt.shard_count)
                : spec.name();
    write_bench_json(record_name, stats, [&](std::ostream& f) {
      f << "  \"spec\": \"" << json_escape(basename_of(opt.spec_path))
        << "\",\n"
        << "  \"fingerprint\": \"" << hex16(run_fp) << "\",\n"
        << "  \"cross_product\": " << spec.cross_product_size() << ",\n";
      if (sharded)
        f << "  \"shard_index\": " << opt.shard_index << ",\n"
          << "  \"shard_count\": " << opt.shard_count << ",\n";
      f << "  \"axes\": {";
      for (std::size_t i = 0; i < spec.axes().size(); ++i)
        f << (i ? ", " : "") << "\"" << json_escape(spec.axes()[i].key)
          << "\": " << spec.axes()[i].values.size();
      f << "},\n";
      if (!spec.filters().empty()) {
        f << "  \"filters\": [";
        for (std::size_t i = 0; i < spec.filters().size(); ++i) {
          const GridFilter& flt = spec.filters()[i];
          f << (i ? ", " : "") << "\""
            << json_escape(flt.key + " " + flt.op + " " + flt.value) << "\"";
        }
        f << "],\n";
      }
      if (failed > 0) {
        f << "  \"failures\": [\n";
        bool first = true;
        for (std::size_t i = 0; i < outcomes.size(); ++i) {
          if (outcomes[i].ok()) continue;
          f << (first ? "" : ",\n") << "    {\"job\": " << slice[i]
            << ", \"workload\": \""
            << json_escape(jobs[slice[i]].workload) << "\", \"config\": \""
            << json_escape(spec.job_label(jobs[slice[i]]))
            << "\", \"reason\": \"" << json_escape(outcomes[i].error_what)
            << "\", \"attempts\": " << outcomes[i].attempts
            << ", \"timed_out\": "
            << (outcomes[i].timed_out ? "true" : "false")
            << ", \"cancelled\": "
            << (outcomes[i].cancelled ? "true" : "false") << "}";
          first = false;
        }
        f << "\n  ],\n";
      }
      f << "  \"results\": [\n";
      for (std::size_t i = 0; i < outcomes.size(); ++i) {
        f << "    ";
        write_result_row(f, outcomes[i].result, jobs[slice[i]].workload,
                         outcomes[i].ok(),
                         outcomes[i].cores.empty() ? nullptr
                                                   : &outcomes[i].cores,
                         static_cast<long>(slice[i]));
        f << (i + 1 < outcomes.size() ? ",\n" : "\n");
      }
      f << "  ],\n";
    });

    std::cerr << "[pcalsweep] " << spec.name() << ": " << stats.jobs
              << " jobs on " << stats.threads << " threads, "
              << TextTable::num(stats.wall_seconds, 2) << "s, "
              << TextTable::num(stats.accesses_per_second() / 1e6, 1)
              << "M accesses/s, " << stats.sources_built
              << " trace sources built\n";
    if (failed > 0) {
      std::cerr << "[pcalsweep] " << failed << " of " << outcomes.size()
                << " jobs failed\n";
      // Under --on-failure record, failures are tolerated data: the
      // table renders them as holes and the run exits 0.  The default
      // keeps the strict contract — no table, exit 1.
      if (!opt.record_failures) return 1;
    }

    // stdout carries exactly what bench_common.h's print_table() emits,
    // so a spec's pivot can be diffed against its bench binary.  A
    // sharded run's table covers only its slice (merge the records for
    // the full grid view).
    std::vector<GridJob> table_jobs;
    if (sharded) {
      table_jobs.reserve(slice.size());
      for (const std::size_t g : slice) table_jobs.push_back(jobs[g]);
    }
    const TextTable table =
        spec.render_table(sharded ? table_jobs : jobs, outcomes);
    table.render(std::cout);
    std::cout << "\n--- CSV ---\n";
    table.render_csv(std::cout);
    std::cout << std::endl;
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "pcalsweep: error: " << e.what() << "\n";
    return 1;
  }
}
