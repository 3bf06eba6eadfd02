// Parallel sweep engine for the paper's evaluation cross-products.
//
// Every paper table is a grid of independent Simulator runs — workloads ×
// cache sizes × line sizes × bank counts × granularities — and a serial
// driver makes bench wall-clock, not simulation fidelity, the bottleneck.
// SweepRunner executes an arbitrary set of (SimConfig, workload) jobs on a
// work-stealing thread pool and merges the SimResults deterministically:
// outcomes are stored by job index and every job's result equals its own
// Simulator::run, so the merged result vector is identical to a serial
// run regardless of thread count or scheduling order.
//
// Lockstep cohorts: single-stream jobs that name the same stream
// (SweepJob::shared_source) run together over ONE source — each batch is
// generated once and handed to every member's engine in turn — so a grid
// of C configs over W workloads generates W streams, not C x W, holding
// one batch in memory rather than a trace (the one-pass, many-
// configurations idea of Mattson et al.'s stack simulation).  Members of
// one cache geometry also share one tag walk (the lockstep groups of
// core/multicore.h).  Each member's result is bit-identical to its solo
// run.
//
// Per-interval observer callbacks stream into per-worker accumulators
// (each worker writes only its own cache-line-padded slot — no shared
// locks on the hot path); the accumulators are merged into SweepStats
// after the workers join.
#pragma once

#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <vector>

#include "core/multicore.h"
#include "core/simulator.h"

namespace pcal {

/// Builds a fresh TraceSource for one job.  Called on the worker thread
/// that runs the job, once per run of it — jobs never share a mutable
/// source except inside a lockstep cohort, which calls only its first
/// member's factory (see SweepJob::shared_source).  The factory itself
/// must be safe to *invoke* from any worker thread (it is copied with
/// the job; captured state it reads must be immutable or owned per-job),
/// and the returned source is owned and destroyed by the worker that
/// ran the job.
using TraceSourceFactory = std::function<std::unique_ptr<TraceSource>()>;

/// One independent simulation of the sweep grid.
///
/// Ownership: the job owns its config and factory by value; the runner
/// copies nothing out of them after run() returns.  `lut` is a non-owning
/// pointer the caller must keep alive for the duration of run(); it is
/// read-only and therefore safe to share across all workers.
struct SweepJob {
  SimConfig config;
  TraceSourceFactory make_source;
  /// Stream identity for lockstep cohorts.  Single-stream jobs with the
  /// same non-empty key share one source built from the first member's
  /// factory, so the key must name the stream exactly: equal keys must
  /// mean factories that produce identical access sequences (GridSpec
  /// keys its points by workload value; accesses and footprint are
  /// grid-wide).  Empty — the default — runs the job solo over its own
  /// source.  Ignored for multi-core jobs.
  std::string shared_source;
  /// Optional human-readable identity ("cache_size=8192 banks=4
  /// workload=cjpeg") copied into the outcome so failure reports name
  /// the offending config.
  std::string label;
  /// Optional aging LUT (shared, read-only across threads).
  const AgingLut* lut = nullptr;
  /// Optional per-job observer, invoked on the worker thread that runs
  /// the job.  Observers of different jobs may run concurrently — an
  /// observer must only touch per-job state (or synchronize itself).
  IntervalObserver observer;
  /// Multi-core jobs: when set, the job runs a MultiCoreSystem over
  /// `core_sources` (one factory per configured core, in core order)
  /// instead of a single-stream Simulator, and `config`/`make_source`
  /// are ignored.  The shared_ptr keeps one immutable config alive
  /// across copies of the job on different workers.
  std::shared_ptr<const MultiCoreConfig> multicore;
  std::vector<TraceSourceFactory> core_sources;
};

/// Result slot of one job.  `result` is valid iff `ok()`.
struct SweepOutcome {
  SimResult result;
  /// Per-core attribution of a multi-core job (empty for single-stream
  /// jobs).
  std::vector<CoreResult> cores;
  std::exception_ptr error;
  /// The failing exception's what() string, captured at throw time on
  /// the worker — exception_ptr alone cannot be reported without
  /// rethrowing, and the BENCH failed-job entries want the reason even
  /// after the pointer is gone (e.g. restored from a journal).
  std::string error_what;
  /// The job's SweepJob::label, copied so failure reports name the
  /// offending config without the caller re-deriving it from the index.
  std::string label;
  /// 1 for a job that ran (nothing retries a job), 0 iff it never ran
  /// (skipped via SweepRunOptions, or cancelled by an abort).  Kept as a
  /// journal token and a field of the BENCH record's failure entries.
  unsigned attempts = 0;
  /// Interval-observer callbacks this job fired (counted per job so a
  /// resumed run can reconstruct SweepStats::intervals_observed).
  std::uint64_t intervals = 0;
  /// The job failed by exceeding JobPolicy::deadline_ms.
  bool timed_out = false;
  /// The job never ran because JobPolicy::abort_on_failure cancelled the
  /// sweep first (`error` is set to a synthesized cancellation error).
  bool cancelled = false;
  /// The job was skipped via SweepRunOptions::skip (the slot is default
  /// data — the caller restores the journaled outcome).
  bool skipped = false;

  bool ok() const { return error == nullptr; }
  /// Rethrows the job's exception, if any.
  void rethrow_if_error() const {
    if (error) std::rethrow_exception(error);
  }
};

/// Per-job fault-isolation policy of one SweepRunner::run.  Nothing
/// retries a failed job: the failure is captured into its outcome and
/// the rest of the grid runs on, unless abort_on_failure is set.
///
/// Cohorts follow the same policy, member by member: a member whose
/// SimConfig fails validation runs solo (and fails exactly as it would
/// alone); any other exception inside a cohort re-runs its unfinished
/// members solo, so a failure stays with the member that caused it; a
/// cohort of K members runs under K x deadline_ms, and on expiry its
/// unfinished members fail timed_out.
struct JobPolicy {
  /// Cooperative per-job deadline (0 = none).  Workers arm a
  /// thread-local deadline (util/job_context.h) and the engine polls it
  /// at trace-batch and interval boundaries; a job that exceeds it fails
  /// with JobTimeoutError.
  std::uint64_t deadline_ms = 0;
  /// The first failure cancels every job that has not started yet (their
  /// outcomes come back `cancelled`), capping the compute one poisoned
  /// job can waste at the jobs already in flight.
  bool abort_on_failure = false;
};

/// Receives completed jobs as they finish — the checkpoint hook the
/// journal writer implements.  Called on the worker thread that ran the
/// job, after its outcome slot is fully written; calls for different
/// jobs may race, so implementations synchronize internally.  Skipped
/// and cancelled jobs are not reported (they did not run).
class JobCompletionSink {
 public:
  virtual ~JobCompletionSink() = default;
  virtual void on_job_complete(std::size_t index,
                               const SweepOutcome& outcome) = 0;
};

/// Optional knobs of one run; the default — no deadline, no
/// checkpointing, tolerate-and-mark failures — is what the determinism
/// tests pin bit for bit.
struct SweepRunOptions {
  JobPolicy policy;
  /// Completed-job sink (journaled checkpointing); may be null.
  JobCompletionSink* checkpoint = nullptr;
  /// Jobs to skip, by index (already completed in a previous run).  Must
  /// be empty or jobs.size() long; skipped slots return with
  /// `skipped == true` and default data.
  const std::vector<bool>* skip = nullptr;
};

/// Aggregate statistics of one SweepRunner::run, merged from the
/// per-worker accumulators.
struct SweepStats {
  std::size_t jobs = 0;
  std::size_t failed_jobs = 0;
  unsigned threads = 0;
  std::uint64_t total_accesses = 0;      // sum of SimResult::accesses
  /// Accesses simulated by this run.  Equal to total_accesses, except
  /// where a resumed sweep folds its journal-restored jobs into the
  /// totals: those were simulated by an earlier run.
  std::uint64_t simulated_accesses = 0;
  std::uint64_t intervals_observed = 0;  // observer callbacks fired
  std::uint64_t steals = 0;              // units taken from another worker
  /// TraceSources built: one per solo job (per core for multi-core
  /// jobs) and one per cohort.
  std::uint64_t sources_built = 0;
  double wall_seconds = 0.0;

  /// Simulation rate: the accesses this run simulated over its wall time.
  double accesses_per_second() const {
    return wall_seconds > 0.0
               ? static_cast<double>(simulated_accesses) / wall_seconds
               : 0.0;
  }
};

/// Work-stealing thread pool over independent Simulator runs.
///
/// The runnable (non-skipped) jobs form work units: a lone job, or a
/// cohort of jobs sharing a shared_source key, in job order.  A cohort
/// holds at most max(1, runnable / workers) members, so a grid over one
/// stream still fills every worker while table4 (216 jobs over 18
/// streams) at 2 workers keeps its 18 whole cohorts.  Units are ordered
/// by their first job index and dealt round-robin into per-worker
/// deques; a worker drains its own deque from the front and, when empty,
/// steals a whole unit from the back of a victim's.  With
/// `num_threads() == 1` (or a single unit) everything runs inline on the
/// calling thread — the exact serial path the determinism tests compare
/// against.
///
/// Thread-safety: a SweepRunner instance is driven from one caller
/// thread; run() blocks that thread until every job has completed and
/// all workers have joined, so `last_stats()` and the returned outcomes
/// are plain single-threaded data afterwards.  Workers share nothing
/// mutable: each job's Simulator, backend and TraceSource live and die
/// on the worker that ran it, and outcomes are written to distinct
/// pre-sized slots.
///
/// Determinism guarantee: outcomes are stored by job index and every
/// job's result equals its own Simulator::run, in a cohort or alone, so
/// the returned vector is bit-identical to a serial run regardless of
/// thread count, cohort split, stealing order, or scheduling — pinned by
/// sweep_test (1/2/8 threads, cohorts vs keyless solo runs), the
/// backend_parity_test degeneracy suite (1 and 8 threads), and CI's
/// 1-vs-8-worker and spec-vs-bench diffs of the table4 grid.  Only
/// SweepStats (wall clock, steal and source counts) may differ between
/// runs.
class SweepRunner {
 public:
  /// `num_threads == 0` picks default_threads().
  explicit SweepRunner(unsigned num_threads = 0);

  /// Runs every job; returns outcomes in job order.  An exception thrown
  /// by one job (source factory or simulation) is captured into that
  /// job's outcome and does not affect the others or the pool.  The
  /// checkpoint sink hears each completed job once, cohort members
  /// included; JobPolicy::abort_on_failure cancels every unit (cohorts
  /// whole) that has not started.
  std::vector<SweepOutcome> run(const std::vector<SweepJob>& jobs,
                                const SweepRunOptions& options = {});

  unsigned num_threads() const { return threads_; }

  /// Statistics of the most recent run().
  const SweepStats& last_stats() const { return stats_; }

  /// PCAL_SWEEP_THREADS if set (a plain decimal >= 1; any other value
  /// throws ConfigError), else std::thread::hardware_concurrency.
  static unsigned default_threads();

 private:
  unsigned threads_;
  SweepStats stats_;
};

/// Accesses per job: PCAL_BENCH_ACCESSES (a plain decimal above 1000)
/// if set, else `fallback`.  pcalsweep and the bench binaries share this
/// contract; any other value throws ConfigError naming the variable and
/// the value, as do malformed PCAL_BENCH_THREADS and PCAL_SWEEP_THREADS.
std::uint64_t bench_accesses(std::uint64_t fallback);

/// Worker threads: PCAL_BENCH_THREADS (a plain decimal of at least 1) if
/// set, else SweepRunner::default_threads().
unsigned bench_threads();

}  // namespace pcal
