#include "core/sweep.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <deque>
#include <limits>
#include <map>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>

#include "util/error.h"
#include "util/job_context.h"
#include "util/string_util.h"

namespace pcal {
namespace {

/// Per-worker streaming accumulator.  Padded to a cache line so
/// neighbouring workers never false-share; each worker writes only its
/// own slot, so no synchronization is needed until the merge after join.
struct alignas(64) WorkerAccum {
  std::uint64_t failed = 0;
  std::uint64_t accesses = 0;
  std::uint64_t intervals = 0;
  std::uint64_t steals = 0;
  std::uint64_t sources = 0;
};

/// One worker's queue of work units (indices into the run's unit list).
/// The mutex guards only the deque ops (a few pointer moves); the
/// simulation work itself runs lock-free.
struct WorkerQueue {
  std::mutex mu;
  std::deque<std::size_t> units;

  bool pop_front(std::size_t* out) {
    std::lock_guard<std::mutex> lock(mu);
    if (units.empty()) return false;
    *out = units.front();
    units.pop_front();
    return true;
  }
  bool steal_back(std::size_t* out) {
    std::lock_guard<std::mutex> lock(mu);
    if (units.empty()) return false;
    *out = units.back();
    units.pop_back();
    return true;
  }
};

/// Polls the thread-local job deadline at every batch boundary — the
/// cooperative cancellation point that turns a hung or pathological job
/// into a JobTimeoutError instead of a wedged worker.  Zero-cost to the
/// determinism guarantee: it only ever throws, never alters the stream.
class DeadlineCheckedSource final : public TraceSource {
 public:
  explicit DeadlineCheckedSource(std::unique_ptr<TraceSource> inner)
      : inner_(std::move(inner)) {}

  std::optional<MemAccess> next() override {
    throw_if_job_deadline_exceeded("trace access");
    return inner_->next();
  }
  std::size_t next_batch(MemAccess* out, std::size_t max) override {
    throw_if_job_deadline_exceeded("trace batch");
    return inner_->next_batch(out, max);
  }
  void reset() override { inner_->reset(); }
  std::optional<std::uint64_t> size_hint() const override {
    return inner_->size_hint();
  }
  std::optional<std::uint64_t> boundary_hint() const override {
    return inner_->boundary_hint();
  }
  std::string name() const override { return inner_->name(); }

 private:
  std::unique_ptr<TraceSource> inner_;
};

/// The observer a job runs under: the streaming accumulator chained in
/// front of any user observer, so interval counts land in the job's slot
/// without locking; the deadline poll makes every interval boundary a
/// cancellation point.
IntervalObserver counting_observer(const SweepJob& job, SweepOutcome* out) {
  return [&job, out](const IntervalSnapshot& snap) {
    throw_if_job_deadline_exceeded("interval boundary");
    ++out->intervals;
    if (job.observer) job.observer(snap);
  };
}

/// Builds one source from `factory`, counted in the worker's
/// accumulator and deadline-polled when a deadline is armed.
std::unique_ptr<TraceSource> build_source(const TraceSourceFactory& factory,
                                          bool deadline_armed,
                                          WorkerAccum* accum) {
  std::unique_ptr<TraceSource> source = factory();
  PCAL_ASSERT_MSG(source != nullptr, "TraceSourceFactory returned null");
  ++accum->sources;
  if (!deadline_armed) return source;
  return std::make_unique<DeadlineCheckedSource>(std::move(source));
}

/// Simulates one job.  Throws on failure; on success the outcome's
/// result/cores/intervals are filled in.
void simulate(const SweepJob& job, bool deadline_armed, SweepOutcome* out,
              WorkerAccum* accum) {
  const IntervalObserver observer = counting_observer(job, out);
  if (job.multicore) {
    PCAL_ASSERT_MSG(
        job.core_sources.size() == job.multicore->cores.size(),
        "multi-core SweepJob needs one TraceSourceFactory per core");
    std::vector<std::unique_ptr<TraceSource>> owned;
    std::vector<TraceSource*> sources;
    for (const TraceSourceFactory& factory : job.core_sources) {
      PCAL_ASSERT_MSG(factory != nullptr,
                      "multi-core SweepJob has a null source factory");
      owned.push_back(build_source(factory, deadline_armed, accum));
      sources.push_back(owned.back().get());
    }
    MultiCoreResult mc =
        MultiCoreSystem(*job.multicore).run(sources, job.lut, observer);
    out->result = std::move(mc.system);
    out->cores = std::move(mc.cores);
    return;
  }
  PCAL_ASSERT_MSG(job.make_source != nullptr,
                  "SweepJob needs a TraceSourceFactory");
  const std::unique_ptr<TraceSource> source =
      build_source(job.make_source, deadline_armed, accum);
  out->result = Simulator(job.config).run(*source, job.lut, observer);
}

/// Runs one job, once, into its outcome slot under the run's JobPolicy.
/// Exceptions (source factory, config validation, simulation, timeout)
/// are captured per job with their what() string; a failing job must not
/// poison the pool.  Returns true iff the job succeeded.
bool run_job(const SweepJob& job, const JobPolicy& policy, SweepOutcome* out,
             WorkerAccum* accum) {
  out->label = job.label;
  out->attempts = 1;
  bool ok = false;
  try {
    if (policy.deadline_ms > 0) arm_job_deadline(policy.deadline_ms);
    simulate(job, policy.deadline_ms > 0, out, accum);
    ok = true;
  } catch (const JobTimeoutError& e) {
    out->error = std::current_exception();
    out->error_what = e.what();
    out->timed_out = true;
  } catch (const std::exception& e) {
    out->error = std::current_exception();
    out->error_what = e.what();
  } catch (...) {
    out->error = std::current_exception();
    out->error_what = "unknown exception";
  }
  clear_job_deadline();
  accum->intervals += out->intervals;
  if (ok)
    accum->accesses += out->result.accesses;
  else
    ++accum->failed;
  return ok;
}

/// The run's work units, in order of their first job: a lone job, or a
/// cohort — runnable single-stream jobs sharing a non-empty
/// shared_source key, in job order, at most `cap` of them.
std::vector<std::vector<std::size_t>> make_units(
    const std::vector<SweepJob>& jobs, const std::vector<std::size_t>& runnable,
    std::size_t cap) {
  std::vector<std::vector<std::size_t>> units;
  std::map<std::string, std::size_t> open;  // key -> its newest cohort
  for (const std::size_t i : runnable) {
    const SweepJob& job = jobs[i];
    if (!job.shared_source.empty() && !job.multicore) {
      const auto it = open.find(job.shared_source);
      if (it != open.end() && units[it->second].size() < cap) {
        units[it->second].push_back(i);
        continue;
      }
      open[job.shared_source] = units.size();
    }
    units.push_back({i});
  }
  return units;
}

/// Runs a cohort's members in lockstep over one source built from the
/// first member's factory: each fetched batch goes to every member's
/// engine in turn.  Fills the outcome slot of every member it finishes
/// or times out and hands it to `complete`; returns, in job order, the
/// members that must run solo instead — those whose config fails
/// validation, and after any non-deadline exception every unfinished
/// member (with a fresh slot).
std::vector<std::size_t> run_cohort(
    const std::vector<SweepJob>& jobs, const std::vector<std::size_t>& unit,
    const JobPolicy& policy, std::vector<SweepOutcome>& outcomes,
    WorkerAccum* accum,
    const std::function<void(std::size_t, bool)>& complete) {
  std::vector<std::size_t> solo;
  std::vector<std::size_t> members;
  std::vector<Simulator> sims;
  for (const std::size_t i : unit) {
    try {
      sims.emplace_back(jobs[i].config);
      members.push_back(i);
    } catch (...) {
      solo.push_back(i);  // fails again, identically, on its own
    }
  }
  const std::size_t k = members.size();
  if (k == 0) return solo;

  const bool deadline = policy.deadline_ms > 0;
  if (deadline) arm_job_deadline(policy.deadline_ms * k);
  std::size_t finished = 0;
  bool rerun = false;
  try {
    const std::unique_ptr<TraceSource> source =
        build_source(jobs[members.front()].make_source, deadline, accum);
    std::vector<SystemRun> runs;
    runs.reserve(k);
    for (std::size_t m = 0; m < k; ++m) {
      const SweepJob& job = jobs[members[m]];
      SweepOutcome& out = outcomes[members[m]];
      out.label = job.label;
      out.attempts = 1;
      runs.push_back(
          sims[m].start(*source, job.lut, counting_observer(job, &out)));
    }
    std::vector<SystemRun*> lockstep;
    for (SystemRun& run : runs) lockstep.push_back(&run);
    SystemRun::drive(lockstep);
    for (; finished < k; ++finished)
      outcomes[members[finished]].result =
          sims[finished].finish(runs[finished]);
  } catch (const JobTimeoutError& e) {
    // The deadline covers the whole cohort: its unfinished members time
    // out.
    for (std::size_t m = finished; m < k; ++m) {
      SweepOutcome& out = outcomes[members[m]];
      out.error = std::current_exception();
      out.error_what = e.what();
      out.timed_out = true;
    }
  } catch (...) {
    rerun = true;
  }
  clear_job_deadline();

  for (std::size_t m = 0; m < k; ++m) {
    SweepOutcome& out = outcomes[members[m]];
    if (rerun && m >= finished) {
      out = SweepOutcome{};
      solo.push_back(members[m]);
      continue;
    }
    accum->accesses += out.result.accesses;
    accum->intervals += out.intervals;
    if (!out.ok()) ++accum->failed;
    complete(members[m], out.ok());
  }
  std::sort(solo.begin(), solo.end());
  return solo;
}

/// The count environment variable `name` sets: nullopt when it is
/// unset, else its value, which must be a plain decimal in [min, max].
/// Every count the sweep layer reads from the environment comes
/// through here.
std::optional<std::uint64_t> count_from_env(
    const char* name, std::uint64_t min,
    std::uint64_t max = std::numeric_limits<std::uint64_t>::max()) {
  const char* env = std::getenv(name);
  if (env == nullptr) return std::nullopt;
  const std::optional<std::uint64_t> value = parse_count(env);
  if (!value || *value < min || *value > max) {
    std::ostringstream os;
    os << "bad " << name << " '" << env
       << "' (want a decimal count of at least " << min;
    if (max != std::numeric_limits<std::uint64_t>::max())
      os << " and at most " << max;
    os << ")";
    throw ConfigError(os.str());
  }
  return value;
}

}  // namespace

std::uint64_t bench_accesses(std::uint64_t fallback) {
  return count_from_env("PCAL_BENCH_ACCESSES", 1001).value_or(fallback);
}

unsigned bench_threads() {
  if (const auto v = count_from_env("PCAL_BENCH_THREADS", 1,
                                    std::numeric_limits<unsigned>::max()))
    return static_cast<unsigned>(*v);
  return SweepRunner::default_threads();
}

unsigned SweepRunner::default_threads() {
  if (const auto v = count_from_env("PCAL_SWEEP_THREADS", 1,
                                    std::numeric_limits<unsigned>::max()))
    return static_cast<unsigned>(*v);
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

SweepRunner::SweepRunner(unsigned num_threads)
    : threads_(num_threads > 0 ? num_threads : default_threads()) {}

std::vector<SweepOutcome> SweepRunner::run(const std::vector<SweepJob>& jobs,
                                           const SweepRunOptions& options) {
  PCAL_ASSERT_MSG(
      options.skip == nullptr || options.skip->empty() ||
          options.skip->size() == jobs.size(),
      "SweepRunOptions::skip must be empty or one flag per job");
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<SweepOutcome> outcomes(jobs.size());

  const auto is_skipped = [&](std::size_t i) {
    return options.skip != nullptr && !options.skip->empty() &&
           (*options.skip)[i];
  };
  std::vector<std::size_t> runnable;
  runnable.reserve(jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    if (is_skipped(i))
      outcomes[i].skipped = true;
    else
      runnable.push_back(i);
  }

  // Cohorts hold at most runnable / workers members, so even a grid
  // over one stream keeps every worker busy.
  const std::size_t width = std::max<std::size_t>(
      1, std::min<std::size_t>(threads_, runnable.size()));
  const std::vector<std::vector<std::size_t>> units = make_units(
      jobs, runnable, std::max<std::size_t>(1, runnable.size() / width));
  const std::size_t num_workers =
      std::max<std::size_t>(1, std::min(width, units.size()));
  std::vector<WorkerAccum> accums(num_workers);

  // JobPolicy::abort_on_failure raises this flag on the first failure;
  // jobs that have not started by then are marked cancelled instead of
  // run.  Release/acquire so a cancelling worker's view of the failing
  // outcome is complete before anyone reads the flag.
  std::atomic<bool> abort_flag{false};
  const bool abort_on_failure = options.policy.abort_on_failure;
  const auto aborted = [&] {
    return abort_on_failure && abort_flag.load(std::memory_order_acquire);
  };

  // A job's outcome slot is final: raise the abort flag on failure, then
  // report the job to the checkpoint sink.
  const std::function<void(std::size_t, bool)> complete =
      [&](std::size_t job_idx, bool ok) {
        if (!ok && abort_on_failure)
          abort_flag.store(true, std::memory_order_release);
        if (options.checkpoint != nullptr)
          options.checkpoint->on_job_complete(job_idx, outcomes[job_idx]);
      };

  const auto dispatch = [&](std::size_t job_idx, WorkerAccum* accum) {
    SweepOutcome* out = &outcomes[job_idx];
    if (aborted()) {
      out->label = jobs[job_idx].label;
      out->cancelled = true;
      out->error_what = "cancelled: sweep aborted by an earlier job failure";
      out->error = std::make_exception_ptr(Error(out->error_what));
      ++accum->failed;
      return;
    }
    complete(job_idx, run_job(jobs[job_idx], options.policy, out, accum));
  };

  // A cohort that has not started when an abort is raised is cancelled
  // whole; one that has started finishes, and its solo re-runs are
  // dispatched (and cancelled) job by job.
  const auto run_unit = [&](const std::vector<std::size_t>& unit,
                            WorkerAccum* accum) {
    if (unit.size() == 1 || aborted()) {
      for (const std::size_t i : unit) dispatch(i, accum);
      return;
    }
    for (const std::size_t i :
         run_cohort(jobs, unit, options.policy, outcomes, accum, complete))
      dispatch(i, accum);
  };

  if (num_workers == 1) {
    // Inline serial path: the reference the parallel path must match.
    for (const auto& unit : units) run_unit(unit, &accums[0]);
  } else {
    // Deal units round-robin so every worker starts with a similar mix of
    // the grid (adjacent jobs tend to share a workload, hence a cost).
    std::vector<WorkerQueue> queues(num_workers);
    for (std::size_t u = 0; u < units.size(); ++u)
      queues[u % num_workers].units.push_back(u);

    auto worker = [&](std::size_t w) {
      std::size_t unit = 0;
      for (;;) {
        if (queues[w].pop_front(&unit)) {
          run_unit(units[unit], &accums[w]);
          continue;
        }
        // Own queue drained: steal from the back of a victim's.
        bool stole = false;
        for (std::size_t k = 1; k < num_workers && !stole; ++k) {
          const std::size_t victim = (w + k) % num_workers;
          stole = queues[victim].steal_back(&unit);
        }
        if (!stole) return;  // every queue empty — units never re-enter
        ++accums[w].steals;
        run_unit(units[unit], &accums[w]);
      }
    };

    std::vector<std::thread> pool;
    pool.reserve(num_workers);
    for (std::size_t w = 0; w < num_workers; ++w)
      pool.emplace_back(worker, w);
    for (auto& t : pool) t.join();
  }

  const auto t1 = std::chrono::steady_clock::now();
  stats_ = SweepStats{};
  stats_.jobs = jobs.size();
  stats_.threads = static_cast<unsigned>(num_workers);
  stats_.wall_seconds = std::chrono::duration<double>(t1 - t0).count();
  for (const WorkerAccum& a : accums) {
    stats_.failed_jobs += a.failed;
    stats_.total_accesses += a.accesses;
    stats_.intervals_observed += a.intervals;
    stats_.steals += a.steals;
    stats_.sources_built += a.sources;
  }
  stats_.simulated_accesses = stats_.total_accesses;
  return outcomes;
}

}  // namespace pcal
