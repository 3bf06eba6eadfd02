#include "core/sweep.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/checkpoint.h"
#include "core/grid_spec.h"
#include "trace/binary_trace.h"
#include "trace/synthetic.h"
#include "trace/workloads.h"
#include "util/error.h"
#include "util/job_context.h"

namespace pcal {
namespace {

constexpr std::uint64_t kAccesses = 30000;

SimConfig small_config(std::uint64_t banks, IndexingKind indexing) {
  SimConfig cfg;
  cfg.granularity = Granularity::kBank;
  cfg.cache.size_bytes = 8192;
  cfg.cache.line_bytes = 16;
  cfg.cache.ways = 1;
  cfg.partition.num_banks = banks;
  cfg.indexing = indexing;
  cfg.reindex_updates = 8;
  return cfg;
}

SweepJob make_job(const WorkloadSpec& spec, const SimConfig& config) {
  SweepJob job;
  job.config = config;
  job.make_source = [spec] {
    return std::make_unique<SyntheticTraceSource>(spec, kAccesses);
  };
  return job;
}

/// A representative mixed grid: several workloads x topologies, including
/// a monolithic and a line-grain config.
std::vector<SweepJob> sample_grid() {
  std::vector<SweepJob> jobs;
  const WorkloadSpec specs[] = {
      make_mediabench_workload("cjpeg"),
      make_mediabench_workload("rijndael_i"),
      make_hotspot_workload(8192),
      make_streaming_workload(16384),
  };
  for (const auto& spec : specs) {
    for (std::uint64_t m : {2u, 4u, 8u}) {
      jobs.push_back(make_job(spec, small_config(m, IndexingKind::kProbing)));
      jobs.push_back(make_job(spec, small_config(m, IndexingKind::kStatic)));
    }
    jobs.push_back(
        make_job(spec, monolithic_variant(small_config(4, IndexingKind::kStatic))));
    jobs.push_back(
        make_job(spec, line_grain_variant(small_config(4, IndexingKind::kProbing))));
  }
  return jobs;
}

/// Field-by-field equality of two SimResults.  Exact double comparison is
/// intentional: the determinism guarantee is bit-identical results.
void expect_identical(const SimResult& a, const SimResult& b,
                      const std::string& label) {
  SCOPED_TRACE(label);
  EXPECT_EQ(a.workload, b.workload);
  EXPECT_EQ(a.config_label, b.config_label);
  EXPECT_EQ(a.granularity, b.granularity);
  EXPECT_EQ(a.accesses, b.accesses);
  EXPECT_EQ(a.breakeven_cycles, b.breakeven_cycles);
  EXPECT_EQ(a.reindex_updates_applied, b.reindex_updates_applied);
  EXPECT_EQ(a.cache_stats.accesses, b.cache_stats.accesses);
  EXPECT_EQ(a.cache_stats.hits, b.cache_stats.hits);
  EXPECT_EQ(a.cache_stats.misses, b.cache_stats.misses);
  EXPECT_EQ(a.cache_stats.writebacks, b.cache_stats.writebacks);
  EXPECT_EQ(a.cache_stats.flushes, b.cache_stats.flushes);
  EXPECT_EQ(a.cache_stats.flushed_dirty, b.cache_stats.flushed_dirty);
  ASSERT_EQ(a.units.size(), b.units.size());
  for (std::size_t u = 0; u < a.units.size(); ++u) {
    EXPECT_EQ(a.units[u].accesses, b.units[u].accesses);
    EXPECT_EQ(a.units[u].sleep_cycles, b.units[u].sleep_cycles);
    EXPECT_EQ(a.units[u].sleep_residency, b.units[u].sleep_residency);
    EXPECT_EQ(a.units[u].useful_idleness_count,
              b.units[u].useful_idleness_count);
    EXPECT_EQ(a.units[u].sleep_episodes, b.units[u].sleep_episodes);
    EXPECT_EQ(a.units[u].lifetime_years, b.units[u].lifetime_years);
  }
  EXPECT_EQ(a.energy.baseline_pj, b.energy.baseline_pj);
  EXPECT_EQ(a.energy.partitioned.dynamic_pj, b.energy.partitioned.dynamic_pj);
  EXPECT_EQ(a.energy.partitioned.leakage_active_pj,
            b.energy.partitioned.leakage_active_pj);
  EXPECT_EQ(a.energy.partitioned.leakage_retention_pj,
            b.energy.partitioned.leakage_retention_pj);
  EXPECT_EQ(a.energy.partitioned.transition_pj,
            b.energy.partitioned.transition_pj);
  EXPECT_EQ(a.lifetime.has_value(), b.lifetime.has_value());
  if (a.lifetime && b.lifetime) {
    EXPECT_EQ(a.lifetime->lifetime_years, b.lifetime->lifetime_years);
    EXPECT_EQ(a.lifetime->limiting_bank, b.lifetime->limiting_bank);
  }
}

TEST(SweepRunner, ParallelMatchesSerialAtEveryThreadCount) {
  const std::vector<SweepJob> jobs = sample_grid();
  SweepRunner serial(1);
  const std::vector<SweepOutcome> reference = serial.run(jobs);
  ASSERT_EQ(reference.size(), jobs.size());
  for (const auto& o : reference) ASSERT_TRUE(o.ok());
  EXPECT_EQ(serial.last_stats().jobs, jobs.size());
  EXPECT_EQ(serial.last_stats().threads, 1u);

  for (unsigned threads : {2u, 8u}) {
    SweepRunner parallel(threads);
    const std::vector<SweepOutcome> got = parallel.run(jobs);
    ASSERT_EQ(got.size(), reference.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      ASSERT_TRUE(got[i].ok()) << "job " << i;
      expect_identical(got[i].result, reference[i].result,
                       "threads=" + std::to_string(threads) + " job " +
                           std::to_string(i));
    }
    EXPECT_EQ(parallel.last_stats().total_accesses,
              serial.last_stats().total_accesses);
  }
}

TEST(SweepRunner, ExceptionInOneJobDoesNotPoisonThePool) {
  std::vector<SweepJob> jobs = sample_grid();
  // Poison two jobs in the middle: one whose factory throws, one whose
  // config fails validation inside the worker.
  const std::size_t bad_factory = jobs.size() / 3;
  const std::size_t bad_config = 2 * jobs.size() / 3;
  jobs[bad_factory].make_source = []() -> std::unique_ptr<TraceSource> {
    throw std::runtime_error("factory exploded");
  };
  jobs[bad_config].config.cache.size_bytes = 12345;  // not a power of two

  for (unsigned threads : {1u, 4u}) {
    SweepRunner runner(threads);
    const std::vector<SweepOutcome> got = runner.run(jobs);
    ASSERT_EQ(got.size(), jobs.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      if (i == bad_factory || i == bad_config) {
        EXPECT_FALSE(got[i].ok()) << "job " << i;
        EXPECT_THROW(got[i].rethrow_if_error(), std::exception);
      } else {
        EXPECT_TRUE(got[i].ok()) << "job " << i;
        EXPECT_GT(got[i].result.accesses, 0u);
      }
    }
    EXPECT_EQ(runner.last_stats().failed_jobs, 2u);
  }
}

TEST(SweepRunner, ObserversStreamOnWorkerThreads) {
  // Per-job observers fire (final snapshot at minimum) and the streamed
  // interval count lands in the merged stats.
  std::vector<SweepJob> jobs;
  std::vector<int> final_snapshots(4, 0);
  for (int i = 0; i < 4; ++i) {
    SweepJob job = make_job(make_mediabench_workload("cjpeg"),
                            small_config(4, IndexingKind::kProbing));
    int* slot = &final_snapshots[static_cast<std::size_t>(i)];
    job.observer = [slot](const IntervalSnapshot& snap) {
      if (snap.final_snapshot) ++*slot;
    };
    jobs.push_back(std::move(job));
  }
  SweepRunner runner(2);
  const auto got = runner.run(jobs);
  for (const auto& o : got) ASSERT_TRUE(o.ok());
  for (int count : final_snapshots) EXPECT_EQ(count, 1);
  EXPECT_GE(runner.last_stats().intervals_observed, 4u);
}

TEST(SweepRunner, HandlesEdgeShapes) {
  SweepRunner runner(8);
  // Zero jobs.
  EXPECT_TRUE(runner.run({}).empty());
  EXPECT_EQ(runner.last_stats().jobs, 0u);
  // More threads than jobs.
  std::vector<SweepJob> one;
  one.push_back(make_job(make_mediabench_workload("cjpeg"),
                         small_config(4, IndexingKind::kProbing)));
  const auto got = runner.run(one);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_TRUE(got[0].ok());
  EXPECT_EQ(runner.last_stats().threads, 1u);  // clamped to job count
}

// ---- lockstep cohorts --------------------------------------------------

/// The three streams the cohort grid shares: a synthetic MediaBench
/// trace, a multiprogrammed source with a quantum, and a .pct replay.
std::vector<std::string> cohort_workloads(const std::string& pct) {
  return {"cjpeg", "multiprog:cjpeg+sha@7000", "trace:" + pct};
}

/// One config per engine path a cohort member can take: bank, way, line
/// and drowsy-hybrid backends, an L2 level, contention, the forced
/// per-access loop, and a timed batched member whose clock runs ahead
/// of its untimed cohort mates on the same geometry.
std::vector<SimConfig> cohort_configs() {
  const SimConfig base = small_config(4, IndexingKind::kProbing);
  SimConfig way = way_grain_variant(base);
  way.cache.ways = 2;
  SimConfig contended = base;
  contended.contention.mshrs = 2;
  contended.latency.miss_cycles = 8;
  SimConfig scalar = base;
  scalar.force_scalar_loop = true;
  SimConfig timed = base;
  timed.latency.hit_cycles = 1;
  timed.latency.miss_cycles = 6;
  timed.latency.gated_wake_cycles = 3;
  return {base,
          way,
          line_grain_variant(base),
          drowsy_hybrid_variant(base, 64),
          two_level_variant(base, 32768),
          contended,
          scalar,
          small_config(8, IndexingKind::kScrambling),
          timed};
}

/// One observer call in text: the boundary, the clock, the update
/// count, the CPU-facing stats and every group's stats and unit states.
std::string describe_snapshot(const IntervalSnapshot& s) {
  std::ostringstream os;
  const auto stats = [&os](const CacheStats& c) {
    os << " [" << c.accesses << ' ' << c.hits << ' ' << c.misses << ' '
       << c.writebacks << ' ' << c.flushes << ' ' << c.flushed_dirty << ']';
  };
  os << s.interval << ' ' << s.cycles << ' ' << s.updates_applied << ' '
     << s.fired_update << s.final_snapshot << s.context_switch << ' '
     << s.accesses << ' ' << s.stall_cycles;
  stats(*s.stats);
  for (const UnitGroupStates& g : *s.groups) {
    os << " g" << g.core << '/' << g.level << '/' << g.first_unit << '/'
       << g.units << ':' << g.awake << '/' << g.drowsy << '/' << g.gated;
    stats(g.stats);
  }
  os << ' ';
  for (const UnitPowerState u : *s.unit_states) os << to_char(u);
  os << '\n';
  return os.str();
}

/// The cohort grid, workload innermost (as in table4, so a cohort's
/// members are not adjacent jobs).  `snapshots` receives, per job, the
/// text of every user-observer call (describe_snapshot).  Keyless jobs
/// are the solo oracle.
std::vector<SweepJob> cohort_grid(const std::string& pct, bool keyed,
                                  std::vector<std::string>* snapshots) {
  const std::vector<SimConfig> configs = cohort_configs();
  const std::vector<std::string> workloads = cohort_workloads(pct);
  std::vector<SweepJob> jobs;
  snapshots->assign(configs.size() * workloads.size(), "");
  for (std::size_t c = 0; c < configs.size(); ++c) {
    for (const std::string& w : workloads) {
      SweepJob job;
      job.config = configs[c];
      job.make_source = make_workload_factory(w, kAccesses, 64 * 1024);
      if (keyed) job.shared_source = w;
      job.label = "config=" + std::to_string(c) + " workload=" + w;
      std::string* slot = &(*snapshots)[jobs.size()];
      job.observer = [slot](const IntervalSnapshot& s) {
        *slot += describe_snapshot(s);
      };
      jobs.push_back(std::move(job));
    }
  }
  return jobs;
}

/// A .pct trace on disk for the duration of one test (per-process name:
/// the _serial and _mt registrations run concurrently).
class PctFile {
 public:
  PctFile()
      : path_(::testing::TempDir() + "sweep_test_" +
              std::to_string(::getpid()) + ".pct") {
    SyntheticTraceSource source(make_mediabench_workload("sha"), kAccesses);
    write_pct_stream(source, path_);
  }
  ~PctFile() { std::remove(path_.c_str()); }
  PctFile(const PctFile&) = delete;
  PctFile& operator=(const PctFile&) = delete;
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// Every field of two outcomes, bit for bit: the journal serialization
/// carries the full SimResult (doubles as hexfloat) plus attempts,
/// interval count, label and error string.
void expect_same_outcome(const SweepOutcome& got, const SweepOutcome& want,
                         const std::string& what) {
  EXPECT_EQ(serialize_outcome(got), serialize_outcome(want)) << what;
  EXPECT_EQ(got.timed_out, want.timed_out) << what;
  EXPECT_EQ(got.cancelled, want.cancelled) << what;
  EXPECT_EQ(got.skipped, want.skipped) << what;
}

/// Sources one run builds when each key's `members` jobs form cohorts
/// of at most runnable / workers members.
std::uint64_t cohort_sources(std::size_t keys, std::size_t members,
                             std::size_t threads) {
  const std::size_t runnable = keys * members;
  const std::size_t cap =
      std::max<std::size_t>(1, runnable / std::min(threads, runnable));
  return keys * ((members + cap - 1) / cap);
}

TEST(SweepCohorts, MatchKeylessSoloRunsBitForBit) {
  const PctFile pct;
  std::vector<std::string> solo_snapshots;
  const std::vector<SweepJob> solo_jobs =
      cohort_grid(pct.path(), false, &solo_snapshots);
  SweepRunner serial(1);
  const std::vector<SweepOutcome> reference = serial.run(solo_jobs);
  for (const SweepOutcome& o : reference) ASSERT_TRUE(o.ok()) << o.error_what;
  EXPECT_EQ(serial.last_stats().sources_built, solo_jobs.size());

  for (unsigned threads : {1u, 2u, 8u}) {
    const std::string at = "threads=" + std::to_string(threads);
    std::vector<std::string> snapshots;
    const std::vector<SweepJob> jobs =
        cohort_grid(pct.path(), true, &snapshots);
    SweepRunner runner(threads);
    const std::vector<SweepOutcome> got = runner.run(jobs);
    ASSERT_EQ(got.size(), reference.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      expect_same_outcome(got[i], reference[i],
                          at + " job " + std::to_string(i));
      EXPECT_EQ(snapshots[i], solo_snapshots[i]) << at << " job " << i;
      EXPECT_FALSE(snapshots[i].empty());
    }
    const SweepStats& stats = runner.last_stats();
    EXPECT_EQ(stats.sources_built,
              cohort_sources(3, cohort_configs().size(), threads))
        << at;
    EXPECT_EQ(stats.total_accesses, serial.last_stats().total_accesses);
    EXPECT_EQ(stats.intervals_observed,
              serial.last_stats().intervals_observed);
    EXPECT_EQ(stats.failed_jobs, 0u);
  }
}

/// Records every checkpoint call (from any worker).
class RecordingSink final : public JobCompletionSink {
 public:
  void on_job_complete(std::size_t index,
                       const SweepOutcome& outcome) override {
    std::lock_guard<std::mutex> lock(mu_);
    calls_.push_back({index, serialize_outcome(outcome)});
  }
  std::vector<std::pair<std::size_t, std::string>> calls() const {
    std::lock_guard<std::mutex> lock(mu_);
    return calls_;
  }

 private:
  mutable std::mutex mu_;
  std::vector<std::pair<std::size_t, std::string>> calls_;
};

TEST(SweepCohorts, InvalidMemberSkipMaskAndCheckpointSink) {
  const PctFile pct;
  std::vector<std::string> snapshots;
  std::vector<SweepJob> solo_jobs =
      cohort_grid(pct.path(), false, &snapshots);
  // Job 4 (config 1 = way grain, second workload) fails validation.
  const std::size_t bad = 4;
  solo_jobs[bad].config.cache.size_bytes = 12345;
  const std::vector<SweepOutcome> reference = SweepRunner(1).run(solo_jobs);
  ASSERT_FALSE(reference[bad].ok());

  std::vector<bool> skip(solo_jobs.size(), false);
  for (std::size_t i = 0; i < skip.size(); i += 5) skip[i] = true;
  ASSERT_FALSE(skip[bad]);

  for (unsigned threads : {1u, 2u, 8u}) {
    const std::string at = "threads=" + std::to_string(threads);
    std::vector<SweepJob> jobs = cohort_grid(pct.path(), true, &snapshots);
    jobs[bad].config.cache.size_bytes = 12345;
    RecordingSink sink;
    SweepRunOptions options;
    options.checkpoint = &sink;
    options.skip = &skip;
    SweepRunner runner(threads);
    const std::vector<SweepOutcome> got = runner.run(jobs, options);

    std::size_t runnable = 0;
    for (std::size_t i = 0; i < got.size(); ++i) {
      if (skip[i]) {
        // Skipped jobs never join a cohort: the slot is untouched.
        EXPECT_TRUE(got[i].skipped) << at << " job " << i;
        EXPECT_EQ(got[i].attempts, 0u);
        EXPECT_EQ(got[i].result.accesses, 0u);
        continue;
      }
      ++runnable;
      expect_same_outcome(got[i], reference[i],
                          at + " job " + std::to_string(i));
    }
    EXPECT_FALSE(got[bad].ok());
    EXPECT_EQ(got[bad].error_what, reference[bad].error_what);
    EXPECT_EQ(runner.last_stats().failed_jobs, 1u);

    // The sink hears every runnable job exactly once, with its final
    // outcome.
    std::vector<int> heard(jobs.size(), 0);
    for (const auto& [index, text] : sink.calls()) {
      ASSERT_LT(index, jobs.size());
      ++heard[index];
      EXPECT_EQ(text, serialize_outcome(got[index])) << at;
    }
    for (std::size_t i = 0; i < jobs.size(); ++i)
      EXPECT_EQ(heard[i], skip[i] ? 0 : 1) << at << " job " << i;
    EXPECT_EQ(sink.calls().size(), runnable);
  }
}

TEST(SweepCohorts, AbortCancelsCohortsThatHaveNotStarted) {
  const PctFile pct;
  std::vector<std::string> snapshots;
  std::vector<SweepJob> jobs = cohort_grid(pct.path(), true, &snapshots);
  // Job 1 sits in the second cohort (workload 1); at one worker the
  // cohorts run in order of their first job, so the first two run and
  // the third (workload 2) has not started when job 1 fails.
  jobs[1].config.cache.size_bytes = 12345;
  SweepRunOptions options;
  options.policy.abort_on_failure = true;
  SweepRunner runner(1);
  const std::vector<SweepOutcome> got = runner.run(jobs, options);
  for (std::size_t i = 0; i < got.size(); ++i) {
    const std::string at = "job " + std::to_string(i);
    if (i == 1) {
      EXPECT_FALSE(got[i].ok()) << at;
      EXPECT_FALSE(got[i].cancelled) << at;
      EXPECT_EQ(got[i].attempts, 1u) << at;
    } else if (i % 3 == 2) {
      EXPECT_TRUE(got[i].cancelled) << at;
      EXPECT_EQ(got[i].attempts, 0u) << at;
    } else {
      EXPECT_TRUE(got[i].ok()) << at << ": " << got[i].error_what;
    }
  }
  EXPECT_EQ(runner.last_stats().failed_jobs, 1u + jobs.size() / 3);
}

TEST(SweepCohorts, AnyOtherExceptionRerunsMembersSolo) {
  // The shared source's factory fails once: the cohort gives up and its
  // members re-run solo — and still match the keyless reference,
  // attempts included.
  const PctFile pct;
  std::vector<std::string> snapshots;
  const std::vector<SweepOutcome> reference =
      SweepRunner(1).run(cohort_grid(pct.path(), false, &snapshots));
  for (unsigned threads : {1u, 2u}) {
    std::vector<SweepJob> jobs = cohort_grid(pct.path(), true, &snapshots);
    auto failures = std::make_shared<std::atomic<int>>(1);
    for (std::size_t i = 0; i < jobs.size(); i += 3) {
      TraceSourceFactory inner = jobs[i].make_source;
      jobs[i].make_source = [inner, failures] {
        if (failures->fetch_sub(1) > 0)
          throw std::runtime_error("source unavailable");
        return inner();
      };
    }
    SweepRunner runner(threads);
    const std::vector<SweepOutcome> got = runner.run(jobs);
    for (std::size_t i = 0; i < got.size(); ++i)
      expect_same_outcome(got[i], reference[i],
                          "threads=" + std::to_string(threads) + " job " +
                              std::to_string(i));
    EXPECT_EQ(runner.last_stats().failed_jobs, 0u);
  }
}

TEST(SweepCohorts, DeadlineCoversTheCohortAndIsNeverRetried) {
  // One cohort of K = 9 members (the cjpeg jobs) at one worker; member 1
  // stalls in its observer until the deadline passes.  The deadline is
  // K x deadline_ms, and on expiry every unfinished member times out
  // after its one run.
  const PctFile pct;
  std::vector<std::string> snapshots;
  std::vector<SweepJob> jobs;
  for (SweepJob& job : cohort_grid(pct.path(), true, &snapshots))
    if (job.shared_source == "cjpeg") jobs.push_back(std::move(job));
  ASSERT_EQ(jobs.size(), 9u);
  const auto t0 = std::chrono::steady_clock::now();
  auto stalled_ms = std::make_shared<std::atomic<long>>(-1);
  jobs[1].observer = [t0, stalled_ms](const IntervalSnapshot&) {
    const auto give_up = t0 + std::chrono::seconds(30);
    while (!job_deadline_exceeded() &&
           std::chrono::steady_clock::now() < give_up)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    stalled_ms->store(static_cast<long>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - t0)
            .count()));
  };
  SweepRunOptions options;
  options.policy.deadline_ms = 50;
  SweepRunner runner(1);
  const std::vector<SweepOutcome> got = runner.run(jobs, options);
  EXPECT_GE(stalled_ms->load(), 9 * 50);
  for (std::size_t i = 0; i < got.size(); ++i) {
    const std::string at = "job " + std::to_string(i);
    EXPECT_TRUE(got[i].timed_out) << at;
    EXPECT_FALSE(got[i].ok()) << at;
    EXPECT_EQ(got[i].attempts, 1u) << at;
    EXPECT_NE(got[i].error_what.find("deadline"), std::string::npos)
        << got[i].error_what;
  }
  EXPECT_EQ(runner.last_stats().failed_jobs, jobs.size());
  EXPECT_EQ(runner.last_stats().sources_built, 1u);
}

TEST(SweepCohorts, Table4GridBuildsOneSourcePerTrace) {
  std::istringstream spec_text(R"([grid]
name = table4_shape
accesses = 3000
[sweep]
cache_size = 8192, 16384, 32768
line_size = 16
banks = 2..16 log2
workload = mediabench
)");
  const GridSpec spec = GridSpec::parse(spec_text);
  std::vector<SweepJob> jobs;
  for (const GridJob& job : spec.expand())
    jobs.push_back(spec.sweep_job(job, nullptr));
  ASSERT_EQ(jobs.size(), 216u);
  SweepRunner runner(2);
  for (const SweepOutcome& o : runner.run(jobs)) ASSERT_TRUE(o.ok());
  EXPECT_EQ(runner.last_stats().sources_built, 18u);
  EXPECT_EQ(runner.last_stats().threads, 2u);
}

TEST(SweepCohorts, OneStreamGridStillFillsEveryWorker) {
  std::vector<SweepJob> jobs;
  for (std::uint64_t i = 0; i < 40; ++i) {
    SimConfig config = small_config(2u << (i % 3), IndexingKind::kProbing);
    config.indexing_seed = 1 + i;
    SweepJob job = make_job(make_mediabench_workload("cjpeg"), config);
    job.shared_source = "cjpeg";
    jobs.push_back(std::move(job));
  }
  SweepRunner runner(8);
  for (const SweepOutcome& o : runner.run(jobs)) ASSERT_TRUE(o.ok());
  EXPECT_EQ(runner.last_stats().threads, 8u);
  EXPECT_GE(runner.last_stats().sources_built, 8u);
}

TEST(SweepRunner, DefaultThreadsHonorsEnvOverride) {
  // CTest registers sweep_test_serial / sweep_test_mt with
  // PCAL_SWEEP_THREADS=1 / 8; default-constructed runners must follow.
  SweepRunner runner;
  if (const char* env = std::getenv("PCAL_SWEEP_THREADS")) {
    EXPECT_EQ(std::to_string(runner.num_threads()), env);
  } else {
    EXPECT_GE(runner.num_threads(), 1u);
  }
}

}  // namespace
}  // namespace pcal
