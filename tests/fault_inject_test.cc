// Fault-injection harness + JobPolicy fault-isolation invariants
// (trace/fault_inject.h, core/sweep.h):
//
//   1. PCAL_FAULT_INJECT spec parsing — accepted modes, rejected
//      garbage;
//   2. the fault actually fires at the configured access, on the batch
//      path too;
//   3. a failing job fails alone: its outcome carries its label and
//      reason, and the rest of the grid completes;
//   4. timeout-then-skip: an injected hang trips the cooperative
//      deadline, the job records timed_out and the rest of the grid
//      completes;
//   5. abort policy: the first failure cancels not-yet-started jobs
//      with `cancelled` outcomes;
//   6. arm_fault takes its job out of a lockstep cohort.
//
// CMake registers this binary at the default pool width plus
// PCAL_SWEEP_THREADS=1 and =8 — fault isolation must not depend on
// which worker hits the fault.
#include "trace/fault_inject.h"

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <vector>

#include "core/experiment.h"
#include "core/grid_spec.h"
#include "trace/synthetic.h"
#include "trace/workloads.h"
#include "util/error.h"

namespace pcal {
namespace {

constexpr std::uint64_t kAccesses = 20000;

SimConfig small_config(std::uint64_t banks) {
  SimConfig cfg;
  cfg.granularity = Granularity::kBank;
  cfg.cache.size_bytes = 8192;
  cfg.cache.line_bytes = 16;
  cfg.cache.ways = 1;
  cfg.partition.num_banks = banks;
  cfg.indexing = IndexingKind::kProbing;
  cfg.reindex_updates = 8;
  return cfg;
}

TraceSourceFactory plain_factory(const std::string& workload = "cjpeg",
                                 std::uint64_t accesses = kAccesses) {
  const WorkloadSpec spec = make_mediabench_workload(workload);
  return [spec, accesses] {
    return std::make_unique<SyntheticTraceSource>(spec, accesses);
  };
}

SweepJob make_job(std::uint64_t banks, TraceSourceFactory factory) {
  SweepJob job;
  job.config = small_config(banks);
  job.make_source = std::move(factory);
  job.label = "banks=" + std::to_string(banks);
  return job;
}

std::vector<SweepJob> grid_with_fault(const FaultSpec& spec,
                                      std::size_t n_jobs = 6,
                                      std::uint64_t accesses = kAccesses) {
  std::vector<SweepJob> jobs;
  for (std::size_t i = 0; i < n_jobs; ++i) {
    TraceSourceFactory factory = plain_factory("cjpeg", accesses);
    if (i == spec.job) factory = wrap_with_fault(std::move(factory), spec);
    jobs.push_back(make_job(1u << (1 + i % 3), std::move(factory)));
  }
  return jobs;
}

TEST(FaultSpecParsing, AcceptsEveryMode) {
  const FaultSpec a = parse_fault_spec("job=3:access=1000:mode=throw");
  EXPECT_EQ(a.job, 3u);
  EXPECT_EQ(a.at_access, 1000u);
  EXPECT_EQ(a.mode, FaultMode::kThrow);

  EXPECT_EQ(parse_fault_spec("job=1:access=2:mode=hang").mode,
            FaultMode::kHang);
  EXPECT_EQ(parse_fault_spec("job=1:access=2:mode=exit").mode,
            FaultMode::kExit);
}

TEST(FaultSpecParsing, RejectsMalformedSpecs) {
  EXPECT_THROW(parse_fault_spec(""), ParseError);
  EXPECT_THROW(parse_fault_spec("job=1"), ParseError);               // no mode
  EXPECT_THROW(parse_fault_spec("job=1:mode=throw"), ParseError);    // no access
  EXPECT_THROW(parse_fault_spec("access=1:mode=throw"), ParseError); // no job
  EXPECT_THROW(parse_fault_spec("job=1:access=2:mode=nope"), ParseError);
  EXPECT_THROW(parse_fault_spec("job=x:access=2:mode=throw"), ParseError);
  // A sign is not a count: job=-1 must not wrap to job 2^64 - 1.
  EXPECT_THROW(parse_fault_spec("job=-1:access=0:mode=throw"), ParseError);
  EXPECT_THROW(parse_fault_spec("job=1:access=+2:mode=throw"), ParseError);
  EXPECT_THROW(parse_fault_spec("job=1:access=2:mode=throw:bogus=3"),
               ParseError);
  // Nothing retries a failed job, so no mode or key shapes a retry.
  EXPECT_THROW(parse_fault_spec("job=1:access=2:mode=transient"), ParseError);
  EXPECT_THROW(parse_fault_spec("job=1:access=2:mode=throw:times=2"),
               ParseError);
}

TEST(FaultSource, FiresAtTheConfiguredAccess) {
  FaultSpec spec;
  spec.job = 0;
  spec.at_access = 100;
  spec.mode = FaultMode::kThrow;
  TraceSourceFactory factory = wrap_with_fault(plain_factory(), spec);
  std::unique_ptr<TraceSource> source = factory();
  // The first 100 accesses stream through untouched, including via the
  // batch path (the wrapper clamps batches so the fault cannot be
  // overshot).
  MemAccess buf[64];
  std::uint64_t produced = 0;
  try {
    while (true) {
      const std::size_t got = source->next_batch(buf, 64);
      if (got == 0) break;
      produced += got;
    }
    FAIL() << "fault never fired";
  } catch (const Error&) {
    EXPECT_EQ(produced, 100u);
  }
}

TEST(JobPolicy, InjectedHangTripsTheDeadline) {
  // Every other job must finish inside the wall-clock deadline, so each
  // is sized far below it: at 2000 accesses a job takes about 5 ms under
  // a gcc ASan/UBSan Debug build (17 ms at worst of 30 runs), against
  // about 40 ms at 20000 accesses, which a loaded host stretched past
  // 200 ms.
  FaultSpec spec;
  spec.job = 1;
  spec.at_access = 1000;
  spec.mode = FaultMode::kHang;
  std::vector<SweepJob> jobs = grid_with_fault(spec, 4, 2000);
  SweepRunOptions options;
  options.policy.deadline_ms = 200;
  SweepRunner runner;
  const std::vector<SweepOutcome> outcomes = runner.run(jobs, options);
  EXPECT_FALSE(outcomes[spec.job].ok());
  EXPECT_TRUE(outcomes[spec.job].timed_out);
  EXPECT_THROW(outcomes[spec.job].rethrow_if_error(), JobTimeoutError);
  for (std::size_t i = 0; i < outcomes.size(); ++i)
    if (i != spec.job) {
      EXPECT_TRUE(outcomes[i].ok()) << i;
      EXPECT_FALSE(outcomes[i].timed_out) << i;
    }
}

TEST(JobPolicy, AbortCancelsUnstartedJobs) {
  FaultSpec spec;
  spec.job = 0;
  spec.at_access = 10;
  spec.mode = FaultMode::kThrow;
  std::vector<SweepJob> jobs = grid_with_fault(spec, 8);
  SweepRunOptions options;
  options.policy.abort_on_failure = true;
  // Serial runner: job 0 fails immediately, so jobs 1..7 must all be
  // cancelled (with a pool some may already be in flight — the serial
  // registration pins the strongest form of the invariant).
  SweepRunner runner(1);
  const std::vector<SweepOutcome> outcomes = runner.run(jobs, options);
  EXPECT_FALSE(outcomes[0].ok());
  EXPECT_FALSE(outcomes[0].cancelled);
  std::size_t cancelled = 0;
  for (std::size_t i = 1; i < outcomes.size(); ++i) {
    EXPECT_FALSE(outcomes[i].ok()) << i;
    if (outcomes[i].cancelled) ++cancelled;
  }
  EXPECT_EQ(cancelled, outcomes.size() - 1);
  EXPECT_EQ(runner.last_stats().failed_jobs, outcomes.size());
}

TEST(JobPolicy, FailureCarriesLabelAndWhatString) {
  FaultSpec spec;
  spec.job = 1;
  spec.at_access = 10;
  spec.mode = FaultMode::kThrow;
  std::vector<SweepJob> jobs = grid_with_fault(spec, 3);
  SweepRunner runner;
  const std::vector<SweepOutcome> outcomes = runner.run(jobs);
  EXPECT_FALSE(outcomes[1].ok());
  EXPECT_EQ(outcomes[1].label, "banks=4");
  EXPECT_NE(outcomes[1].error_what.find("injected"), std::string::npos)
      << outcomes[1].error_what;
}

TEST(FaultIsolation, InjectedJobOfAKeyedGridRunsSolo) {
  // GridSpec keys every point by its workload, so the grid runs as
  // lockstep cohorts.  arm_fault must take its job out of its cohort:
  // exactly that job fails, with the error, label and attempt count of
  // the same fault in an all-solo run.
  std::istringstream text(R"([grid]
name = keyed
accesses = 20000
[sweep]
cache_size = 8192, 16384
banks = 2, 4, 8, 16
workload = cjpeg, sha
)");
  const GridSpec spec = GridSpec::parse(text);
  const std::vector<GridJob> points = spec.expand();
  for (const std::uint64_t target : {0u, 6u, 13u}) {
    FaultSpec fault;
    fault.job = target;
    fault.at_access = 5000;
    fault.mode = FaultMode::kThrow;
    const auto grid = [&](bool keyed) {
      std::vector<SweepJob> jobs;
      for (std::size_t i = 0; i < points.size(); ++i) {
        SweepJob job = spec.sweep_job(points[i], nullptr);
        if (!keyed) job.shared_source.clear();
        if (i == fault.job) arm_fault(job, fault);
        jobs.push_back(std::move(job));
      }
      return jobs;
    };
    const std::vector<SweepOutcome> solo = SweepRunner(1).run(grid(false));
    for (unsigned threads : {1u, 2u, 0u}) {
      SCOPED_TRACE("job " + std::to_string(target) + " threads " +
                   std::to_string(threads));
      SweepRunner runner(threads);
      const std::vector<SweepOutcome> got = runner.run(grid(true));
      ASSERT_EQ(got.size(), solo.size());
      for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].ok(), solo[i].ok()) << i;
        EXPECT_EQ(got[i].error_what, solo[i].error_what) << i;
        EXPECT_EQ(got[i].label, solo[i].label) << i;
        EXPECT_EQ(got[i].attempts, solo[i].attempts) << i;
        EXPECT_EQ(got[i].result.accesses, solo[i].result.accesses) << i;
      }
      EXPECT_FALSE(got[target].ok());
      EXPECT_EQ(runner.last_stats().failed_jobs, 1u);
    }
  }
}

}  // namespace
}  // namespace pcal
