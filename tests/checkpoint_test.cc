// Journaled checkpoint/resume invariants (core/checkpoint.h):
//
//   1. exact serialization: a SweepOutcome round-trips through the
//      journal token form bit for bit — every double (hexfloat), every
//      counter, the lifetime block, per-core results of multi-core
//      jobs, and failure metadata;
//   2. journal durability semantics: completed jobs written through the
//      JobCompletionSink read back verbatim; a torn final line (the
//      crash signature) is discarded and tolerated, corruption anywhere
//      else is rejected with a file:line diagnostic;
//   3. identity pinning: appending to (or resuming from) a journal of a
//      different grid/fingerprint is refused;
//   4. resume determinism — the acceptance invariant: a run that is
//      journaled partway, then resumed with the journaled jobs skipped
//      and merged back, produces outcomes bit-identical to one
//      uninterrupted run.  CMake registers this binary at the default
//      pool width plus PCAL_SWEEP_THREADS=1 and =8.
#include "core/checkpoint.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <vector>

#include "core/experiment.h"
#include "core/multicore.h"
#include "trace/synthetic.h"
#include "trace/workloads.h"
#include "util/error.h"

namespace pcal {
namespace {

constexpr std::uint64_t kAccesses = 20000;

const AgingContext& aging() {
  static AgingContext* ctx = new AgingContext();
  return *ctx;
}

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

/// A small mixed grid with the aging LUT armed, so serialized outcomes
/// exercise the lifetime block too.
std::vector<SweepJob> sample_grid() {
  std::vector<SweepJob> jobs;
  const WorkloadSpec specs[] = {
      make_mediabench_workload("cjpeg"),
      make_mediabench_workload("rijndael_i"),
      make_hotspot_workload(8192),
  };
  for (const auto& spec : specs) {
    for (std::uint64_t m : {2u, 4u, 8u}) {
      SweepJob job;
      job.config = small_config(m);
      job.make_source = [spec] {
        return std::make_unique<SyntheticTraceSource>(spec, kAccesses);
      };
      job.lut = &aging().lut();
      job.label = spec.name + " M=" + std::to_string(m);
      jobs.push_back(std::move(job));
    }
  }
  return jobs;
}

// The _serial/_mt CTest variants of this binary run concurrently out of
// the same TempDir; the pid keeps their journal files apart.
std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "/pid" + std::to_string(::getpid()) + "_" +
         name;
}

/// Serialized-form equality is the strongest exactness check available:
/// hexfloat tokens are the doubles' bit patterns, so equal strings mean
/// bit-identical structs.
void expect_roundtrip_exact(const SweepOutcome& outcome) {
  const std::string once = serialize_outcome(outcome);
  const SweepOutcome restored = deserialize_outcome(once);
  EXPECT_EQ(serialize_outcome(restored), once);
  EXPECT_EQ(restored.ok(), outcome.ok());
  EXPECT_EQ(restored.attempts, outcome.attempts);
  EXPECT_EQ(restored.intervals, outcome.intervals);
  EXPECT_EQ(restored.label, outcome.label);
}

TEST(Serialization, SuccessfulOutcomeRoundTripsExactly) {
  const std::vector<SweepJob> jobs = sample_grid();
  SweepRunner runner(1);
  const std::vector<SweepOutcome> outcomes = runner.run(jobs);
  for (const SweepOutcome& o : outcomes) {
    ASSERT_TRUE(o.ok());
    ASSERT_TRUE(o.result.lifetime.has_value());  // the LUT was armed
    expect_roundtrip_exact(o);
    const SweepOutcome restored = deserialize_outcome(serialize_outcome(o));
    // Spot-check exact doubles across the result, not just the string.
    EXPECT_EQ(restored.result.energy.partitioned.total_pj(),
              o.result.energy.partitioned.total_pj());
    EXPECT_EQ(restored.result.avg_residency(), o.result.avg_residency());
    EXPECT_EQ(restored.result.lifetime->lifetime_years,
              o.result.lifetime->lifetime_years);
    EXPECT_EQ(restored.result.accesses, o.result.accesses);
    EXPECT_EQ(restored.result.total_cycles, o.result.total_cycles);
    EXPECT_EQ(restored.result.units.size(), o.result.units.size());
  }
}

TEST(Serialization, AwkwardDoublesSurviveHexfloat) {
  SweepOutcome o;
  o.attempts = 1;
  o.result.workload = "synthetic";
  o.result.units.resize(1);
  o.result.units[0].sleep_residency = 1.0 / 3.0;
  o.result.units[0].useful_idleness_count = 0.1;
  o.result.units[0].lifetime_years = 5e-324;  // smallest denormal
  o.result.energy.partitioned.dynamic_pj = 1e300;
  o.result.energy.baseline_pj = -0.0;
  const SweepOutcome r = deserialize_outcome(serialize_outcome(o));
  EXPECT_EQ(r.result.units[0].sleep_residency, 1.0 / 3.0);
  EXPECT_EQ(r.result.units[0].useful_idleness_count, 0.1);
  EXPECT_EQ(r.result.units[0].lifetime_years, 5e-324);
  EXPECT_EQ(r.result.energy.partitioned.dynamic_pj, 1e300);
  EXPECT_EQ(std::signbit(r.result.energy.baseline_pj), true);
}

TEST(Serialization, StringsWithSpacesAndEscapesRoundTrip) {
  SweepOutcome o;
  o.attempts = 2;
  o.label = "cache_size=8192 banks=4 workload=cjpeg";
  o.result.workload = "trace:/tmp/my trace 100%.pct";
  o.result.config_label = "label with\nnewline and ~tilde";
  expect_roundtrip_exact(o);
  const SweepOutcome r = deserialize_outcome(serialize_outcome(o));
  EXPECT_EQ(r.label, o.label);
  EXPECT_EQ(r.result.workload, o.result.workload);
  EXPECT_EQ(r.result.config_label, o.result.config_label);
}

TEST(Serialization, FailedOutcomeRestoresErrorSemantics) {
  SweepOutcome o;
  o.attempts = 3;
  o.timed_out = true;
  o.label = "banks=4 workload=dijkstra";
  o.error_what = "job deadline exceeded at trace batch";
  o.error = std::make_exception_ptr(Error(o.error_what));
  const SweepOutcome r = deserialize_outcome(serialize_outcome(o));
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.timed_out);
  EXPECT_EQ(r.attempts, 3u);
  EXPECT_EQ(r.error_what, o.error_what);
  EXPECT_THROW(r.rethrow_if_error(), Error);
  try {
    r.rethrow_if_error();
  } catch (const Error& e) {
    EXPECT_EQ(std::string(e.what()), o.error_what);
  }
}

TEST(Serialization, MultiCoreOutcomeRoundTripsCores) {
  SimConfig base = paper_config(8192, 16, 4);
  LevelConfig llc = base.make_level(32 * 1024);
  llc.topology.cache.ways = 8;
  llc.topology.partition.num_banks = 4;
  llc.topology.breakeven_cycles = 64;
  const MultiCoreConfig mc = make_multicore(base, 2, llc, 4);

  SweepJob job;
  job.multicore = std::make_shared<const MultiCoreConfig>(mc);
  job.core_sources.push_back([] {
    return std::make_unique<SyntheticTraceSource>(
        make_mediabench_workload("cjpeg"), kAccesses);
  });
  job.core_sources.push_back([] {
    return std::make_unique<SyntheticTraceSource>(
        make_streaming_workload(256 * 1024), kAccesses);
  });
  job.lut = &aging().lut();
  SweepRunner runner(1);
  const std::vector<SweepOutcome> out = runner.run({job});
  ASSERT_TRUE(out[0].ok());
  ASSERT_EQ(out[0].cores.size(), 2u);
  expect_roundtrip_exact(out[0]);
  const SweepOutcome r = deserialize_outcome(serialize_outcome(out[0]));
  ASSERT_EQ(r.cores.size(), 2u);
  for (std::size_t k = 0; k < 2; ++k) {
    EXPECT_EQ(r.cores[k].workload, out[0].cores[k].workload);
    EXPECT_EQ(r.cores[k].accesses, out[0].cores[k].accesses);
    EXPECT_EQ(r.cores[k].energy.partitioned.total_pj(),
              out[0].cores[k].energy.partitioned.total_pj());
    EXPECT_EQ(r.cores[k].llc_stats.hits, out[0].cores[k].llc_stats.hits);
  }
}

TEST(Serialization, MalformedRecordsAreRejected) {
  EXPECT_THROW(deserialize_outcome(""), ParseError);
  EXPECT_THROW(deserialize_outcome("2 1 0 0 ~ ~"), ParseError);  // bad bool
  SweepOutcome o;
  o.attempts = 1;
  const std::string good = serialize_outcome(o);
  EXPECT_THROW(deserialize_outcome(good + " trailing"), ParseError);
  EXPECT_THROW(deserialize_outcome(good.substr(0, good.size() / 2)),
               ParseError);
  // A count is read only as the writer prints it: a sign must not wrap
  // attempts to 2^32 - 1 or intervals to 2^64 - 2.
  EXPECT_NO_THROW(deserialize_outcome("0 1 3 0 ~lbl ~err"));
  EXPECT_THROW(deserialize_outcome("0 -1 0 0 ~lbl ~err"), ParseError);
  EXPECT_THROW(deserialize_outcome("0 +3 -2 0 ~lbl ~err"), ParseError);
  EXPECT_THROW(deserialize_outcome("0 1 0x3 0 ~lbl ~err"), ParseError);
  // attempts is an unsigned: 2^32 + 1 must not truncate to 1.
  EXPECT_THROW(deserialize_outcome("0 4294967297 0 0 ~lbl ~err"), ParseError);
}

TEST(Fingerprint, DeterministicAndFieldSeparated) {
  Fingerprint a, b;
  a.add("abc");
  b.add("abc");
  EXPECT_EQ(a.value(), b.value());
  // Length-prefixed u64s cannot alias across field boundaries.
  Fingerprint c, d;
  c.add_u64(1);
  c.add_u64(23);
  d.add_u64(12);
  d.add_u64(3);
  EXPECT_NE(c.value(), d.value());
}

JournalHeader sample_header(std::uint64_t jobs) {
  JournalHeader h;
  h.name = "checkpoint_test";
  h.fingerprint = 0x1234abcd5678ef00ull;
  h.jobs = jobs;
  h.accesses = kAccesses;
  return h;
}

TEST(Journal, WriteThenLoadRestoresEveryRecord) {
  const std::vector<SweepJob> jobs = sample_grid();
  SweepRunner runner(1);
  const std::vector<SweepOutcome> outcomes = runner.run(jobs);

  const std::string path = temp_path("journal_roundtrip.pcalj");
  const JournalHeader header = sample_header(jobs.size());
  std::vector<std::uint64_t> fps(jobs.size());
  for (std::size_t i = 0; i < fps.size(); ++i) fps[i] = 1000 + i;
  {
    JournalWriter writer(path, header, fps, /*append=*/false);
    for (std::size_t i = 0; i < outcomes.size(); ++i)
      writer.on_job_complete(i, outcomes[i]);
  }
  const LoadedJournal loaded = load_journal(path);
  EXPECT_FALSE(loaded.torn_tail);
  EXPECT_EQ(loaded.header.name, header.name);
  EXPECT_EQ(loaded.header.fingerprint, header.fingerprint);
  EXPECT_EQ(loaded.header.jobs, header.jobs);
  EXPECT_EQ(loaded.header.accesses, header.accesses);
  ASSERT_EQ(loaded.entries.size(), outcomes.size());
  for (std::size_t i = 0; i < loaded.entries.size(); ++i) {
    EXPECT_EQ(loaded.entries[i].index, i);
    EXPECT_EQ(loaded.entries[i].job_fingerprint, fps[i]);
    EXPECT_EQ(serialize_outcome(loaded.entries[i].outcome),
              serialize_outcome(outcomes[i]));
  }
}

TEST(Journal, TornTailIsDiscardedNotFatal) {
  const std::string path = temp_path("journal_torn.pcalj");
  const JournalHeader header = sample_header(4);
  SweepOutcome ok;
  ok.attempts = 1;
  ok.result.workload = "w";
  {
    JournalWriter writer(path, header, {1, 2, 3, 4}, /*append=*/false);
    writer.on_job_complete(0, ok);
    writer.on_job_complete(1, ok);
    writer.on_job_complete(2, ok);
  }
  // Tear the final line as an interrupted append would.
  std::string contents;
  {
    std::ifstream in(path);
    std::ostringstream buf;
    buf << in.rdbuf();
    contents = buf.str();
  }
  ASSERT_FALSE(contents.empty());
  ASSERT_EQ(contents.back(), '\n');
  contents.resize(contents.size() - 25);
  {
    std::ofstream out(path, std::ios::trunc);
    out << contents;
  }
  const LoadedJournal loaded = load_journal(path);
  EXPECT_TRUE(loaded.torn_tail);
  ASSERT_EQ(loaded.entries.size(), 2u);  // jobs 0 and 1 survive
  EXPECT_EQ(loaded.entries[0].index, 0u);
  EXPECT_EQ(loaded.entries[1].index, 1u);
}

TEST(Journal, CorruptMiddleLineIsFatalWithDiagnostic) {
  const std::string path = temp_path("journal_corrupt.pcalj");
  const JournalHeader header = sample_header(4);
  SweepOutcome ok;
  ok.attempts = 1;
  {
    JournalWriter writer(path, header, {1, 2, 3, 4}, /*append=*/false);
    writer.on_job_complete(0, ok);
    writer.on_job_complete(1, ok);
    writer.on_job_complete(2, ok);
  }
  // Flip a byte in the middle record (line 3 of the file).
  std::string contents;
  {
    std::ifstream in(path);
    std::ostringstream buf;
    buf << in.rdbuf();
    contents = buf.str();
  }
  std::size_t line = 0, pos = 0;
  for (; pos < contents.size(); ++pos) {
    if (contents[pos] == '\n' && ++line == 2) break;
  }
  contents[pos + 5] = contents[pos + 5] == 'x' ? 'y' : 'x';
  {
    std::ofstream out(path, std::ios::trunc);
    out << contents;
  }
  try {
    load_journal(path);
    FAIL() << "corrupt middle line should be fatal";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find(":line 3:"), std::string::npos)
        << e.what();
  }
}

/// `payload` with the checksum the journal writer appends to each line.
std::string checksummed(const std::string& payload) {
  Fingerprint fp;
  fp.add(payload);
  char sum[17];
  std::snprintf(sum, sizeof(sum), "%016" PRIx64, fp.value());
  return payload + ' ' + sum;
}

TEST(Journal, PrefixedHexFingerprintIsRejected) {
  // The writer prints fingerprints as bare hex digits; a 0x prefix is
  // damage, even on a line whose checksum holds.
  const std::string path = temp_path("journal_0x.pcalj");
  const std::string tail = " 4 " + std::to_string(kAccesses) + " 1 1";
  std::ofstream(path, std::ios::trunc)
      << checksummed("pcal-journal v1 ~t 1234abcd5678ef00" + tail) << "\n";
  EXPECT_EQ(load_journal(path).header.fingerprint, 0x1234abcd5678ef00ull);
  std::ofstream(path, std::ios::trunc)
      << checksummed("pcal-journal v1 ~t 0x1234abcd5678ef00" + tail) << "\n";
  EXPECT_THROW(load_journal(path), ParseError);

  SweepOutcome ok;
  ok.attempts = 1;
  std::ofstream(path, std::ios::trunc)
      << render_journal_header(sample_header(4)) << "\n"
      << checksummed("J 0 0x00000000000003e8 " + serialize_outcome(ok))
      << "\n"
      << render_journal_record(1, 1001, ok) << "\n";
  EXPECT_THROW(load_journal(path), ParseError);
}

TEST(Journal, AppendRefusesMismatchedHeader) {
  const std::string path = temp_path("journal_mismatch.pcalj");
  { JournalWriter writer(path, sample_header(4), {1, 2, 3, 4}, false); }
  JournalHeader other = sample_header(4);
  other.fingerprint ^= 1;
  EXPECT_THROW(JournalWriter(path, other, {1, 2, 3, 4}, /*append=*/true),
               ParseError);
  JournalHeader shards = sample_header(4);
  shards.shard_index = 2;
  shards.shard_count = 3;
  EXPECT_THROW(JournalWriter(path, shards, {1, 2, 3, 4}, /*append=*/true),
               ParseError);
  // The matching header appends fine.
  JournalWriter ok(path, sample_header(4), {1, 2, 3, 4}, /*append=*/true);
}

// The acceptance invariant: journal partway, resume with the journaled
// jobs skipped and merged back, and the merged outcome set is
// bit-identical to an uninterrupted run — at the registered widths
// (default, PCAL_SWEEP_THREADS=1 and =8 via CMake).
TEST(Resume, MergedOutcomesMatchUninterruptedRunBitForBit) {
  const std::vector<SweepJob> jobs = sample_grid();
  SweepRunner reference_runner;  // width from env
  const std::vector<SweepOutcome> reference = reference_runner.run(jobs);
  for (const SweepOutcome& o : reference) ASSERT_TRUE(o.ok());

  const std::string path = temp_path("journal_resume.pcalj");
  const JournalHeader header = sample_header(jobs.size());
  std::vector<std::uint64_t> fps(jobs.size());
  for (std::size_t i = 0; i < fps.size(); ++i) fps[i] = 7000 + i;

  // "Crash" after journaling a scattered subset of the grid.
  const std::size_t journaled_every = 3;
  {
    JournalWriter writer(path, header, fps, /*append=*/false);
    for (std::size_t i = 0; i < reference.size(); i += journaled_every)
      writer.on_job_complete(i, reference[i]);
  }

  // Resume: skip what the journal holds, run the rest, merge.
  const LoadedJournal loaded = load_journal(path);
  std::vector<bool> skip(jobs.size(), false);
  std::vector<SweepOutcome> merged(jobs.size());
  for (const JournalEntry& entry : loaded.entries) {
    skip[entry.index] = true;
    merged[entry.index] = entry.outcome;
  }
  JournalWriter writer(path, header, fps, /*append=*/true);
  SweepRunOptions options;
  options.skip = &skip;
  options.checkpoint = &writer;
  SweepRunner resume_runner;  // same width as the reference run
  std::vector<SweepOutcome> resumed = resume_runner.run(jobs, options);
  for (std::size_t i = 0; i < resumed.size(); ++i) {
    if (resumed[i].skipped)
      resumed[i] = merged[i];
    else
      EXPECT_FALSE(skip[i]);
  }

  ASSERT_EQ(resumed.size(), reference.size());
  for (std::size_t i = 0; i < resumed.size(); ++i) {
    ASSERT_TRUE(resumed[i].ok()) << "job " << i;
    EXPECT_EQ(serialize_outcome(resumed[i]), serialize_outcome(reference[i]))
        << "job " << i;
  }

  // The journal now holds the whole grid: a second resume runs nothing.
  const LoadedJournal complete = load_journal(path);
  EXPECT_EQ(complete.entries.size(), jobs.size());
}

TEST(Resume, SkippedJobsDoNotRun) {
  const std::vector<SweepJob> jobs = sample_grid();
  std::vector<bool> skip(jobs.size(), false);
  skip[0] = skip[2] = true;
  SweepRunOptions options;
  options.skip = &skip;
  SweepRunner runner(1);
  const std::vector<SweepOutcome> outcomes = runner.run(jobs, options);
  EXPECT_TRUE(outcomes[0].skipped);
  EXPECT_TRUE(outcomes[2].skipped);
  EXPECT_EQ(outcomes[0].attempts, 0u);
  EXPECT_FALSE(outcomes[1].skipped);
  EXPECT_TRUE(outcomes[1].ok());
  // Skipped jobs contribute nothing to the stats.
  EXPECT_EQ(runner.last_stats().total_accesses,
            outcomes[1].result.accesses * (jobs.size() - 2));
}

}  // namespace
}  // namespace pcal
