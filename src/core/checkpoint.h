// Journaled checkpoint/resume for sweep runs.
//
// A grid sweep is hours of compute with no intermediate state: one crash
// (OOM kill, node preemption, power loss) used to throw away every
// finished job.  This module gives SweepRunner a durable journal — an
// append-only text file of completed-job outcomes that a rerun loads to
// skip work already done.  Resume is bit-identical to an uninterrupted
// run because the journal round-trips every SimResult field exactly:
// integers in decimal, doubles in C99 hexfloat (`%a`, which strtod
// restores bit for bit), strings percent-encoded.
//
// Journal layout (one record per line, space-separated tokens, each line
// ending in its own FNV-1a checksum token):
//
//   pcal-journal v1 <name> <run-fp> <jobs> <accesses> <shard-k> <shard-n> <sum>
//   J <index> <job-fp> <serialized outcome...> <sum>
//   J ...
//
// The header pins the identity of the run: a 64-bit FNV-1a fingerprint
// of the expanded cross-product (spec name, accesses, axes) plus the
// shard slice.  Every job line carries its own per-job fingerprint, so a
// journal written against one grid can never silently seed a different
// one.  Loading tolerates exactly one torn record at the tail (the
// append a crash interrupted); a corrupt line anywhere else is a
// ParseError, because it means the file was damaged, not truncated.
//
// Thread-safety: JournalWriter::on_job_complete is called concurrently
// from sweep workers and serializes appends behind a mutex; writes are
// flushed and fsync'd in batches (kFsyncBatch) and once more on close,
// so at most the last unsynced batch can be lost to a crash — and a
// resumed run simply recomputes those jobs.
#pragma once

#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "core/sweep.h"
#include "util/fingerprint.h"  // the journal's fingerprint/checksum hasher

namespace pcal {

/// Identity of one journaled run.  `shard_index`/`shard_count` describe
/// the slice this journal covers (1/1 = the whole grid).
struct JournalHeader {
  std::string name;               // spec/bench name
  std::uint64_t fingerprint = 0;  // run fingerprint (cross-product hash)
  std::uint64_t jobs = 0;         // full cross-product size (bounds indices)
  std::uint64_t accesses = 0;     // per-job accesses the grid was run at
  unsigned shard_index = 1;       // 1-based
  unsigned shard_count = 1;
};

/// One completed-job record restored from a journal.
struct JournalEntry {
  std::size_t index = 0;  // job index within the journal's slice
  std::uint64_t job_fingerprint = 0;
  SweepOutcome outcome;
};

/// A journal read back from disk.  `torn_tail` is true when the final
/// line was incomplete or corrupt and was discarded — the normal
/// signature of a crash mid-append, not an error.
struct LoadedJournal {
  JournalHeader header;
  std::vector<JournalEntry> entries;
  bool torn_tail = false;
};

/// Serializes one outcome to the journal's token form (no newline).
/// Everything a resumed run needs is captured: the full SimResult and
/// per-core results on success; the error string, attempts, and timeout
/// flag on failure.  Exact round-trip: doubles as hexfloat, strings
/// percent-encoded.
std::string serialize_outcome(const SweepOutcome& outcome);

/// Inverse of serialize_outcome.  Failed outcomes come back with a
/// synthesized Error carrying the journaled what() string, so ok() and
/// rethrow_if_error() behave as they did in the original run.
/// Throws ParseError on malformed input.
SweepOutcome deserialize_outcome(std::string_view tokens);

/// Appends completed jobs to a journal file as they finish.
///
/// Fresh mode (`append == false`) truncates the file and writes the
/// header; append mode (resume) requires the file to exist with a
/// matching header and adds to it.  `job_fingerprints` must hold one
/// fingerprint per job of the run (indexed by the job index the sink
/// receives).  Skipped and cancelled outcomes are never journaled.
class JournalWriter : public JobCompletionSink {
 public:
  JournalWriter(const std::string& path, const JournalHeader& header,
                std::vector<std::uint64_t> job_fingerprints, bool append);
  ~JournalWriter() override;

  JournalWriter(const JournalWriter&) = delete;
  JournalWriter& operator=(const JournalWriter&) = delete;

  void on_job_complete(std::size_t index,
                       const SweepOutcome& outcome) override;

  /// Flushes buffered records and fsyncs.  Called automatically every
  /// kFsyncBatch records and on destruction.
  void flush();

  /// Records between fsyncs — the crash-loss bound.
  static constexpr unsigned kFsyncBatch = 16;

 private:
  std::mutex mu_;
  std::FILE* file_ = nullptr;
  std::vector<std::uint64_t> job_fingerprints_;
  unsigned unsynced_ = 0;
};

/// Loads a journal, verifying every line's checksum.  Tolerates one
/// torn/corrupt record at the tail (discarded, `torn_tail` set); throws
/// ParseError with a `path:line N:` diagnostic for damage anywhere else,
/// a bad header, or an unreadable file.  Duplicate records for a job
/// keep the last occurrence (an append retried after a partial flush).
LoadedJournal load_journal(const std::string& path);

/// Renders a journal line for one entry (exposed for tests; the writer
/// and loader share it).
std::string render_journal_record(std::size_t index,
                                  std::uint64_t job_fingerprint,
                                  const SweepOutcome& outcome);

/// Renders the header line (exposed for tests).
std::string render_journal_header(const JournalHeader& header);

}  // namespace pcal
