#include "core/checkpoint.h"

#include <algorithm>
#include <charconv>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <utility>

#include "core/enum_strings.h"
#include "util/error.h"
#include "util/string_util.h"

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#define PCAL_JOURNAL_HAS_FSYNC 1
#endif

namespace pcal {
namespace {

// ---- token encoders ------------------------------------------------------
//
// A journal record is a flat sequence of space-separated tokens; every
// encoder below is paired with a decoder so the round trip is exact.

void put_u64(std::ostringstream& os, std::uint64_t v) { os << ' ' << v; }

void put_bool(std::ostringstream& os, bool v) { os << ' ' << (v ? 1 : 0); }

// C99 hexfloat: %a prints the exact bit pattern of the double and
// strtod restores it bit for bit — including inf and nan — so journaled
// energies and residencies re-render identically to the original run.
void put_double(std::ostringstream& os, double v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%a", v);
  os << ' ' << buf;
}

// Strings are '~'-prefixed (so the empty string is a valid token) and
// percent-encoded: space, control bytes, '%' and non-ASCII become %XX.
void put_string(std::ostringstream& os, std::string_view s) {
  os << ' ' << '~';
  for (const char c : s) {
    const unsigned char u = static_cast<unsigned char>(c);
    if (u <= 0x20 || u >= 0x7f || c == '%') {
      char buf[4];
      std::snprintf(buf, sizeof(buf), "%%%02X", u);
      os << buf;
    } else {
      os << c;
    }
  }
}

// ---- token decoders ------------------------------------------------------

/// Cursor over one record's tokens; every take_* throws ParseError on
/// malformed or missing input so a damaged record can never half-load.
class TokenReader {
 public:
  explicit TokenReader(std::string_view data) : data_(data) {}

  std::string_view take() {
    while (pos_ < data_.size() && data_[pos_] == ' ') ++pos_;
    if (pos_ >= data_.size())
      throw ParseError("journal record truncated: expected another token");
    const std::size_t start = pos_;
    while (pos_ < data_.size() && data_[pos_] != ' ') ++pos_;
    return data_.substr(start, pos_ - start);
  }

  // Integers are read back exactly as put_u64 and hex16 print them:
  // digits only, so a sign or a base prefix is an error, not a wrapped
  // or reinterpreted value.
  std::uint64_t take_u64() {
    const std::string_view tok = take();
    const std::optional<std::uint64_t> v = parse_count(tok);
    if (!v)
      throw ParseError("journal record: bad integer token '" +
                       std::string(tok) + "'");
    return *v;
  }

  /// A take_u64 the writer printed from an `unsigned`.
  unsigned take_unsigned() {
    const std::uint64_t v = take_u64();
    if (v > std::numeric_limits<unsigned>::max())
      throw ParseError("journal record: integer token " + std::to_string(v) +
                       " out of range");
    return static_cast<unsigned>(v);
  }

  std::uint64_t take_hex64() {
    const std::string_view tok = take();
    std::uint64_t v = 0;
    const char* end = tok.data() + tok.size();
    const auto [stop, ec] = std::from_chars(tok.data(), end, v, 16);
    if (ec != std::errc() || stop != end)
      throw ParseError("journal record: bad hex token '" + std::string(tok) +
                       "'");
    return v;
  }

  bool take_bool() {
    const std::uint64_t v = take_u64();
    if (v > 1)
      throw ParseError("journal record: bad bool token");
    return v != 0;
  }

  double take_double() {
    const std::string tok(take());
    errno = 0;
    char* end = nullptr;
    const double v = std::strtod(tok.c_str(), &end);
    if (end == tok.c_str() || *end != '\0')
      throw ParseError("journal record: bad float token '" + tok + "'");
    return v;
  }

  std::string take_string() {
    const std::string_view tok = take();
    if (tok.empty() || tok[0] != '~')
      throw ParseError("journal record: bad string token");
    std::string out;
    out.reserve(tok.size());
    for (std::size_t i = 1; i < tok.size(); ++i) {
      if (tok[i] != '%') {
        out.push_back(tok[i]);
        continue;
      }
      if (i + 2 >= tok.size())
        throw ParseError("journal record: truncated %XX escape");
      const auto nibble = [](char c) -> int {
        if (c >= '0' && c <= '9') return c - '0';
        if (c >= 'A' && c <= 'F') return c - 'A' + 10;
        if (c >= 'a' && c <= 'f') return c - 'a' + 10;
        return -1;
      };
      const int hi = nibble(tok[i + 1]);
      const int lo = nibble(tok[i + 2]);
      if (hi < 0 || lo < 0)
        throw ParseError("journal record: bad %XX escape");
      out.push_back(static_cast<char>(hi * 16 + lo));
      i += 2;
    }
    return out;
  }

  bool exhausted() {
    while (pos_ < data_.size() && data_[pos_] == ' ') ++pos_;
    return pos_ >= data_.size();
  }

 private:
  std::string_view data_;
  std::size_t pos_ = 0;
};

// ---- struct (de)serializers ---------------------------------------------

void put_cache_stats(std::ostringstream& os, const CacheStats& s) {
  put_u64(os, s.accesses);
  put_u64(os, s.hits);
  put_u64(os, s.misses);
  put_u64(os, s.writebacks);
  put_u64(os, s.flushes);
  put_u64(os, s.flushed_dirty);
}

CacheStats take_cache_stats(TokenReader* r) {
  CacheStats s;
  s.accesses = r->take_u64();
  s.hits = r->take_u64();
  s.misses = r->take_u64();
  s.writebacks = r->take_u64();
  s.flushes = r->take_u64();
  s.flushed_dirty = r->take_u64();
  return s;
}

void put_energy(std::ostringstream& os, const EnergyReport& e) {
  put_double(os, e.partitioned.dynamic_pj);
  put_double(os, e.partitioned.leakage_active_pj);
  put_double(os, e.partitioned.leakage_retention_pj);
  put_double(os, e.partitioned.leakage_drowsy_pj);
  put_double(os, e.partitioned.transition_pj);
  put_double(os, e.baseline_pj);
}

EnergyReport take_energy(TokenReader* r) {
  EnergyReport e;
  e.partitioned.dynamic_pj = r->take_double();
  e.partitioned.leakage_active_pj = r->take_double();
  e.partitioned.leakage_retention_pj = r->take_double();
  e.partitioned.leakage_drowsy_pj = r->take_double();
  e.partitioned.transition_pj = r->take_double();
  e.baseline_pj = r->take_double();
  return e;
}

void put_sim_result(std::ostringstream& os, const SimResult& r) {
  put_string(os, r.workload);
  put_string(os, r.config_label);
  put_string(os, to_string(r.granularity));
  put_string(os, to_string(r.policy));
  put_u64(os, r.accesses);
  put_u64(os, r.total_cycles);
  put_u64(os, r.stall_cycles);
  put_u64(os, r.breakeven_cycles);
  put_u64(os, r.reindex_updates_applied);
  put_cache_stats(os, r.cache_stats);
  put_u64(os, r.units.size());
  for (const UnitResult& u : r.units) {
    put_u64(os, u.accesses);
    put_u64(os, u.sleep_cycles);
    put_double(os, u.sleep_residency);
    put_double(os, u.useful_idleness_count);
    put_u64(os, u.sleep_episodes);
    put_u64(os, u.drowsy_cycles);
    put_u64(os, u.gated_episodes);
    put_double(os, u.lifetime_years);
  }
  put_u64(os, r.level_stats.size());
  for (const CacheStats& s : r.level_stats) put_cache_stats(os, s);
  put_u64(os, r.level_units.size());
  for (const std::uint64_t n : r.level_units) put_u64(os, n);
  put_energy(os, r.energy);
  put_bool(os, r.lifetime.has_value());
  if (r.lifetime) {
    put_u64(os, r.lifetime->banks.size());
    for (const BankLifetime& b : r.lifetime->banks) {
      put_double(os, b.sleep_residency);
      put_double(os, b.p0);
      put_double(os, b.lifetime_years);
    }
    put_double(os, r.lifetime->lifetime_years);
    put_u64(os, r.lifetime->limiting_bank);
  }
}

SimResult take_sim_result(TokenReader* r) {
  SimResult out;
  out.workload = r->take_string();
  out.config_label = r->take_string();
  out.granularity = granularity_from_string(r->take_string());
  out.policy = power_policy_from_string(r->take_string());
  out.accesses = r->take_u64();
  out.total_cycles = r->take_u64();
  out.stall_cycles = r->take_u64();
  out.breakeven_cycles = r->take_u64();
  out.reindex_updates_applied = r->take_u64();
  out.cache_stats = take_cache_stats(r);
  out.units.resize(r->take_u64());
  for (UnitResult& u : out.units) {
    u.accesses = r->take_u64();
    u.sleep_cycles = r->take_u64();
    u.sleep_residency = r->take_double();
    u.useful_idleness_count = r->take_double();
    u.sleep_episodes = r->take_u64();
    u.drowsy_cycles = r->take_u64();
    u.gated_episodes = r->take_u64();
    u.lifetime_years = r->take_double();
  }
  out.level_stats.resize(r->take_u64());
  for (CacheStats& s : out.level_stats) s = take_cache_stats(r);
  out.level_units.resize(r->take_u64());
  for (std::uint64_t& n : out.level_units) n = r->take_u64();
  out.energy = take_energy(r);
  if (r->take_bool()) {
    CacheLifetimeResult lt;
    lt.banks.resize(r->take_u64());
    for (BankLifetime& b : lt.banks) {
      b.sleep_residency = r->take_double();
      b.p0 = r->take_double();
      b.lifetime_years = r->take_double();
    }
    lt.lifetime_years = r->take_double();
    lt.limiting_bank = r->take_u64();
    out.lifetime = std::move(lt);
  }
  return out;
}

void put_core_result(std::ostringstream& os, const CoreResult& c) {
  put_string(os, c.workload);
  put_u64(os, c.accesses);
  put_u64(os, c.stall_cycles);
  put_u64(os, c.llc_way_mask);
  put_u64(os, c.level_stats.size());
  for (const CacheStats& s : c.level_stats) put_cache_stats(os, s);
  put_cache_stats(os, c.llc_stats);
  put_energy(os, c.energy);
  put_double(os, c.avg_residency);
}

CoreResult take_core_result(TokenReader* r) {
  CoreResult c;
  c.workload = r->take_string();
  c.accesses = r->take_u64();
  c.stall_cycles = r->take_u64();
  c.llc_way_mask = r->take_u64();
  c.level_stats.resize(r->take_u64());
  for (CacheStats& s : c.level_stats) s = take_cache_stats(r);
  c.llc_stats = take_cache_stats(r);
  c.energy = take_energy(r);
  c.avg_residency = r->take_double();
  return c;
}

/// Appends the line checksum to `payload` — FNV-1a over the payload
/// bytes, so load can detect any torn or damaged record.
std::string with_checksum(const std::string& payload) {
  Fingerprint fp;
  fp.add(payload);
  return payload + ' ' + hex16(fp.value());
}

/// Splits `line` into payload + checksum and verifies; returns the
/// payload view or throws ParseError.
std::string_view verify_checksum(std::string_view line) {
  const std::size_t cut = line.find_last_of(' ');
  if (cut == std::string_view::npos)
    throw ParseError("journal line has no checksum");
  const std::string_view payload = line.substr(0, cut);
  const std::string_view sum = line.substr(cut + 1);
  Fingerprint fp;
  fp.add(payload);
  if (std::string_view(hex16(fp.value())) != sum)
    throw ParseError("journal line checksum mismatch");
  return payload;
}

JournalHeader parse_header_payload(std::string_view payload) {
  TokenReader r(payload);
  if (r.take() != "pcal-journal" || r.take() != "v1")
    throw ParseError("not a pcal journal (bad magic)");
  JournalHeader h;
  h.name = r.take_string();
  h.fingerprint = r.take_hex64();
  h.jobs = r.take_u64();
  h.accesses = r.take_u64();
  h.shard_index = r.take_unsigned();
  h.shard_count = r.take_unsigned();
  if (!r.exhausted())
    throw ParseError("journal header has trailing tokens");
  if (h.shard_count == 0 || h.shard_index == 0 ||
      h.shard_index > h.shard_count)
    throw ParseError("journal header has an invalid shard slice");
  return h;
}

void fsync_file(std::FILE* f) {
#if defined(PCAL_JOURNAL_HAS_FSYNC)
  ::fsync(fileno(f));
#else
  (void)f;
#endif
}

}  // namespace

std::string serialize_outcome(const SweepOutcome& outcome) {
  std::ostringstream os;
  put_bool(os, outcome.ok());
  put_u64(os, outcome.attempts);
  put_u64(os, outcome.intervals);
  put_bool(os, outcome.timed_out);
  put_string(os, outcome.label);
  put_string(os, outcome.error_what);
  if (outcome.ok()) {
    put_sim_result(os, outcome.result);
    put_u64(os, outcome.cores.size());
    for (const CoreResult& c : outcome.cores) put_core_result(os, c);
  }
  // os starts every token with a space; drop the leading one.
  std::string s = os.str();
  return s.empty() ? s : s.substr(1);
}

SweepOutcome deserialize_outcome(std::string_view tokens) {
  TokenReader r(tokens);
  SweepOutcome out;
  const bool ok = r.take_bool();
  out.attempts = r.take_unsigned();
  out.intervals = r.take_u64();
  out.timed_out = r.take_bool();
  out.label = r.take_string();
  out.error_what = r.take_string();
  if (ok) {
    out.result = take_sim_result(&r);
    out.cores.resize(r.take_u64());
    for (CoreResult& c : out.cores) c = take_core_result(&r);
  } else {
    // Restore failure semantics: ok() is false and rethrow_if_error()
    // raises an Error carrying the journaled reason.
    out.error = std::make_exception_ptr(Error(out.error_what));
  }
  if (!r.exhausted())
    throw ParseError("journal record has trailing tokens");
  return out;
}

std::string render_journal_header(const JournalHeader& header) {
  std::ostringstream os;
  os << "pcal-journal v1";
  put_string(os, header.name);
  os << ' ' << hex16(header.fingerprint);
  put_u64(os, header.jobs);
  put_u64(os, header.accesses);
  put_u64(os, header.shard_index);
  put_u64(os, header.shard_count);
  return with_checksum(os.str());
}

std::string render_journal_record(std::size_t index,
                                  std::uint64_t job_fingerprint,
                                  const SweepOutcome& outcome) {
  std::ostringstream os;
  os << "J " << index << ' ' << hex16(job_fingerprint) << ' '
     << serialize_outcome(outcome);
  return with_checksum(os.str());
}

JournalWriter::JournalWriter(const std::string& path,
                             const JournalHeader& header,
                             std::vector<std::uint64_t> job_fingerprints,
                             bool append)
    : job_fingerprints_(std::move(job_fingerprints)) {
  if (append) {
    // Verify the on-disk header before adding to the file: appending to
    // a journal of a different grid would corrupt both runs.
    std::ifstream in(path);
    std::string first;
    if (!in || !std::getline(in, first))
      throw ParseError(path + ": cannot read journal header for append");
    const JournalHeader existing = parse_header_payload(
        verify_checksum(first));
    if (existing.fingerprint != header.fingerprint ||
        existing.jobs != header.jobs ||
        existing.accesses != header.accesses ||
        existing.shard_index != header.shard_index ||
        existing.shard_count != header.shard_count)
      throw ParseError(path +
                       ": journal header does not match this run "
                       "(different grid, accesses, or shard)");
    file_ = std::fopen(path.c_str(), "ab");
    if (!file_) throw Error(path + ": cannot open journal for append");
  } else {
    file_ = std::fopen(path.c_str(), "wb");
    if (!file_) throw Error(path + ": cannot create journal");
    const std::string line = render_journal_header(header);
    std::fwrite(line.data(), 1, line.size(), file_);
    std::fputc('\n', file_);
    std::fflush(file_);
    fsync_file(file_);
  }
}

JournalWriter::~JournalWriter() {
  flush();
  if (file_) std::fclose(file_);
}

void JournalWriter::on_job_complete(std::size_t index,
                                    const SweepOutcome& outcome) {
  if (outcome.skipped || outcome.cancelled) return;
  PCAL_ASSERT_MSG(index < job_fingerprints_.size(),
                  "journal writer saw an out-of-range job index");
  const std::string line =
      render_journal_record(index, job_fingerprints_[index], outcome);
  std::lock_guard<std::mutex> lock(mu_);
  std::fwrite(line.data(), 1, line.size(), file_);
  std::fputc('\n', file_);
  // Every record leaves the stdio buffer immediately (so a plain crash
  // or _Exit loses nothing); the expensive fsync is what's batched —
  // only an OS/power failure can cost the last kFsyncBatch records.
  std::fflush(file_);
  if (++unsynced_ >= kFsyncBatch) {
    fsync_file(file_);
    unsynced_ = 0;
  }
}

void JournalWriter::flush() {
  std::lock_guard<std::mutex> lock(mu_);
  if (file_ != nullptr && unsynced_ > 0) {
    std::fflush(file_);
    fsync_file(file_);
    unsynced_ = 0;
  }
}

LoadedJournal load_journal(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw ParseError(path + ": cannot open journal");
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  // Drop trailing blank lines (a crash can leave a bare newline).
  while (!lines.empty() && lines.back().empty()) lines.pop_back();
  if (lines.empty()) throw ParseError(path + ": empty journal");

  LoadedJournal out;
  try {
    out.header = parse_header_payload(verify_checksum(lines[0]));
  } catch (const ParseError& e) {
    throw ParseError(path + ":line 1: " + e.what());
  }

  for (std::size_t i = 1; i < lines.size(); ++i) {
    const bool last = (i + 1 == lines.size());
    try {
      TokenReader r(verify_checksum(lines[i]));
      if (r.take() != "J")
        throw ParseError("journal record does not start with 'J'");
      JournalEntry entry;
      entry.index = r.take_u64();
      entry.job_fingerprint = r.take_hex64();
      // The rest of the payload is the outcome.
      const std::string_view payload = verify_checksum(lines[i]);
      // Skip "J <index> <fp> " — re-scan to the fourth token start.
      std::size_t pos = 0;
      for (int tok = 0; tok < 3; ++tok) {
        while (pos < payload.size() && payload[pos] == ' ') ++pos;
        while (pos < payload.size() && payload[pos] != ' ') ++pos;
      }
      entry.outcome = deserialize_outcome(payload.substr(pos));
      if (entry.index >= out.header.jobs)
        throw ParseError("journal record index out of range");
      out.entries.push_back(std::move(entry));
    } catch (const ParseError& e) {
      if (last) {
        // A torn tail is the expected crash signature: the final append
        // was interrupted mid-line.  Discard it — the job reruns.
        out.torn_tail = true;
        break;
      }
      std::ostringstream os;
      os << path << ":line " << (i + 1) << ": " << e.what();
      throw ParseError(os.str());
    }
  }

  // Keep the last record per job (an append retried after a partial
  // flush can duplicate), then order by index for deterministic merges.
  std::vector<JournalEntry> dedup;
  for (auto it = out.entries.rbegin(); it != out.entries.rend(); ++it) {
    bool seen = false;
    for (const JournalEntry& kept : dedup)
      if (kept.index == it->index) { seen = true; break; }
    if (!seen) dedup.push_back(std::move(*it));
  }
  std::sort(dedup.begin(), dedup.end(),
            [](const JournalEntry& a, const JournalEntry& b) {
              return a.index < b.index;
            });
  out.entries = std::move(dedup);
  return out;
}

}  // namespace pcal
