// Trace containers and the streaming source interface.
//
// Simulations can either consume a materialized Trace (useful for tests and
// for replaying imported trace files) or pull from a TraceSource (used by
// the synthetic generators so multi-million-access runs never materialize
// the whole trace).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "trace/access.h"

namespace pcal {

/// Pull-based access stream.  next() returns nullopt at end of trace.
class TraceSource {
 public:
  virtual ~TraceSource() = default;

  virtual std::optional<MemAccess> next() = 0;

  /// Fills `out` with up to `max` accesses; returns how many were
  /// produced (0 == end of trace).  The default forwards to next() — the
  /// batched simulator hot loop calls this, and sources with contiguous
  /// storage override it to amortize the per-access virtual dispatch.
  virtual std::size_t next_batch(MemAccess* out, std::size_t max);

  /// Restart the stream from the beginning (must be supported; generators
  /// reseed, vectors rewind).
  virtual void reset() = 0;

  /// Total number of accesses this source will produce, if known.
  virtual std::optional<std::uint64_t> size_hint() const { return {}; }

  /// Natural alignment period of the stream in accesses, if it has one:
  /// a multiprogrammed source reports its scheduling quantum so the
  /// driver can align re-indexing updates with context switches (the
  /// paper's zero-overhead piggybacking — the flush happens anyway).
  /// nullopt = no natural boundary (the default).
  virtual std::optional<std::uint64_t> boundary_hint() const { return {}; }

  /// Human-readable workload name for reports.
  virtual std::string name() const = 0;
};

/// A fully materialized trace.
class Trace final : public TraceSource {
 public:
  Trace() = default;
  Trace(std::string trace_name, std::vector<MemAccess> accesses)
      : name_(std::move(trace_name)), accesses_(std::move(accesses)) {}

  // TraceSource:
  std::optional<MemAccess> next() override;
  std::size_t next_batch(MemAccess* out, std::size_t max) override;
  void reset() override { pos_ = 0; }
  std::optional<std::uint64_t> size_hint() const override {
    return accesses_.size();
  }
  std::string name() const override { return name_; }

  // Container access:
  std::size_t size() const { return accesses_.size(); }
  bool empty() const { return accesses_.empty(); }
  const MemAccess& operator[](std::size_t i) const { return accesses_[i]; }
  void push_back(MemAccess a) { accesses_.push_back(a); }
  const std::vector<MemAccess>& accesses() const { return accesses_; }

  /// Materializes any source (reads it to exhaustion from its start).
  static Trace materialize(TraceSource& source,
                           std::uint64_t max_accesses = UINT64_MAX);

 private:
  std::string name_ = "trace";
  std::vector<MemAccess> accesses_;
  std::size_t pos_ = 0;
};

/// Read-only replay view over a shared, materialized Trace.  Each view
/// owns its own cursor, so any number of them (e.g. one per sweep worker)
/// can replay the same in-memory trace concurrently without copying it —
/// this is how text trace-file workloads enter a sweep grid: loaded once,
/// viewed per job.  Optionally truncates the replay after `limit`
/// accesses.
class SharedTraceSource final : public TraceSource {
 public:
  explicit SharedTraceSource(std::shared_ptr<const Trace> trace,
                             std::uint64_t limit = UINT64_MAX);

  std::optional<MemAccess> next() override;
  std::size_t next_batch(MemAccess* out, std::size_t max) override;
  void reset() override { pos_ = 0; }
  std::optional<std::uint64_t> size_hint() const override { return limit_; }
  std::string name() const override { return trace_->name(); }

 private:
  std::shared_ptr<const Trace> trace_;
  std::uint64_t limit_ = 0;  // min(trace size, requested limit)
  std::uint64_t pos_ = 0;
};

/// Owns a source and truncates it after `limit` accesses.
class TruncatedSource final : public TraceSource {
 public:
  TruncatedSource(std::unique_ptr<TraceSource> inner, std::uint64_t limit)
      : inner_(std::move(inner)), limit_(limit) {}

  std::optional<MemAccess> next() override {
    if (produced_ >= limit_) return std::nullopt;
    auto a = inner_->next();
    if (a) ++produced_;
    return a;
  }
  std::size_t next_batch(MemAccess* out, std::size_t max) override {
    if (produced_ >= limit_) return 0;
    const std::uint64_t room = limit_ - produced_;
    if (room < max) max = static_cast<std::size_t>(room);
    const std::size_t n = inner_->next_batch(out, max);
    produced_ += n;
    return n;
  }
  void reset() override {
    inner_->reset();
    produced_ = 0;
  }
  std::optional<std::uint64_t> size_hint() const override {
    auto h = inner_->size_hint();
    if (!h) return limit_;
    return std::min(*h, limit_);
  }
  std::string name() const override { return inner_->name(); }

 private:
  std::unique_ptr<TraceSource> inner_;
  std::uint64_t limit_;
  std::uint64_t produced_ = 0;
};

}  // namespace pcal
