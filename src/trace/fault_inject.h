// Deterministic fault injection for crash-safety tests.
//
// The robustness machinery — journaled checkpoint/resume, failure
// isolation, cooperative deadlines — is only trustworthy if it is driven
// by real failures, reproducibly.  FaultInjectingTraceSource wraps any
// TraceSource and fires a chosen fault when the wrapped stream reaches
// its Nth access:
//
//   kThrow      an Error — the job fails, the grid continues
//   kHang       spin at the access until the job deadline fires — the
//               timeout path (hard-capped so a test without a deadline
//               cannot wedge forever)
//   kExit       std::_Exit — simulates a crash/OOM-kill for the CLI
//               kill-and-resume tests (no destructors, no journal
//               flush beyond what fsync already persisted)
//
// Nothing retries a failed job, and arm_fault makes its job solo, so the
// job's source is built once and the fault fires once.
//
// pcalsweep arms injection from the PCAL_FAULT_INJECT environment
// variable: `job=<index>:access=<n>:mode=<throw|hang|exit>`.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "core/sweep.h"
#include "trace/trace.h"

namespace pcal {

enum class FaultMode { kThrow, kHang, kExit };

struct FaultSpec {
  /// Job index (within the sweep being run) the fault targets.
  std::uint64_t job = 0;
  /// Fire when the wrapped stream is asked for access number
  /// `at_access` (0-based: 0 faults before the first access).
  std::uint64_t at_access = 0;
  FaultMode mode = FaultMode::kThrow;
};

/// Parses `job=<i>:access=<n>:mode=<m>`.
/// Throws ParseError on malformed input.
FaultSpec parse_fault_spec(const std::string& spec);

/// Reads PCAL_FAULT_INJECT; nullopt when unset or empty.
std::optional<FaultSpec> fault_spec_from_env();

/// Wraps a TraceSource and fires `spec`'s fault at the configured
/// access.
class FaultInjectingTraceSource final : public TraceSource {
 public:
  FaultInjectingTraceSource(std::unique_ptr<TraceSource> inner,
                            FaultSpec spec);

  std::optional<MemAccess> next() override;
  std::size_t next_batch(MemAccess* out, std::size_t max) override;
  void reset() override;
  std::optional<std::uint64_t> size_hint() const override;
  std::optional<std::uint64_t> boundary_hint() const override;
  std::string name() const override;

 private:
  void maybe_fire();

  std::unique_ptr<TraceSource> inner_;
  FaultSpec spec_;
  std::uint64_t produced_ = 0;
};

/// Wraps a factory so every source it builds injects `spec`'s fault.
TraceSourceFactory wrap_with_fault(TraceSourceFactory inner,
                                   const FaultSpec& spec);

/// Arms `spec`'s fault on `job`'s trace stream (the first core's for a
/// multi-core job) and makes the job run solo: in a lockstep cohort the
/// stream would come from another member's unwrapped factory, so the
/// fault would never fire.
void arm_fault(SweepJob& job, const FaultSpec& spec);

}  // namespace pcal
