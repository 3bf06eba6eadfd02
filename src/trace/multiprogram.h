// Multiprogrammed traces: round-robin interleaving with context switches.
//
// The paper's deployment story ties re-indexing updates to cache flushes
// that "occur regularly in the system (e.g., on a context switch)".  This
// source models that system: several programs share the cache in
// round-robin quanta, each seeing its own (offset) address space.  The
// quantum boundaries are exposed so a simulator can align re-indexing
// updates with them — the zero-overhead piggybacking the paper proposes —
// or deliberately misalign them to measure the extra flush cost.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "trace/synthetic.h"

namespace pcal {

struct MultiProgramConfig {
  std::vector<WorkloadSpec> programs;
  /// Accesses per scheduling quantum (context-switch period).
  std::uint64_t quantum_accesses = 100'000;
  /// Virtual-to-physical offset between consecutive programs' address
  /// spaces, so their footprints do not alias trivially in the cache.
  std::uint64_t address_stride = 1 << 20;

  void validate() const;
};

/// Parses a "prog1+prog2[@quantum]" program list into a
/// MultiProgramConfig: program names resolve like pcalsweep workload
/// items (the 18 MediaBench names, or uniform / streaming / hotspot,
/// which take `footprint_bytes`), and the optional "@<n>" suffix sets
/// quantum_accesses (k/M size suffixes allowed).  Throws ConfigError on
/// unknown names, an empty list, or a zero quantum.
MultiProgramConfig parse_multiprogram_spec(const std::string& spec,
                                           std::uint64_t footprint_bytes);

/// A multiprog quantum as the "@<n>" suffix spells it: "200000", "100k"
/// or "2M" accesses.  Throws ConfigError on anything else, and on zero.
std::uint64_t parse_multiprogram_quantum(const std::string& text);

class MultiProgramSource final : public TraceSource {
 public:
  MultiProgramSource(MultiProgramConfig config, std::uint64_t num_accesses);

  std::optional<MemAccess> next() override;
  void reset() override;
  std::optional<std::uint64_t> size_hint() const override {
    return num_accesses_;
  }
  /// The scheduling quantum: re-indexing updates aligned to multiples of
  /// it piggyback on context-switch flushes (see core/simulator.cc).
  std::optional<std::uint64_t> boundary_hint() const override {
    return config_.quantum_accesses;
  }
  std::string name() const override;

  std::uint64_t quantum() const { return config_.quantum_accesses; }
  std::uint64_t num_programs() const { return config_.programs.size(); }

  /// Index of the program scheduled at access position `pos`.
  std::uint64_t program_at(std::uint64_t pos) const {
    return (pos / config_.quantum_accesses) % config_.programs.size();
  }

  /// True iff a context switch happens *before* access position `pos`.
  bool switch_before(std::uint64_t pos) const {
    return pos != 0 && pos % config_.quantum_accesses == 0;
  }

 private:
  MultiProgramConfig config_;
  std::uint64_t num_accesses_;
  std::uint64_t produced_ = 0;
  std::vector<std::unique_ptr<SyntheticTraceSource>> sources_;
};

}  // namespace pcal
