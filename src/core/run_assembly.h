// One key -> config application path for every front-end.
//
// pcalsweep's grid axes, pcalsim's INI sections, the pcal::api facade and
// the Python bindings all describe the same thing: a flat bag of
// "key = value" strings that must become a SimConfig (plus, for cores > 0,
// a MultiCoreConfig).  Each front-end used to hand-roll that translation,
// so the vocabularies could drift — a knob spelled one way in a sweep
// spec and another way (or not at all) in pcalsim.  RunAssembly is the
// single application path: set() stages one key, assemble() builds and
// validates the configs, and the key vocabulary is exactly the sweep-axis
// vocabulary (plus per-level l2_*/l3_* extensions the INI front-end
// needs, e.g. l2_line / l3_drowsy_wake).
//
// Inheritance semantics (the sweep grid's, preserved bit for bit):
// an unset L2 knob takes the documented default (bank granularity,
// static indexing, gated policy, 4 banks, breakeven 64); an unset L3
// knob inherits the *resolved* L2 value; an unset LLC knob takes the
// shared-LLC defaults (8 ways, 4 banks, breakeven 64).  Geometry (line,
// ways) and wakeup latencies inherit from L1 via SimConfig::make_level
// unless overridden per level.  `inclusion` applies to every lower level
// (and the LLC) unless an l2_inclusion / l3_inclusion / llc_inclusion
// override narrows it.
//
// A front-end that must keep different *defaults* (pcalsim's [l3] does
// not inherit [l2]) stages those values explicitly — the application
// path is shared, the default policy stays the front-end's.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>

#include "core/multicore.h"
#include "core/simulator.h"
#include "util/config_file.h"

namespace pcal {

/// "core<k>_workload" keys pin one core of a multi-core run to its own
/// workload; returns the core index, or -1 for any other key.
int core_workload_index(const std::string& key);

class RunAssembly {
 public:
  /// What assemble() yields: the (validated) single-stream config, plus
  /// the multi-core system when `cores` was staged nonzero.
  struct Assembled {
    SimConfig config;
    std::optional<MultiCoreConfig> multicore;
    std::uint64_t cores = 0;
  };

  /// The staged L1/global config.  Callers may pre-seed fields that have
  /// no key spelling (the sweep grid seeds force_unit_pricing) before or
  /// between set() calls; flat keys apply to it immediately.
  SimConfig config;

  /// Stages one "key = value" pair.  Flat L1/global keys apply to
  /// `config` immediately; hierarchy (l2_*/l3_*), multi-core (cores,
  /// llc_*), and run-level keys (workload, accesses, footprint,
  /// unit_pricing, core<k>_workload) are staged for assemble().  Throws
  /// ConfigError on an unknown key and ParseError on a malformed value,
  /// both naming `where` (defaults to the key itself).
  void set(const std::string& key, const std::string& value);
  void set(const std::string& key, const std::string& value,
           const std::string& where);

  /// True iff set() accepts this key.
  static bool knows(const std::string& key);

  /// Builds the configs from the staged state, in the sweep grid's
  /// order: lower levels are appended (L2 then L3, zero size = absent),
  /// the result validated, then — when cores > 0 — the shared LLC is
  /// built and the MultiCoreConfig assembled and validated.  Throws
  /// ConfigError / ParseError on invalid combinations, among them an
  /// energy_* key on a single-stream SimConfig::paper_priced() run
  /// (which energy_params do not price).
  Assembled assemble() const;

  // ---- run-level staged values (not part of the SimConfig) ----
  const std::string& workload() const { return workload_; }
  std::uint64_t accesses() const { return accesses_; }
  std::uint64_t footprint_bytes() const { return footprint_bytes_; }
  std::uint64_t cores() const { return cores_; }
  /// Per-core workload overrides (core<k>_workload), by core index.
  const std::map<int, std::string>& core_workloads() const {
    return core_workloads_;
  }

 private:
  /// One lower level's staged overrides; every unset knob falls back as
  /// documented in the file comment.
  struct LevelStage {
    std::uint64_t size = 0;
    std::optional<std::uint64_t> line, ways, banks, breakeven;
    std::optional<Granularity> granularity;
    std::optional<IndexingKind> indexing;
    std::optional<PowerPolicy> policy;
    std::optional<std::uint64_t> drowsy_window;
    std::optional<std::uint64_t> hit_latency, miss_latency;
    std::optional<std::uint64_t> drowsy_wake, gated_wake;
    std::optional<std::uint64_t> mshrs, ports, bandwidth;
    std::optional<InclusionPolicy> inclusion;
  };

  /// Applies one key with its "l2_" / "l3_" prefix stripped; returns
  /// false when the suffix is not a level key.
  bool set_level(LevelStage& level, const std::string& suffix,
                 const std::string& value, const std::string& where);

  LevelStage l2_, l3_;
  InclusionPolicy inclusion_ = InclusionPolicy::kNonInclusive;
  std::uint64_t cores_ = 0;
  std::uint64_t llc_size_ = 0;
  std::uint64_t llc_ways_per_core_ = 0;
  std::optional<std::uint64_t> llc_ways_, llc_banks_, llc_breakeven_;
  std::optional<std::uint64_t> llc_mshrs_, llc_ports_, llc_bandwidth_;
  std::optional<InclusionPolicy> llc_inclusion_;
  std::string workload_;
  std::uint64_t accesses_ = 2'000'000;
  std::uint64_t footprint_bytes_ = 64 * 1024;
  std::map<int, std::string> core_workloads_;
  std::string energy_key_;  // the first energy_* key staged, if any
};

}  // namespace pcal
