// Per-level resource contention: MSHRs, bank ports, inter-level bandwidth.
//
// The PR-5 timing core prices *events* (hits, misses, wakeups) but admits
// infinite concurrency: any miss rate is absorbed without backpressure.
// This layer adds the three finite resources that create backpressure in a
// real hierarchy, driven timestep-granularly by the run engine's
// (MultiCoreSystem's) clock:
//
//   MSHRs       bounded outstanding misses per level.  Each miss allocates
//               an entry held for `mshr_latency_cycles` (the fill's
//               lifetime beyond the blocking stall the latency model
//               already charged); a miss to a line already in flight
//               merges onto the existing entry (no allocation, no second
//               bandwidth transfer).  When every entry is busy the access
//               stalls until the oldest frees.
//   ports       per-bank access ports.  Every reference to the level
//               (hit, miss or probe) claims a port of the bank it decodes
//               to for `port_cycles` cycles; `port_cycles` is the bank's
//               cycle time, so the default of 1 is a fully pipelined bank
//               that can never contend on the blocking clock.
//   bandwidth   bytes/cycle on the level's downstream edge.  A miss fill
//               occupies the edge for ceil(line_bytes / bytes_per_cycle)
//               cycles and stalls until the edge is free; the dirty-victim
//               writeback riding the same miss is posted — it extends the
//               edge reservation but does not itself stall the access.
//
// All three resources follow max-cursor semantics: an access arriving at
// global time t is pushed to t' = max(t, resource_free_time), the
// difference is charged as a stall (attributed to the resource that moved
// the cursor), and the resource is re-reserved from t'.  The driver adds
// the returned stall to the access's latency stalls, so the stretched
// clock and the per-unit idle/awake residencies — and therefore the
// energy model — see contention exactly like any other stall.
//
// A zero value means *unlimited* for each resource, and the model charges
// nothing unless at least one resource is finite — contention off (the
// default) is the current timing bit for bit, by construction.  The
// degeneracy, the cycle identity (total == accesses + stalls) and
// resource monotonicity are pinned by tests/contention_test.cc and the
// fuzz suite.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace pcal {

struct CacheTopology;

/// One level's resource limits.  0 = unlimited (that resource is off);
/// all-zero (the default) disables the model for the level entirely.
struct ContentionParams {
  /// Outstanding-miss registers (0 = unlimited).
  std::uint64_t mshrs = 0;
  /// Access ports per bank (0 = unlimited).
  std::uint64_t ports = 0;
  /// Downstream-edge bandwidth in bytes/cycle (0 = unlimited).
  std::uint64_t bytes_per_cycle = 0;
  /// Cycles a miss keeps its MSHR entry in flight (the fill lifetime the
  /// blocking stall does not cover).  Only meaningful with finite mshrs.
  std::uint64_t mshr_latency_cycles = 32;
  /// Bank cycle time: cycles one access occupies its port.  1 (the
  /// default) is a fully pipelined bank.  Only meaningful with finite
  /// ports.
  std::uint64_t port_cycles = 1;

  /// True iff any resource is finite (the model charges nothing when
  /// false).
  bool enabled() const {
    return mshrs > 0 || ports > 0 || bytes_per_cycle > 0;
  }

  /// Caps on what one key can cost: the MSHR file is scanned on every
  /// miss, and the port table holds ports x banks entries.
  static constexpr std::uint64_t kMaxMshrs = 256;
  static constexpr std::uint64_t kMaxPortsPerBank = 16;
  /// Throw ConfigError past kMaxMshrs / kMaxPortsPerBank.
  static void check_mshrs(std::uint64_t n);
  static void check_ports(std::uint64_t n);

  /// The caps above, hold times within LatencyParams::kMaxEventCycles,
  /// and positive hold times for finite resources; throws ConfigError.
  void validate() const;

  /// Compact label, e.g. "mshr4/p2x4/bw8"; empty when !enabled() so
  /// contention-off config labels are unchanged.
  std::string describe() const;
};

/// Stall cycles one access (or one whole run) lost to each resource.
struct ContentionStall {
  std::uint64_t mshr = 0;
  std::uint64_t port = 0;
  std::uint64_t bw = 0;

  std::uint64_t total() const { return mshr + port + bw; }
  ContentionStall& operator+=(const ContentionStall& o) {
    mshr += o.mshr;
    port += o.port;
    bw += o.bw;
    return *this;
  }
};

/// The static shape of one modeled level: its limits plus the geometry
/// needed to map units to port banks and lines to transfer times.
struct ContentionLevelShape {
  ContentionParams params;
  std::uint64_t num_units = 1;
  std::uint64_t num_banks = 1;
  std::uint64_t line_bytes = 16;
};

/// Derives a level's shape from its topology (params, bank count per its
/// granularity, line size).
ContentionLevelShape contention_shape_of(const CacheTopology& topology);

/// One level reference of one access, as the driver replays it from
/// route_access's LevelTrace (core/hierarchy.h).
struct ContentionEvent {
  std::size_t level = 0;
  std::uint64_t unit = 0;     // physical unit touched at that level
  std::uint64_t address = 0;  // address presented to that level
  bool miss = false;
  bool writeback = false;     // a dirty victim left the level
};

/// The per-run resource state: one MSHR file, one port pool per bank and
/// one downstream-edge cursor per level.  Deterministic and
/// single-threaded like the caches it sits beside; the driver owns one
/// per simulated machine and feeds it every level event in issue order.
class ContentionModel {
 public:
  explicit ContentionModel(std::vector<ContentionLevelShape> shapes);

  /// True iff any level has a finite resource (when false the driver can
  /// skip the model entirely — the off path stays bit-identical).
  bool enabled() const { return enabled_; }

  std::size_t num_levels() const { return levels_.size(); }

  /// Charges one level event arriving at global time `now` (the access's
  /// issue cycle plus stalls already accumulated this access).  Returns
  /// the stall this event adds, attributed per resource; an event at a
  /// level with no finite resource costs nothing and changes nothing.
  ContentionStall on_event(const ContentionEvent& event, std::uint64_t now) {
    LevelState& level = levels_.at(event.level);
    if (!level.enabled) return {};
    return charge(level, event, now);
  }

  /// Run-wide stall totals across every event charged so far.
  const ContentionStall& totals() const { return totals_; }

 private:
  struct Mshr {
    std::uint64_t line = 0;     // line index of the in-flight fill
    std::uint64_t free_at = 0;  // entry is busy while free_at > now
  };

  /// One level's limits and resource state, with what every event would
  /// otherwise re-derive from its shape worked out at construction.
  struct LevelState {
    ContentionParams params;
    bool enabled = false;            // params.enabled()
    std::uint64_t num_banks = 1;
    std::uint64_t units_per_bank = 1;
    unsigned line_shift = 0;         // log2(line_bytes)
    std::uint64_t transfer_cycles = 0;  // one line over the edge
    std::vector<Mshr> mshrs;               // size = params.mshrs
    std::vector<std::uint64_t> port_free;  // size = num_banks * params.ports
    std::uint64_t edge_busy_until = 0;
  };

  /// on_event at an enabled level.
  ContentionStall charge(LevelState& level, const ContentionEvent& event,
                         std::uint64_t now);

  std::vector<LevelState> levels_;
  ContentionStall totals_;
  bool enabled_ = false;
};

}  // namespace pcal
