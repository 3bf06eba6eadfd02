// Phase-scheduled synthetic workload generator.
//
// The paper evaluates on MediaBench traces we do not have.  What the aging
// and power results actually depend on is the *per-bank idle-interval
// structure* of each trace (Table I): which cache regions are touched in
// which time windows, and with what spatial concentration.  This generator
// reproduces exactly that statistic while emitting realistic address
// streams (hot sets, sequential walks, strides, Zipf locality).
//
// Model: simulated time is divided into fixed-length *windows* of
// `window_len` accesses.  A workload is a set of *streams*; each stream
// owns a byte range of the footprint, an activity schedule deciding in
// which windows it issues accesses, and an intra-window address pattern.
// In an active window, each access picks an active stream (weighted) and
// asks it for the next address.  A stream whose range maps onto cache bank
// b and whose schedule is active a fraction d of windows produces bank
// idleness ~= 1 - d at that granularity — which is how the workload specs
// in workloads.h encode the Table I signatures.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "trace/trace.h"
#include "util/rng.h"

namespace pcal {

/// Intra-window address pattern of a stream.
enum class StreamPattern : std::uint8_t {
  kSequential,     // slow forward walk through the range, wrapping
  kStrided,        // forward walk with a fixed stride
  kZipf,           // Zipf-distributed hot lines over the range
  kUniformRandom,  // uniform random lines over the range
};

/// Window-level activity schedule of a stream.
enum class StreamSchedule : std::uint8_t {
  kEvenDuty,  // Bresenham spreading: active windows evenly interleaved
  kBlocked,   // bursts: `burst_len` active windows, then idle to match duty
  kAlways,    // active in every window (duty ignored, treated as 1)
};

/// One access stream.  Ranges are byte offsets into the workload footprint.
struct StreamSpec {
  std::uint64_t range_begin = 0;  // inclusive
  std::uint64_t range_end = 0;    // exclusive; must exceed range_begin
  double duty = 1.0;              // fraction of windows this stream is active
  double weight = 1.0;            // access share among concurrently active
  StreamPattern pattern = StreamPattern::kZipf;
  StreamSchedule schedule = StreamSchedule::kEvenDuty;
  std::uint64_t burst_len = 8;    // for kBlocked
  std::uint64_t phase = 0;        // schedule offset in windows
  std::uint64_t stride_bytes = 64;   // for kStrided
  std::uint64_t walk_bytes = 4;      // per-access advance for kSequential
  double zipf_s = 0.9;               // skew for kZipf

  /// Gating: if >= 0, this stream can only be active in windows where
  /// stream `gate` is active, and its own schedule is evaluated against the
  /// parent's activation count instead of the window number.  This nests
  /// the child's active windows inside the parent's, so the *union* duty of
  /// parent+child equals the parent's duty exactly — which is how the
  /// workload specs control idleness at two bank granularities at once
  /// (e.g. M=4 and M=8 of Table IV).  Must reference an earlier stream.
  int gate = -1;
};

/// A complete synthetic workload.
struct WorkloadSpec {
  std::string name = "synthetic";
  std::uint64_t footprint_bytes = 64 * 1024;
  std::uint64_t window_len = 500;     // accesses per scheduling window
  double write_fraction = 0.25;       // probability an access is a write
  std::uint64_t seed = 1;
  std::vector<StreamSpec> streams;

  /// Throws ConfigError if ranges/duties are malformed.
  void validate() const;
};

/// Streaming generator over a WorkloadSpec.  Deterministic for a fixed spec
/// (including seed): every reset() replays the identical access sequence.
class SyntheticTraceSource final : public TraceSource {
 public:
  /// Generates `num_accesses` accesses total.
  SyntheticTraceSource(WorkloadSpec spec, std::uint64_t num_accesses);

  std::optional<MemAccess> next() override;
  std::size_t next_batch(MemAccess* out, std::size_t max) override;
  void reset() override;
  std::optional<std::uint64_t> size_hint() const override {
    return num_accesses_;
  }
  std::string name() const override { return spec_.name; }

  const WorkloadSpec& spec() const { return spec_; }

 private:
  /// Produces the next access (the caller checks the budget) — the one
  /// per-access step next() and next_batch() share.
  MemAccess step();

  struct StreamState {
    std::uint64_t cursor = 0;          // sequential/strided position (bytes)
    std::unique_ptr<ZipfSampler> zipf; // lazily built for kZipf
    bool active = false;
    std::uint64_t lines = 0;           // addressable granules in range
    std::uint64_t activations = 0;     // windows this stream has been active
  };

  /// True iff stream `s` is active in window `w` under its schedule.
  bool stream_active(const StreamSpec& s, std::uint64_t w) const;

  /// Recomputes active streams and weights at a window boundary.
  void begin_window(std::uint64_t w);

  std::uint64_t gen_address(std::size_t stream_idx);

  WorkloadSpec spec_;
  std::uint64_t num_accesses_;
  std::uint64_t produced_ = 0;
  std::uint64_t window_ = 0;
  std::uint64_t in_window_ = 0;
  Xoshiro256 rng_;
  std::vector<StreamState> states_;
  std::vector<std::size_t> active_idx_;
  std::vector<double> active_cdf_;  // cumulative weights of active streams
};

/// Measures, for diagnostics and tests, the per-window activity of address
/// sub-ranges: given a bank mapping (range size and count), returns the
/// fraction of windows in which each sub-range was not touched at all.
std::vector<double> measure_window_idleness(TraceSource& source,
                                            std::uint64_t window_len,
                                            std::uint64_t region_bytes,
                                            std::uint64_t num_regions,
                                            std::uint64_t wrap_bytes);

}  // namespace pcal
