#include "trace/synthetic.h"

#include <algorithm>
#include <cmath>

#include "util/error.h"

namespace pcal {

void WorkloadSpec::validate() const {
  PCAL_CONFIG_CHECK(footprint_bytes > 0, "footprint must be nonzero");
  PCAL_CONFIG_CHECK(window_len > 0, "window length must be nonzero");
  PCAL_CONFIG_CHECK(!streams.empty(), "workload needs at least one stream");
  PCAL_CONFIG_CHECK(write_fraction >= 0.0 && write_fraction <= 1.0,
                    "write_fraction must be in [0,1]");
  for (std::size_t i = 0; i < streams.size(); ++i) {
    const StreamSpec& s = streams[i];
    PCAL_CONFIG_CHECK(s.range_end > s.range_begin,
                      "stream " << i << ": empty address range");
    PCAL_CONFIG_CHECK(s.range_end <= footprint_bytes,
                      "stream " << i << ": range exceeds footprint");
    PCAL_CONFIG_CHECK(s.duty >= 0.0 && s.duty <= 1.0,
                      "stream " << i << ": duty must be in [0,1]");
    PCAL_CONFIG_CHECK(s.weight > 0.0, "stream " << i << ": weight must be >0");
    PCAL_CONFIG_CHECK(s.walk_bytes > 0 && s.stride_bytes > 0,
                      "stream " << i << ": zero step");
    PCAL_CONFIG_CHECK(s.gate < static_cast<int>(i),
                      "stream " << i << ": gate must reference an earlier "
                                   "stream (got " << s.gate << ")");
  }
  // At least one stream must have a high enough duty that fallback
  // activation (below) stays rare; we only require duty > 0 somewhere.
  const bool any_active = std::any_of(
      streams.begin(), streams.end(),
      [](const StreamSpec& s) {
        return s.duty > 0.0 || s.schedule == StreamSchedule::kAlways;
      });
  PCAL_CONFIG_CHECK(any_active, "all streams have zero duty");
}

SyntheticTraceSource::SyntheticTraceSource(WorkloadSpec spec,
                                           std::uint64_t num_accesses)
    : spec_(std::move(spec)), num_accesses_(num_accesses), rng_(spec_.seed) {
  spec_.validate();
  reset();
}

void SyntheticTraceSource::reset() {
  produced_ = 0;
  window_ = 0;
  in_window_ = 0;
  rng_ = Xoshiro256(spec_.seed);
  states_.clear();
  states_.resize(spec_.streams.size());
  for (std::size_t i = 0; i < spec_.streams.size(); ++i) {
    const StreamSpec& s = spec_.streams[i];
    StreamState& st = states_[i];
    st.cursor = s.range_begin;
    st.lines = (s.range_end - s.range_begin + 15) / 16;  // 16B granules
    if (s.pattern == StreamPattern::kZipf)
      st.zipf = std::make_unique<ZipfSampler>(std::max<std::uint64_t>(st.lines, 1),
                                              s.zipf_s);
  }
  begin_window(0);
}

bool SyntheticTraceSource::stream_active(const StreamSpec& s,
                                         std::uint64_t w) const {
  switch (s.schedule) {
    case StreamSchedule::kAlways:
      return true;
    case StreamSchedule::kEvenDuty: {
      // Bresenham spreading: active iff the integer part of w*duty advances.
      const std::uint64_t wp = w + s.phase;
      const auto lo = static_cast<std::uint64_t>(
          std::floor(static_cast<double>(wp) * s.duty));
      const auto hi = static_cast<std::uint64_t>(
          std::floor(static_cast<double>(wp + 1) * s.duty));
      return hi > lo;
    }
    case StreamSchedule::kBlocked: {
      if (s.duty <= 0.0) return false;
      if (s.duty >= 1.0) return true;
      // Period chosen so that burst_len active windows realize `duty`.
      const auto period = static_cast<std::uint64_t>(std::llround(
          static_cast<double>(s.burst_len) / s.duty));
      const std::uint64_t pos = (w + s.phase) % std::max<std::uint64_t>(period, 1);
      return pos < s.burst_len;
    }
  }
  return false;
}

void SyntheticTraceSource::begin_window(std::uint64_t w) {
  active_idx_.clear();
  active_cdf_.clear();
  double acc = 0.0;
  for (std::size_t i = 0; i < spec_.streams.size(); ++i) {
    const StreamSpec& s = spec_.streams[i];
    bool on;
    if (s.gate >= 0) {
      // Gated stream: only eligible inside the parent's active windows; its
      // schedule position is the parent's activation index so the child's
      // active windows nest inside the parent's at the requested sub-duty.
      const StreamState& parent = states_[static_cast<std::size_t>(s.gate)];
      on = parent.active && parent.activations > 0 &&
           stream_active(s, parent.activations - 1);
    } else {
      on = stream_active(s, w);
    }
    states_[i].active = on;
    if (on) {
      ++states_[i].activations;
      active_idx_.push_back(i);
      acc += s.weight;
      active_cdf_.push_back(acc);
    }
  }
  if (active_idx_.empty()) {
    // Fallback: a CPU always issues accesses somewhere.  Route them to the
    // *lowest*-duty ungated stream: this perturbs the most-idle bank (whose
    // idleness barely matters for min-lifetime) instead of the least-idle
    // one, which is the statistic the aging results hinge on.
    std::size_t best = 0;
    for (std::size_t i = 1; i < spec_.streams.size(); ++i) {
      if (spec_.streams[i].gate >= 0) continue;
      if (spec_.streams[best].gate >= 0 ||
          spec_.streams[i].duty < spec_.streams[best].duty)
        best = i;
    }
    states_[best].active = true;
    ++states_[best].activations;
    active_idx_.push_back(best);
    active_cdf_.push_back(spec_.streams[best].weight);
  }
}

std::uint64_t SyntheticTraceSource::gen_address(std::size_t i) {
  const StreamSpec& s = spec_.streams[i];
  StreamState& st = states_[i];
  const std::uint64_t len = s.range_end - s.range_begin;
  switch (s.pattern) {
    case StreamPattern::kSequential: {
      const std::uint64_t a = st.cursor;
      st.cursor += s.walk_bytes;
      if (st.cursor >= s.range_end) st.cursor = s.range_begin;
      return a;
    }
    case StreamPattern::kStrided: {
      const std::uint64_t a = st.cursor;
      st.cursor += s.stride_bytes;
      if (st.cursor >= s.range_end)
        st.cursor = s.range_begin + (st.cursor - s.range_end) % len;
      return a;
    }
    case StreamPattern::kZipf: {
      const std::uint64_t line = st.zipf->sample(rng_);
      const std::uint64_t off = line * 16 + rng_.next_below(16) / 4 * 4;
      return s.range_begin + std::min(off, len - 1);
    }
    case StreamPattern::kUniformRandom: {
      const std::uint64_t line = rng_.next_below(std::max<std::uint64_t>(st.lines, 1));
      return s.range_begin + std::min(line * 16, len - 1);
    }
  }
  return s.range_begin;
}

inline MemAccess SyntheticTraceSource::step() {
  if (in_window_ == spec_.window_len) {
    in_window_ = 0;
    begin_window(++window_);
  }
  ++in_window_;
  ++produced_;

  // Pick an active stream, weighted: the first whose cumulative weight
  // reaches u.
  std::size_t chosen = active_idx_.front();
  if (active_idx_.size() > 1) {
    const double u = rng_.next_double() * active_cdf_.back();
    chosen = active_idx_[cdf_index(active_cdf_.data(), active_cdf_.size(), u)];
  }
  const std::uint64_t addr = gen_address(chosen);
  const AccessKind kind = rng_.next_bool(spec_.write_fraction)
                              ? AccessKind::kWrite
                              : AccessKind::kRead;
  return MemAccess{addr, kind};
}

std::optional<MemAccess> SyntheticTraceSource::next() {
  if (produced_ >= num_accesses_) return std::nullopt;
  return step();
}

std::size_t SyntheticTraceSource::next_batch(MemAccess* out,
                                             std::size_t max) {
  const std::uint64_t left = num_accesses_ - produced_;
  const std::size_t n = left < max ? static_cast<std::size_t>(left) : max;
  for (std::size_t i = 0; i < n; ++i) out[i] = step();
  return n;
}

std::vector<double> measure_window_idleness(TraceSource& source,
                                            std::uint64_t window_len,
                                            std::uint64_t region_bytes,
                                            std::uint64_t num_regions,
                                            std::uint64_t wrap_bytes) {
  PCAL_ASSERT(window_len > 0 && region_bytes > 0 && num_regions > 0);
  PCAL_ASSERT(wrap_bytes == region_bytes * num_regions);
  source.reset();
  std::vector<std::uint64_t> idle_windows(num_regions, 0);
  std::vector<bool> touched(num_regions, false);
  std::uint64_t windows = 0;
  std::uint64_t in_window = 0;
  for (;;) {
    auto a = source.next();
    if (!a) break;
    const std::uint64_t region = (a->address % wrap_bytes) / region_bytes;
    touched[region] = true;
    if (++in_window == window_len) {
      for (std::uint64_t r = 0; r < num_regions; ++r) {
        if (!touched[r]) ++idle_windows[r];
        touched[r] = false;
      }
      ++windows;
      in_window = 0;
    }
  }
  std::vector<double> out(num_regions, 0.0);
  if (windows == 0) return out;
  for (std::uint64_t r = 0; r < num_regions; ++r)
    out[r] = static_cast<double>(idle_windows[r]) /
             static_cast<double>(windows);
  return out;
}

}  // namespace pcal
