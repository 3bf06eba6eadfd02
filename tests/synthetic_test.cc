#include "trace/synthetic.h"

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "trace/workloads.h"
#include "util/error.h"

namespace pcal {
namespace {

WorkloadSpec one_stream_spec(StreamPattern pattern, double duty = 1.0,
                             StreamSchedule sched = StreamSchedule::kAlways) {
  WorkloadSpec spec;
  spec.name = "test";
  spec.footprint_bytes = 8192;
  spec.window_len = 100;
  spec.write_fraction = 0.5;
  spec.seed = 3;
  StreamSpec s;
  s.range_begin = 1024;
  s.range_end = 3072;
  s.duty = duty;
  s.pattern = pattern;
  s.schedule = sched;
  spec.streams.push_back(s);
  return spec;
}

TEST(Synthetic, DeterministicAcrossResets) {
  SyntheticTraceSource src(one_stream_spec(StreamPattern::kZipf), 5000);
  std::vector<MemAccess> first;
  while (auto a = src.next()) first.push_back(*a);
  src.reset();
  std::vector<MemAccess> second;
  while (auto a = src.next()) second.push_back(*a);
  ASSERT_EQ(first.size(), 5000u);
  EXPECT_EQ(first, second);
}

TEST(Synthetic, AddressesStayInStreamRange) {
  for (auto pattern :
       {StreamPattern::kSequential, StreamPattern::kStrided,
        StreamPattern::kZipf, StreamPattern::kUniformRandom}) {
    SyntheticTraceSource src(one_stream_spec(pattern), 20000);
    while (auto a = src.next()) {
      EXPECT_GE(a->address, 1024u);
      EXPECT_LT(a->address, 3072u);
    }
  }
}

TEST(Synthetic, WriteFractionRespected) {
  SyntheticTraceSource src(one_stream_spec(StreamPattern::kUniformRandom),
                           50000);
  std::uint64_t writes = 0, total = 0;
  while (auto a = src.next()) {
    ++total;
    if (a->kind == AccessKind::kWrite) ++writes;
  }
  EXPECT_NEAR(static_cast<double>(writes) / static_cast<double>(total), 0.5,
              0.02);
}

TEST(Synthetic, SizeHint) {
  SyntheticTraceSource src(one_stream_spec(StreamPattern::kZipf), 123);
  ASSERT_TRUE(src.size_hint().has_value());
  EXPECT_EQ(*src.size_hint(), 123u);
  int n = 0;
  while (src.next()) ++n;
  EXPECT_EQ(n, 123);
}

// EvenDuty realizes the requested duty to high precision over many windows.
class EvenDutyFraction : public ::testing::TestWithParam<double> {};

TEST_P(EvenDutyFraction, ActiveWindowShareMatchesDuty) {
  const double duty = GetParam();
  WorkloadSpec spec;
  spec.footprint_bytes = 8192;
  spec.window_len = 50;
  spec.seed = 1;
  StreamSpec hot;  // keeps the fallback away from the probe stream
  hot.range_begin = 0;
  hot.range_end = 1024;
  hot.schedule = StreamSchedule::kAlways;
  spec.streams.push_back(hot);
  StreamSpec probe;
  probe.range_begin = 4096;
  probe.range_end = 6144;
  probe.duty = duty;
  probe.schedule = StreamSchedule::kEvenDuty;
  spec.streams.push_back(probe);

  const std::uint64_t windows = 4000;
  SyntheticTraceSource src(spec, windows * spec.window_len);
  const auto idle =
      measure_window_idleness(src, spec.window_len, 2048, 4, 8192);
  // Probe stream owns region 2 ([4096, 6144)).
  EXPECT_NEAR(idle[2], 1.0 - duty, 0.01) << "duty " << duty;
}

INSTANTIATE_TEST_SUITE_P(Duties, EvenDutyFraction,
                         ::testing::Values(0.0, 0.05, 0.25, 0.5, 0.75, 0.97,
                                           1.0));

TEST(Synthetic, BlockedScheduleMatchesDutyAndBursts) {
  WorkloadSpec spec;
  spec.footprint_bytes = 8192;
  spec.window_len = 50;
  spec.seed = 1;
  StreamSpec hot;
  hot.range_begin = 0;
  hot.range_end = 1024;
  hot.schedule = StreamSchedule::kAlways;
  spec.streams.push_back(hot);
  StreamSpec burst;
  burst.range_begin = 2048;
  burst.range_end = 4096;
  burst.duty = 0.25;
  burst.schedule = StreamSchedule::kBlocked;
  burst.burst_len = 10;  // period 40: 10 on, 30 off
  spec.streams.push_back(burst);

  SyntheticTraceSource src(spec, 4000 * 50);
  const auto idle = measure_window_idleness(src, 50, 2048, 4, 8192);
  EXPECT_NEAR(idle[1], 0.75, 0.02);
}

TEST(Synthetic, GatedStreamNestsInsideParent) {
  WorkloadSpec spec;
  spec.footprint_bytes = 8192;
  spec.window_len = 50;
  spec.seed = 9;
  StreamSpec hot;  // pins the fallback so the probe streams stay untouched
  hot.range_begin = 6144;
  hot.range_end = 7168;
  hot.schedule = StreamSchedule::kAlways;
  spec.streams.push_back(hot);
  StreamSpec parent;
  parent.range_begin = 0;
  parent.range_end = 1024;
  parent.duty = 0.5;
  parent.schedule = StreamSchedule::kEvenDuty;
  spec.streams.push_back(parent);
  StreamSpec child = parent;
  child.range_begin = 1024;
  child.range_end = 2048;
  child.duty = 0.5;  // half of the parent's active windows
  child.gate = 1;    // the parent above (stream 0 is the fallback pin)
  spec.streams.push_back(child);

  const std::uint64_t windows = 4000;
  SyntheticTraceSource src(spec, windows * spec.window_len);
  const auto idle = measure_window_idleness(src, 50, 1024, 8, 8192);
  // Parent active 50% of windows; child active in half of those (25%).
  EXPECT_NEAR(idle[0], 0.5, 0.02);
  EXPECT_NEAR(idle[1], 0.75, 0.02);
  // Union granularity (2kB regions): union duty == parent duty exactly.
  SyntheticTraceSource src2(spec, windows * spec.window_len);
  const auto idle2 = measure_window_idleness(src2, 50, 2048, 4, 8192);
  EXPECT_NEAR(idle2[0], 0.5, 0.02);
}

TEST(Synthetic, FallbackKeepsTraceNonEmptyEveryWindow) {
  // All streams have low duty; some windows would otherwise have no active
  // stream.  The generator must still emit exactly num_accesses accesses.
  WorkloadSpec spec;
  spec.footprint_bytes = 8192;
  spec.window_len = 20;
  spec.seed = 4;
  for (int i = 0; i < 2; ++i) {
    StreamSpec s;
    s.range_begin = static_cast<std::uint64_t>(i) * 2048;
    s.range_end = s.range_begin + 2048;
    s.duty = 0.1;
    s.phase = static_cast<std::uint64_t>(13 * i);
    spec.streams.push_back(s);
  }
  SyntheticTraceSource src(spec, 10000);
  int n = 0;
  while (src.next()) ++n;
  EXPECT_EQ(n, 10000);
}

TEST(Synthetic, ValidationCatchesBadSpecs) {
  WorkloadSpec spec = one_stream_spec(StreamPattern::kZipf);
  spec.streams[0].range_end = spec.streams[0].range_begin;  // empty range
  EXPECT_THROW(SyntheticTraceSource(spec, 10), ConfigError);

  spec = one_stream_spec(StreamPattern::kZipf);
  spec.streams[0].range_end = spec.footprint_bytes + 1;
  EXPECT_THROW(SyntheticTraceSource(spec, 10), ConfigError);

  spec = one_stream_spec(StreamPattern::kZipf);
  spec.streams[0].duty = 1.5;
  EXPECT_THROW(SyntheticTraceSource(spec, 10), ConfigError);

  spec = one_stream_spec(StreamPattern::kZipf);
  spec.streams.clear();
  EXPECT_THROW(SyntheticTraceSource(spec, 10), ConfigError);

  spec = one_stream_spec(StreamPattern::kZipf);
  spec.streams[0].gate = 0;  // self-gate
  EXPECT_THROW(SyntheticTraceSource(spec, 10), ConfigError);

  spec = one_stream_spec(StreamPattern::kZipf);
  spec.write_fraction = -0.1;
  EXPECT_THROW(SyntheticTraceSource(spec, 10), ConfigError);
}

TEST(Synthetic, NextBatchMatchesNextAtEveryBatchSize) {
  // next() and next_batch() share one per-access step: every batch size
  // replays next()'s exact sequence, from the start and after reset()
  // (also a reset mid-stream).  10007 accesses is no multiple of any
  // batch size, so the final short batch is exercised too.
  std::vector<WorkloadSpec> specs = all_mediabench_workloads();
  specs.push_back(make_uniform_workload(16384));
  specs.push_back(make_streaming_workload(16384));
  specs.push_back(make_hotspot_workload(16384));
  constexpr std::uint64_t kAccesses = 10007;
  for (const WorkloadSpec& spec : specs) {
    SyntheticTraceSource reference(spec, kAccesses);
    std::vector<MemAccess> want;
    while (auto a = reference.next()) want.push_back(*a);
    ASSERT_EQ(want.size(), kAccesses) << spec.name;
    for (const std::size_t batch : {1u, 7u, 256u, 4096u}) {
      SCOPED_TRACE(spec.name + " batch " + std::to_string(batch));
      SyntheticTraceSource source(spec, kAccesses);
      std::vector<MemAccess> buf(batch);
      const auto drain = [&] {
        std::vector<MemAccess> got;
        while (const std::size_t n = source.next_batch(buf.data(), batch))
          got.insert(got.end(), buf.begin(),
                     buf.begin() + static_cast<std::ptrdiff_t>(n));
        return got;
      };
      EXPECT_EQ(drain(), want);
      EXPECT_EQ(source.next_batch(buf.data(), batch), 0u);
      source.reset();
      EXPECT_EQ(drain(), want);
      source.reset();
      source.next_batch(buf.data(), batch);  // part of the stream ...
      source.reset();                        // ... then start over
      EXPECT_EQ(drain(), want);
    }
  }
}

/// FNV-1a over every access's address and kind, in stream order.
std::uint64_t stream_digest(TraceSource& source) {
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](std::uint64_t v) {
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (v >> (8 * byte)) & 0xff;
      h *= 1099511628211ull;
    }
  };
  std::vector<MemAccess> buf(256);
  while (const std::size_t n = source.next_batch(buf.data(), buf.size()))
    for (std::size_t i = 0; i < n; ++i) {
      mix(buf[i].address);
      mix(static_cast<std::uint64_t>(buf[i].kind));
    }
  return h;
}

TEST(Synthetic, MediaBenchStreamsArePinned) {
  // Every paper table and golden reads these streams, so the generator's
  // arithmetic (the RNG, the Zipf and stream-choice searches) must not
  // move them: each MediaBench stream's first 100k accesses are pinned
  // by digest.
  const std::map<std::string, std::uint64_t> want = {
      {"adpcm.dec", 0xf57eeff512b0dddull},
      {"cjpeg", 0xc83c4d90747be9aeull},
      {"CRC32", 0xda3631cfaeb7571cull},
      {"dijkstra", 0xf52942ff8172c688ull},
      {"djpeg", 0xf1c9c84b3abf2301ull},
      {"fft_1", 0xdda810955e6ad1bbull},
      {"fft_2", 0x9ea4da937a3a7c3dull},
      {"gsmd", 0x25b8a771067ff8d2ull},
      {"gsme", 0xe05d8c055c13eaa4ull},
      {"ispell", 0xb56350be07846044ull},
      {"lame", 0xff19a71cc94675caull},
      {"mad", 0x34288830287b79ceull},
      {"rijndael_i", 0x68e9102f1221c86cull},
      {"rijndael_o", 0x5cae62b3d55acdc5ull},
      {"say", 0xfe344ebe384486c4ull},
      {"search", 0xa0f1be3a485824f5ull},
      {"sha", 0x70a5ac55ddf7f3e9ull},
      {"tiff2bw", 0x377f1ea3efb37e31ull},
  };
  const std::vector<WorkloadSpec> specs = all_mediabench_workloads();
  ASSERT_EQ(specs.size(), want.size());
  for (const WorkloadSpec& spec : specs) {
    SyntheticTraceSource source(spec, 100000);
    EXPECT_EQ(stream_digest(source), want.at(spec.name)) << spec.name;
  }
}

TEST(MeasureWindowIdleness, CountsUntouchedRegions) {
  // A trace that touches region 0 every window and region 2 in every other
  // window.
  Trace t("crafted", {});
  for (int w = 0; w < 100; ++w) {
    for (int i = 0; i < 9; ++i) t.push_back({0, AccessKind::kRead});
    t.push_back({static_cast<std::uint64_t>(w % 2 ? 4096 : 0),
                 AccessKind::kRead});
  }
  const auto idle = measure_window_idleness(t, 10, 2048, 4, 8192);
  EXPECT_DOUBLE_EQ(idle[0], 0.0);
  EXPECT_DOUBLE_EQ(idle[1], 1.0);
  EXPECT_NEAR(idle[2], 0.5, 1e-9);
  EXPECT_DOUBLE_EQ(idle[3], 1.0);
}

}  // namespace
}  // namespace pcal
