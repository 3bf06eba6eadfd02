#include "trace/workloads.h"

#include <gtest/gtest.h>

#include <unordered_set>

#include "util/error.h"

namespace pcal {
namespace {

TEST(Workloads, AllEighteenBenchmarksExist) {
  const auto& sigs = mediabench_signatures();
  EXPECT_EQ(sigs.size(), 18u);
  EXPECT_EQ(sigs.front().name, "adpcm.dec");
  EXPECT_EQ(sigs.back().name, "tiff2bw");
  const auto all = all_mediabench_workloads();
  EXPECT_EQ(all.size(), 18u);
}

TEST(Workloads, UnknownNameThrows) {
  EXPECT_THROW(make_mediabench_workload("quake3"), ConfigError);
}

TEST(Workloads, SignatureAggregates) {
  const auto& sigs = mediabench_signatures();
  const auto& adpcm = sigs[0];  // {2.46, 99.98, 99.98, 3.75}%
  EXPECT_NEAR(adpcm.min(), 0.0246, 1e-9);
  EXPECT_NEAR(adpcm.max(), 0.9998, 1e-9);
  EXPECT_NEAR(adpcm.average(), (0.0246 + 0.9998 + 0.9998 + 0.0375) / 4.0,
              1e-9);
}

TEST(Workloads, SpecsValidateAndHaveGatedSiblings) {
  for (const auto& spec : all_mediabench_workloads()) {
    EXPECT_NO_THROW(spec.validate()) << spec.name;
    EXPECT_EQ(spec.streams.size(), 8u) << spec.name;  // 4 parents + 4 gated
    int gated = 0;
    for (const auto& s : spec.streams)
      if (s.gate >= 0) ++gated;
    EXPECT_EQ(gated, 4) << spec.name;
  }
}

TEST(Workloads, StreamsMapToDistinctReferenceBanks) {
  // On the 8kB reference configuration, each parent stream must land in
  // the bank whose Table I idleness it encodes.
  for (const auto& spec : all_mediabench_workloads()) {
    std::uint64_t expected_bank = 0;
    for (const auto& s : spec.streams) {
      if (s.gate >= 0) continue;
      const std::uint64_t bank = (s.range_begin % 8192) / 2048;
      EXPECT_EQ(bank, expected_bank) << spec.name;
      ++expected_bank;
    }
  }
}

// The Table I fidelity property: measured window idleness of the reference
// configuration matches the paper's signature for every benchmark.
class TableOneFidelity : public ::testing::TestWithParam<int> {};

TEST_P(TableOneFidelity, WindowIdlenessMatchesSignature) {
  const auto& sig =
      mediabench_signatures()[static_cast<std::size_t>(GetParam())];
  auto spec = make_mediabench_workload(sig.name);
  SyntheticTraceSource src(spec, 800'000);
  const auto idle =
      measure_window_idleness(src, spec.window_len, 2048, 4, 8192);
  for (int b = 0; b < 4; ++b) {
    EXPECT_NEAR(idle[static_cast<std::size_t>(b)],
                sig.bank_idleness[static_cast<std::size_t>(b)], 0.045)
        << sig.name << " bank " << b;
  }
}

INSTANTIATE_TEST_SUITE_P(AllBenchmarks, TableOneFidelity,
                         ::testing::Range(0, 18));

TEST(Workloads, UniformWorkloadHasNoRegionIdleness) {
  auto spec = make_uniform_workload(8192);
  SyntheticTraceSource src(spec, 400'000);
  const auto idle = measure_window_idleness(src, spec.window_len, 2048, 4,
                                            8192);
  for (double i : idle) EXPECT_LT(i, 0.01);
}

TEST(Workloads, HotspotWorkloadConcentrates) {
  auto spec = make_hotspot_workload(8192, 1.0, 0.05);
  SyntheticTraceSource src(spec, 400'000);
  const auto idle = measure_window_idleness(src, spec.window_len, 2048, 4,
                                            8192);
  EXPECT_LT(idle[0], 0.01);   // hot bank never idle
  EXPECT_GT(idle[1], 0.85);   // cold banks mostly idle
  EXPECT_GT(idle[2], 0.85);
  EXPECT_GT(idle[3], 0.85);
}

TEST(Workloads, HotspotRejectsTinyFootprint) {
  EXPECT_THROW(make_hotspot_workload(4096), ConfigError);
}

TEST(Workloads, SyntheticWorkloadsShowReuse) {
  // MediaBench-like workloads must look like real programs: substantial
  // line reuse and a footprint bounded by the spec.
  const auto spec = make_mediabench_workload("rijndael_i");
  SyntheticTraceSource src(spec, 100'000);
  constexpr std::uint64_t kLineBytes = 16;
  std::unordered_set<std::uint64_t> lines;
  std::uint64_t accesses = 0, reuses = 0, writes = 0;
  while (auto a = src.next()) {
    ++accesses;
    if (!lines.insert(a->address / kLineBytes).second) ++reuses;
    if (a->kind == AccessKind::kWrite) ++writes;
  }
  const double n = static_cast<double>(accesses);
  EXPECT_EQ(accesses, 100'000u);
  EXPECT_GT(static_cast<double>(reuses) / n, 0.9);
  EXPECT_LE(lines.size() * kLineBytes, spec.footprint_bytes);
  EXPECT_NEAR(static_cast<double>(writes) / n, spec.write_fraction, 0.02);
}

TEST(Workloads, StreamingWalksWholeFootprint) {
  auto spec = make_streaming_workload(16384);
  SyntheticTraceSource src(spec, 100'000);
  std::uint64_t max_addr = 0;
  while (auto a = src.next()) max_addr = std::max(max_addr, a->address);
  EXPECT_GT(max_addr, 16384u - 64u);
}

}  // namespace
}  // namespace pcal
