// End-to-end reproduction checks against the paper's published numbers.
//
// Tolerances are deliberately loose where the paper's value depends on the
// authors' exact traces (per-benchmark rows) and tight where our
// calibration pins the model (averages, the lifetime law, orderings).
//
// Every check runs its grid through api::run_grid, pcalsweep's path: the
// points that share a workload run as one lockstep cohort (one generated
// stream) on the worker pool.  Keys a grid leaves unset keep their
// defaults, which are the paper's configuration: bank granularity, a
// direct-mapped cache, Probing and 16 re-indexing updates.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "api/pcal.h"
#include "core/experiment.h"

namespace pcal {
namespace {

/// The results of the grid whose [sweep] section is `sweep`, at 1M
/// accesses per point, in grid order (first axis outermost).
std::vector<SimResult> run_grid(const std::string& sweep) {
  const api::GridRun run =
      api::run_grid_text("[grid]\naccesses = 1000000\n[sweep]\n" + sweep);
  std::vector<SimResult> results;
  for (const SweepOutcome& o : run.outcomes) {
    o.rethrow_if_error();
    results.push_back(o.result);
  }
  return results;
}

/// "cache_size = 8192\nline_size = 16\nbanks = 4\n"
std::string geometry(std::uint64_t size_bytes, std::uint64_t line_bytes,
                     std::uint64_t banks) {
  return "cache_size = " + std::to_string(size_bytes) +
         "\nline_size = " + std::to_string(line_bytes) +
         "\nbanks = " + std::to_string(banks) + "\n";
}

/// One workload on the paper's three architectures, the grid's innermost
/// axes.  A monolithic cache has one unit and fires no updates, so its
/// two indexing points are one design; the static one is read.
ThreeWayResult three_way_grid(const std::string& workload,
                              std::uint64_t size_bytes,
                              std::uint64_t line_bytes,
                              std::uint64_t banks) {
  const std::vector<SimResult> r =
      run_grid("workload = " + workload + "\n" +
               geometry(size_bytes, line_bytes, banks) +
               "granularity = bank, monolithic\nindexing = probing, static\n");
  ThreeWayResult out;
  out.reindexed = r.at(0);   // bank, probing
  out.static_pm = r.at(1);   // bank, static
  out.monolithic = r.at(3);  // monolithic, static
  return out;
}

struct SuiteAverages {
  double esav = 0.0;
  double lt0 = 0.0;
  double lt = 0.0;
  double idleness = 0.0;  // average reindexed residency
};

/// The 18 MediaBench workloads, each re-indexed (Probing) and static.
SuiteAverages run_suite_uncached(std::uint64_t size_bytes,
                                 std::uint64_t line_bytes,
                                 std::uint64_t banks) {
  const std::vector<SimResult> r =
      run_grid("workload = mediabench\n" +
               geometry(size_bytes, line_bytes, banks) +
               "indexing = probing, static\n");
  SuiteAverages avg;
  const std::size_t workloads = r.size() / 2;
  for (std::size_t w = 0; w < workloads; ++w) {
    const SimResult& reindexed = r[2 * w];
    avg.esav += reindexed.energy_saving();
    avg.lt0 += r[2 * w + 1].lifetime_years();
    avg.lt += reindexed.lifetime_years();
    avg.idleness += reindexed.avg_residency();
  }
  const double n = static_cast<double>(workloads);
  avg.esav /= n;
  avg.lt0 /= n;
  avg.lt /= n;
  avg.idleness /= n;
  return avg;
}

// Several tests aggregate the same 18-workload sweep; memoize it.
SuiteAverages run_suite(std::uint64_t size_bytes, std::uint64_t line_bytes,
                        std::uint64_t banks) {
  static std::map<std::tuple<std::uint64_t, std::uint64_t, std::uint64_t>,
                  SuiteAverages>
      cache;
  const auto key = std::make_tuple(size_bytes, line_bytes, banks);
  auto it = cache.find(key);
  if (it == cache.end())
    it = cache.emplace(key, run_suite_uncached(size_bytes, line_bytes,
                                               banks))
             .first;
  return it->second;
}

// ---- Table II (8kB column): the reference configuration ----

TEST(PaperTable2, SuiteAverages8kB) {
  const SuiteAverages a = run_suite(8192, 16, 4);
  // Paper: Esav 32.2%, LT0 3.22y, LT 4.34y.
  EXPECT_NEAR(a.esav, 0.322, 0.06);
  EXPECT_NEAR(a.lt0, 3.22, 0.25);
  EXPECT_NEAR(a.lt, 4.34, 0.30);
  // Idleness harvested ~42% on average (Table IV, 8kB / 4 banks).
  EXPECT_NEAR(a.idleness, 0.42, 0.05);
}

// Per-benchmark rows: the four whose Table I signatures span the range
// (near-dead banks, balanced, skewed).  Paper values in comments.
struct RowCase {
  const char* name;
  double lt0;  // paper LT0, 8kB
  double lt;   // paper LT, 8kB
};

class Table2Row : public ::testing::TestWithParam<RowCase> {};

TEST_P(Table2Row, LifetimesCloseToPaper) {
  const RowCase& row = GetParam();
  const auto r = three_way_grid(row.name, 8192, 16, 4);
  EXPECT_NEAR(r.static_pm.lifetime_years(), row.lt0, 0.12) << row.name;
  EXPECT_NEAR(r.reindexed.lifetime_years(), row.lt, 0.40) << row.name;
  EXPECT_NEAR(r.monolithic.lifetime_years(), 2.93, 0.05) << row.name;
}

INSTANTIATE_TEST_SUITE_P(
    SelectedRows, Table2Row,
    ::testing::Values(RowCase{"adpcm.dec", 2.98, 4.82},
                      RowCase{"CRC32", 2.98, 3.40},
                      RowCase{"dijkstra", 3.26, 3.99},
                      RowCase{"mad", 3.73, 4.10},
                      RowCase{"say", 3.27, 4.92},
                      RowCase{"sha", 3.00, 4.74}),
    [](const auto& info) {
      std::string n = info.param.name;
      for (char& c : n)
        if (c == '.') c = '_';
      return n;
    });

// ---- Table II size trend: energy saving grows with cache size ----

constexpr const char* kSizes =
    "cache_size = 8192, 16384, 32768\nline_size = 16\nbanks = 4\n";

TEST(PaperTable2, EnergySavingGrowsWithCacheSize) {
  const std::vector<SimResult> by_size =
      run_grid(std::string("workload = ispell\n") + kSizes);
  double prev = -1.0;
  std::size_t next = 0;
  for (std::uint64_t kb : {8u, 16u, 32u}) {
    const SimResult& r = by_size.at(next++);
    EXPECT_GT(r.energy_saving(), prev) << kb << "kB";
    prev = r.energy_saving();
  }
}

TEST(PaperTable2, LifetimeInsensitiveToCacheSize) {
  // Paper: "the cache size has a limited impact on the lifetime".
  std::vector<double> lts;
  for (const SimResult& r :
       run_grid(std::string("workload = lame\n") + kSizes))
    lts.push_back(r.lifetime_years());
  for (double lt : lts) {
    EXPECT_GT(lt, 3.2);
    EXPECT_LT(lt, 5.6);
  }
}

// ---- Table III: line size ----

TEST(PaperTable3, LineSizeCutsEnergyNotLifetime) {
  const std::vector<SimResult> r = run_grid(
      "workload = gsme\ncache_size = 16384\nbanks = 4\nline_size = 16, 32\n");
  const SimResult& r16 = r.at(0);
  const SimResult& r32 = r.at(1);
  // Energy saving drops with the larger line (paper: 44.3% -> 31.9% avg).
  EXPECT_LT(r32.energy_saving(), r16.energy_saving() - 0.01);
  // Lifetime is nearly untouched (paper: 4.31 -> 4.23 avg).
  EXPECT_NEAR(r32.lifetime_years(), r16.lifetime_years(), 0.45);
}

// ---- Table IV: number of banks ----

TEST(PaperTable4, IdlenessAndLifetimeGrowWithBanks) {
  // Paper (8kB): idleness 15/42/58%, LT 3.34/4.34/5.30 for M = 2/4/8.
  double prev_idle = -1.0, prev_lt = 0.0;
  for (std::uint64_t m : {2u, 4u, 8u}) {
    const SuiteAverages a = run_suite(8192, 16, m);
    EXPECT_GT(a.idleness, prev_idle) << "M=" << m;
    EXPECT_GT(a.lt, prev_lt) << "M=" << m;
    prev_idle = a.idleness;
    prev_lt = a.lt;
  }
}

TEST(PaperTable4, TwoBankIdlenessNearPaper) {
  const SuiteAverages a = run_suite(8192, 16, 2);
  EXPECT_NEAR(a.idleness, 0.15, 0.07);
  EXPECT_NEAR(a.lt, 3.34, 0.30);
}

TEST(PaperTable4, EightBankLifetimeNearPaper) {
  const SuiteAverages a = run_suite(8192, 16, 8);
  EXPECT_NEAR(a.lt, 5.30, 0.55);
}

// ---- headline claims (§I / §V) ----

TEST(PaperHeadline, PowerManagementAloneGivesAboutNinePercent) {
  const SuiteAverages a = run_suite(8192, 16, 4);
  const double ext = a.lt0 / 2.93 - 1.0;
  EXPECT_GT(ext, 0.03);
  EXPECT_LT(ext, 0.18);  // paper: ~9%
}

TEST(PaperHeadline, ReindexingReachesUpToTwoX) {
  // sha reaches ~2x in the paper (6.09y at 32kB; 4.74 at 8kB).
  const auto r = three_way_grid("sha", 8192, 16, 4);
  EXPECT_GT(r.extension_vs_monolithic(), 1.5);
}

TEST(PaperHeadline, ProbingAndScramblingAreEquivalent) {
  // §IV-B.2: "Probing and Scrambling provide de facto identical results."
  // 64 updates: enough for the LFSR to mix.
  const std::vector<SimResult> r =
      run_grid("workload = rijndael_o\n" + geometry(8192, 16, 4) +
                    "updates = 64\nindexing = probing, scrambling\n");
  const SimResult& probing = r.at(0);
  const SimResult& scrambling = r.at(1);
  EXPECT_NEAR(probing.lifetime_years(), scrambling.lifetime_years(),
              probing.lifetime_years() * 0.10);
  EXPECT_NEAR(probing.energy_saving(), scrambling.energy_saving(), 0.02);
}

}  // namespace
}  // namespace pcal
