// Table IV from its definitions: a test-local model of what the paper's
// Table IV reports, checked against every grid point of
// examples/table4.sweep.
//
// The model is written from the paper and docs/, not from the engine:
// it shares no engine code but the trace source, and it takes the
// breakeven d from the run's result.  Under the idealized clock (one
// access per cycle) the table's idleness and lifetime depend only on
// which bank each access reaches and when, so the model is:
//
//   - Fig. 1b's decode: the p most significant bits of a direct-mapped
//     cache's n-bit set index are the logical bank l;
//   - Fig. 2's Probing: the physical bank is f(l) = (l + c) mod M, where
//     c counts the updates applied so far;
//   - updates spread evenly: one every accesses / (updates + 1) accesses
//     while the update budget lasts;
//   - Fig. 1's Block Control: each bank's idle intervals are the gaps
//     between its accesses, the last one closed at the run's end, and a
//     bank sleeps len - d cycles of every interval strictly longer than
//     d (one sleep episode each).
//
// Per-bank accesses, sleep cycles and sleep episodes are integers and
// must match exactly.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "api/pcal.h"
#include "core/grid_spec.h"

namespace pcal {
namespace {

constexpr std::uint64_t kAccesses = 20000;

struct BankCounts {
  std::uint64_t accesses = 0;
  std::uint64_t sleep_cycles = 0;
  std::uint64_t sleep_episodes = 0;
};

struct Geometry {
  std::uint64_t cache_bytes;
  std::uint64_t line_bytes;
  std::uint64_t banks;    // M, a power of two
  std::uint64_t updates;  // the update budget
};

unsigned log2_of(std::uint64_t v) {
  unsigned bits = 0;
  while ((std::uint64_t{1} << bits) < v) ++bits;
  return bits;
}

/// The paper's Table IV quantities for one grid point, from the access
/// stream alone.
std::vector<BankCounts> reference(TraceSource& source, const Geometry& g,
                                  std::uint64_t accesses,
                                  std::uint64_t breakeven) {
  const std::uint64_t sets = g.cache_bytes / g.line_bytes;
  const unsigned line_bits = log2_of(sets) - log2_of(g.banks);
  const std::uint64_t interval =
      accesses > g.updates ? accesses / (g.updates + 1) : 0;

  std::vector<BankCounts> banks(g.banks);
  std::vector<std::uint64_t> first_idle(g.banks, 0);  // one past the last access
  const auto close_interval = [&](std::uint64_t bank, std::uint64_t end) {
    const std::uint64_t len = end - first_idle[bank];
    if (len > breakeven) {
      banks[bank].sleep_cycles += len - breakeven;
      ++banks[bank].sleep_episodes;
    }
  };

  std::uint64_t cycle = 0;
  std::uint64_t applied = 0;  // Probing's c
  source.reset();
  while (const std::optional<MemAccess> a = source.next()) {
    const std::uint64_t set = (a->address / g.line_bytes) % sets;
    const std::uint64_t logical = set >> line_bits;
    const std::uint64_t physical = (logical + applied) % g.banks;
    close_interval(physical, cycle);
    first_idle[physical] = cycle + 1;
    ++banks[physical].accesses;
    ++cycle;
    if (interval != 0 && cycle % interval == 0 && applied < g.updates)
      ++applied;
  }
  for (std::uint64_t b = 0; b < g.banks; ++b) close_interval(b, cycle);
  return banks;
}

TEST(Table4Reference, EveryGridPointMatchesTheDefinitions) {
  const GridSpec spec =
      GridSpec::load(std::string(PCAL_SOURCE_DIR) + "/examples/table4.sweep",
                     {"grid.accesses=" + std::to_string(kAccesses)});
  const api::GridRun run = api::run_grid(spec);
  ASSERT_EQ(run.jobs.size(), 216u);
  ASSERT_EQ(run.outcomes.size(), run.jobs.size());

  for (std::size_t i = 0; i < run.jobs.size(); ++i) {
    const GridJob& job = run.jobs[i];
    const SweepOutcome& out = run.outcomes[i];
    ASSERT_TRUE(out.ok()) << out.error_what;
    const SimConfig& c = job.config;
    // The model covers the table's configurations only.
    ASSERT_EQ(c.granularity, Granularity::kBank);
    ASSERT_EQ(c.indexing, IndexingKind::kProbing);
    ASSERT_EQ(c.cache.ways, 1u);
    ASSERT_TRUE(c.latency.zero());

    const Geometry g{c.cache.size_bytes, c.cache.line_bytes,
                     c.partition.num_banks, c.reindex_updates};
    const SimResult& r = out.result;
    const std::unique_ptr<TraceSource> source = job.make_source();
    const std::vector<BankCounts> want =
        reference(*source, g, kAccesses, r.breakeven_cycles);

    const std::string at = "job " + std::to_string(i) + " (" + r.workload +
                           ", " + r.config_label + ")";
    ASSERT_EQ(r.accesses, kAccesses) << at;
    ASSERT_EQ(r.total_cycles, kAccesses) << at;
    ASSERT_EQ(r.reindex_updates_applied, g.updates) << at;
    ASSERT_EQ(r.units.size(), want.size()) << at;
    for (std::size_t b = 0; b < want.size(); ++b) {
      EXPECT_EQ(r.units[b].accesses, want[b].accesses) << at << " bank " << b;
      EXPECT_EQ(r.units[b].sleep_cycles, want[b].sleep_cycles)
          << at << " bank " << b;
      EXPECT_EQ(r.units[b].sleep_episodes, want[b].sleep_episodes)
          << at << " bank " << b;
    }
  }
}

}  // namespace
}  // namespace pcal
