#include "trace/multiprogram.h"

#include <gtest/gtest.h>

#include "core/simulator.h"
#include "trace/workloads.h"
#include "util/error.h"

namespace pcal {
namespace {

MultiProgramConfig two_programs() {
  MultiProgramConfig cfg;
  cfg.programs = {make_mediabench_workload("sha"),
                  make_mediabench_workload("cjpeg")};
  cfg.quantum_accesses = 1000;
  cfg.address_stride = 1 << 20;
  return cfg;
}

TEST(MultiProgram, RoundRobinQuanta) {
  MultiProgramSource src(two_programs(), 10'000);
  EXPECT_EQ(src.num_programs(), 2u);
  EXPECT_EQ(src.quantum(), 1000u);
  for (std::uint64_t pos = 0; pos < 10'000; pos += 500) {
    EXPECT_EQ(src.program_at(pos), (pos / 1000) % 2);
  }
  EXPECT_FALSE(src.switch_before(0));
  EXPECT_TRUE(src.switch_before(1000));
  EXPECT_FALSE(src.switch_before(1500));
  EXPECT_TRUE(src.switch_before(2000));
}

TEST(MultiProgram, AddressSpacesAreDisjoint) {
  MultiProgramSource src(two_programs(), 20'000);
  std::uint64_t pos = 0;
  while (auto a = src.next()) {
    const std::uint64_t prog = src.program_at(pos++);
    EXPECT_EQ(a->address >> 20, prog) << "at position " << pos;
  }
  EXPECT_EQ(pos, 20'000u);
}

TEST(MultiProgram, DeterministicAcrossResets) {
  MultiProgramSource src(two_programs(), 5'000);
  std::vector<MemAccess> first;
  while (auto a = src.next()) first.push_back(*a);
  src.reset();
  std::vector<MemAccess> second;
  while (auto a = src.next()) second.push_back(*a);
  EXPECT_EQ(first, second);
}

TEST(MultiProgram, EachProgramProgressesAcrossQuanta) {
  // The same program must *continue* (not restart) at its next quantum:
  // its sequential cursors keep advancing.
  MultiProgramConfig cfg = two_programs();
  cfg.quantum_accesses = 100;
  MultiProgramSource src(cfg, 1'000);
  std::vector<std::uint64_t> q0, q2;  // program 0's first two quanta
  std::uint64_t pos = 0;
  while (auto a = src.next()) {
    if (pos < 100) q0.push_back(a->address);
    if (pos >= 200 && pos < 300) q2.push_back(a->address);
    ++pos;
  }
  EXPECT_NE(q0, q2);  // not a replay of the same window
}

TEST(MultiProgram, NameListsPrograms) {
  MultiProgramSource src(two_programs(), 100);
  EXPECT_EQ(src.name(), "multi[sha+cjpeg]");
}

TEST(MultiProgram, Validation) {
  MultiProgramConfig cfg;
  EXPECT_THROW(MultiProgramSource(cfg, 100), ConfigError);  // no programs
  cfg = two_programs();
  cfg.quantum_accesses = 0;
  EXPECT_THROW(MultiProgramSource(cfg, 100), ConfigError);
  cfg = two_programs();
  cfg.address_stride = 1024;  // smaller than the program footprints
  EXPECT_THROW(MultiProgramSource(cfg, 100), ConfigError);
}

TEST(MultiProgram, SizeHint) {
  MultiProgramSource src(two_programs(), 777);
  ASSERT_TRUE(src.size_hint().has_value());
  EXPECT_EQ(*src.size_hint(), 777u);
}

TEST(MultiProgram, BoundaryHintIsTheQuantum) {
  MultiProgramSource src(two_programs(), 10'000);
  ASSERT_TRUE(src.boundary_hint().has_value());
  EXPECT_EQ(*src.boundary_hint(), 1000u);
  // Single-stream sources report no boundary.
  SyntheticTraceSource plain(make_mediabench_workload("sha"), 100);
  EXPECT_FALSE(plain.boundary_hint().has_value());
}

TEST(MultiProgram, ParseSpec) {
  const MultiProgramConfig a = parse_multiprogram_spec("sha+cjpeg", 64 * 1024);
  ASSERT_EQ(a.programs.size(), 2u);
  EXPECT_EQ(a.programs[0].name, "sha");
  EXPECT_EQ(a.programs[1].name, "cjpeg");
  EXPECT_EQ(a.quantum_accesses, 100'000u);  // default

  const MultiProgramConfig b =
      parse_multiprogram_spec("uniform+streaming@50k", 32 * 1024);
  ASSERT_EQ(b.programs.size(), 2u);
  EXPECT_EQ(b.quantum_accesses, 50u * 1024u);

  EXPECT_THROW(parse_multiprogram_spec("", 1024), ConfigError);
  EXPECT_THROW(parse_multiprogram_spec("sha+nosuch", 1024), ConfigError);
  EXPECT_THROW(parse_multiprogram_spec("sha+cjpeg@0", 1024), ConfigError);
  EXPECT_THROW(parse_multiprogram_spec("sha+cjpeg@x", 1024), ConfigError);
  // A count, or a count times its scale, past 64 bits is rejected, not
  // wrapped or saturated into another quantum.
  EXPECT_THROW(parse_multiprogram_spec("sha+cjpeg@18014398509481985k", 1024),
               ConfigError);
  EXPECT_THROW(
      parse_multiprogram_spec("sha+cjpeg@99999999999999999999999", 1024),
      ConfigError);
  EXPECT_EQ(parse_multiprogram_quantum("18446744073709551615"),
            18'446'744'073'709'551'615u);
  EXPECT_EQ(parse_multiprogram_quantum("17592186044415m"),
            17'592'186'044'415u * 1024u * 1024u);
}

TEST(MultiProgram, QuantumAlignedReindexing) {
  // The simulator snaps its update interval down to a quantum multiple
  // (context-switch piggybacking) and flags the aligned snapshots.
  MultiProgramConfig cfg = two_programs();
  cfg.quantum_accesses = 1000;
  MultiProgramSource src(cfg, 64'000);

  SimConfig sim;
  sim.cache.size_bytes = 8192;
  sim.cache.line_bytes = 16;
  sim.partition.num_banks = 4;
  sim.indexing = IndexingKind::kProbing;
  sim.reindex_updates = 16;

  std::uint64_t boundaries = 0, context_switches = 0, fired = 0;
  std::uint64_t fired_not_switch = 0;
  const SimResult r = Simulator(sim).run(
      src, nullptr, [&](const IntervalSnapshot& snap) {
        if (snap.final_snapshot) return;
        ++boundaries;
        if (snap.context_switch) ++context_switches;
        if (snap.fired_update) {
          ++fired;
          if (!snap.context_switch) ++fired_not_switch;
        }
      });
  EXPECT_EQ(r.reindex_updates_applied, 16u);
  EXPECT_EQ(fired, 16u);
  EXPECT_GT(boundaries, 0u);
  // 64000 / 17 = 3764 snaps down to 3000 — a quantum multiple, so every
  // update boundary lands on a context switch.
  EXPECT_EQ(fired_not_switch, 0u);
  EXPECT_GE(context_switches, fired);
}

}  // namespace
}  // namespace pcal
