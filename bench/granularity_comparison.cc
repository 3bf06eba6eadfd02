// Granularity comparison: the paper's coarse-grain (bank) scheme vs the
// fine-grain (line) dynamic indexing of its reference [7].
//
// This regenerates the paper's *motivating* comparison (§I, §II-B, §III):
// line-level management is the aging-optimal upper bound but requires
// modifying the SRAM array internals; uniform banks get most of the
// benefit using standard memory-compiler macros.  We report lifetime and
// harvested idleness for: monolithic, banked M = 4/8/16 (probing), and
// line-grain probing.
//
// All five architectures run through the one polymorphic Simulator engine
// — the configs differ only in their CacheTopology.
#include "bench_common.h"

namespace {

using namespace pcal;
using namespace pcal::bench;

SimConfig fine_config() {
  SimConfig cfg = line_grain_variant(paper_config(8192, 16, 4));
  // Line grain needs >= L updates for perfect uniformity; 64 rotations
  // over the run is already deep into diminishing returns.
  cfg.reindex_updates = 64;
  return cfg;
}

}  // namespace

int main() {
  print_header("Granularity comparison — banks (this paper) vs lines [7]",
               "DATE'11 §I/§III motivation (8kB, 16B lines)");

  TextTable table({"benchmark", "mono:LT", "M4:LT", "M8:LT", "M16:LT",
                   "line:LT", "line:avg-idl"});

  double avg[5] = {};
  const auto& sigs = mediabench_signatures();

  // All five architectures per benchmark (mono, M=4/8/16, line), queued
  // as one 90-job grid and executed in one parallel sweep.
  SweepGrid grid(aging(), accesses());
  for (const auto& sig : sigs) {
    const auto spec = make_mediabench_workload(sig.name);
    for (std::uint64_t m : {4u, 8u, 16u})
      grid.add(spec, paper_config(8192, 16, m));
    grid.add(spec, monolithic_variant(paper_config(8192, 16, 4)));
    grid.add(spec, fine_config());
  }
  grid.run("granularity_comparison");

  std::size_t next = 0;
  for (const auto& sig : sigs) {
    std::vector<std::string> row{sig.name};
    double lts[4] = {};
    for (int i = 0; i < 3; ++i)
      lts[i + 1] = grid.result(next++).lifetime_years();
    const SimResult& mono = grid.result(next++);
    lts[0] = mono.lifetime_years();
    const SimResult& fine = grid.result(next++);
    row.push_back(TextTable::num(lts[0], 2));
    row.push_back(TextTable::num(lts[1], 2));
    row.push_back(TextTable::num(lts[2], 2));
    row.push_back(TextTable::num(lts[3], 2));
    row.push_back(TextTable::num(fine.lifetime_years(), 2));
    row.push_back(TextTable::pct(fine.avg_residency(), 1));
    table.add_row(std::move(row));
    avg[0] += lts[0];
    avg[1] += lts[1];
    avg[2] += lts[2];
    avg[3] += lts[3];
    avg[4] += fine.lifetime_years();
  }
  const double n = static_cast<double>(sigs.size());
  table.add_row({"Average", TextTable::num(avg[0] / n, 2),
                 TextTable::num(avg[1] / n, 2), TextTable::num(avg[2] / n, 2),
                 TextTable::num(avg[3] / n, 2), TextTable::num(avg[4] / n, 2),
                 "-"});
  print_table(table);
  std::cout
      << "expected shape: mono < M4 < M8 <= M16 < line.  The line-grain "
         "upper bound harvests intra-bank idleness the banked scheme "
         "cannot see, at the cost of per-line sleep hardware inside the "
         "SRAM macro — the trade-off the paper is built around.\n";
  return 0;
}
