// Regenerates §IV-B.2: impact of the re-indexing policy.
//
// Two artifacts:
//  (1) RNG repetition error of Scrambling: over N updates, each of the M
//      XOR patterns should repeat N/M times; the paper states the error is
//      inversely proportional to sqrt(N).  We measure it from the LFSR.
//  (2) Full-simulation comparison of Probing vs Scrambling vs Static on
//      lifetime and energy: "de facto identical results" for the first two.
#include <cmath>

#include "bench_common.h"
#include "indexing/index_rotation.h"

int main() {
  using namespace pcal;
  using namespace pcal::bench;

  print_header("Re-indexing policy study",
               "DATE'11 §IV-B.2 (Probing vs Scrambling)");

  // ---- (1) Scrambling RNG repetition error vs number of updates ----
  std::cout << "LFSR pattern-repetition error (M = 8):\n";
  TextTable err_table({"updates N", "error", "error*sqrt(N)"});
  for (std::uint64_t n : {64u, 256u, 1024u, 4096u, 16384u, 65536u}) {
    IndexRotation s(IndexingKind::kScrambling, 3, 1);
    std::vector<std::uint64_t> counts(8, 0);
    for (std::uint64_t u = 0; u < n; ++u) {
      s.update();
      ++counts[s.pattern()];
    }
    const double ideal = static_cast<double>(n) / 8.0;
    double worst = 0.0;
    for (std::uint64_t c : counts)
      worst = std::max(worst,
                       std::abs(static_cast<double>(c) - ideal) / ideal);
    err_table.add_row({std::to_string(n), TextTable::num(worst, 4),
                       TextTable::num(worst * std::sqrt(double(n)), 2)});
  }
  print_table(err_table);
  std::cout << "(error*sqrt(N) roughly constant -> error ~ 1/sqrt(N), as "
               "stated in the paper)\n\n";

  // ---- (2) policy comparison on the full simulator ----
  TextTable cmp({"benchmark", "static:LT", "probing:LT", "scrambling:LT",
                 "probing:Esav", "scrambling:Esav"});
  double avg_p = 0.0, avg_s = 0.0;
  const auto& sigs = mediabench_signatures();
  for (const auto& sig : sigs) {
    const auto spec = make_mediabench_workload(sig.name);
    SimConfig cfg = paper_config(8192, 16, 4);
    cfg.reindex_updates = 64;  // give the LFSR room to mix
    const SimResult st =
        run_workload(spec, static_variant(cfg), aging(), accesses());
    const SimResult pr = run_workload(spec, cfg, aging(), accesses());
    cfg.indexing = IndexingKind::kScrambling;
    const SimResult sc = run_workload(spec, cfg, aging(), accesses());
    cmp.add_row({sig.name, TextTable::num(st.lifetime_years(), 2),
                 TextTable::num(pr.lifetime_years(), 2),
                 TextTable::num(sc.lifetime_years(), 2),
                 TextTable::pct(pr.energy_saving(), 1),
                 TextTable::pct(sc.energy_saving(), 1)});
    avg_p += pr.lifetime_years();
    avg_s += sc.lifetime_years();
  }
  print_table(cmp);
  const double n = static_cast<double>(sigs.size());
  std::cout << "average lifetime: probing "
            << TextTable::num(avg_p / n, 3) << "y, scrambling "
            << TextTable::num(avg_s / n, 3)
            << "y (paper: de facto identical)\n";
  return 0;
}
