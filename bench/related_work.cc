// Related-work axes (paper §II-B): content inversion [11]/[15] balances
// the *value* stress (p0 -> 0.5); this paper's re-indexing balances the
// *idleness*.  They are orthogonal and compose: a cache with skewed
// content and skewed bank activity recovers most of both losses by
// applying both.
#include "bench_common.h"

#include "aging/flipping.h"
#include "util/units.h"

int main() {
  using namespace pcal;
  using namespace pcal::bench;

  print_header("Related-work axes: content inversion vs re-indexing",
               "DATE'11 §II-B ([11],[15]) combined with §III");

  const auto& chr = calibrated_cell();
  FlippingScheme flip;
  flip.flip_period_s = units::years_to_seconds(0.01);  // ~4 days, as [11]
  const double horizon = units::years_to_seconds(12.0);

  // Idleness from a real workload run (static min vs reindexed avg).
  const auto spec = make_mediabench_workload("gsmd");
  const auto r = run_three_way(spec, paper_config(8192, 16, 4), aging(),
                               accesses());
  const double s_static = r.static_pm.min_residency();
  const double s_reidx = r.reindexed.avg_residency();

  TextTable table({"content p0", "scheme", "effective p0", "idleness used",
                   "LT (years)"});
  for (double p0 : {0.5, 0.75, 0.95}) {
    const double p0_flipped = effective_p0(p0, flip, horizon);
    const struct {
      const char* label;
      double p0_eff, sleep;
    } rows[] = {
        {"none (static)", p0, s_static},
        {"flipping only", p0_flipped, s_static},
        {"re-indexing only", p0, s_reidx},
        {"both", p0_flipped, s_reidx},
    };
    for (const auto& row : rows) {
      table.add_row({TextTable::num(p0, 2), row.label,
                     TextTable::num(row.p0_eff, 3),
                     TextTable::pct(row.sleep, 1),
                     TextTable::num(chr.lifetime_years(row.p0_eff,
                                                       row.sleep),
                                    2)});
    }
  }
  print_table(table);
  std::cout << "with balanced content (p0 = 0.5) flipping is a no-op and "
               "re-indexing does all the work — the operating point the "
               "paper evaluates; with skewed content the two compose "
               "multiplicatively.\n";
  return 0;
}
