// Drowsy comparison: the Table-I/II workloads across all five backends.
//
// The paper compares its bank-gated scheme against the drowsy
// state-preserving bound of its reference [7] only by citation; this
// bench makes the comparison a simulated data point.  For every
// MediaBench workload on the 8kB/16B reference geometry we run:
//
//   mono    monolithic, unmanaged (the reference point)
//   bank    the paper's M = 4 gated banks, probing re-indexing
//   way     way-grain (per-way sleep, 4-way associative variant, M x W
//           = 16 units)
//   line    per-line gating, [7]'s aging-optimal upper bound
//   drowsy  the drowsy/gated hybrid over the M = 4 banks (drowsy at the
//           breakeven, power-gated after a 128-cycle window)
//
// Every run is priced: the energy model (power/unit_energy.h) covers
// every granularity and policy, so there is no zero-energy row.
// The bench fails (exit 1) if any backend reports zero energy, and the
// emitted BENCH_drowsy_comparison.json carries a per-backend energy
// section next to the usual sweep stats.
#include "bench_common.h"

#include <algorithm>
#include <array>
#include <cstdlib>

namespace {

using namespace pcal;
using namespace pcal::bench;

constexpr std::size_t kBackends = 5;
const std::array<const char*, kBackends> kBackendNames = {
    "mono", "bank", "way", "line", "drowsy"};

std::array<SimConfig, kBackends> backend_configs() {
  const SimConfig bank = paper_config(8192, 16, 4);
  SimConfig way = way_grain_variant(bank);
  way.cache.ways = 4;  // way-grain needs associativity to bite
  SimConfig line = line_grain_variant(bank);
  line.reindex_updates = 64;
  std::array<SimConfig, kBackends> configs = {
      monolithic_variant(bank), bank, way, line,
      drowsy_hybrid_variant(bank, 128)};
  // Apples to apples: every column pays the same per-unit model
  // (sleep-network overheads included) — otherwise the mono/bank
  // columns would ride the legacy calibration and the drowsy/way/line
  // deltas would conflate policy effect with model artifact.
  for (SimConfig& cfg : configs) cfg.force_unit_pricing = true;
  return configs;
}

}  // namespace

int main() {
  print_header(
      "Drowsy comparison — all five backends on the Table-I/II workloads",
      "DATE'11 Tables I/II + the drowsy bound of reference [7]");

  const auto configs = backend_configs();
  const auto& sigs = mediabench_signatures();

  // Per-backend aggregates for the JSON record and the zero-energy gate,
  // filled by the record's extra-member callback while the grid writes
  // BENCH_drowsy_comparison.json (single write, record always complete).
  std::array<double, kBackends> min_total_pj;
  min_total_pj.fill(1e300);
  std::array<double, kBackends> sum_esav = {};
  std::array<double, kBackends> sum_lt = {};
  const double n = static_cast<double>(sigs.size());

  SweepGrid grid(aging(), accesses());
  for (const auto& sig : sigs) {
    const auto spec = make_mediabench_workload(sig.name);
    for (const SimConfig& cfg : configs) grid.add(spec, cfg);
  }
  // Idempotent: called from the JSON callback, and again after run() in
  // case PCAL_BENCH_JSON=0 suppressed the record (and the callback).
  bool aggregated = false;
  const auto aggregate = [&] {
    if (aggregated) return;
    aggregated = true;
    for (std::size_t i = 0; i < grid.size(); ++i) {
      const SimResult& r = grid.result(i);
      const std::size_t b = i % kBackends;
      min_total_pj[b] =
          std::min(min_total_pj[b], r.energy.partitioned.total_pj());
      sum_esav[b] += r.energy_saving();
      sum_lt[b] += r.lifetime_years();
    }
  };
  grid.run("drowsy_comparison", [&](std::ostream& f) {
    aggregate();
    f << "  \"backend_energy\": {\n";
    for (std::size_t b = 0; b < kBackends; ++b) {
      f << "    \"" << kBackendNames[b]
        << "\": {\"min_total_pj\": " << min_total_pj[b]
        << ", \"mean_saving\": " << sum_esav[b] / n << "}";
      f << (b + 1 < kBackends ? ",\n" : "\n");
    }
    f << "  },\n";
  });
  aggregate();

  TextTable table({"benchmark", "mono:LT", "bank:LT", "bank:Esav",
                   "way:LT", "way:Esav", "line:LT", "line:Esav",
                   "drowsy:LT", "drowsy:Esav", "drowsy:share"});

  std::size_t next = 0;
  for (const auto& sig : sigs) {
    std::array<const SimResult*, kBackends> r;
    for (std::size_t b = 0; b < kBackends; ++b)
      r[b] = &grid.result(next++);
    table.add_row({sig.name, TextTable::num(r[0]->lifetime_years(), 2),
                   TextTable::num(r[1]->lifetime_years(), 2),
                   TextTable::pct(r[1]->energy_saving(), 1),
                   TextTable::num(r[2]->lifetime_years(), 2),
                   TextTable::pct(r[2]->energy_saving(), 1),
                   TextTable::num(r[3]->lifetime_years(), 2),
                   TextTable::pct(r[3]->energy_saving(), 1),
                   TextTable::num(r[4]->lifetime_years(), 2),
                   TextTable::pct(r[4]->energy_saving(), 1),
                   TextTable::pct(r[4]->drowsy_residency(), 1)});
  }
  table.add_row({"Average", TextTable::num(sum_lt[0] / n, 2),
                 TextTable::num(sum_lt[1] / n, 2),
                 TextTable::pct(sum_esav[1] / n, 1),
                 TextTable::num(sum_lt[2] / n, 2),
                 TextTable::pct(sum_esav[2] / n, 1),
                 TextTable::num(sum_lt[3] / n, 2),
                 TextTable::pct(sum_esav[3] / n, 1),
                 TextTable::num(sum_lt[4] / n, 2),
                 TextTable::pct(sum_esav[4] / n, 1), "-"});
  print_table(table);

  std::cout
      << "expected shape: the drowsy hybrid trades a little leakage "
         "(reduced-but-nonzero at the retention voltage) for cheap "
         "wakeups; per-line gating pays so much sleep-network overhead "
         "that its energy saving trails the banks it beats on aging — "
         "the trade-off that kept the paper at bank granularity.\n";

  // Acceptance gate: honest (nonzero) energy for every backend at every
  // granularity, kLine included.
  bool ok = true;
  for (std::size_t b = 0; b < kBackends; ++b) {
    if (!(min_total_pj[b] > 0.0)) {
      std::cerr << "FAIL: backend " << kBackendNames[b]
                << " reported zero energy\n";
      ok = false;
    }
  }

  return ok ? 0 : 1;
}
