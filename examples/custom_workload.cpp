// Building a custom synthetic workload from scratch, and inspecting the
// physics underneath the lifetime numbers.
//
// Scenario: an embedded vision pipeline with a hot convolution kernel, a
// periodic feature-matching phase, and a rarely-touched configuration
// region — the archetypal "two banks do all the work" pattern the paper's
// re-indexing fixes.
#include <iostream>

#include "aging/characterizer.h"
#include "core/experiment.h"
#include "util/table.h"

int main() {
  using namespace pcal;

  // ---- define the workload stream by stream ----
  WorkloadSpec spec;
  spec.name = "vision-pipeline";
  spec.footprint_bytes = 64 * 1024;
  spec.window_len = 2000;
  spec.write_fraction = 0.35;
  spec.seed = 2024;

  StreamSpec conv;  // hot convolution kernel: always running, tight loop
  conv.range_begin = 0;
  conv.range_end = 2048;
  conv.schedule = StreamSchedule::kAlways;
  conv.pattern = StreamPattern::kZipf;
  conv.zipf_s = 1.1;
  spec.streams.push_back(conv);

  StreamSpec match;  // feature matching: bursts, 30% duty
  match.range_begin = 2048;
  match.range_end = 6144;
  match.duty = 0.30;
  match.schedule = StreamSchedule::kBlocked;
  match.burst_len = 12;
  match.pattern = StreamPattern::kStrided;
  match.stride_bytes = 128;
  spec.streams.push_back(match);

  StreamSpec config_region;  // configuration tables: touched rarely
  config_region.range_begin = 6144;
  config_region.range_end = 8192;
  config_region.duty = 0.02;
  config_region.pattern = StreamPattern::kSequential;
  spec.streams.push_back(config_region);

  spec.validate();

  // ---- run the three architectures ----
  AgingContext aging;
  const auto r = run_three_way(spec, paper_config(8192, 16, 4), aging,
                               2'000'000);

  TextTable table({"architecture", "LT (years)", "min idleness",
                   "avg idleness", "Esav"});
  const auto add = [&](const char* label, const SimResult& res) {
    table.add_row({label, TextTable::num(res.lifetime_years(), 2),
                   TextTable::pct(res.min_residency(), 1),
                   TextTable::pct(res.avg_residency(), 1),
                   TextTable::pct(res.energy_saving(), 1)});
  };
  add("monolithic", r.monolithic);
  add("static 4-bank", r.static_pm);
  add("probing 4-bank", r.reindexed);
  table.render(std::cout);

  // ---- look underneath: what the aging model says ----
  CellAgingCharacterizer chr(AgingParams::st45());
  chr.calibrate();
  std::cout << "\nphysics detail (calibrated 45nm-class cell):\n"
            << "  fresh read SNM:            " << chr.nominal_snm()
            << " V\n"
            << "  critical dVth (p0 = 0.5):  " << chr.critical_shift(0.5)
            << " V\n"
            << "  drowsy stress factor:      " << chr.sleep_stress_factor()
            << "\n";
  std::cout << "  lifetime law LT(S): ";
  for (double s : {0.0, 0.25, 0.5, 0.75}) {
    std::cout << "S=" << s << " -> "
              << TextTable::num(chr.lifetime_years(0.5, s), 2) << "y  ";
  }
  std::cout << "\n\nthe static partition dies with its hottest bank ("
            << "min idleness above); re-indexing lets the same silicon "
            << "live on the average instead.\n";
  return 0;
}
