// The paper's bank pricing as a parameter set of the per-unit model.
//
// EnergyParams::paper(tech) under UnitEnergyModel must price exactly
// what the paper's bank model priced: the M-bank partition against the
// never-sleeping monolithic baseline (Esav), Block Control's breakeven,
// and each bank's own price.  The reference below is an independent,
// test-local copy of that model's arithmetic — it never calls
// UnitEnergyModel — and every comparison is on raw doubles with
// EXPECT_EQ, so a single moved bit fails.  The build compiles with
// -ffp-contract=off so both sides round the same way on every leg.
#include "power/unit_energy.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "core/experiment.h"
#include "core/simulator.h"
#include "trace/synthetic.h"
#include "trace/workloads.h"

namespace pcal {
namespace {

// ---- the reference: the paper's bank model, written out once more ----

struct ReferenceBankModel {
  TechnologyParams tech;
  CacheConfig cache;
  PartitionConfig partition;

  double tag_bytes(std::uint64_t data_bytes) const {
    const double lines =
        static_cast<double>(data_bytes) / static_cast<double>(cache.line_bytes);
    return lines * static_cast<double>(cache.tag_bits()) / 8.0;
  }
  double access_energy_pj(std::uint64_t bytes) const {
    const double kb = static_cast<double>(bytes) / 1024.0;
    return tech.dyn_base_pj + tech.dyn_sqrt_pj * std::sqrt(kb) +
           tech.dyn_line_pj_per_byte * static_cast<double>(cache.line_bytes);
  }
  double leakage_mw(std::uint64_t bytes) const {
    const double kb =
        (static_cast<double>(bytes) + tag_bytes(bytes)) / 1024.0;
    return tech.leak_mw_per_kb * kb *
           std::pow(kb / tech.leak_ref_kb, tech.leak_size_exponent);
  }
  double retention_leakage_mw(std::uint64_t bytes) const {
    return leakage_mw(bytes) * tech.retention_leak_fraction;
  }
  double transition_energy_pj() const {
    const double bank_kb =
        static_cast<double>(partition.bank_bytes(cache)) / 1024.0;
    const double tag_component =
        tech.transition_tag_pj_per_bit_byte *
        static_cast<double>(cache.tag_bits()) *
        static_cast<double>(cache.line_bytes);
    return tech.transition_pj_per_kb * bank_kb + tag_component;
  }
  double banked_access_energy_pj() const {
    const double wiring =
        1.0 + tech.wiring_dyn_per_bank *
                  static_cast<double>(partition.num_banks - 1);
    return access_energy_pj(partition.bank_bytes(cache)) * wiring +
           tech.decoder_pj;
  }
  double monolithic_access_energy_pj() const {
    return access_energy_pj(cache.size_bytes);
  }
  std::uint64_t breakeven_cycles() const {
    const double bank_bytes =
        static_cast<double>(partition.bank_bytes(cache));
    const double saved_mw =
        leakage_mw(static_cast<std::uint64_t>(bank_bytes)) -
        retention_leakage_mw(static_cast<std::uint64_t>(bank_bytes));
    const double pj_per_cycle = saved_mw * tech.clock_ns;
    const double cycles = transition_energy_pj() / pj_per_cycle;
    return static_cast<std::uint64_t>(std::ceil(cycles));
  }
};

struct ReferenceBankActivity {
  std::uint64_t accesses = 0;
  std::uint64_t sleep_cycles = 0;
  std::uint64_t sleep_episodes = 0;
};

EnergyReport reference_price_run(
    const ReferenceBankModel& m,
    const std::vector<ReferenceBankActivity>& activity,
    std::uint64_t total_cycles) {
  const double t_ns = static_cast<double>(total_cycles) * m.tech.clock_ns;
  const std::uint64_t bank_bytes = m.partition.bank_bytes(m.cache);
  const double bank_leak_mw = m.leakage_mw(bank_bytes);
  const double bank_ret_mw = m.retention_leakage_mw(bank_bytes);
  const double e_access = m.banked_access_energy_pj();
  const double e_tr = m.transition_energy_pj();

  EnergyReport report;
  std::uint64_t total_accesses = 0;
  for (const ReferenceBankActivity& a : activity) {
    total_accesses += a.accesses;
    const double sleep_ns =
        static_cast<double>(a.sleep_cycles) * m.tech.clock_ns;
    report.partitioned.dynamic_pj +=
        static_cast<double>(a.accesses) * e_access;
    report.partitioned.leakage_active_pj += bank_leak_mw * (t_ns - sleep_ns);
    report.partitioned.leakage_retention_pj += bank_ret_mw * sleep_ns;
    report.partitioned.transition_pj +=
        static_cast<double>(a.sleep_episodes) * e_tr;
  }
  report.baseline_pj =
      static_cast<double>(total_accesses) * m.monolithic_access_energy_pj() +
      m.leakage_mw(m.cache.size_bytes) * t_ns;
  return report;
}

/// One bank's price over the run (pJ): what the partition's components
/// sum for this bank alone.
double reference_bank_pj(const ReferenceBankModel& m,
                         const ReferenceBankActivity& a,
                         std::uint64_t total_cycles) {
  const std::uint64_t bank_bytes = m.partition.bank_bytes(m.cache);
  const double t_ns = static_cast<double>(total_cycles) * m.tech.clock_ns;
  const double sleep_ns =
      static_cast<double>(a.sleep_cycles) * m.tech.clock_ns;
  return static_cast<double>(a.accesses) * m.banked_access_energy_pj() +
         m.leakage_mw(bank_bytes) * (t_ns - sleep_ns) +
         m.retention_leakage_mw(bank_bytes) * sleep_ns +
         static_cast<double>(a.sleep_episodes) * m.transition_energy_pj();
}

/// The reference model of a config's L1: its bank partition, one bank
/// for a monolithic cache.
ReferenceBankModel reference_of(const SimConfig& cfg) {
  ReferenceBankModel m{cfg.tech, cfg.cache, cfg.partition};
  if (cfg.granularity == Granularity::kMonolithic) m.partition.num_banks = 1;
  return m;
}

std::vector<ReferenceBankActivity> reference_activity(const SimResult& r) {
  std::vector<ReferenceBankActivity> activity;
  for (const UnitResult& u : r.units)
    activity.push_back({u.accesses, u.sleep_cycles, u.sleep_episodes});
  return activity;
}

UnitActivity unit_activity_of(const UnitResult& u) {
  UnitActivity a;
  a.accesses = u.accesses;
  a.sleep_cycles = u.sleep_cycles;
  a.sleep_episodes = u.sleep_episodes;
  a.drowsy_cycles = u.drowsy_cycles;
  a.gated_episodes = u.gated_episodes;
  return a;
}

void expect_same_bits(const EnergyReport& got, const EnergyReport& want,
                      const std::string& label) {
  EXPECT_EQ(got.partitioned.dynamic_pj, want.partitioned.dynamic_pj)
      << label;
  EXPECT_EQ(got.partitioned.leakage_active_pj,
            want.partitioned.leakage_active_pj)
      << label;
  EXPECT_EQ(got.partitioned.leakage_retention_pj,
            want.partitioned.leakage_retention_pj)
      << label;
  EXPECT_EQ(got.partitioned.leakage_drowsy_pj,
            want.partitioned.leakage_drowsy_pj)
      << label;
  EXPECT_EQ(got.partitioned.transition_pj, want.partitioned.transition_pj)
      << label;
  EXPECT_EQ(got.baseline_pj, want.baseline_pj) << label;
}

const char* const kWorkloads[] = {"cjpeg", "sha", "fft_1", "dijkstra",
                                  "rijndael_i"};
constexpr std::uint64_t kAccesses = 50'000;

SimResult run(const SimConfig& cfg, const std::string& workload) {
  SyntheticTraceSource source(make_mediabench_workload(workload), kAccesses);
  return Simulator(cfg).run(source);
}

// ---- bit identity against the reference ----

TEST(PaperEnergyReference, BankRunsMatchBitForBit) {
  // 5 workloads x 8/32 kB x 16/32 B lines x M = 2/4/8/16: every
  // component, the baseline, the breakeven and every bank's price.
  int runs = 0;
  for (const char* workload : kWorkloads)
    for (std::uint64_t size : {8192u, 32768u})
      for (std::uint64_t line : {16u, 32u})
        for (std::uint64_t banks : {2u, 4u, 8u, 16u}) {
          const SimConfig cfg = paper_config(size, line, banks);
          ASSERT_TRUE(cfg.paper_priced());
          const std::string label = std::string(workload) + " " +
                                    std::to_string(size) + "B/" +
                                    std::to_string(line) + "B M=" +
                                    std::to_string(banks);
          const SimResult r = run(cfg, workload);
          const ReferenceBankModel ref = reference_of(cfg);
          expect_same_bits(r.energy,
                           reference_price_run(ref, reference_activity(r),
                                               r.total_cycles),
                           label);
          EXPECT_EQ(r.breakeven_cycles, ref.breakeven_cycles()) << label;
          const UnitEnergyModel model = cfg.paper_energy_model();
          for (const UnitResult& u : r.units)
            EXPECT_EQ(
                model.price_unit(unit_activity_of(u), r.total_cycles)
                    .total_pj(),
                reference_bank_pj(
                    ref, {u.accesses, u.sleep_cycles, u.sleep_episodes},
                    r.total_cycles))
                << label;
          ++runs;
        }
  EXPECT_EQ(runs, 80);
}

TEST(PaperEnergyReference, MonolithicRunsArePricedAsOneBank) {
  // The paper model's monolithic cache is a one-bank partition, so each
  // access pays the decoder — which per-unit kMonolithic pricing omits.
  for (const char* workload : kWorkloads)
    for (std::uint64_t size : {8192u, 32768u})
      for (std::uint64_t line : {16u, 32u}) {
        const SimConfig cfg =
            monolithic_variant(paper_config(size, line, 4));
        ASSERT_TRUE(cfg.paper_priced());
        const std::string label = std::string(workload) + " " +
                                  std::to_string(size) + "B/" +
                                  std::to_string(line) + "B mono";
        const SimResult r = run(cfg, workload);
        const ReferenceBankModel ref = reference_of(cfg);
        expect_same_bits(r.energy,
                         reference_price_run(ref, reference_activity(r),
                                             r.total_cycles),
                         label);
        EXPECT_EQ(r.breakeven_cycles, ref.breakeven_cycles()) << label;
        EXPECT_EQ(cfg.paper_energy_model().access_energy_pj(),
                  ref.monolithic_access_energy_pj() + cfg.tech.decoder_pj)
            << label;
      }
}

TEST(PaperEnergyReference, BreakevenMatchesEveryGeometry) {
  // 4-128 kB x 16/32/64 B x 1/2/4 ways: M = 1..16 banks, and monolithic.
  int banked = 0, mono = 0;
  for (std::uint64_t kb : {4u, 8u, 16u, 32u, 64u, 128u})
    for (std::uint64_t line : {16u, 32u, 64u})
      for (std::uint64_t ways : {1u, 2u, 4u}) {
        SimConfig cfg;
        cfg.cache.size_bytes = kb * 1024;
        cfg.cache.line_bytes = line;
        cfg.cache.ways = ways;
        const std::string geometry = std::to_string(kb) + "kB/" +
                                     std::to_string(line) + "B/" +
                                     std::to_string(ways) + "w";
        for (std::uint64_t banks : {1u, 2u, 4u, 8u, 16u}) {
          cfg.granularity = Granularity::kBank;
          cfg.partition.num_banks = banks;
          EXPECT_EQ(Simulator(cfg).breakeven_cycles(),
                    reference_of(cfg).breakeven_cycles())
              << geometry << " M=" << banks;
          ++banked;
        }
        cfg.granularity = Granularity::kMonolithic;
        cfg.partition.num_banks = 4;  // ignored: a monolithic cache is M = 1
        EXPECT_EQ(Simulator(cfg).breakeven_cycles(),
                  reference_of(cfg).breakeven_cycles())
            << geometry << " mono";
        ++mono;
      }
  EXPECT_EQ(banked, 270);
  EXPECT_EQ(mono, 54);
}

TEST(PaperEnergyReference, BankL1KeepsThePaperBreakevenWhenUnitPriced) {
  // The breakeven follows the granularity, not the pricing: a bank L1
  // priced with energy_params still gates at the paper's breakeven.
  SimConfig cfg = paper_config(16384, 16, 4);
  const std::uint64_t paper = Simulator(cfg).breakeven_cycles();
  EXPECT_EQ(paper, reference_of(cfg).breakeven_cycles());
  cfg.force_unit_pricing = true;
  EXPECT_FALSE(cfg.paper_priced());
  EXPECT_EQ(Simulator(cfg).breakeven_cycles(), paper);
  const SimConfig drowsy = drowsy_hybrid_variant(paper_config(16384, 16, 4),
                                                 64);
  EXPECT_EQ(Simulator(drowsy).breakeven_cycles(), paper);
}

// ---- which runs the paper parameters price ----

TEST(PaperPriced, SingleLevelGatedMonolithicOrBankOnly) {
  const SimConfig bank = paper_config(8192, 16, 4);
  EXPECT_TRUE(bank.paper_priced());
  EXPECT_TRUE(monolithic_variant(bank).paper_priced());
  EXPECT_TRUE(static_variant(bank).paper_priced());
  // A drowsy window of 0 is the gated policy.
  EXPECT_TRUE(drowsy_hybrid_variant(bank, 0).paper_priced());
  EXPECT_FALSE(drowsy_hybrid_variant(bank, 64).paper_priced());
  EXPECT_FALSE(line_grain_variant(bank).paper_priced());
  EXPECT_FALSE(way_grain_variant(bank).paper_priced());
  EXPECT_FALSE(two_level_variant(bank, 65536).paper_priced());
  SimConfig forced = bank;
  forced.force_unit_pricing = true;
  EXPECT_FALSE(forced.paper_priced());
}

TEST(PaperPriced, EnergyParamsReachOnlyUnitPricedRuns) {
  SimConfig cfg = paper_config(8192, 16, 4);
  SimConfig tweaked = cfg;
  tweaked.energy_params.gated_leak_fraction = 0.01;
  EXPECT_EQ(run(cfg, "cjpeg").energy.partitioned.total_pj(),
            run(tweaked, "cjpeg").energy.partitioned.total_pj());
  cfg.force_unit_pricing = tweaked.force_unit_pricing = true;
  EXPECT_NE(run(cfg, "cjpeg").energy.partitioned.total_pj(),
            run(tweaked, "cjpeg").energy.partitioned.total_pj());
}

}  // namespace
}  // namespace pcal
