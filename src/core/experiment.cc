#include "core/experiment.h"

#include <cinttypes>
#include <cstdio>
#include <sstream>
#include <string>

#include "util/error.h"

namespace pcal {
namespace {

std::uint64_t default_axes_fingerprint(const AgingParams& params) {
  return AgingLut::fingerprint(params, AgingLut::default_p0_axis(),
                               AgingLut::default_sleep_axis());
}

AgingLut load_or_characterize(const AgingParams& params) {
  const std::uint64_t want = default_axes_fingerprint(params);
  if (want != default_axes_fingerprint(AgingParams::st45()))
    return AgingLut::characterize(params);
  std::istringstream is{std::string(embedded_st45_lut())};
  AgingLut lut = AgingLut::deserialize(is);
  if (lut.fingerprint() != want) {
    char msg[160];
    std::snprintf(msg, sizeof(msg),
                  "embedded st45 aging LUT is stale: stamped %016" PRIx64
                  ", AgingParams::st45() is %016" PRIx64
                  "; rebuild to regenerate it",
                  lut.fingerprint(), want);
    throw Error(msg);
  }
  return lut;
}

}  // namespace

AgingContext::AgingContext(const AgingParams& params)
    : lut_(load_or_characterize(params)),
      gamma_(NbtiModel(params.nbti)
                 .gamma(params.vdd_retention, params.vdd,
                        params.temperature_c)) {}

SimResult run_workload(const WorkloadSpec& workload, const SimConfig& config,
                       const AgingContext& aging,
                       std::uint64_t num_accesses) {
  SyntheticTraceSource source(workload, num_accesses);
  return Simulator(config).run(source, &aging.lut());
}

ThreeWayResult run_three_way(const WorkloadSpec& workload,
                             const SimConfig& config,
                             const AgingContext& aging,
                             std::uint64_t num_accesses) {
  // One engine, three topologies: the configs differ only in granularity
  // and indexing; make_managed_cache picks the backend.
  ThreeWayResult r;
  r.reindexed = run_workload(workload, config, aging, num_accesses);
  r.static_pm =
      run_workload(workload, static_variant(config), aging, num_accesses);
  r.monolithic =
      run_workload(workload, monolithic_variant(config), aging, num_accesses);
  return r;
}

SimConfig paper_config(std::uint64_t size_bytes, std::uint64_t line_bytes,
                       std::uint64_t num_banks) {
  SimConfig config;
  config.granularity = Granularity::kBank;
  config.cache.size_bytes = size_bytes;
  config.cache.line_bytes = line_bytes;
  config.cache.ways = 1;
  config.partition.num_banks = num_banks;
  config.indexing = IndexingKind::kProbing;
  config.reindex_updates = 16;
  return config;
}

}  // namespace pcal
