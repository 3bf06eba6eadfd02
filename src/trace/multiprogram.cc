#include "trace/multiprogram.h"

#include <cstdint>
#include <optional>
#include <sstream>

#include "trace/workloads.h"
#include "util/error.h"
#include "util/string_util.h"

namespace pcal {

namespace {

/// Resolves one program name the way pcalsweep's workload axis does:
/// MediaBench names, or the generic uniform / streaming / hotspot
/// shapes over `footprint_bytes`.
WorkloadSpec resolve_program(const std::string& name,
                             std::uint64_t footprint_bytes) {
  if (name == "uniform") return make_uniform_workload(footprint_bytes);
  if (name == "streaming") return make_streaming_workload(footprint_bytes);
  if (name == "hotspot") return make_hotspot_workload(footprint_bytes);
  return make_mediabench_workload(name);  // throws on unknown names
}

}  // namespace

std::uint64_t parse_multiprogram_quantum(const std::string& text) {
  const std::optional<std::uint64_t> quantum = parse_scaled_count(text);
  PCAL_CONFIG_CHECK(quantum.has_value(),
                    "bad multiprog quantum \"" << text
                        << "\" (want a decimal count with an optional k/M "
                           "multiplier, below 2^64)");
  PCAL_CONFIG_CHECK(*quantum > 0, "multiprog quantum must be nonzero");
  return *quantum;
}

MultiProgramConfig parse_multiprogram_spec(const std::string& spec,
                                           std::uint64_t footprint_bytes) {
  std::string programs = spec;
  MultiProgramConfig config;
  const std::size_t at = programs.find('@');
  if (at != std::string::npos) {
    config.quantum_accesses =
        parse_multiprogram_quantum(std::string(trim(programs.substr(at + 1))));
    programs.erase(at);
  }
  for (const std::string& field : split(programs, '+')) {
    const std::string name(trim(field));
    PCAL_CONFIG_CHECK(!name.empty(),
                      "empty program name in multiprog list \"" << spec
                                                                << "\"");
    config.programs.push_back(resolve_program(name, footprint_bytes));
  }
  PCAL_CONFIG_CHECK(!config.programs.empty(),
                    "multiprog needs at least one program");
  config.validate();
  return config;
}

void MultiProgramConfig::validate() const {
  PCAL_CONFIG_CHECK(!programs.empty(), "need at least one program");
  PCAL_CONFIG_CHECK(quantum_accesses > 0, "quantum must be nonzero");
  for (const auto& p : programs) p.validate();
  for (const auto& p : programs) {
    PCAL_CONFIG_CHECK(p.footprint_bytes <= address_stride,
                      "program footprint exceeds the address stride; "
                      "spaces would overlap");
  }
}

MultiProgramSource::MultiProgramSource(MultiProgramConfig config,
                                       std::uint64_t num_accesses)
    : config_(std::move(config)), num_accesses_(num_accesses) {
  config_.validate();
  reset();
}

void MultiProgramSource::reset() {
  produced_ = 0;
  sources_.clear();
  for (const auto& spec : config_.programs) {
    // Each program individually produces up to the whole run's accesses;
    // the scheduler decides how many it actually gets.
    sources_.push_back(
        std::make_unique<SyntheticTraceSource>(spec, num_accesses_));
  }
}

std::optional<MemAccess> MultiProgramSource::next() {
  if (produced_ >= num_accesses_) return std::nullopt;
  const std::uint64_t prog = program_at(produced_);
  ++produced_;
  auto a = sources_[prog]->next();
  // Programs are sized to the whole run, so they cannot run dry before
  // the scheduler does.
  PCAL_ASSERT(a.has_value());
  a->address += prog * config_.address_stride;
  return a;
}

std::string MultiProgramSource::name() const {
  std::ostringstream os;
  os << "multi[";
  for (std::size_t i = 0; i < config_.programs.size(); ++i) {
    if (i) os << '+';
    os << config_.programs[i].name;
  }
  os << ']';
  return os.str();
}

}  // namespace pcal
