#include "trace/fault_inject.h"

#include <chrono>
#include <cstdlib>
#include <optional>
#include <thread>

#include "util/error.h"
#include "util/job_context.h"
#include "util/string_util.h"

namespace pcal {
namespace {

FaultMode mode_from_string(const std::string& s) {
  if (s == "throw") return FaultMode::kThrow;
  if (s == "hang") return FaultMode::kHang;
  if (s == "exit") return FaultMode::kExit;
  throw ParseError("fault spec: unknown mode '" + s +
                   "' (throw|hang|exit)");
}

std::uint64_t parse_u64_field(const std::string& key,
                              const std::string& value) {
  const std::optional<std::uint64_t> v = parse_count(value);
  if (!v)
    throw ParseError("fault spec: bad value for '" + key + "': '" + value +
                     "' (want a decimal count)");
  return *v;
}

}  // namespace

FaultSpec parse_fault_spec(const std::string& spec) {
  FaultSpec out;
  bool saw_job = false, saw_access = false, saw_mode = false;
  std::size_t pos = 0;
  while (pos < spec.size()) {
    std::size_t colon = spec.find(':', pos);
    if (colon == std::string::npos) colon = spec.size();
    const std::string field = spec.substr(pos, colon - pos);
    pos = colon + 1;
    const std::size_t eq = field.find('=');
    if (eq == std::string::npos)
      throw ParseError("fault spec: expected key=value, got '" + field + "'");
    const std::string key = field.substr(0, eq);
    const std::string value = field.substr(eq + 1);
    if (key == "job") {
      out.job = parse_u64_field(key, value);
      saw_job = true;
    } else if (key == "access") {
      out.at_access = parse_u64_field(key, value);
      saw_access = true;
    } else if (key == "mode") {
      out.mode = mode_from_string(value);
      saw_mode = true;
    } else {
      throw ParseError("fault spec: unknown key '" + key + "'");
    }
  }
  if (!saw_job || !saw_access || !saw_mode)
    throw ParseError(
        "fault spec needs job=<i>:access=<n>:mode=<m> (got '" + spec + "')");
  return out;
}

std::optional<FaultSpec> fault_spec_from_env() {
  const char* env = std::getenv("PCAL_FAULT_INJECT");
  if (env == nullptr || *env == '\0') return std::nullopt;
  return parse_fault_spec(env);
}

FaultInjectingTraceSource::FaultInjectingTraceSource(
    std::unique_ptr<TraceSource> inner, FaultSpec spec)
    : inner_(std::move(inner)), spec_(spec) {
  PCAL_ASSERT_MSG(inner_ != nullptr,
                  "FaultInjectingTraceSource needs an inner source");
}

void FaultInjectingTraceSource::maybe_fire() {
  if (produced_ < spec_.at_access) return;
  switch (spec_.mode) {
    case FaultMode::kThrow:
      throw Error("injected fault at access " +
                  std::to_string(spec_.at_access));
    case FaultMode::kHang: {
      // Spin until the cooperative job deadline fires.  Hard-capped so
      // a hang without a deadline fails loudly instead of wedging CI.
      const auto start = std::chrono::steady_clock::now();
      for (;;) {
        throw_if_job_deadline_exceeded("injected hang");
        if (std::chrono::steady_clock::now() - start >
            std::chrono::seconds(120))
          throw Error("injected hang exceeded the 120 s safety cap "
                      "(no job deadline armed?)");
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
    case FaultMode::kExit:
      // Simulated crash: no destructors, no flushes — only what fsync
      // already persisted survives, exactly like a SIGKILL.
      std::_Exit(42);
  }
}

std::optional<MemAccess> FaultInjectingTraceSource::next() {
  maybe_fire();
  auto access = inner_->next();
  if (access) ++produced_;
  return access;
}

std::size_t FaultInjectingTraceSource::next_batch(MemAccess* out,
                                                  std::size_t max) {
  maybe_fire();
  // Clamp the batch so the stream pauses exactly at the fault access —
  // the next call fires it.  Without the clamp a batch would overshoot
  // and the fault would land at the next batch boundary instead.
  if (produced_ < spec_.at_access) {
    const std::uint64_t until = spec_.at_access - produced_;
    if (until < max) max = static_cast<std::size_t>(until);
  }
  const std::size_t n = inner_->next_batch(out, max);
  produced_ += n;
  return n;
}

void FaultInjectingTraceSource::reset() {
  inner_->reset();
  produced_ = 0;
}

std::optional<std::uint64_t> FaultInjectingTraceSource::size_hint() const {
  return inner_->size_hint();
}

std::optional<std::uint64_t> FaultInjectingTraceSource::boundary_hint() const {
  return inner_->boundary_hint();
}

std::string FaultInjectingTraceSource::name() const { return inner_->name(); }

TraceSourceFactory wrap_with_fault(TraceSourceFactory inner,
                                   const FaultSpec& spec) {
  PCAL_ASSERT_MSG(inner != nullptr, "wrap_with_fault needs a factory");
  return [inner = std::move(inner), spec]() {
    return std::make_unique<FaultInjectingTraceSource>(inner(), spec);
  };
}

void arm_fault(SweepJob& job, const FaultSpec& spec) {
  job.shared_source.clear();
  if (job.multicore && !job.core_sources.empty())
    job.core_sources[0] = wrap_with_fault(job.core_sources[0], spec);
  else if (job.make_source)
    job.make_source = wrap_with_fault(job.make_source, spec);
}

}  // namespace pcal
