// Minimal built-in timer harness: an offline drop-in for the subset of
// the Google Benchmark API that bench/micro_ops.cc uses.
//
// Selected by CMake when no system libbenchmark is installed, so
// bench_micro_ops builds everywhere.  Implements:
// BENCHMARK(fn)->Arg(n)->Unit(u), BENCHMARK_MAIN(), benchmark::State
// range-for iteration with adaptive calibration, state.range(0),
// state.iterations(), state.SetItemsProcessed(), DoNotOptimize().
// Numbers from this harness are comparable run-to-run on one machine,
// not to Google Benchmark's (no CPU-frequency pinning, no statistics).
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace benchmark {

enum TimeUnit { kNanosecond, kMicrosecond, kMillisecond, kSecond };

template <typename T>
inline void DoNotOptimize(T const& value) {
  asm volatile("" : : "r,m"(value) : "memory");
}

class State {
 public:
  State(std::int64_t arg, std::int64_t target_iters)
      : arg_(arg), remaining_(target_iters), target_(target_iters) {}

  /// What `for (auto _ : state)` binds; marked unused, as Google
  /// Benchmark's is, so the loop variable draws no -Wunused-variable.
  struct [[maybe_unused]] Value {};
  struct iterator {
    State* state;
    bool operator!=(const iterator&) const { return state->keep_running(); }
    void operator++() {}
    Value operator*() const { return {}; }
  };
  iterator begin() {
    start_ = std::chrono::steady_clock::now();
    return {this};
  }
  iterator end() { return {this}; }

  bool keep_running() {
    if (remaining_ == 0) {
      elapsed_ = std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - start_)
                     .count();
      return false;
    }
    --remaining_;
    return true;
  }

  std::int64_t range(std::size_t /*pos*/ = 0) const { return arg_; }
  std::int64_t iterations() const { return target_; }
  void SetItemsProcessed(std::int64_t items) { items_ = items; }

  double elapsed_seconds() const { return elapsed_; }
  std::int64_t items_processed() const { return items_; }

 private:
  std::int64_t arg_ = 0;
  std::int64_t remaining_ = 0;
  std::int64_t target_ = 0;
  std::int64_t items_ = 0;
  double elapsed_ = 0.0;
  std::chrono::steady_clock::time_point start_;
};

namespace internal {

using BenchFn = void (*)(State&);

struct Benchmark {
  std::string name;
  BenchFn fn;
  std::vector<std::int64_t> args;
  TimeUnit unit = kNanosecond;

  Benchmark* Arg(std::int64_t a) {
    args.push_back(a);
    return this;
  }
  Benchmark* Unit(TimeUnit u) {
    unit = u;
    return this;
  }
};

inline std::vector<Benchmark*>& registry() {
  static std::vector<Benchmark*> benches;
  return benches;
}

inline Benchmark* RegisterBenchmark(const char* name, BenchFn fn) {
  auto* b = new Benchmark{name, fn, {}, kNanosecond};
  registry().push_back(b);
  return b;
}

/// Grows the iteration count until one timed run exceeds `min_seconds`;
/// returns that final calibrated State.
inline State run_calibrated(BenchFn fn, std::int64_t arg,
                            double min_seconds = 0.2) {
  std::int64_t iters = 1;
  for (;;) {
    State state(arg, iters);
    fn(state);
    if (state.elapsed_seconds() >= min_seconds || iters >= (1ll << 40))
      return state;
    const double grow =
        state.elapsed_seconds() > 0.0
            ? (min_seconds * 1.4) / state.elapsed_seconds()
            : 10.0;
    iters = static_cast<std::int64_t>(
        static_cast<double>(iters) * (grow > 10.0 ? 10.0 : grow) + 1.0);
  }
}

inline int run_all() {
  std::printf("%-40s %15s %15s\n", "benchmark (minibench fallback)",
              "time/iter", "items/s");
  for (const Benchmark* b : registry()) {
    const std::vector<std::int64_t> args =
        b->args.empty() ? std::vector<std::int64_t>{0} : b->args;
    for (const std::int64_t arg : args) {
      const State state = run_calibrated(b->fn, arg);
      const double per_iter =
          state.elapsed_seconds() /
          static_cast<double>(state.iterations() ? state.iterations() : 1);
      const char* unit = "ns";
      double scale = 1e9;
      if (b->unit == kMillisecond) {
        unit = "ms";
        scale = 1e3;
      } else if (b->unit == kMicrosecond) {
        unit = "us";
        scale = 1e6;
      } else if (b->unit == kSecond) {
        unit = "s";
        scale = 1.0;
      }
      std::string label = b->name;
      if (!b->args.empty()) label += "/" + std::to_string(arg);
      const double items_per_sec =
          state.items_processed() > 0 && state.elapsed_seconds() > 0.0
              ? static_cast<double>(state.items_processed()) /
                    state.elapsed_seconds()
              : 0.0;
      std::printf("%-40s %12.3f %s %15.3e\n", label.c_str(),
                  per_iter * scale, unit, items_per_sec);
    }
  }
  return 0;
}

}  // namespace internal
}  // namespace benchmark

#define PCAL_MINIBENCH_CONCAT2(a, b) a##b
#define PCAL_MINIBENCH_CONCAT(a, b) PCAL_MINIBENCH_CONCAT2(a, b)

#define BENCHMARK(fn)                                             \
  static ::benchmark::internal::Benchmark* PCAL_MINIBENCH_CONCAT( \
      pcal_minibench_, __LINE__) =                                \
      ::benchmark::internal::RegisterBenchmark(#fn, fn)

#define BENCHMARK_MAIN() \
  int main() { return ::benchmark::internal::run_all(); }
