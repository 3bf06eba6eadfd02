// pcalbench_trace — the benchmark's traced driver.
//
// Re-runs a workload in-process through the same public calls the CLIs
// make, with a timer around each module boundary, so the end-to-end wall
// of a workload splits into layers without any span inside src/:
//
//   setup  <spec.sweep> | --runs <runs.txt>
//       What a fresh process pays before its first job can start: the
//       first api::shared_aging() call plus GridSpec::load + expand (or
//       RunConfig::validate of every cold-start run).  run.py measures
//       this process from spawn to exit as setup_s.
//   sweep  <spec.sweep> --workers N --out <metrics.json>
//          [--journal <file>] [--record-dir <dir>]
//       pcalsweep's execution path: every job's TraceSourceFactory is
//       drained through next_batch into a buffer (generation / replay
//       time) and replayed via SharedTraceSource; SweepRunner runs the
//       jobs with lut = nullptr (engine time), and a completion sink
//       prices the lifetime with CacheLifetimeEvaluator and forwards the
//       priced outcome to the JournalWriter.  stdout carries the same
//       table + CSV as pcalsweep; the BENCH record lands in --record-dir.
//   run    <runs.txt> --index I --timeline <file> --out <metrics.json>
//       pcalsim's single-config path for one cold-start run.
//
// Metric files are flat JSON objects of seconds and counts; run.py turns
// them into the per-layer metrics (README.md lists every name and unit).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "api/pcal.h"
#include "api/timeline.h"
#include "core/bench_record.h"
#include "core/checkpoint.h"
#include "core/contention.h"
#include "core/experiment.h"
#include "core/grid_spec.h"
#include "core/run_assembly.h"
#include "util/table.h"

namespace {

using namespace pcal;
using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Ordered flat JSON object writer (numbers at full precision).
class Metrics {
 public:
  void num(const std::string& key, double v) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    fields_.emplace_back(key, buf);
  }
  void raw(const std::string& key, const std::string& json) {
    fields_.emplace_back(key, json);
  }
  std::string str() const {
    std::string out = "{";
    for (std::size_t i = 0; i < fields_.size(); ++i)
      out += (i ? ",\n \"" : "\"") + fields_[i].first + "\": " +
             fields_[i].second;
    return out + "}\n";
  }
  void write(const std::string& path) const {
    std::ofstream f(path);
    f << str();
    if (!f) throw Error("cannot write " + path);
  }

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

std::string json_array(const std::vector<double>& v) {
  std::string out = "[";
  char buf[40];
  for (std::size_t i = 0; i < v.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%.17g", v[i]);
    out += (i ? ", " : "") + std::string(buf);
  }
  return out + "]";
}

/// One cold-start run of a runs file: "<kind> key=value key=value ...".
struct ColdRun {
  std::string kind;
  api::RunConfig config;
};

std::vector<ColdRun> load_runs(const std::string& path) {
  std::ifstream f(path);
  if (!f) throw Error("cannot read " + path);
  std::vector<ColdRun> runs;
  std::string line;
  while (std::getline(f, line)) {
    std::istringstream is(line);
    ColdRun run;
    if (!(is >> run.kind)) continue;
    std::string entry;
    while (is >> entry) {
      const std::size_t eq = entry.find('=');
      if (eq == std::string::npos) throw Error("bad entry '" + entry + "'");
      run.config.set(entry.substr(0, eq), entry.substr(eq + 1));
    }
    runs.push_back(std::move(run));
  }
  return runs;
}

void validate_or_throw(const api::RunConfig& config) {
  const std::vector<api::ConfigIssue> issues = config.validate();
  if (!issues.empty()) throw ConfigError(api::describe(issues));
}

/// Reads a source to exhaustion through next_batch into one buffer.
std::shared_ptr<const Trace> drain(TraceSource& source) {
  std::vector<MemAccess> buf;
  if (const auto hint = source.size_hint()) buf.reserve(*hint);
  MemAccess chunk[4096];
  source.reset();
  for (;;) {
    const std::size_t n = source.next_batch(chunk, 4096);
    if (n == 0) break;
    buf.insert(buf.end(), chunk, chunk + n);
  }
  return std::make_shared<const Trace>(source.name(), std::move(buf));
}

/// True iff the single-stream Simulator takes its batched hot path for
/// this config (no forced scalar loop, no finite resource at any level).
bool takes_batched_path(const SimConfig& config) {
  if (config.force_scalar_loop) return false;
  if (contention_shape_of(config.topology(1)).params.enabled()) return false;
  for (const LevelConfig& level : config.enabled_lower_levels())
    if (contention_shape_of(level.topology).params.enabled()) return false;
  return true;
}

void apply_lifetime(const CacheLifetimeResult& lifetime, SimResult* r) {
  r->lifetime = lifetime;
  for (std::size_t u = 0; u < r->units.size(); ++u)
    r->units[u].lifetime_years = lifetime.banks[u].lifetime_years;
}

CacheLifetimeResult evaluate_lifetime(const AgingLut& lut,
                                      const SimResult& r) {
  std::vector<double> residency(r.units.size());
  for (std::size_t u = 0; u < r.units.size(); ++u)
    residency[u] = r.units[u].sleep_residency;
  return CacheLifetimeEvaluator(lut).evaluate(residency);
}

/// Simulated-model totals over a workload's jobs (the sim.* metrics).
struct SimTotals {
  double accesses = 0, total_cycles = 0, stall_cycles = 0;
  double mshr = 0, port = 0, bw = 0, l1_hits = 0, l1_accesses = 0;
  double idleness_sum = 0, lifetime_sum = 0, energy_pj = 0, runs = 0;

  void add(const SimResult& r) {
    accesses += static_cast<double>(r.accesses);
    total_cycles += static_cast<double>(r.total_cycles);
    stall_cycles += static_cast<double>(r.stall_cycles);
    mshr += static_cast<double>(r.mshr_stall_cycles);
    port += static_cast<double>(r.port_stall_cycles);
    bw += static_cast<double>(r.bw_stall_cycles);
    l1_hits += static_cast<double>(r.cache_stats.hits);
    l1_accesses += static_cast<double>(r.cache_stats.accesses);
    idleness_sum += r.avg_residency();
    lifetime_sum += r.lifetime_years();
    energy_pj += r.energy.partitioned.total_pj();
    runs += 1;
  }
  void write(Metrics* m) const {
    m->num("sim_accesses", accesses);
    m->num("sim_total_cycles", total_cycles);
    m->num("sim_stall_cycles", stall_cycles);
    m->num("sim_mshr_stall_cycles", mshr);
    m->num("sim_port_stall_cycles", port);
    m->num("sim_bw_stall_cycles", bw);
    m->num("sim_l1_hits", l1_hits);
    m->num("sim_l1_accesses", l1_accesses);
    m->num("sim_idleness_sum", idleness_sum);
    m->num("sim_lifetime_sum", lifetime_sum);
    m->num("sim_energy_pj", energy_pj);
    m->num("sim_runs", runs);
  }
};

// ---------------------------------------------------------------- setup

int cmd_setup(const std::vector<std::string>& args) {
  if (args.empty()) throw Error("setup needs <spec.sweep> or --runs <file>");
  const auto t0 = Clock::now();
  (void)api::shared_aging();
  const auto t1 = Clock::now();
  std::size_t jobs = 0;
  if (args[0] == "--runs" && args.size() == 2) {
    for (const ColdRun& run : load_runs(args[1])) {
      validate_or_throw(run.config);
      ++jobs;
    }
  } else {
    jobs = GridSpec::load(args[0]).expand().size();
  }
  const auto t2 = Clock::now();
  Metrics m;
  m.num("lut_build_s", seconds_between(t0, t1));
  m.num("parse_expand_s", seconds_between(t1, t2));
  m.num("jobs", static_cast<double>(jobs));
  std::cout << m.str();
  return 0;
}

// ---------------------------------------------------------------- sweep

/// Per-job boundary times and layer totals.  Each slot is written only by
/// the worker that runs the job (its factories and its completion-sink
/// call both run there) and read after SweepRunner::run has joined.
struct JobTrace {
  bool started = false;
  Clock::time_point start, ready, end;
  double gen_s = 0, replay_s = 0;
  std::uint64_t gen_accesses = 0, replay_accesses = 0;
  double lifetime_s = 0, append_s = 0;
  std::optional<CacheLifetimeResult> lifetime;
};

/// Wraps a job's factory: drains the real source into a buffer (timed as
/// generation, or as replay for trace-file inputs) and hands the engine a
/// SharedTraceSource view of it.
TraceSourceFactory traced_factory(std::vector<JobTrace>* traces,
                                  std::size_t job, TraceSourceFactory inner,
                                  bool replay) {
  return [traces, job, inner = std::move(inner),
          replay]() -> std::unique_ptr<TraceSource> {
    JobTrace& t = (*traces)[job];
    const auto start = Clock::now();
    if (!t.started) {
      t.started = true;
      t.start = start;
    }
    std::unique_ptr<TraceSource> source = inner();
    std::shared_ptr<const Trace> buffer = drain(*source);
    t.ready = Clock::now();
    const double s = seconds_between(start, t.ready);
    (replay ? t.replay_s : t.gen_s) += s;
    (replay ? t.replay_accesses : t.gen_accesses) += buffer->size();
    return std::make_unique<SharedTraceSource>(std::move(buffer));
  };
}

/// Marks each job's end, prices its lifetime (the LUT lookup the engine
/// skipped with lut = nullptr) and forwards the priced outcome to the
/// journal, so journal records match an untraced run's.
class TracingSink final : public JobCompletionSink {
 public:
  TracingSink(std::vector<JobTrace>* traces, const AgingLut* lut,
              JobCompletionSink* journal)
      : traces_(traces), lut_(lut), journal_(journal) {}

  void on_job_complete(std::size_t index,
                       const SweepOutcome& outcome) override {
    JobTrace& t = (*traces_)[index];
    t.end = Clock::now();
    if (outcome.ok()) {
      t.lifetime = evaluate_lifetime(*lut_, outcome.result);
      t.lifetime_s = seconds_between(t.end, Clock::now());
    }
    if (journal_ != nullptr) {
      SweepOutcome priced = outcome;
      if (t.lifetime) apply_lifetime(*t.lifetime, &priced.result);
      const auto a = Clock::now();
      journal_->on_job_complete(index, priced);
      t.append_s = seconds_between(a, Clock::now());
    }
  }

 private:
  std::vector<JobTrace>* traces_;
  const AgingLut* lut_;
  JobCompletionSink* journal_;
};

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = p * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

std::uint64_t file_bytes(const std::string& path) {
  std::ifstream f(path, std::ios::binary | std::ios::ate);
  return f ? static_cast<std::uint64_t>(f.tellg()) : 0;
}

int cmd_sweep(const std::vector<std::string>& args) {
  std::string spec_path, out_path, journal_path, record_dir = ".";
  unsigned workers = 0;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const auto value = [&]() -> const std::string& {
      if (i + 1 >= args.size()) throw Error(args[i] + " needs a value");
      return args[++i];
    };
    if (args[i] == "--workers")
      workers = static_cast<unsigned>(std::stoul(value()));
    else if (args[i] == "--out")
      out_path = value();
    else if (args[i] == "--journal")
      journal_path = value();
    else if (args[i] == "--record-dir")
      record_dir = value();
    else
      spec_path = args[i];
  }
  if (spec_path.empty() || out_path.empty() || workers == 0)
    throw Error("sweep needs <spec> --workers N --out <file>");

  const auto t0 = Clock::now();
  const AgingLut& lut = api::shared_aging().lut();
  const auto t1 = Clock::now();
  const GridSpec spec = GridSpec::load(spec_path);
  const std::vector<GridJob> jobs = spec.expand();
  const auto t2 = Clock::now();

  // Core k of a multi-core point reads the core<k>_workload axis when
  // the spec declares one, else the point's workload.
  std::vector<int> core_axis;
  for (std::size_t a = 0; a < spec.axes().size(); ++a)
    core_axis.push_back(core_workload_index(spec.axes()[a].key));
  const auto core_workload = [&](const GridJob& job, std::size_t k) {
    for (std::size_t a = 0; a < core_axis.size(); ++a)
      if (core_axis[a] == static_cast<int>(k)) return job.coords[a];
    return job.workload;
  };
  const auto is_replay = [](const std::string& workload) {
    return workload.rfind("trace:", 0) == 0;
  };

  std::vector<JobTrace> traces(jobs.size());
  std::vector<SweepJob> sweep_jobs;
  std::set<std::string> distinct_inputs;
  std::uint64_t sources_built = 0;
  sweep_jobs.reserve(jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    SweepJob j;
    j.config = jobs[i].config;
    j.multicore = jobs[i].multicore;
    j.label = spec.job_label(jobs[i]);
    if (j.multicore) {
      for (std::size_t k = 0; k < jobs[i].core_sources.size(); ++k) {
        const std::string w = core_workload(jobs[i], k);
        distinct_inputs.insert(w);
        ++sources_built;
        j.core_sources.push_back(traced_factory(
            &traces, i, jobs[i].core_sources[k], is_replay(w)));
      }
    } else {
      distinct_inputs.insert(jobs[i].workload);
      ++sources_built;
      j.make_source = traced_factory(&traces, i, jobs[i].make_source,
                                     is_replay(jobs[i].workload));
    }
    sweep_jobs.push_back(std::move(j));
  }

  // The journal identity pcalsweep would write for this grid; the
  // fingerprints only need to be stable within this run.
  std::unique_ptr<JournalWriter> journal;
  if (!journal_path.empty()) {
    JournalHeader header;
    header.name = spec.name();
    header.jobs = jobs.size();
    header.accesses = spec.accesses();
    std::vector<std::uint64_t> fps(jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      Fingerprint fp;
      fp.add_u64(i);
      fp.add(spec.job_label(jobs[i]));
      fps[i] = fp.value();
    }
    journal = std::make_unique<JournalWriter>(journal_path, header,
                                              std::move(fps), false);
  }
  TracingSink sink(&traces, &lut, journal.get());
  SweepRunOptions options;
  options.checkpoint = &sink;

  SweepRunner runner(workers);
  const auto t3 = Clock::now();
  std::vector<SweepOutcome> outcomes = runner.run(sweep_jobs, options);
  const auto t4 = Clock::now();
  double flush_s = 0;
  if (journal) {
    journal->flush();
    flush_s = seconds_between(t4, Clock::now());
  }

  SimTotals totals;
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    if (!outcomes[i].ok()) continue;
    if (traces[i].lifetime)
      apply_lifetime(*traces[i].lifetime, &outcomes[i].result);
    totals.add(outcomes[i].result);
  }

  // Output layer: the pcalsweep stdout table and BENCH record.
  const auto t5 = Clock::now();
  const TextTable table = spec.render_table(jobs, outcomes);
  table.render(std::cout);
  std::cout << "\n--- CSV ---\n";
  table.render_csv(std::cout);
  std::cout << std::endl;
  const auto t6 = Clock::now();
  setenv("PCAL_BENCH_JSON_DIR", record_dir.c_str(), 1);
  const SweepStats& stats = runner.last_stats();
  write_bench_json(spec.name(), stats, [&](std::ostream& f) {
    f << "  \"cross_product\": " << spec.cross_product_size() << ",\n"
      << "  \"results\": [\n";
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
      f << "    ";
      write_result_row(f, outcomes[i].result, jobs[i].workload,
                       outcomes[i].ok(),
                       outcomes[i].cores.empty() ? nullptr
                                                 : &outcomes[i].cores,
                       static_cast<long>(i));
      f << (i + 1 < outcomes.size() ? ",\n" : "\n");
    }
    f << "  ],\n";
  });
  const auto t7 = Clock::now();

  // Layer totals.
  double gen_s = 0, replay_s = 0, lifetime_s = 0, append_s = flush_s;
  double engine_s = 0, batched_s = 0, scalar_s = 0;
  double batched_acc = 0, scalar_acc = 0, gen_acc = 0, replay_acc = 0;
  std::vector<double> job_ms, wait_ms;
  std::uint64_t lifetime_calls = 0;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const JobTrace& t = traces[i];
    if (!t.started) continue;
    gen_s += t.gen_s;
    replay_s += t.replay_s;
    gen_acc += static_cast<double>(t.gen_accesses);
    replay_acc += static_cast<double>(t.replay_accesses);
    lifetime_s += t.lifetime_s;
    append_s += t.append_s;
    if (t.lifetime) ++lifetime_calls;
    job_ms.push_back(seconds_between(t.start, t.end) * 1e3);
    wait_ms.push_back(seconds_between(t3, t.start) * 1e3);
    const double run_s = seconds_between(t.ready, t.end);
    engine_s += run_s;
    const double acc = static_cast<double>(outcomes[i].result.accesses);
    if (!jobs[i].multicore && takes_batched_path(jobs[i].config)) {
      batched_s += run_s;
      batched_acc += acc;
    } else {
      scalar_s += run_s;
      scalar_acc += acc;
    }
  }
  double busy_ms = 0;
  for (const double ms : job_ms) busy_ms += ms;
  const double wall_s = seconds_between(t3, t4);

  Metrics m;
  m.num("lut_build_s", seconds_between(t0, t1));
  m.num("parse_expand_s", seconds_between(t1, t2));
  m.num("jobs", static_cast<double>(jobs.size()));
  m.num("lifetime_s", lifetime_s);
  m.num("lifetime_calls", static_cast<double>(lifetime_calls));
  m.num("gen_s", gen_s);
  m.num("gen_accesses", gen_acc);
  m.num("replay_s", replay_s);
  m.num("replay_accesses", replay_acc);
  m.num("sources_built", static_cast<double>(sources_built));
  m.num("distinct_inputs", static_cast<double>(distinct_inputs.size()));
  m.num("engine_s", engine_s);
  m.num("batched_s", batched_s);
  m.num("batched_accesses", batched_acc);
  m.num("scalar_s", scalar_s);
  m.num("scalar_accesses", scalar_acc);
  m.num("sweep_wall_s", wall_s);
  m.num("job_p50_ms", percentile(job_ms, 0.5));
  m.num("job_p90_ms", percentile(job_ms, 0.9));
  m.num("queue_wait_p50_ms", percentile(wait_ms, 0.5));
  m.num("busy_share", busy_ms / 1e3 / (runner.num_threads() * wall_s));
  m.num("workers", runner.num_threads());
  m.num("steals", static_cast<double>(stats.steals));
  m.num("failed", static_cast<double>(stats.failed_jobs));
  m.num("append_s", append_s);
  m.num("records", journal ? static_cast<double>(job_ms.size()) : 0.0);
  m.num("journal_bytes",
        journal ? static_cast<double>(file_bytes(journal_path)) : 0.0);
  m.num("table_s", seconds_between(t5, t6));
  m.num("record_s", seconds_between(t6, t7));
  totals.write(&m);
  m.write(out_path);
  return stats.failed_jobs == 0 ? 0 : 1;
}

// ------------------------------------------------------------------ run

int cmd_run(const std::vector<std::string>& args) {
  std::string runs_path, timeline_path, out_path;
  std::size_t index = 0;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const auto value = [&]() -> const std::string& {
      if (i + 1 >= args.size()) throw Error(args[i] + " needs a value");
      return args[++i];
    };
    if (args[i] == "--index")
      index = std::stoul(value());
    else if (args[i] == "--timeline")
      timeline_path = value();
    else if (args[i] == "--out")
      out_path = value();
    else
      runs_path = args[i];
  }
  if (runs_path.empty() || timeline_path.empty() || out_path.empty())
    throw Error("run needs <runs> --index I --timeline <file> --out <file>");

  const auto t0 = Clock::now();
  const AgingLut& lut = api::shared_aging().lut();
  const auto t1 = Clock::now();
  const std::vector<ColdRun> runs = load_runs(runs_path);
  if (index >= runs.size()) throw Error("run index out of range");
  const api::RunConfig& rc = runs[index].config;
  validate_or_throw(rc);
  RunAssembly asmb;
  for (const auto& [key, value] : rc.entries()) asmb.set(key, value);
  const RunAssembly::Assembled assembled = asmb.assemble();
  if (assembled.multicore) throw Error("cold-start runs are single-stream");
  const SimConfig& config = assembled.config;
  const auto t2 = Clock::now();
  std::unique_ptr<TraceSource> source =
      make_workload_factory(asmb.workload(), asmb.accesses(),
                            asmb.footprint_bytes())();
  SharedTraceSource buffered(drain(*source));
  const auto t3 = Clock::now();
  api::TimelineRecorder recorder;
  recorder.price_with(config);
  SimResult r = Simulator(config).run(buffered, nullptr, recorder.observer());
  const auto t4 = Clock::now();
  apply_lifetime(evaluate_lifetime(lut, r), &r);
  const auto t5 = Clock::now();
  recorder.set_run_label(r.workload + " on " + r.config_label);
  recorder.write_json_file(timeline_path);
  const auto t6 = Clock::now();

  Metrics m;
  m.num("lut_build_s", seconds_between(t0, t1));
  m.num("parse_expand_s", seconds_between(t1, t2));
  m.num("gen_s", seconds_between(t2, t3));
  m.num("gen_accesses", static_cast<double>(r.accesses));
  m.num("engine_s", seconds_between(t3, t4));
  m.num("batched", takes_batched_path(config) ? 1 : 0);
  m.num("lifetime_s", seconds_between(t4, t5));
  m.num("timeline_write_s", seconds_between(t5, t6));
  m.num("timeline_bytes", static_cast<double>(file_bytes(timeline_path)));
  SimTotals totals;
  totals.add(r);
  totals.write(&m);

  // The numbers pcalsim's report prints, unrounded; run.py formats them
  // exactly as the report does to compare against the untraced run.
  const EnergyBreakdown& e = r.energy.partitioned;
  m.num("breakeven_cycles", static_cast<double>(r.breakeven_cycles));
  m.num("reindex_updates", static_cast<double>(r.reindex_updates_applied));
  m.num("avg_latency", r.avg_access_latency());
  std::vector<double> unit_acc, unit_res, unit_idle, unit_eps, unit_lt;
  for (const UnitResult& u : r.units) {
    unit_acc.push_back(static_cast<double>(u.accesses));
    unit_res.push_back(u.sleep_residency);
    unit_idle.push_back(u.useful_idleness_count);
    unit_eps.push_back(static_cast<double>(u.sleep_episodes));
    unit_lt.push_back(u.lifetime_years);
  }
  m.raw("unit_accesses", json_array(unit_acc));
  m.raw("unit_residency", json_array(unit_res));
  m.raw("unit_idle_count", json_array(unit_idle));
  m.raw("unit_episodes", json_array(unit_eps));
  m.raw("unit_lifetime", json_array(unit_lt));
  std::vector<double> levels;
  for (const CacheStats& s : r.level_stats) {
    levels.push_back(static_cast<double>(s.accesses));
    levels.push_back(static_cast<double>(s.hits));
    levels.push_back(static_cast<double>(s.misses));
    levels.push_back(static_cast<double>(s.writebacks));
    levels.push_back(static_cast<double>(s.flushes));
  }
  m.raw("level_stats", json_array(levels));
  m.raw("energy_parts", json_array({e.dynamic_pj, e.leakage_active_pj,
                                    e.leakage_drowsy_pj,
                                    e.leakage_retention_pj,
                                    e.transition_pj}));
  m.num("energy_saving", r.energy_saving());
  m.num("lifetime_years", r.lifetime_years());
  m.num("limiting_bank",
        static_cast<double>(r.lifetime ? r.lifetime->limiting_bank : 0));
  m.write(out_path);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::cerr << "usage: pcalbench_trace setup|sweep|run ...\n";
    return 2;
  }
  const std::string cmd = argv[1];
  const std::vector<std::string> args(argv + 2, argv + argc);
  try {
    if (cmd == "setup") return cmd_setup(args);
    if (cmd == "sweep") return cmd_sweep(args);
    if (cmd == "run") return cmd_run(args);
    std::cerr << "pcalbench_trace: unknown command '" << cmd << "'\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "pcalbench_trace: error: " << e.what() << "\n";
    return 1;
  }
}
