// Declarative sweep grids: the .sweep spec format behind pcalsweep.
//
// The paper's evaluation is a family of cross-products — workloads ×
// cache sizes × line sizes × bank counts × policies — and every one of
// them used to live as a hand-written C++ loop nest in bench/*.cc.  A
// GridSpec declares the same grid in an INI-style file:
//
//   [grid]                       # fixed for every job: name, accesses,
//   name = table4_banks          # footprint, or any config key but a
//   accesses = 2000000           # workload (core/run_assembly.h)
//
//   [sweep]                      # each key is one axis of the grid
//   cache_size = 8192, 16384, 32768
//   line_size = 16
//   banks = 2, 4, 8, 16          # also: ranges, e.g. "1..32 log2"
//   workload = mediabench        # 18 paper workloads; mixes with
//                                # uniform/streaming/hotspot and
//                                # trace:<file> (.pct or text) items
//
// expand() walks the cross-product in *declaration order* (the first
// axis is the outermost loop — exactly a bench's loop nest) and yields
// one runnable job per grid point: a SimConfig plus a TraceSourceFactory
// for the SweepRunner.  sweep_job() keys every single-stream point by its
// workload value, so the runner's lockstep cohorts generate each
// synthetic stream once per cohort rather than once per job; .pct trace
// workloads open one BinaryTraceSource mapping per source; text trace
// workloads are loaded once and replayed through SharedTraceSource
// views.
//
// An optional [table] section declares a pivot rendering of the results
// (rows axis × columns axis × metric cells, mean-reduced over the
// remaining axes, with optional [paper] reference columns), which is how
// the shipped examples/*.sweep files regenerate the paper tables —
// examples/table4.sweep prints Table IV byte for byte as its retired
// bench binary did (tests/goldens/sweep/table4.out).
// Without [table], render_table() lists one row per job.
//
// Both sections speak the key table's vocabulary (core/run_assembly.h):
// a row's type decides how its axis expands and its values read.  Parsing
// is strict: the shared reader (util/config_file.h) rejects unknown
// sections and duplicate keys, and unknown keys, a key both fixed and
// swept, malformed ranges and empty axes are rejected here, all with the
// offending line number — a silently ignored typo in a grid axis would
// quietly simulate the wrong design space.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "core/simulator.h"
#include "core/sweep.h"
#include "util/table.h"

namespace pcal {

/// One sweep axis: the [sweep] key and its expanded value list, in
/// declaration order.  Numeric axis values are canonicalized to decimal
/// ("8k" -> "8192"); workload lists keep their item spelling
/// ("trace:demo.pct").
struct GridAxis {
  std::string key;
  std::vector<std::string> values;
};

/// One [grid] scalar: a config key fixed for every job of the grid.
struct GridFixed {
  std::string key;
  std::string value;
};

/// One metric column group of the [table] pivot renderer.
struct TableMetric {
  std::string metric;  // idleness | min_idleness | lifetime | energy_saving
                       // | hit_rate | energy_pj | drowsy_share | accesses
  std::string label;   // column header suffix, e.g. "Idl"
  bool percent = false;
  int decimals = 2;
  /// Optional published reference values ([paper] section), indexed
  /// [row][column group]; rendered as a "(p)" column after the metric.
  /// Rows must match the row axis; width may stop short of the column
  /// axis (the paper often sweeps less far than we do).
  std::vector<std::vector<double>> paper;
};

/// Declarative pivot layout of the [table] section.
struct TableSpec {
  std::string rows;               // axis key whose values become rows
  std::string row_header;         // first column's header
  std::string row_format = "raw";  // raw | size (8192 -> "8kB")
  std::string cols;               // optional axis key -> column groups
  std::string col_prefix;         // column-group header prefix, e.g. "M="
  std::vector<TableMetric> metrics;
};

/// One [filter] predicate: a `key OP value` line (OP one of == != < <=
/// > >=) over a declared sweep axis.  All filters AND together; grid
/// points whose coordinate fails any filter are pruned before job
/// assembly — the way a spec carves a non-rectangular region out of the
/// cross-product (e.g. `banks <= 8` riding along a wide shared axis
/// file).  cross_product_size() and expand() both see the pruned grid,
/// so job counts and the BENCH record's cross_product stay consistent.
struct GridFilter {
  std::string key;
  std::string op;
  /// Canonical rhs spelling: numeric axes normalize ("8k" -> "8192"),
  /// float/string axes keep the spec's spelling.
  std::string value;
  /// Index of the filtered axis in axes().
  std::size_t axis = 0;
  /// Precomputed per-axis-value verdict (parallel to the axis's values).
  std::vector<char> pass;
};

/// One expanded grid point, ready for the SweepRunner (attach the lut /
/// observer yourself).  `coords` holds this point's value for every axis,
/// in axis order — the key for table grouping and CSV output.
struct GridJob {
  SimConfig config;
  TraceSourceFactory make_source;
  std::string workload;  // the workload axis value of this point
  std::vector<std::string> coords;
  /// Multi-core grid points (a nonzero `cores` axis value): the system
  /// to run plus one source factory per core, in core order.  `config`
  /// still holds the per-core template; a SweepJob built from this point
  /// must carry both fields so the runner takes the multi-core path.
  std::shared_ptr<const MultiCoreConfig> multicore;
  std::vector<TraceSourceFactory> core_sources;
};

class GridSpec {
 public:
  /// Parses a spec; `default_name` seeds [grid] name when absent.
  /// `overrides` are "section.key=value" strings applied before
  /// validation (an override of an existing key replaces its value in
  /// place; a new [sweep] key appends an innermost axis).  Throws
  /// ParseError / ConfigError with line context on malformed specs.
  static GridSpec parse(std::istream& is,
                        const std::string& default_name = "sweep",
                        const std::vector<std::string>& overrides = {});

  /// Loads from a path; the default grid name is the file's basename
  /// without its extension.
  static GridSpec load(const std::string& path,
                       const std::vector<std::string>& overrides = {});

  const std::string& name() const { return name_; }
  /// Accesses per job ([grid] accesses; trace workloads cap at the trace
  /// length).
  std::uint64_t accesses() const { return accesses_; }
  /// [timeline] dir: where runners drop one power-state timeline
  /// artifact per job (docs/TIMELINE.md); empty (the default) disables
  /// timeline emission — runs and their outputs are then bit-identical
  /// to a spec without the section.
  const std::string& timeline_dir() const { return timeline_dir_; }

  const std::vector<GridAxis>& axes() const { return axes_; }
  const GridAxis* find_axis(const std::string& key) const;
  /// The [grid] scalars that fix a config key for every job (footprint
  /// included; name and accesses have accessors of their own), in
  /// declaration order, counts canonicalized to decimal.
  const std::vector<GridFixed>& fixed() const { return fixed_; }
  /// The [filter] predicates, in declaration order (empty when the spec
  /// has no [filter] section — the common case, and bit-compatible with
  /// pre-filter specs everywhere, fingerprints included).
  const std::vector<GridFilter>& filters() const { return filters_; }
  /// Number of grid points expand() yields: the raw axis cross-product,
  /// minus the points the [filter] section prunes.
  std::size_t cross_product_size() const;
  /// "cache_size x3, banks x4, workload x18" — for progress lines.
  std::string describe_axes() const;

  bool has_table() const { return has_table_; }
  const TableSpec& table() const { return table_; }

  /// Expands the cross-product into jobs (first axis outermost), with
  /// `num_accesses` accesses per job.  Trace-file workloads resolve
  /// relative paths against the working directory and are validated
  /// here.  The no-argument form uses accesses().
  std::vector<GridJob> expand(std::uint64_t num_accesses) const;
  std::vector<GridJob> expand() const { return expand(accesses_); }

  /// Renders results of a run over expand()'s jobs: the [table] pivot
  /// when declared, else one row per job.  `outcomes` must be the
  /// SweepRunner outcomes of exactly these jobs, in order.
  TextTable render_table(const std::vector<GridJob>& jobs,
                         const std::vector<SweepOutcome>& outcomes) const;

  /// The job's coordinate label ("cache_size=8192 banks=4
  /// workload=cjpeg") — the SweepJob::label pcalsweep and the api facade
  /// attach, so failure reports name grid points identically everywhere.
  std::string job_label(const GridJob& job) const;

  /// The SweepJob of one expanded point — the one conversion pcalsweep
  /// and the api facade share: config, factories, job_label(), `lut`,
  /// and for a single-stream point the workload value as its
  /// shared_source key (accesses and footprint are grid-wide, so the
  /// value names the stream).
  SweepJob sweep_job(const GridJob& job, const AgingLut* lut) const;

 private:
  GridSpec() = default;

  /// True iff axis `axis`'s value at `index` survives every filter.
  bool value_passes(std::size_t axis, std::size_t index) const;

  std::string name_;
  std::uint64_t accesses_ = 0;
  std::uint64_t footprint_bytes_ = 0;
  std::string timeline_dir_;
  std::vector<GridFixed> fixed_;
  std::vector<GridAxis> axes_;
  std::vector<GridFilter> filters_;
  bool has_table_ = false;
  TableSpec table_;
};

/// Extracts one named metric from a result (the [table] cell values).
/// Throws ConfigError on unknown metric names.
double grid_metric_value(const SimResult& result, const std::string& metric);

/// Builds the per-job TraceSourceFactory of one workload value — the
/// resolution the sweep grid applies to every workload-axis item
/// ("mediabench"/named workloads, uniform/streaming/hotspot,
/// "trace:<file>" (.pct or text), "multiprog:<a>+<b>").  Shared with the
/// pcal::api facade so an embedded run resolves workload names exactly
/// as pcalsweep does.  Throws ConfigError / ParseError on unknown names
/// and unreadable trace files.
TraceSourceFactory make_workload_factory(const std::string& value,
                                         std::uint64_t accesses,
                                         std::uint64_t footprint_bytes);

}  // namespace pcal
