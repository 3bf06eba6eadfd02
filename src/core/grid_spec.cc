#include "core/grid_spec.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>

#include "core/enum_strings.h"
#include "core/run_assembly.h"
#include "trace/binary_trace.h"
#include "trace/multiprogram.h"
#include "trace/synthetic.h"
#include "trace/trace_io.h"
#include "trace/workloads.h"
#include "util/config_file.h"
#include "util/error.h"
#include "util/string_util.h"

namespace pcal {
namespace {

// Hard caps: a typo'd range must fail loudly, not allocate the design
// space of a datacenter.
constexpr std::size_t kMaxAxisValues = 4096;
constexpr std::size_t kMaxJobs = 1'000'000;

/// Keys no axis may name: a cohort's shared stream is keyed by its
/// workload value alone, so its length and footprint are grid-wide.
bool is_grid_wide(std::string_view key) {
  return key == "accesses" || key == "footprint";
}

/// The "valid: ..." list of [sweep] (grid = false) or [grid], from the
/// key table.
std::string valid_keys_hint(bool grid) {
  std::string out = grid ? "name" : "";
  for (const ConfigKey& key : kConfigKeys)
    if (grid ? key.type != KeyType::kWorkload : !is_grid_wide(key.name))
      out += (out.empty() ? "" : " ") + std::string(key.name);
  return out;
}

/// The [table] metrics: a name, and how to read it off a result.
struct GridMetric {
  const char* name;
  double (*value)(const SimResult&);
};

using Result = const SimResult&;
constexpr GridMetric kMetrics[] = {
    {"idleness", [](Result r) { return r.avg_residency(); }},
    {"min_idleness", [](Result r) { return r.min_residency(); }},
    {"lifetime", [](Result r) { return r.lifetime_years(); }},
    {"energy_saving", [](Result r) { return r.energy_saving(); }},
    {"hit_rate", [](Result r) { return r.cache_stats.hit_rate(); }},
    {"energy_pj", [](Result r) { return r.energy.partitioned.total_pj(); }},
    {"drowsy_share", [](Result r) { return r.drowsy_residency(); }},
    {"accesses", [](Result r) { return double(r.accesses); }},
    {"avg_latency", [](Result r) { return r.avg_access_latency(); }},
    {"total_cycles", [](Result r) { return double(r.total_cycles); }},
    {"stall_cycles", [](Result r) { return double(r.stall_cycles); }},
    {"mshr_stall_cycles", [](Result r) { return double(r.mshr_stall_cycles); }},
    {"port_stall_cycles", [](Result r) { return double(r.port_stall_cycles); }},
    {"bw_stall_cycles", [](Result r) { return double(r.bw_stall_cycles); }},
};

const GridMetric* find_metric(const std::string& name) {
  for (const GridMetric& m : kMetrics)
    if (name == m.name) return &m;
  return nullptr;
}

[[noreturn]] void fail(const std::string& where, const std::string& msg) {
  throw ParseError("sweep spec " + where + ": " + msg);
}

/// Unsigned integer with an optional k/M byte multiplier ("8k" = 8192);
/// the shared parser (core/run_assembly.h) with the spec's error prefix.
std::uint64_t parse_number(const std::string& s, const std::string& where) {
  return parse_config_number(s, "sweep spec " + where);
}

/// Finite non-negative real number ("0.25"): "inf"/"nan" would serialize
/// as invalid JSON in the BENCH record, far from the offending spec line.
double parse_real(const std::string& s, const std::string& where) {
  return parse_config_real(s, "sweep spec " + where);
}

/// Expands one range item: "1..32 log2", "2..8 step 2", "1..4".
std::vector<std::uint64_t> expand_range(const std::string& item,
                                        const std::string& where) {
  const std::size_t dots = item.find("..");
  const std::uint64_t lo = parse_number(item.substr(0, dots), where);
  std::istringstream rest(item.substr(dots + 2));
  std::string hi_text, mode, step_text;
  rest >> hi_text >> mode >> step_text;
  const std::uint64_t hi = parse_number(hi_text, where);
  if (lo > hi)
    fail(where, "range '" + item + "' is descending (" +
                    std::to_string(lo) + " > " + std::to_string(hi) + ")");
  std::uint64_t step = 1;
  bool log2 = false;
  if (mode == "log2") {
    if (!step_text.empty())
      fail(where, "trailing text after 'log2' in range '" + item + "'");
    if (lo == 0) fail(where, "log2 range '" + item + "' cannot start at 0");
    log2 = true;
  } else if (mode == "step") {
    step = parse_number(step_text, where);
    if (step == 0) fail(where, "range '" + item + "' has step 0");
  } else if (!mode.empty()) {
    fail(where, "range '" + item + "' wants 'log2' or 'step N', got '" +
                    mode + "'");
  }
  std::vector<std::uint64_t> out;
  for (std::uint64_t v = lo;;) {
    out.push_back(v);
    if (out.size() > kMaxAxisValues)
      fail(where, "range '" + item + "' expands past " +
                      std::to_string(kMaxAxisValues) + " values");
    if (log2) {
      if (v > hi / 2) break;
      v *= 2;
    } else {
      if (hi - v < step) break;
      v += step;
    }
  }
  return out;
}

std::vector<std::string> split_items(const std::string& value,
                                     const std::string& where,
                                     const std::string& axis) {
  std::vector<std::string> items;
  for (const std::string& raw : split(value, ',')) {
    const std::string item{trim(raw)};
    if (item.empty())
      fail(where, "axis '" + axis + "' has an empty value");
    items.push_back(item);
  }
  if (items.empty())
    fail(where, "axis '" + axis + "' has no values (empty cross-product)");
  return items;
}

std::vector<std::string> expand_numeric_axis(const std::string& axis,
                                             const std::string& value,
                                             const std::string& where) {
  std::vector<std::string> out;
  for (const std::string& item : split_items(value, where, axis)) {
    if (item.find("..") != std::string::npos) {
      for (const std::uint64_t v : expand_range(item, where))
        out.push_back(std::to_string(v));
    } else {
      out.push_back(std::to_string(parse_number(item, where)));
    }
    if (out.size() > kMaxAxisValues)
      fail(where, "axis '" + axis + "' expands past " +
                      std::to_string(kMaxAxisValues) + " values");
  }
  return out;
}

/// An axis of reals, flags or enum spellings: a plain comma list, each
/// item read by the key's own parser (core/run_assembly.h) and kept in its
/// spelling, so coords and table rows read as written.
std::vector<std::string> expand_spelled_axis(const std::string& axis,
                                             const std::string& value,
                                             const std::string& where) {
  std::vector<std::string> items = split_items(value, where, axis);
  RunAssembly probe;
  for (const std::string& item : items)
    probe.set(axis, item, "sweep spec " + where + ": axis '" + axis + "'");
  return items;
}

std::vector<std::string> expand_workload_axis(const std::string& value,
                                              const std::string& where,
                                              std::uint64_t footprint_bytes) {
  std::vector<std::string> out;
  for (const std::string& item : split_items(value, where, "workload")) {
    if (item == "mediabench") {
      for (const BenchmarkSignature& sig : mediabench_signatures())
        out.push_back(sig.name);
      continue;
    }
    if (starts_with(item, "trace:")) {
      if (item.size() == 6)
        fail(where, "'trace:' needs a file path (trace:<file>)");
      out.push_back(item);
      continue;
    }
    if (starts_with(item, "multiprog:")) {
      try {
        parse_multiprogram_spec(item.substr(10), footprint_bytes);
      } catch (const Error& e) {
        fail(where, std::string("workload '") + item + "': " + e.what());
      }
      out.push_back(item);
      continue;
    }
    if (item == "uniform" || item == "streaming" || item == "hotspot") {
      out.push_back(item);
      continue;
    }
    try {
      make_mediabench_workload(item);  // validates the name
    } catch (const Error& e) {
      fail(where, std::string("workload '") + item + "': " + e.what());
    }
    out.push_back(item);
  }
  return out;
}

}  // namespace

TraceSourceFactory make_workload_factory(const std::string& value,
                                         std::uint64_t accesses,
                                         std::uint64_t footprint_bytes) {
  if (starts_with(value, "trace:")) {
    const std::string path = value.substr(6);
    if (is_pct_file(path)) {
      // Each worker opens its own read-only mapping: concurrent replay
      // shares page-cache frames, never cursors.
      const PctInfo info = pct_file_info(path);  // validates header
      if (accesses >= info.count)
        return [path] { return std::make_unique<BinaryTraceSource>(path); };
      return [path, accesses] {
        return std::make_unique<TruncatedSource>(
            std::make_unique<BinaryTraceSource>(path), accesses);
      };
    }
    // Text/legacy-binary traces: parse once, replay through shared
    // read-only views.
    auto shared = std::make_shared<const Trace>(load_trace_file(path));
    return [shared, accesses] {
      return std::make_unique<SharedTraceSource>(shared, accesses);
    };
  }
  if (starts_with(value, "multiprog:")) {
    const MultiProgramConfig mp =
        parse_multiprogram_spec(value.substr(10), footprint_bytes);
    return [mp, accesses] {
      return std::make_unique<MultiProgramSource>(mp, accesses);
    };
  }
  WorkloadSpec spec;
  if (value == "uniform")
    spec = make_uniform_workload(footprint_bytes);
  else if (value == "streaming")
    spec = make_streaming_workload(footprint_bytes);
  else if (value == "hotspot")
    spec = make_hotspot_workload(footprint_bytes);
  else
    spec = make_mediabench_workload(value);
  return [spec, accesses] {
    return std::make_unique<SyntheticTraceSource>(spec, accesses);
  };
}

namespace {

bool is_valid_grid_name(const std::string& name) {
  if (name.empty()) return false;
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '-' ||
                    c == '.';
    if (!ok) return false;
  }
  return true;
}

TableMetric parse_metric(const std::string& item, const std::string& where) {
  const std::vector<std::string> fields = split(item, ':');
  if (fields.empty() || fields.size() > 4)
    fail(where, "cell '" + item + "' wants metric[:label[:num|pct[:N]]]");
  TableMetric m;
  m.metric = std::string(trim(fields[0]));
  if (!find_metric(m.metric)) {
    std::string hint;
    for (const GridMetric& k : kMetrics) hint += std::string(k.name) + " ";
    fail(where, "unknown metric '" + m.metric + "' (valid: " + hint + ")");
  }
  m.label = fields.size() > 1 ? std::string(trim(fields[1])) : m.metric;
  if (fields.size() > 2) {
    const std::string fmt{trim(fields[2])};
    if (fmt == "pct")
      m.percent = true;
    else if (fmt != "num")
      fail(where, "cell '" + item + "': format must be num or pct");
  }
  if (fields.size() > 3) {
    const std::uint64_t d = parse_number(fields[3], where);
    if (d > 9) fail(where, "cell '" + item + "': at most 9 decimals");
    m.decimals = static_cast<int>(d);
  }
  return m;
}

std::vector<std::vector<double>> parse_paper_matrix(
    const std::string& value, const std::string& where) {
  std::vector<std::vector<double>> rows;
  for (const std::string& row_text : split(value, ';')) {
    std::vector<double> row;
    std::istringstream is{row_text};
    std::string tok;
    while (is >> tok) {
      try {
        std::size_t consumed = 0;
        row.push_back(std::stod(tok, &consumed));
        if (consumed != tok.size()) throw std::invalid_argument(tok);
      } catch (const std::exception&) {
        fail(where, "'" + tok + "' is not a number");
      }
    }
    if (row.empty()) fail(where, "empty paper row");
    rows.push_back(std::move(row));
  }
  return rows;
}

}  // namespace

GridSpec GridSpec::parse(std::istream& is, const std::string& default_name,
                         const std::vector<std::string>& overrides) {
  // ---- phase 1: raw ordered entries, strict on structure ----
  static const ConfigSyntax kSyntax{
      "sweep spec",
      {"grid", "sweep", "table", "paper", "timeline", "filter"},
      // [filter] lines are whole `key OP value` expressions ('=' may be
      // part of the operator), parsed below once the axes exist.  An
      // override ("filter.banks<=8") arrives split at its first '='.
      {"filter"}};
  const std::vector<ConfigEntry> entries = read_config(is, kSyntax, overrides);

  // ---- phase 2: typed sections ----
  GridSpec spec;
  spec.name_ = default_name;
  const RunAssembly defaults;
  spec.accesses_ = defaults.accesses();
  spec.footprint_bytes_ = defaults.footprint_bytes();

  for (const ConfigEntry& e : entries) {
    if (e.section != "grid") continue;
    if (e.key == "name") {
      if (!is_valid_grid_name(e.value))
        fail(e.where, "grid name must be [A-Za-z0-9_.-]+, got '" + e.value +
                          "'");
      spec.name_ = e.value;
      continue;
    }
    const ConfigKey* key = find_config_key(e.key);
    if (key == nullptr)
      fail(e.where, "unknown [grid] key '" + e.key + "' (valid: " +
                        valid_keys_hint(true) + ")");
    if (key->type == KeyType::kWorkload)
      fail(e.where, "'" + e.key + "' is an axis: declare it under [sweep]");
    // Read and checked here, where the line is known.
    RunAssembly probe;
    probe.set(e.key, e.value, "sweep spec " + e.where + ": key '" + e.key +
                                  "'");
    if (e.key == "accesses") {
      spec.accesses_ = probe.accesses();
      continue;
    }
    if (e.key == "footprint") spec.footprint_bytes_ = probe.footprint_bytes();
    spec.fixed_.push_back(
        {e.key, key->type == KeyType::kCount
                    ? std::to_string(parse_number(e.value, e.where))
                    : e.value});
  }

  for (const ConfigEntry& e : entries) {
    if (e.section != "timeline") continue;
    if (e.key == "dir") {
      if (e.value.empty()) fail(e.where, "timeline dir must be non-empty");
      spec.timeline_dir_ = e.value;
    } else {
      fail(e.where, "unknown [timeline] key '" + e.key + "' (valid: dir)");
    }
  }

  for (const ConfigEntry& e : entries) {
    if (e.section != "sweep") continue;
    const ConfigKey* key = find_config_key(e.key);
    if (key == nullptr)
      fail(e.where, "unknown sweep axis '" + e.key + "' (valid: " +
                        valid_keys_hint(false) + ")");
    if (is_grid_wide(e.key))
      fail(e.where, "'" + e.key + "' is grid-wide (a shared stream is keyed "
                        "by its workload alone): set it under [grid]");
    for (const GridFixed& f : spec.fixed_)
      if (f.key == e.key)
        fail(e.where, "key '" + e.key +
                          "' is both fixed in [grid] and swept here");
    GridAxis axis;
    axis.key = e.key;
    if (key->type == KeyType::kCount)
      axis.values = expand_numeric_axis(e.key, e.value, e.where);
    else if (key->type == KeyType::kWorkload)
      axis.values =
          expand_workload_axis(e.value, e.where, spec.footprint_bytes_);
    else
      axis.values = expand_spelled_axis(e.key, e.value, e.where);
    spec.axes_.push_back(std::move(axis));
  }

  if (spec.axes_.empty())
    throw ConfigError("sweep spec declares no axes: add a [sweep] section");
  if (!spec.find_axis("workload"))
    throw ConfigError(
        "sweep spec has no workload axis: declare `workload = ...` under "
        "[sweep]");
  // Scope: an axis of a level that may be absent needs that level, or it
  // would expand duplicate jobs and quietly show the axis having no
  // effect.  A [grid] scalar counts like a one-value axis here, but is
  // itself exempt: a fixed key of an absent level is inert.
  const auto declared = [&](const char* key) {
    if (const GridAxis* axis = spec.find_axis(key)) return axis->values;
    for (const GridFixed& f : spec.fixed_)
      if (f.key == key) return std::vector<std::string>{f.value};
    return std::vector<std::string>{};
  };
  const auto any_nonzero = [&](const char* key) {
    for (const std::string& v : declared(key))
      if (v != "0") return true;
    return false;
  };
  const bool has_l3 = any_nonzero("l3_size");
  const bool has_lower = has_l3 || any_nonzero("l2_size");
  // Multi-core coupling: `cores` needs a shared LLC, and the llc_* /
  // per-core-workload axes are meaningless without `cores`.
  if (const GridAxis* cores_axis = spec.find_axis("cores"))
    for (const std::string& v : cores_axis->values)
      if (v == "0")
        throw ConfigError("sweep axis 'cores' values must be >= 1");
  std::uint64_t max_cores = 0;
  for (const std::string& v : declared("cores"))
    max_cores = std::max(max_cores, parse_number(v, "cores"));
  if (max_cores > 0) {
    const std::vector<std::string> llc_sizes = declared("llc_size");
    if (llc_sizes.empty())
      throw ConfigError(
          "sweep axis 'cores' needs an llc_size axis (the shared "
          "last-level cache)");
    for (const std::string& v : llc_sizes)
      if (v == "0")
        throw ConfigError("sweep axis 'llc_size' values must be positive");
  }
  for (const GridAxis& axis : spec.axes_) {
    const std::string& k = axis.key;
    if (((starts_with(k, "l2_") && k != "l2_size") || k == "inclusion") &&
        !has_lower)
      throw ConfigError(
          "sweep axis '" + k +
          "' needs a lower level: declare an l2_size (or l3_size) axis "
          "with a nonzero value");
    if (starts_with(k, "l3_") && k != "l3_size" && !has_l3)
      throw ConfigError("sweep axis '" + k +
                        "' needs an l3_size axis with a nonzero value");
    const int core = core_workload_index(k);
    if ((starts_with(k, "llc_") || core >= 0) && max_cores == 0)
      throw ConfigError("sweep axis '" + k + "' needs a cores axis");
    if (core >= 0 && static_cast<std::uint64_t>(core) >= max_cores)
      throw ConfigError("sweep axis '" + k + "' names core " +
                        std::to_string(core) + "; the cores axis peaks at " +
                        std::to_string(max_cores) + " cores (indices 0.." +
                        std::to_string(max_cores - 1) + ")");
  }
  std::size_t total = 1;
  for (const GridAxis& axis : spec.axes_) {
    total *= axis.values.size();
    if (total > kMaxJobs)
      throw ConfigError("sweep cross-product exceeds " +
                        std::to_string(kMaxJobs) + " jobs (" +
                        spec.describe_axes() + ")");
  }

  for (const ConfigEntry& e : entries) {
    if (e.section != "filter") continue;
    // Overrides arrive split at their first '=' ("filter.banks<=8" ->
    // key "banks<", value "8"); file lines arrive whole in `key`.
    const std::string expr =
        e.value.empty() ? e.key : e.key + "=" + e.value;
    std::size_t op_pos = std::string::npos;
    for (std::size_t i = 0; i < expr.size(); ++i) {
      const char c = expr[i];
      if (c == '<' || c == '>' || c == '=' || c == '!') {
        op_pos = i;
        break;
      }
    }
    if (op_pos == std::string::npos)
      fail(e.where, "filter '" + expr +
                        "' must look like 'key OP value' with OP one of "
                        "== != < <= > >=");
    GridFilter f;
    f.op = (op_pos + 1 < expr.size() && expr[op_pos + 1] == '=')
               ? expr.substr(op_pos, 2)
               : expr.substr(op_pos, 1);
    if (f.op == "=" || f.op == "!")
      fail(e.where, "filter '" + expr + "' has operator '" + f.op +
                        "' (expected == != < <= > >=)");
    f.key = std::string(trim(std::string_view(expr).substr(0, op_pos)));
    f.value = std::string(
        trim(std::string_view(expr).substr(op_pos + f.op.size())));
    if (f.key.empty() || f.value.empty())
      fail(e.where, "filter '" + expr + "' is missing its " +
                        (f.key.empty() ? std::string("key")
                                       : std::string("value")));
    f.axis = spec.axes_.size();
    for (std::size_t i = 0; i < spec.axes_.size(); ++i)
      if (spec.axes_[i].key == f.key) f.axis = i;
    if (f.axis == spec.axes_.size())
      fail(e.where, "filter key '" + f.key +
                        "' names no declared sweep axis (declared: " +
                        spec.describe_axes() + ")");
    const GridAxis& axis = spec.axes_[f.axis];
    const KeyType type = find_config_key(f.key)->type;
    const bool numeric = type == KeyType::kCount;
    const bool real = type == KeyType::kReal;
    if (!numeric && !real && f.op != "==" && f.op != "!=")
      fail(e.where, "filter '" + expr + "': axis '" + f.key +
                        "' is non-numeric; only == and != apply");
    if (numeric) f.value = std::to_string(parse_number(f.value, e.where));
    const double rhs_real = real ? parse_real(f.value, e.where) : 0.0;
    f.pass.reserve(axis.values.size());
    for (const std::string& v : axis.values) {
      bool ok;
      if (numeric) {
        // Axis values are already canonical decimal; the axis key being
        // numeric guarantees they parse.
        const std::uint64_t lhs = parse_number(v, e.where);
        const std::uint64_t rhs = parse_number(f.value, e.where);
        ok = f.op == "==" ? lhs == rhs
             : f.op == "!=" ? lhs != rhs
             : f.op == "<"  ? lhs < rhs
             : f.op == "<=" ? lhs <= rhs
             : f.op == ">"  ? lhs > rhs
                            : lhs >= rhs;
      } else if (real) {
        const double lhs = parse_real(v, e.where);
        ok = f.op == "==" ? lhs == rhs_real
             : f.op == "!=" ? lhs != rhs_real
             : f.op == "<"  ? lhs < rhs_real
             : f.op == "<=" ? lhs <= rhs_real
             : f.op == ">"  ? lhs > rhs_real
                            : lhs >= rhs_real;
      } else {
        // String/enum axes compare against the stored spelling (the
        // same one coords and table rows show).
        ok = (v == f.value) == (f.op == "==");
      }
      f.pass.push_back(ok ? 1 : 0);
    }
    spec.filters_.push_back(std::move(f));
  }
  if (!spec.filters_.empty()) {
    for (std::size_t i = 0; i < spec.axes_.size(); ++i) {
      bool any = false;
      for (std::size_t j = 0; j < spec.axes_[i].values.size() && !any; ++j)
        any = spec.value_passes(i, j);
      if (!any)
        throw ConfigError("[filter] eliminates every value of axis '" +
                          spec.axes_[i].key +
                          "' — the grid would expand to zero jobs");
    }
  }

  for (const ConfigEntry& e : entries) {
    if (e.section != "table") continue;
    spec.has_table_ = true;
    TableSpec& t = spec.table_;
    if (e.key == "rows")
      t.rows = e.value;
    else if (e.key == "row_header")
      t.row_header = e.value;
    else if (e.key == "row_format") {
      if (e.value != "raw" && e.value != "size")
        fail(e.where, "row_format must be raw or size");
      t.row_format = e.value;
    } else if (e.key == "cols")
      t.cols = e.value;
    else if (e.key == "col_prefix")
      t.col_prefix = e.value;
    else if (e.key == "cells") {
      for (const std::string& item : split(e.value, ','))
        t.metrics.push_back(parse_metric(std::string(trim(item)), e.where));
    } else if (e.key == "reduce") {
      if (e.value != "mean")
        fail(e.where, "only reduce = mean is supported");
    } else {
      fail(e.where, "unknown [table] key '" + e.key +
                        "' (valid: rows row_header row_format cols "
                        "col_prefix cells reduce)");
    }
  }
  if (spec.has_table_) {
    TableSpec& t = spec.table_;
    if (t.rows.empty() || !spec.find_axis(t.rows))
      throw ConfigError("[table] rows must name a sweep axis, got '" +
                        t.rows + "'");
    if (!t.cols.empty() && !spec.find_axis(t.cols))
      throw ConfigError("[table] cols must name a sweep axis, got '" +
                        t.cols + "'");
    if (!t.cols.empty() && t.cols == t.rows)
      throw ConfigError("[table] rows and cols name the same axis '" +
                        t.rows + "'");
    if (t.metrics.empty())
      throw ConfigError("[table] needs a cells = ... declaration");
    if (t.row_header.empty()) t.row_header = t.rows;
  }

  for (const ConfigEntry& e : entries) {
    if (e.section != "paper") continue;
    if (!spec.has_table_)
      fail(e.where, "[paper] values need a [table] section to attach to");
    TableMetric* metric = nullptr;
    for (TableMetric& m : spec.table_.metrics)
      if (m.label == e.key) metric = &m;
    if (!metric)
      fail(e.where, "[paper] key '" + e.key +
                        "' matches no [table] cell label");
    metric->paper = parse_paper_matrix(e.value, e.where);
    const std::size_t num_rows = spec.find_axis(spec.table_.rows)->values.size();
    if (metric->paper.size() != num_rows)
      fail(e.where, "paper matrix has " +
                        std::to_string(metric->paper.size()) +
                        " rows; the '" + spec.table_.rows + "' axis has " +
                        std::to_string(num_rows));
    const std::size_t num_cols =
        spec.table_.cols.empty()
            ? 1
            : spec.find_axis(spec.table_.cols)->values.size();
    for (const std::vector<double>& row : metric->paper) {
      if (row.size() != metric->paper.front().size())
        fail(e.where, "paper matrix rows have unequal widths");
      if (row.size() > num_cols)
        fail(e.where, "paper matrix is wider than the column axis");
    }
  }

  return spec;
}

GridSpec GridSpec::load(const std::string& path,
                        const std::vector<std::string>& overrides) {
  std::ifstream f(path);
  if (!f) throw ParseError("cannot open sweep spec: " + path);
  std::string name = basename_of(path);
  const std::size_t dot = name.find_last_of('.');
  if (dot != std::string::npos && dot > 0) name = name.substr(0, dot);
  if (!is_valid_grid_name(name)) name = "sweep";
  return parse(f, name, overrides);
}

const GridAxis* GridSpec::find_axis(const std::string& key) const {
  for (const GridAxis& axis : axes_)
    if (axis.key == key) return &axis;
  return nullptr;
}

bool GridSpec::value_passes(std::size_t axis, std::size_t index) const {
  for (const GridFilter& f : filters_)
    if (f.axis == axis && !f.pass[index]) return false;
  return true;
}

std::size_t GridSpec::cross_product_size() const {
  // Every filter constrains exactly one axis, so the pruned count is
  // still a product: surviving values per axis, multiplied out.
  std::size_t total = 1;
  for (std::size_t i = 0; i < axes_.size(); ++i) {
    std::size_t n = axes_[i].values.size();
    if (!filters_.empty()) {
      n = 0;
      for (std::size_t j = 0; j < axes_[i].values.size(); ++j)
        if (value_passes(i, j)) ++n;
    }
    total *= n;
  }
  return total;
}

std::string GridSpec::describe_axes() const {
  std::string out;
  for (const GridAxis& axis : axes_) {
    if (!out.empty()) out += ", ";
    out += axis.key + " x" + std::to_string(axis.values.size());
  }
  return out;
}

std::vector<GridJob> GridSpec::expand(std::uint64_t num_accesses) const {
  // One factory per distinct workload value: synthetics share their
  // immutable spec, text traces parse once, .pct traces are probed once.
  std::map<std::string, TraceSourceFactory> factories;
  for (const GridAxis& axis : axes_) {
    if (axis.key != "workload" && core_workload_index(axis.key) < 0) continue;
    for (const std::string& value : axis.values)
      if (!factories.count(value))
        factories[value] =
            make_workload_factory(value, num_accesses, footprint_bytes_);
  }

  RunAssembly fixed;
  for (const GridFixed& f : fixed_) fixed.set(f.key, f.value);

  std::vector<GridJob> jobs;
  jobs.reserve(cross_product_size());
  std::vector<std::size_t> odometer(axes_.size(), 0);
  for (;;) {
    // [filter]-pruned points are skipped before any assembly work; the
    // odometer still walks the full rectangle so declaration order is
    // preserved among the survivors.
    bool pruned = false;
    if (!filters_.empty())
      for (std::size_t i = 0; i < axes_.size() && !pruned; ++i)
        pruned = !value_passes(i, odometer[i]);
    if (pruned) {
      std::size_t i = axes_.size();
      while (i > 0) {
        --i;
        if (++odometer[i] < axes_[i].values.size()) break;
        odometer[i] = 0;
        if (i == 0) return jobs;
      }
      continue;
    }
    GridJob job;
    job.coords.reserve(axes_.size());
    // Stage this grid point through the shared key -> config application
    // path (core/run_assembly.h) — the same one pcalsim and the api
    // facade use, so the vocabularies cannot drift: the [grid] scalars,
    // then each axis value (axis order must not matter, which the staged
    // assembly guarantees).
    RunAssembly asmb = fixed;
    for (std::size_t i = 0; i < axes_.size(); ++i)
      job.coords.push_back(axes_[i].values[odometer[i]]);
    const auto fail_point = [&](const Error& e) {
      std::string coords;
      for (std::size_t i = 0; i < axes_.size(); ++i)
        coords += (i ? " " : "") + axes_[i].key + "=" + job.coords[i];
      throw ConfigError("grid point (" + coords + "): " + e.what());
    };
    try {
      // Single-key errors (e.g. a non-power-of-2 cache_size) surface
      // here, so they name the grid point like the assembled checks do.
      for (std::size_t i = 0; i < axes_.size(); ++i)
        asmb.set(axes_[i].key, job.coords[i], "axis " + axes_[i].key);
      RunAssembly::Assembled assembled = asmb.assemble();
      job.config = std::move(assembled.config);
      job.workload = asmb.workload();
      job.make_source = factories.at(job.workload);
      if (assembled.multicore) {
        job.multicore = std::make_shared<const MultiCoreConfig>(
            std::move(*assembled.multicore));
        job.core_sources.reserve(assembled.cores);
        for (std::uint64_t k = 0; k < assembled.cores; ++k) {
          const auto it = asmb.core_workloads().find(static_cast<int>(k));
          job.core_sources.push_back(factories.at(
              it != asmb.core_workloads().end() ? it->second : job.workload));
        }
      }
    } catch (const Error& e) {
      fail_point(e);  // rethrows with grid-point context
    }
    jobs.push_back(std::move(job));

    // Advance the odometer: last axis fastest (first axis outermost).
    std::size_t i = axes_.size();
    while (i > 0) {
      --i;
      if (++odometer[i] < axes_[i].values.size()) break;
      odometer[i] = 0;
      if (i == 0) return jobs;
    }
  }
}

double grid_metric_value(const SimResult& r, const std::string& metric) {
  if (const GridMetric* m = find_metric(metric)) return m->value(r);
  throw ConfigError("unknown table metric '" + metric + "'");
}

std::string GridSpec::job_label(const GridJob& job) const {
  std::string out;
  for (std::size_t i = 0; i < axes_.size(); ++i)
    out += (i ? " " : "") + axes_[i].key + "=" + job.coords[i];
  return out;
}

SweepJob GridSpec::sweep_job(const GridJob& job, const AgingLut* lut) const {
  SweepJob j;
  j.config = job.config;
  j.make_source = job.make_source;
  if (!job.multicore) j.shared_source = job.workload;
  j.label = job_label(job);
  j.lut = lut;
  j.multicore = job.multicore;
  j.core_sources = job.core_sources;
  return j;
}

TextTable GridSpec::render_table(
    const std::vector<GridJob>& jobs,
    const std::vector<SweepOutcome>& outcomes) const {
  PCAL_ASSERT_MSG(jobs.size() == outcomes.size(),
                  "render_table: " << jobs.size() << " jobs vs "
                                   << outcomes.size() << " outcomes");

  if (!has_table_) {
    // Generic mode: one row per job, coordinates then headline metrics.
    std::vector<std::string> header{"job"};
    for (const GridAxis& axis : axes_) header.push_back(axis.key);
    header.insert(header.end(), {"Idl", "LT", "Esav", "hit"});
    TextTable table(std::move(header));
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      std::vector<std::string> row{std::to_string(i)};
      row.insert(row.end(), jobs[i].coords.begin(), jobs[i].coords.end());
      if (outcomes[i].ok()) {
        const SimResult& r = outcomes[i].result;
        row.push_back(TextTable::pct(r.avg_residency(), 2));
        row.push_back(TextTable::num(r.lifetime_years(), 3));
        row.push_back(TextTable::pct(r.energy_saving(), 2));
        row.push_back(TextTable::num(r.cache_stats.hit_rate(), 4));
      } else {
        // A failed job is a hole, not a row of zeros — zeros look like
        // data and would poison downstream diffs.
        row.insert(row.end(), 4, "-");
      }
      table.add_row(std::move(row));
    }
    return table;
  }

  // Pivot mode: rows axis x cols axis x metric cells, mean-reduced over
  // every other axis (accumulated in job order, so cell means match a
  // bench that sums its inner workload loop and divides).
  std::size_t row_axis = 0, col_axis = 0;
  bool has_cols = !table_.cols.empty();
  for (std::size_t i = 0; i < axes_.size(); ++i) {
    if (axes_[i].key == table_.rows) row_axis = i;
    if (has_cols && axes_[i].key == table_.cols) col_axis = i;
  }
  const std::vector<std::string>& row_values = axes_[row_axis].values;
  const std::vector<std::string> col_values =
      has_cols ? axes_[col_axis].values : std::vector<std::string>{""};

  const auto index_of = [](const std::vector<std::string>& values,
                           const std::string& v) {
    return static_cast<std::size_t>(
        std::find(values.begin(), values.end(), v) - values.begin());
  };

  const std::size_t nm = table_.metrics.size();
  std::vector<double> sums(row_values.size() * col_values.size() * nm, 0.0);
  std::vector<std::uint64_t> counts(row_values.size() * col_values.size(), 0);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    // Failed jobs contribute nothing: the cell mean is taken over the
    // jobs that succeeded, and a cell with no survivors renders as a
    // hole ("-") rather than a zero that looks like data.
    if (!outcomes[i].ok()) continue;
    const std::size_t r = index_of(row_values, jobs[i].coords[row_axis]);
    const std::size_t c =
        has_cols ? index_of(col_values, jobs[i].coords[col_axis]) : 0;
    const std::size_t cell = r * col_values.size() + c;
    for (std::size_t m = 0; m < nm; ++m)
      sums[cell * nm + m] +=
          grid_metric_value(outcomes[i].result, table_.metrics[m].metric);
    ++counts[cell];
  }

  std::vector<std::string> header{table_.row_header};
  for (std::size_t c = 0; c < col_values.size(); ++c) {
    for (const TableMetric& m : table_.metrics) {
      header.push_back(has_cols
                           ? table_.col_prefix + col_values[c] + ":" + m.label
                           : m.label);
      if (!m.paper.empty() && c < m.paper.front().size())
        header.push_back("(p)");
    }
  }
  TextTable table(std::move(header));

  for (std::size_t r = 0; r < row_values.size(); ++r) {
    std::vector<std::string> row;
    row.push_back(table_.row_format == "size"
                      ? format_size(parse_number(row_values[r], "row value"))
                      : row_values[r]);
    for (std::size_t c = 0; c < col_values.size(); ++c) {
      const std::size_t cell = r * col_values.size() + c;
      for (std::size_t m = 0; m < nm; ++m) {
        const TableMetric& metric = table_.metrics[m];
        if (counts[cell] == 0) {
          row.push_back("-");
          if (!metric.paper.empty() && c < metric.paper.front().size())
            row.push_back(TextTable::num(metric.paper[r][c], metric.decimals));
          continue;
        }
        const double mean =
            sums[cell * nm + m] / static_cast<double>(counts[cell]);
        row.push_back(metric.percent ? TextTable::pct(mean, metric.decimals)
                                     : TextTable::num(mean, metric.decimals));
        if (!metric.paper.empty() && c < metric.paper.front().size())
          row.push_back(TextTable::num(metric.paper[r][c], metric.decimals));
      }
    }
    table.add_row(std::move(row));
  }
  return table;
}

}  // namespace pcal
