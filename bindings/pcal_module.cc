// The `pcal` Python module: the api/pcal.h facade over the C API, so a
// notebook can drive single runs and grid sweeps through exactly the
// code path pcalsim and pcalsweep take (docs/PYTHON.md).
//
// Deliberately raw CPython (no pybind11 dependency): four functions and
// plain dict/list/str values are the whole surface, and keeping the
// binding dependency-free means it builds anywhere the interpreter's
// headers exist.  The GIL is released for the duration of every
// simulation, so sweep(workers=N) genuinely runs N C++ worker threads.
//
//   pcal.version()                      -> "1.0"
//   pcal.knows(key)                     -> bool
//   pcal.validate(entries)              -> [{key, value, reason}, ...]
//   pcal.run(entries, aging=, timeline=)      -> result dict
//   pcal.sweep(spec_text, workers=, name=, aging=, timeline_dir=)
//                                       -> sweep dict (rows match
//                                          pcalsweep's BENCH records)
//
// `entries` is a dict or a (key, value) sequence in the shared sweep
// vocabulary; values are str()-ed, so 8192, "8k" and True all work.
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <sys/stat.h>

#include <cerrno>
#include <cstring>
#include <exception>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "api/pcal.h"
#include "api/timeline.h"

namespace {

using pcal::api::ConfigIssue;
using pcal::api::RunConfig;

PyObject* g_error = nullptr;  // pcal.Error (a ValueError subclass)

/// dict[key] = value, stealing the value reference.  False (with the
/// Python error set) when value is null or the insert fails.
bool set_item(PyObject* dict, const char* key, PyObject* value) {
  if (value == nullptr) return false;
  const int rc = PyDict_SetItemString(dict, key, value);
  Py_DECREF(value);
  return rc == 0;
}

bool set_str(PyObject* dict, const char* key, const std::string& s) {
  return set_item(dict, key, PyUnicode_FromStringAndSize(s.data(),
                                                         (Py_ssize_t)s.size()));
}

bool set_u64(PyObject* dict, const char* key, std::uint64_t v) {
  return set_item(dict, key, PyLong_FromUnsignedLongLong(v));
}

bool set_f64(PyObject* dict, const char* key, double v) {
  return set_item(dict, key, PyFloat_FromDouble(v));
}

/// One config entry value: anything str()-able ("8k", 8192, 0.5, True —
/// str(True) == "True", which the shared boolean parser accepts).
bool value_to_string(PyObject* obj, std::string* out) {
  PyObject* str = PyObject_Str(obj);
  if (str == nullptr) return false;
  Py_ssize_t size = 0;
  const char* data = PyUnicode_AsUTF8AndSize(str, &size);
  if (data == nullptr) {
    Py_DECREF(str);
    return false;
  }
  out->assign(data, (std::size_t)size);
  Py_DECREF(str);
  return true;
}

/// Fills `rc` from a dict or a sequence of (key, value) pairs.
bool entries_to_config(PyObject* obj, RunConfig* rc) {
  if (PyDict_Check(obj)) {
    PyObject *key, *value;
    Py_ssize_t pos = 0;
    while (PyDict_Next(obj, &pos, &key, &value)) {
      std::string k, v;
      if (!value_to_string(key, &k) || !value_to_string(value, &v))
        return false;
      rc->set(k, v);
    }
    return true;
  }
  PyObject* seq = PySequence_Fast(obj, "entries must be a dict or a "
                                       "sequence of (key, value) pairs");
  if (seq == nullptr) return false;
  const Py_ssize_t n = PySequence_Fast_GET_SIZE(seq);
  for (Py_ssize_t i = 0; i < n; ++i) {
    PyObject* pair =
        PySequence_Fast(PySequence_Fast_GET_ITEM(seq, i),
                        "each entry must be a (key, value) pair");
    if (pair == nullptr || PySequence_Fast_GET_SIZE(pair) != 2) {
      Py_XDECREF(pair);
      Py_DECREF(seq);
      if (!PyErr_Occurred())
        PyErr_SetString(PyExc_TypeError,
                        "each entry must be a (key, value) pair");
      return false;
    }
    std::string k, v;
    const bool ok = value_to_string(PySequence_Fast_GET_ITEM(pair, 0), &k) &&
                    value_to_string(PySequence_Fast_GET_ITEM(pair, 1), &v);
    Py_DECREF(pair);
    if (!ok) {
      Py_DECREF(seq);
      return false;
    }
    rc->set(k, v);
  }
  Py_DECREF(seq);
  return true;
}

PyObject* issues_to_list(const std::vector<ConfigIssue>& issues) {
  PyObject* list = PyList_New((Py_ssize_t)issues.size());
  if (list == nullptr) return nullptr;
  for (std::size_t i = 0; i < issues.size(); ++i) {
    PyObject* d = PyDict_New();
    if (d == nullptr || !set_str(d, "key", issues[i].key) ||
        !set_str(d, "value", issues[i].value) ||
        !set_str(d, "reason", issues[i].reason)) {
      Py_XDECREF(d);
      Py_DECREF(list);
      return nullptr;
    }
    PyList_SET_ITEM(list, (Py_ssize_t)i, d);  // steals d
  }
  return list;
}

PyObject* stats_to_dict(const pcal::CacheStats& s) {
  PyObject* d = PyDict_New();
  if (d == nullptr || !set_u64(d, "accesses", s.accesses) ||
      !set_u64(d, "hits", s.hits) || !set_u64(d, "misses", s.misses) ||
      !set_u64(d, "writebacks", s.writebacks)) {
    Py_XDECREF(d);
    return nullptr;
  }
  return d;
}

/// The result dict: write_result_row's scalars under the same names,
/// plus the per-level and per-core breakdowns a JSON row flattens away.
PyObject* result_to_dict(const pcal::SimResult& r,
                         const std::vector<pcal::CoreResult>& cores) {
  PyObject* d = PyDict_New();
  if (d == nullptr) return nullptr;
  bool ok = set_str(d, "workload", r.workload) &&
            set_str(d, "config", r.config_label) &&
            set_u64(d, "accesses", r.accesses) &&
            set_u64(d, "total_cycles", r.total_cycles) &&
            set_u64(d, "stall_cycles", r.stall_cycles) &&
            set_u64(d, "mshr_stall_cycles", r.mshr_stall_cycles) &&
            set_u64(d, "port_stall_cycles", r.port_stall_cycles) &&
            set_u64(d, "bw_stall_cycles", r.bw_stall_cycles) &&
            set_u64(d, "breakeven_cycles", r.breakeven_cycles) &&
            set_f64(d, "avg_latency", r.avg_access_latency()) &&
            set_f64(d, "energy_pj", r.energy.partitioned.total_pj()) &&
            set_f64(d, "energy_saving", r.energy_saving()) &&
            set_f64(d, "idleness", r.avg_residency()) &&
            set_f64(d, "min_idleness", r.min_residency()) &&
            set_f64(d, "drowsy_share", r.drowsy_residency()) &&
            set_f64(d, "lifetime_years", r.lifetime_years());
  if (ok) {
    PyObject* levels = PyList_New((Py_ssize_t)r.level_stats.size());
    ok = levels != nullptr;
    for (std::size_t i = 0; ok && i < r.level_stats.size(); ++i) {
      PyObject* lv = stats_to_dict(r.level_stats[i]);
      if (lv != nullptr && i < r.level_units.size())
        ok = set_u64(lv, "units", r.level_units[i]);
      if (lv == nullptr || !ok) {
        Py_XDECREF(lv);
        ok = false;
        break;
      }
      PyList_SET_ITEM(levels, (Py_ssize_t)i, lv);
    }
    ok = ok && set_item(d, "levels", levels);
  }
  if (ok) {
    PyObject* clist = PyList_New((Py_ssize_t)cores.size());
    ok = clist != nullptr;
    for (std::size_t k = 0; ok && k < cores.size(); ++k) {
      const pcal::CoreResult& c = cores[k];
      PyObject* cd = PyDict_New();
      ok = cd != nullptr && set_str(cd, "workload", c.workload) &&
           set_u64(cd, "accesses", c.accesses) &&
           set_u64(cd, "stall_cycles", c.stall_cycles) &&
           set_u64(cd, "llc_way_mask", c.llc_way_mask) &&
           set_f64(cd, "l1_hit_rate", c.l1_hit_rate()) &&
           set_u64(cd, "llc_accesses", c.llc_stats.accesses) &&
           set_u64(cd, "llc_hits", c.llc_stats.hits) &&
           set_f64(cd, "energy_pj", c.energy.partitioned.total_pj()) &&
           set_f64(cd, "idleness", c.avg_residency);
      if (!ok) {
        Py_XDECREF(cd);
        break;
      }
      PyList_SET_ITEM(clist, (Py_ssize_t)k, cd);
    }
    ok = ok && set_item(d, "cores", clist);
  }
  if (!ok) {
    Py_DECREF(d);
    return nullptr;
  }
  return d;
}

/// mkdir -p (one level) for timeline_dir, matching pcalsweep.
bool ensure_dir(const std::string& dir) {
  if (mkdir(dir.c_str(), 0777) == 0 || errno == EEXIST) return true;
  PyErr_Format(g_error, "cannot create timeline dir %s: %s", dir.c_str(),
               std::strerror(errno));
  return false;
}

PyObject* raise_pcal_error(const std::exception& e) {
  PyErr_SetString(g_error, e.what());
  return nullptr;
}

/// Runs `fn` with the GIL released.  A C++ exception must not unwind
/// through Py_BEGIN/END_ALLOW_THREADS (it would skip re-acquiring the
/// GIL), so it is caught GIL-less and rethrown once the GIL is back.
template <typename Fn>
void without_gil(Fn&& fn) {
  std::exception_ptr error;
  PyThreadState* state = PyEval_SaveThread();
  try {
    fn();
  } catch (...) {
    error = std::current_exception();
  }
  PyEval_RestoreThread(state);
  if (error) std::rethrow_exception(error);
}

extern "C" {

PyObject* py_version(PyObject*, PyObject*) {
  return PyUnicode_FromString(pcal::api::version());
}

PyObject* py_knows(PyObject*, PyObject* arg) {
  std::string key;
  if (!value_to_string(arg, &key)) return nullptr;
  return PyBool_FromLong(RunConfig::knows(key) ? 1 : 0);
}

PyObject* py_validate(PyObject*, PyObject* arg) {
  RunConfig rc;
  if (!entries_to_config(arg, &rc)) return nullptr;
  try {
    return issues_to_list(rc.validate());
  } catch (const std::exception& e) {
    return raise_pcal_error(e);
  }
}

PyObject* py_run(PyObject*, PyObject* args, PyObject* kwargs) {
  static const char* kwlist[] = {"entries", "aging", "timeline", nullptr};
  PyObject* entries = nullptr;
  int aging = 1;
  const char* timeline = nullptr;
  if (!PyArg_ParseTupleAndKeywords(args, kwargs, "O|pz",
                                   const_cast<char**>(kwlist), &entries,
                                   &aging, &timeline))
    return nullptr;
  RunConfig rc;
  if (!entries_to_config(entries, &rc)) return nullptr;

  try {
    pcal::api::RunOptions options;
    options.aging = aging != 0;
    pcal::api::TimelineRecorder recorder;
    if (timeline != nullptr) {
      recorder.price_with(rc);
      options.observer = recorder.observer();
    }

    pcal::api::RunOutput out;
    without_gil([&] { out = pcal::api::run(rc, options); });

    if (timeline != nullptr) {
      recorder.set_run_label(out.result.workload + " on " +
                             out.result.config_label);
      recorder.write_json_file(timeline);
    }
    return result_to_dict(out.result, out.cores);
  } catch (const std::exception& e) {
    return raise_pcal_error(e);
  }
}

PyObject* py_sweep(PyObject*, PyObject* args, PyObject* kwargs) {
  static const char* kwlist[] = {"spec_text", "workers", "name",
                                 "aging",     "timeline_dir", nullptr};
  const char* spec_text = nullptr;
  unsigned int workers = 0;
  const char* name = "python";
  int aging = 1;
  const char* timeline_dir = nullptr;
  if (!PyArg_ParseTupleAndKeywords(args, kwargs, "s|Ispz",
                                   const_cast<char**>(kwlist), &spec_text,
                                   &workers, &name, &aging, &timeline_dir))
    return nullptr;

  try {
    std::istringstream is{std::string(spec_text)};
    const pcal::GridSpec spec = pcal::GridSpec::parse(is, name);

    pcal::api::GridOptions options;
    options.workers = workers;
    options.aging = aging != 0;

    // With timeline_dir, pre-expand the grid (expand() is deterministic,
    // so indices line up with run_grid's own expansion) to price one
    // recorder per job and attach its observer.
    std::vector<std::unique_ptr<pcal::api::TimelineRecorder>> recorders;
    if (timeline_dir != nullptr) {
      if (!ensure_dir(timeline_dir)) return nullptr;
      const std::vector<pcal::GridJob> jobs = spec.expand();
      recorders.reserve(jobs.size());
      for (const pcal::GridJob& job : jobs) {
        auto rec = std::make_unique<pcal::api::TimelineRecorder>(
            spec.job_label(job));
        if (job.multicore)
          rec->price_with(*job.multicore);
        else
          rec->price_with(job.config);
        recorders.push_back(std::move(rec));
      }
      options.make_observer = [&recorders](std::size_t i) {
        return recorders.at(i)->observer();
      };
    }

    pcal::api::GridRun run;
    without_gil([&] { run = pcal::api::run_grid(spec, options); });

    for (std::size_t i = 0; i < recorders.size(); ++i) {
      if (recorders[i]->intervals().empty()) continue;  // failed job
      recorders[i]->write_json_file(std::string(timeline_dir) + "/" +
                                    spec.name() + "_job" +
                                    std::to_string(i) + ".json");
    }

    PyObject* d = PyDict_New();
    if (d == nullptr) return nullptr;
    bool ok = set_str(d, "name", spec.name()) &&
              set_u64(d, "jobs", run.outcomes.size()) &&
              set_u64(d, "failed_jobs", run.failed_jobs()) &&
              set_u64(d, "workers", run.stats.threads) &&
              set_u64(d, "total_accesses", run.stats.total_accesses) &&
              set_str(d, "table", run.table);
    if (ok) {
      PyObject* rows = PyList_New((Py_ssize_t)run.outcomes.size());
      PyObject* labels = PyList_New((Py_ssize_t)run.outcomes.size());
      PyObject* results = PyList_New((Py_ssize_t)run.outcomes.size());
      ok = rows != nullptr && labels != nullptr && results != nullptr;
      for (std::size_t i = 0; ok && i < run.outcomes.size(); ++i) {
        const std::string row = run.result_row(i);
        PyObject* row_obj =
            PyUnicode_FromStringAndSize(row.data(), (Py_ssize_t)row.size());
        const std::string label = spec.job_label(run.jobs[i]);
        PyObject* label_obj = PyUnicode_FromStringAndSize(
            label.data(), (Py_ssize_t)label.size());
        PyObject* res = result_to_dict(run.outcomes[i].result,
                                       run.outcomes[i].cores);
        if (res != nullptr)
          ok = set_item(res, "ok", PyBool_FromLong(
                                       run.outcomes[i].ok() ? 1 : 0)) &&
               (run.outcomes[i].ok() ||
                set_str(res, "error", run.outcomes[i].error_what));
        if (row_obj == nullptr || label_obj == nullptr || res == nullptr ||
            !ok) {
          Py_XDECREF(row_obj);
          Py_XDECREF(label_obj);
          Py_XDECREF(res);
          ok = false;
          break;
        }
        PyList_SET_ITEM(rows, (Py_ssize_t)i, row_obj);
        PyList_SET_ITEM(labels, (Py_ssize_t)i, label_obj);
        PyList_SET_ITEM(results, (Py_ssize_t)i, res);
      }
      ok = set_item(d, "rows", rows) && set_item(d, "labels", labels) &&
           set_item(d, "results", results) && ok;
    }
    if (!ok) {
      Py_DECREF(d);
      return nullptr;
    }
    return d;
  } catch (const std::exception& e) {
    return raise_pcal_error(e);
  }
}

}  // extern "C"

PyMethodDef kMethods[] = {
    {"version", py_version, METH_NOARGS,
     "version() -> str\n\nLibrary version of the pcal facade."},
    {"knows", py_knows, METH_O,
     "knows(key) -> bool\n\nTrue iff the shared config vocabulary knows "
     "this key."},
    {"validate", py_validate, METH_O,
     "validate(entries) -> list[dict]\n\nChecks a configuration without "
     "running it; one {key, value, reason} dict per problem (empty list "
     "== run() will accept it).  `entries` is a dict or (key, value) "
     "sequence."},
    {"run", (PyCFunction)(void (*)())py_run, METH_VARARGS | METH_KEYWORDS,
     "run(entries, aging=True, timeline=None) -> dict\n\nRuns one "
     "configuration (pcalsim's path) and returns its metrics; "
     "timeline='out.json' also writes the power-state timeline "
     "artifact."},
    {"sweep", (PyCFunction)(void (*)())py_sweep, METH_VARARGS | METH_KEYWORDS,
     "sweep(spec_text, workers=0, name='python', aging=True, "
     "timeline_dir=None) -> dict\n\nExpands and runs a .sweep spec "
     "(pcalsweep's path).  'rows' holds BENCH-parity JSON result rows; "
     "outcomes are bit-identical at any worker count."},
    {nullptr, nullptr, 0, nullptr}};

PyModuleDef kModule = {PyModuleDef_HEAD_INIT,
                       "pcal",
                       "Embeddable surface of the pcal partitioned-cache "
                       "leakage/aging simulator (docs/PYTHON.md).",
                       -1,
                       kMethods,
                       nullptr,
                       nullptr,
                       nullptr,
                       nullptr};

}  // namespace

PyMODINIT_FUNC PyInit_pcal() {
  PyObject* module = PyModule_Create(&kModule);
  if (module == nullptr) return nullptr;
  g_error = PyErr_NewExceptionWithDoc(
      "pcal.Error", "Configuration or simulation error from the pcal engine.",
      PyExc_ValueError, nullptr);
  if (g_error == nullptr || PyModule_AddObject(module, "Error", g_error) < 0 ||
      PyModule_AddStringConstant(module, "__version__",
                                 pcal::api::version()) < 0 ||
      PyModule_AddStringConstant(module, "TIMELINE_SCHEMA",
                                 pcal::api::kTimelineSchema) < 0 ||
      PyModule_AddIntConstant(module, "TIMELINE_VERSION",
                              pcal::api::kTimelineVersion) < 0) {
    Py_XDECREF(g_error);
    Py_DECREF(module);
    return nullptr;
  }
  Py_INCREF(g_error);  // the module stole one reference; keep our global
  return module;
}
