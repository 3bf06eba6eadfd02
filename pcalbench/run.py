#!/usr/bin/env python3
"""pcalbench: end-to-end and per-layer benchmark of the pcal simulator.

One command builds the simulator from this checkout, runs one workload
through the entry points users call (pcalsweep, pcalsim, pcal.run),
checks every output against the goldens in goldens/, and prints each
metric by name with its unit.  The last stdout line is one JSON object:

  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Usage:
  python3 pcalbench/run.py --workload W --seed N --seconds S --trace 0|1
                           [--record FILE]
  python3 pcalbench/run.py --capture-goldens

  --trace 0   end-to-end metrics, tracing off: setup_s, wall_s, cpu_s,
              acc_per_s, peak_rss_mb.
  --trace 1   per-layer metrics: one untraced and one traced pass of the
              workload; the traced pass goes through pcalbench_trace,
              which times calls into each module's public functions.
  --record    also write the full run record (samples, provenance,
              digests) as JSON; compare.py reads these.

Workloads, metrics and units are documented in README.md.  Everything is
read and written inside the checkout: the build lands in .bench_build/,
generated inputs and outputs in .bench_work/.
"""
import argparse
import hashlib
import json
import os
import random
import re
import shutil
import statistics
import struct
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORK = os.path.join(ROOT, ".bench_work")
GOLDENS = os.path.join(HERE, "goldens")
TOOLS = os.path.join(ROOT, "tools")

WORKLOADS = ("table4_sweep", "cold_start", "contended_multicore")
# Sweep worker threads: fixed so runs compare; at most nproc.
WORKERS = min(2, os.cpu_count() or 1)
# Fresh set-up processes per run; setup_s is their median.
SETUP_SAMPLES = 3
# Seeds map onto this many input variants, each with a committed golden.
SEED_CLASSES = 16

MEDIABENCH = (
    "adpcm.dec", "cjpeg", "CRC32", "dijkstra", "djpeg", "fft_1", "fft_2",
    "gsmd", "gsme", "ispell", "lame", "mad", "rijndael_i", "rijndael_o",
    "say", "search", "sha", "tiff2bw",
)

# The cold-start Python invocation: one pcal.run of line <index> of a
# runs file ("<kind> key=value ..."), result dict as JSON.  The traced
# variant also times `import pcal` and the call.
PY_RUN = """
import json, sys, time
t0 = time.perf_counter()
import pcal
t1 = time.perf_counter()
line = open(sys.argv[1]).read().splitlines()[int(sys.argv[2])]
entries = dict(e.split("=", 1) for e in line.split()[1:])
result = pcal.run(entries)
t2 = time.perf_counter()
if len(sys.argv) > 3:
    with open(sys.argv[3], "w") as f:
        json.dump({"import_s": t1 - t0, "run_s": t2 - t1,
                   "result": result}, f)
else:
    print(json.dumps(result, sort_keys=True))
"""


class BenchError(Exception):
    pass


# ------------------------------------------------------------ processes

class Census:
    """Load-generator bounds: live child processes and their threads."""

    def __init__(self):
        self.live = 0
        self.max_live = 0
        self.max_threads = 0


CENSUS = Census()


def _thread_count(pid):
    try:
        with open("/proc/%d/status" % pid) as f:
            for line in f:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


class Child:
    """One finished child process: exit code, wall, CPU and peak RSS."""

    def __init__(self, rc, wall, cpu, maxrss_kb, pid, out_path):
        self.rc = rc
        self.wall = wall
        self.cpu = cpu
        self.maxrss_kb = maxrss_kb
        self.pid = pid
        self.out_path = out_path

    def stdout(self):
        with open(self.out_path, encoding="utf-8") as f:
            return f.read()


def spawn(cmd, out_path, cwd, env=None):
    """Runs one child to completion; wall time is spawn to reaped exit and
    CPU / peak RSS come from that child's own rusage (wait4)."""
    full_env = dict(os.environ)
    full_env.update(env or {})
    done = threading.Event()
    with open(out_path, "wb") as out, open(out_path + ".err", "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, cwd=cwd,
                                env=full_env)
        CENSUS.live += 1
        CENSUS.max_live = max(CENSUS.max_live, CENSUS.live)

        def watch():
            while not done.wait(0.2):
                CENSUS.max_threads = max(CENSUS.max_threads,
                                         _thread_count(proc.pid))

        watcher = threading.Thread(target=watch, daemon=True)
        watcher.start()
        try:
            _, status, ru = os.wait4(proc.pid, 0)
        finally:
            t1 = time.perf_counter()
            done.set()
            watcher.join()
            CENSUS.live -= 1
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(proc.returncode, t1 - t0, ru.ru_utime + ru.ru_stime,
                 ru.ru_maxrss, proc.pid, out_path)


def check_tool(tool, args, out_path):
    """Runs one of the repository's validators; True iff it passes."""
    child = spawn([sys.executable, os.path.join(TOOLS, tool)] + args,
                  out_path, cwd=WORK)
    return child.rc == 0


# ---------------------------------------------------------------- build

def build():
    for need in ("CMakeLists.txt", "src", "tools", "examples"):
        if not os.path.exists(os.path.join(ROOT, need)):
            raise BenchError("not a pcal checkout: %s missing" % need)
    os.makedirs(BUILD, exist_ok=True)
    log = os.path.join(BUILD, "pcalbench_build.log")
    with open(log, "ab") as f:
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            gen = ["-G", "Ninja"] if shutil.which("ninja") else []
            cmd = ["cmake", "-S", HERE, "-B", BUILD,
                   "-DCMAKE_BUILD_TYPE=Release"] + gen
            if subprocess.call(cmd, stdout=f, stderr=f) != 0:
                raise BenchError("configure failed, see " + log)
        cmd = ["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 1),
               "--target", "pcalsim", "pcalsweep", "pcal_python",
               "pcalbench_trace"]
        if subprocess.call(cmd, stdout=f, stderr=f) != 0:
            raise BenchError("build failed, see " + log)


def binary(name):
    for path in (os.path.join(BUILD, "pcal", name), os.path.join(BUILD, name)):
        if os.path.exists(path):
            return path
    raise BenchError("built binary %s not found" % name)


PY_ENV = {"PYTHONPATH": os.path.join(BUILD, "python")}


# ----------------------------------------------------------- provenance

def _cmake_cache():
    values = {}
    try:
        with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
            for line in f:
                m = re.match(r"([A-Za-z_]+):[A-Z]+=(.*)$", line.strip())
                if m:
                    values[m.group(1)] = m.group(2)
    except OSError:
        pass
    compiler = {}
    files = os.path.join(BUILD, "CMakeFiles")
    for d in sorted(os.listdir(files)) if os.path.isdir(files) else []:
        path = os.path.join(files, d, "CMakeCXXCompiler.cmake")
        if os.path.exists(path):
            with open(path) as f:
                for m in re.finditer(
                        r'set\(CMAKE_CXX_COMPILER_(ID|VERSION) "([^"]*)"\)',
                        f.read()):
                    compiler[m.group(1)] = m.group(2)
    return {
        "compiler_id": compiler.get("ID", "unknown"),
        "compiler_version": compiler.get("VERSION", "unknown"),
        "build_type": values.get("CMAKE_BUILD_TYPE", "unknown"),
        "pcal_native": values.get("PCAL_NATIVE", "unknown"),
        "sanitizer": values.get("PCAL_SANITIZE", "") or "none",
    }


def _source_digest():
    """sha256 over the simulator's sources: identifies the code measured
    when the checkout is not a git repository."""
    h = hashlib.sha256()
    for top in ("src", "tools", "bindings", "examples", "CMakeLists.txt"):
        base = os.path.join(ROOT, top)
        paths = [base] if os.path.isfile(base) else sorted(
            os.path.join(d, n) for d, _, ns in os.walk(base) for n in ns)
        for path in paths:
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def _effective_cpus():
    cpus = float(len(os.sched_getaffinity(0)))
    try:
        with open("/sys/fs/cgroup/cpu.max") as f:
            quota, period = f.read().split()
        if quota != "max":
            cpus = min(cpus, float(quota) / float(period))
    except (OSError, ValueError):
        pass
    return cpus


def provenance(workload, seed):
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True).stdout.strip()
    except OSError:
        sha = ""
    prov = {"workload": workload, "seed": seed,
            "git_sha": sha or "unavailable (not a git checkout)",
            "source_sha256": _source_digest()}
    prov.update(_cmake_cache())
    prov.update({"nproc": os.cpu_count(),
                 "effective_cpus": _effective_cpus(),
                 "loadavg_start": os.getloadavg()[0],
                 "workers": WORKERS})
    return prov


# ------------------------------------------------------- seeded inputs

def seed_class(seed):
    return seed % SEED_CLASSES


def write_pct(path, records):
    """A .pct packed trace (src/trace/binary_trace.h): magic, version 1,
    flags 0, record count, then one little-endian u64 per access (bit 63
    = write)."""
    with open(path, "wb") as f:
        f.write(b"\x89PCT\r\n\x1a\n" + struct.pack("<IIQ", 1, 0, len(records)))
        f.write(struct.pack("<%dQ" % len(records), *records))


def make_trace(rng, length, footprint, hot):
    """One core's access stream: seeded phases of sequential walks,
    hot-set reuse and scattered accesses over a fixed working set, so
    every seed asks the simulator for a similar amount of work."""
    base = rng.randrange(0, 1 << 24) & ~0xFFF
    write_share = rng.uniform(0.2, 0.3)
    out = []
    addr = 0
    while len(out) < length:
        kind = rng.random()
        run = rng.randrange(64, 2048)
        stride = rng.choice((4, 8, 16, 64))
        for _ in range(min(run, length - len(out))):
            if kind < 0.4:
                addr = (addr + stride) % footprint
            elif kind < 0.7:
                addr = rng.randrange(0, hot) & ~3
            else:
                addr = rng.randrange(0, footprint) & ~3
            rec = base + addr
            if rng.random() < write_share:
                rec |= 1 << 63
            out.append(rec)
    return out


CONTENDED_SPEC = """# contended_multicore: 2 cores, private L1+L2, shared LLC, finite
# MSHR / fill-bandwidth ladders, per-unit pricing, seeded .pct inputs.
[grid]
name = contended_multicore
accesses = {accesses}
llc_banks = 4
llc_ways = 8
llc_breakeven = 64
unit_pricing = true

[sweep]
cores = 2
l2_size = 32k
miss_latency = 4
l2_miss_latency = 24
llc_size = 128k
llc_mshrs = 0, 4
mshrs = 0, 8, 2
bandwidth = 0, 8, 2
workload = trace:t0.pct, trace:t1.pct, trace:t2.pct
core1_workload = trace:t3.pct, trace:t4.pct
"""
CONTENDED_ACCESSES = 100000
# (footprint, hot-set bytes) of trace t0..t4.
CONTENDED_TRACES = ((16384, 512), (65536, 2048), (262144, 8192),
                    (32768, 2048), (131072, 512))


def contended_inputs(cls):
    """Writes (once) the seed class's .pct traces and spec; returns the
    directory pcalsweep runs in (trace paths in the spec are relative)."""
    d = os.path.join(WORK, "inputs", "contended_c%d" % cls)
    spec = os.path.join(d, "contended.sweep")
    if not os.path.exists(spec):
        os.makedirs(d, exist_ok=True)
        rng = random.Random(7919 * (cls + 1))
        for t, (footprint, hot) in enumerate(CONTENDED_TRACES):
            write_pct(os.path.join(d, "t%d.pct" % t),
                      make_trace(rng, CONTENDED_ACCESSES, footprint, hot))
        with open(spec + ".tmp", "w") as f:
            f.write(CONTENDED_SPEC.format(accesses=CONTENDED_ACCESSES))
        os.replace(spec + ".tmp", spec)
    return d


def cold_runs(cls):
    """The seed class's cold-start sequence: mono, bank, way, line, the
    drowsy hybrid and one L2 config, alternating pcalsim and pcal.run.
    Shapes and lengths are fixed; the seed picks the MediaBench workload,
    the indexing policy and the drowsy window."""
    rng = random.Random(104729 * (cls + 1))

    def cfg(cache_size, **kv):
        c = {"workload": rng.choice(MEDIABENCH), "accesses": "100000",
             "cache_size": cache_size, "line_size": "16",
             "indexing": rng.choice(("probing", "scrambling"))}
        c.update(kv)
        return c

    return [
        ("pcalsim", cfg("32768", granularity="monolithic",
                        indexing="static")),
        ("python", cfg("16384", granularity="bank", banks="4")),
        ("pcalsim", cfg("16384", granularity="way", ways="4", banks="4")),
        ("python", cfg("8192", granularity="line", breakeven="28")),
        ("pcalsim", cfg("8192", granularity="bank", banks="4",
                        l2_size="65536", l2_banks="4")),
        ("python", cfg("16384", granularity="bank", banks="4",
                       policy="drowsy",
                       drowsy_window=rng.choice(("16", "64", "256")))),
    ]


# pcalsim INI spelling of the RunConfig keys the cold-start runs use.
INI_KEYS = {
    "workload": ("workload", "name"), "accesses": ("workload", "accesses"),
    "cache_size": ("cache", "size"), "line_size": ("cache", "line"),
    "ways": ("cache", "ways"), "granularity": ("partition", "granularity"),
    "banks": ("partition", "banks"), "indexing": ("partition", "indexing"),
    "policy": ("partition", "policy"),
    "drowsy_window": ("partition", "drowsy_window"),
    "breakeven": ("partition", "breakeven"), "l2_size": ("l2", "size"),
    "l2_banks": ("l2", "banks"),
}


def cold_inputs(cls):
    d = os.path.join(WORK, "inputs", "cold_c%d" % cls)
    runs_path = os.path.join(d, "runs.txt")
    runs = cold_runs(cls)
    if not os.path.exists(runs_path):
        os.makedirs(d, exist_ok=True)
        for i, (kind, cfg) in enumerate(runs):
            if kind != "pcalsim":
                continue
            sections = {}
            for key, value in cfg.items():
                sec, name = INI_KEYS[key]
                sections.setdefault(sec, []).append("%s = %s" % (name, value))
            with open(os.path.join(d, "c%d.ini" % i), "w") as f:
                for sec, lines in sections.items():
                    f.write("[%s]\n%s\n\n" % (sec, "\n".join(lines)))
        with open(runs_path + ".tmp", "w") as f:
            for kind, cfg in runs:
                f.write(kind + " " + " ".join(
                    "%s=%s" % kv for kv in cfg.items()) + "\n")
        os.replace(runs_path + ".tmp", runs_path)
    return d, runs


# ------------------------------------------------------ canonical forms

NUM_TOKEN = re.compile(r"(?<![\w.])-?\d+(?:\.\d+)?(?![\w.])")


def report_tokens(text):
    """The numeric tokens of a pcalsim report, skipping the title line."""
    toks = []
    for line in text.splitlines()[1:]:
        toks += NUM_TOKEN.findall(line)
    return toks


def raw_report_tokens(d):
    """The same tokens, formatted from pcalbench_trace's unrounded values
    exactly as pcalsim prints them."""
    def num(v, n):
        return "%.*f" % (n, v)

    def pct(v, n):
        return num(v * 100.0, n)

    def i(v):
        return str(int(v))

    def hit_rate(acc, hits):
        return hits / acc if acc else 0.0

    toks = [i(d["sim_accesses"]), i(d["breakeven_cycles"]),
            i(d["reindex_updates"]), i(d["sim_total_cycles"]),
            i(d["sim_stall_cycles"]), num(d["avg_latency"], 3)]
    cont = (d["sim_mshr_stall_cycles"], d["sim_port_stall_cycles"],
            d["sim_bw_stall_cycles"])
    if sum(cont) > 0:
        toks += [i(v) for v in cont]
    n = len(d["unit_accesses"])
    shown = min(n, 32)
    for u in range(shown):
        toks += [str(u), i(d["unit_accesses"][u]),
                 pct(d["unit_residency"][u], 2),
                 pct(d["unit_idle_count"][u], 2),
                 i(d["unit_episodes"][u]), num(d["unit_lifetime"][u], 3)]
    if shown < n:
        toks.append(str(n - shown))
    lv = d["level_stats"]
    toks += [num(hit_rate(lv[0], lv[1]), 4), i(lv[1]), i(lv[2]), i(lv[3]),
             i(lv[4])]
    for k in range(5, len(lv), 5):
        toks += [num(hit_rate(lv[k], lv[k + 1]), 4), i(lv[k]),
                 i(lv[k + 1]), i(lv[k + 2])]
    toks += [num(v, 0) for v in d["energy_parts"]]
    toks += [pct(d["energy_saving"], 2), num(d["lifetime_years"], 3),
             i(d["limiting_bank"])]
    return toks


def digest(obj):
    return hashlib.sha256(
        json.dumps(obj, sort_keys=True).encode()).hexdigest()[:16]


# ------------------------------------------------------------ workloads

def _fresh_dir(*parts):
    d = os.path.join(WORK, *parts)
    shutil.rmtree(d, ignore_errors=True)
    os.makedirs(d)
    return d


def golden_text(name):
    path = os.path.join(GOLDENS, name)
    if not os.path.exists(path):
        return None
    with open(path, encoding="utf-8") as f:
        return f.read()


class Rep:
    """One pass over a workload: timings, correctness and the digest of
    its simulated results."""

    def __init__(self):
        self.wall = 0.0
        self.cpu = 0.0
        self.maxrss_kb = 0
        self.accesses = 0
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.digest = None
        self.rows = None    # per-job BENCH rows / cold-start records
        self.trace = None   # raw layer values of a traced pass
        self.inputs = []    # input names the traced pass generated

    def add(self, child):
        self.cpu += child.cpu
        self.maxrss_kb = max(self.maxrss_kb, child.maxrss_kb)

    def fail(self, what):
        self.failed += 1
        self.problems.append(what)


class SweepWorkload:
    """A .sweep spec through pcalsweep (untraced) or pcalbench_trace."""

    journal = False

    def spec_and_cwd(self, seed):
        raise NotImplementedError

    def golden_name(self, seed):
        raise NotImplementedError

    def setup_cmd(self, seed):
        spec, cwd = self.spec_and_cwd(seed)
        return [binary("pcalbench_trace"), "setup", spec], cwd

    def rep(self, seed, traced, capture=False):
        spec, cwd = self.spec_and_cwd(seed)
        out = _fresh_dir("out", "traced" if traced else "plain")
        journal = os.path.join(out, "journal.txt")
        metrics = os.path.join(out, "metrics.json")
        if traced:
            cmd = [binary("pcalbench_trace"), "sweep", spec, "--workers",
                   str(WORKERS), "--out", metrics, "--record-dir", out]
            env = {}
        else:
            cmd = [binary("pcalsweep"), spec]
            env = {"PCAL_BENCH_THREADS": str(WORKERS),
                   "PCAL_BENCH_JSON_DIR": out}
        if self.journal:
            cmd += ["--journal", journal]
        r = Rep()
        child = spawn(cmd, os.path.join(out, "stdout.txt"), cwd, env)
        r.wall = child.wall
        r.add(child)
        records = [n for n in os.listdir(out) if n.startswith("BENCH_")]
        r.attempted = 1
        if child.rc != 0 or len(records) != 1:
            r.fail("%s exited %d" % (os.path.basename(cmd[0]), child.rc))
            return r
        record = os.path.join(out, records[0])
        with open(record, encoding="utf-8") as f:
            r.rows = json.load(f)["results"]
        r.attempted = len(r.rows)
        r.accesses = sum(row["accesses"] for row in r.rows)
        r.digest = digest(r.rows)
        for row in r.rows:
            if not row.get("ok", False):
                r.fail("job %s failed" % row.get("job"))
        if traced:
            with open(metrics, encoding="utf-8") as f:
                r.trace = json.load(f)
        if not check_tool("check_bench_json.py", [record],
                          os.path.join(out, "check_bench.txt")):
            r.fail("check_bench_json.py rejected " + records[0])
        if self.journal:
            with open(journal, encoding="utf-8") as f:
                entries = sum(1 for line in f if line.startswith("J "))
            if entries != len(r.rows):
                r.fail("journal holds %d of %d jobs" % (entries, len(r.rows)))
        text = child.stdout()
        name = self.golden_name(seed)
        if capture:
            with open(os.path.join(GOLDENS, name), "w") as f:
                f.write(text)
        elif text != golden_text(name):
            r.fail("output differs from goldens/" + name)
        return r


class Table4Sweep(SweepWorkload):
    def spec_and_cwd(self, seed):
        return os.path.join(ROOT, "examples", "table4.sweep"), WORK

    def golden_name(self, seed):
        return "table4_sweep.txt"


class ContendedMulticore(SweepWorkload):
    journal = True

    def spec_and_cwd(self, seed):
        d = contended_inputs(seed_class(seed))
        return os.path.join(d, "contended.sweep"), d

    def golden_name(self, seed):
        return "contended_multicore_c%d.txt" % seed_class(seed)


class ColdStart:
    """Short single-config runs, each in a fresh process, one at a time."""

    def setup_cmd(self, seed):
        d, _ = cold_inputs(seed_class(seed))
        return ([binary("pcalbench_trace"), "setup", "--runs",
                 os.path.join(d, "runs.txt")], d)

    def golden_name(self, seed):
        return "cold_start_c%d.json" % seed_class(seed)

    def rep(self, seed, traced, capture=False):
        d, runs = cold_inputs(seed_class(seed))
        runs_path = os.path.join(d, "runs.txt")
        out = _fresh_dir("out", "traced" if traced else "plain")
        r = Rep()
        r.attempted = len(runs)
        children = []
        t0 = time.perf_counter()
        for i, (kind, cfg) in enumerate(runs):
            metrics = os.path.join(out, "run%d.json" % i)
            timeline = os.path.join(out, "timeline%d.json" % i)
            if kind == "pcalsim" and traced:
                cmd = [binary("pcalbench_trace"), "run", runs_path,
                       "--index", str(i), "--timeline", timeline,
                       "--out", metrics]
            elif kind == "pcalsim":
                cmd = [binary("pcalsim"), os.path.join(d, "c%d.ini" % i),
                       "--timeline", timeline]
            else:
                cmd = [sys.executable, "-c", PY_RUN, runs_path, str(i)]
                if traced:
                    cmd.append(metrics)
            child = spawn(cmd, os.path.join(out, "run%d.txt" % i), d, PY_ENV)
            r.add(child)
            children.append((child, metrics, timeline))
        r.wall = time.perf_counter() - t0

        canon, timelines = [], []
        r.trace = {"run": [], "py": []}
        for i, (child, metrics, timeline) in enumerate(children):
            kind, cfg = runs[i]
            if child.rc != 0:
                r.fail("cold run %d (%s) exited %d" % (i, kind, child.rc))
                canon.append(None)
                continue
            r.accesses += int(cfg["accesses"])
            raw = None
            if traced:
                with open(metrics, encoding="utf-8") as f:
                    raw = json.load(f)
            if kind == "pcalsim":
                timelines.append(timeline)
                if traced:
                    r.trace["run"].append(raw)
                    r.inputs.append(cfg["workload"])
                    tokens = raw_report_tokens(raw)
                else:
                    tokens = report_tokens(child.stdout())
                canon.append({"kind": kind, "tokens": tokens})
            else:
                if traced:
                    r.trace["py"].append(raw)
                    result = raw["result"]
                else:
                    result = json.loads(child.stdout())
                canon.append({"kind": kind, "result": result})
        if len(r.trace["run"]) + len(r.trace["py"]) < len(runs):
            r.trace = None  # a traced run failed: no complete split
        r.rows = canon
        r.digest = digest(canon)
        if timelines and not check_tool(
                "check_timeline_json.py", timelines,
                os.path.join(out, "check_timeline.txt")):
            r.fail("check_timeline_json.py rejected a timeline")
        name = self.golden_name(seed)
        if capture:
            with open(os.path.join(GOLDENS, name), "w") as f:
                json.dump(canon, f, indent=1, sort_keys=True)
                f.write("\n")
        else:
            golden = golden_text(name)
            want = json.loads(golden) if golden else []
            for i, got in enumerate(canon):
                if i >= len(want) or got != want[i]:
                    r.fail("cold run %d differs from goldens/%s" % (i, name))
        return r


def workload_impl(name):
    return {"table4_sweep": Table4Sweep, "cold_start": ColdStart,
            "contended_multicore": ContendedMulticore}[name]()


# -------------------------------------------------------------- metrics

def measure_setup(impl, seed, samples=SETUP_SAMPLES):
    """setup_s samples: each a fresh pcalbench_trace process doing only
    the first api::shared_aging() call and the spec/config parse+expand,
    timed spawn to exit."""
    cmd, cwd = impl.setup_cmd(seed)
    out = _fresh_dir("out", "setup")
    results = []
    for k in range(samples):
        child = spawn(cmd, os.path.join(out, "setup%d.txt" % k), cwd)
        if child.rc != 0:
            raise BenchError("set-up probe exited %d" % child.rc)
        inner = json.loads(child.stdout())
        results.append({"wall": child.wall, "pid": child.pid,
                        "maxrss_kb": child.maxrss_kb, **inner})
    return results


def paper_errors(rows):
    """Mean |error| of the Table IV Idl (pp) and LT (relative %) cells
    against the spec's [paper] values, from the per-job rows."""
    with open(os.path.join(ROOT, "examples", "table4.sweep")) as f:
        spec = f.read()
    paper = {}
    for key in ("Idl", "LT"):
        m = re.search(r"^%s = (.*)$" % key, spec, re.M)
        paper[key] = [[float(v) for v in row.split()]
                      for row in m.group(1).split(";")]
    sizes = re.search(r"^cache_size = (.*)$", spec, re.M).group(1).split(",")
    lo, hi = re.search(r"^banks = (\d+)\.\.(\d+) log2$", spec, re.M).groups()
    banks = []
    b = int(lo)
    while b <= int(hi):
        banks.append(b)
        b *= 2
    per_cell = len(rows) // (len(sizes) * len(banks))
    idl_err, lt_err = [], []
    for si in range(len(sizes)):
        for bi in range(len(paper["Idl"][si])):
            first = (si * len(banks) + bi) * per_cell
            cell = rows[first:first + per_cell]
            idl = statistics.fmean(r["idleness"] for r in cell) * 100.0
            lt = statistics.fmean(r["lifetime_years"] for r in cell)
            idl_err.append(abs(idl - paper["Idl"][si][bi]))
            lt_err.append(abs(lt - paper["LT"][si][bi]) / paper["LT"][si][bi])
    return statistics.fmean(idl_err), 100.0 * statistics.fmean(lt_err)


def end_to_end(setup, reps):
    return {
        "setup_s": (statistics.median(s["wall"] for s in setup), "s"),
        "wall_s": (statistics.median(r.wall for r in reps), "s"),
        "cpu_s": (statistics.median(r.cpu for r in reps), "s"),
        "acc_per_s": (statistics.median(r.accesses / r.wall for r in reps),
                      "acc/s"),
        "peak_rss_mb": (statistics.median(r.maxrss_kb for r in reps) / 1024.0,
                        "MB"),
    }


def sim_of_raw(d):
    return {"accesses": d["sim_accesses"],
            "total_cycles": d["sim_total_cycles"],
            "stall_cycles": d["sim_stall_cycles"],
            "mshr": d["sim_mshr_stall_cycles"],
            "port": d["sim_port_stall_cycles"],
            "bw": d["sim_bw_stall_cycles"],
            "l1_hits": d["sim_l1_hits"], "l1_accesses": d["sim_l1_accesses"],
            "idleness_sum": d["sim_idleness_sum"],
            "lifetime_sum": d["sim_lifetime_sum"],
            "energy_pj": d["sim_energy_pj"], "runs": d["sim_runs"]}


def sim_of_dict(r):
    l1 = r["levels"][0]
    return {"accesses": r["accesses"], "total_cycles": r["total_cycles"],
            "stall_cycles": r["stall_cycles"],
            "mshr": r["mshr_stall_cycles"], "port": r["port_stall_cycles"],
            "bw": r["bw_stall_cycles"], "l1_hits": l1["hits"],
            "l1_accesses": l1["accesses"], "idleness_sum": r["idleness"],
            "lifetime_sum": r["lifetime_years"], "energy_pj": r["energy_pj"],
            "runs": 1}


def ratio(a, b):
    return a / b if b else 0.0


def layer_values(workload, traced):
    """The traced pass's raw layer totals, keyed by per-layer metric name
    (README.md maps each to the end-to-end metric it should move)."""
    t = traced.trace
    if workload != "cold_start":
        return {
            "aging.lut_build_s": t["lut_build_s"],
            "aging.lifetime_s": t["lifetime_s"],
            "aging.lifetime_calls": t["lifetime_calls"],
            "trace.gen_s": t["gen_s"],
            "trace.gen_acc_per_s": ratio(t["gen_accesses"], t["gen_s"]),
            "trace.sources_built": t["sources_built"],
            "trace.distinct_share": ratio(t["distinct_inputs"],
                                          t["sources_built"]),
            "trace.replay_s": t["replay_s"],
            "engine.run_s": t["engine_s"],
            "engine.batched_acc_per_s": ratio(t["batched_accesses"],
                                              t["batched_s"]),
            "engine.scalar_acc_per_s": ratio(t["scalar_accesses"],
                                             t["scalar_s"]),
            "engine.batched_share": ratio(
                t["batched_accesses"],
                t["batched_accesses"] + t["scalar_accesses"]),
            "sweep.wall_s": t["sweep_wall_s"],
            "sweep.job_p50_ms": t["job_p50_ms"],
            "sweep.job_p90_ms": t["job_p90_ms"],
            "sweep.queue_wait_p50_ms": t["queue_wait_p50_ms"],
            "sweep.busy_share": t["busy_share"],
            "sweep.steals": t["steals"],
            "sweep.failed": t["failed"],
            "checkpoint.append_s": t["append_s"],
            "checkpoint.records": t["records"],
            "checkpoint.bytes": t["journal_bytes"],
            "output.table_s": t["table_s"],
            "output.record_s": t["record_s"],
            "config.parse_expand_s": t["parse_expand_s"],
            "config.jobs": t["jobs"],
        }, [sim_of_raw(t)]
    # cold_start: the pcalsim half runs through pcalbench_trace's layer
    # spans; the pcal.run half is timed around import and the call.
    runs, py = t["run"], t["py"]

    def tot(key, among=runs):
        return sum(r[key] for r in among)

    batched = [r for r in runs if r["batched"]]
    scalar = [r for r in runs if not r["batched"]]
    return {
        "aging.lut_build_s": tot("lut_build_s"),
        "aging.lifetime_s": tot("lifetime_s"),
        "aging.lifetime_calls": len(runs),
        "trace.gen_s": tot("gen_s"),
        "trace.gen_acc_per_s": ratio(tot("gen_accesses"), tot("gen_s")),
        "trace.sources_built": len(runs),
        "trace.distinct_share": ratio(len(set(traced.inputs)), len(runs)),
        "engine.run_s": tot("engine_s"),
        "engine.batched_acc_per_s": ratio(tot("sim_accesses", batched),
                                          tot("engine_s", batched)),
        "engine.scalar_acc_per_s": ratio(tot("sim_accesses", scalar),
                                         tot("engine_s", scalar)),
        "engine.batched_share": ratio(tot("sim_accesses", batched),
                                      tot("sim_accesses")),
        "timeline.write_s": tot("timeline_write_s"),
        "timeline.bytes": tot("timeline_bytes"),
        "config.parse_expand_s": tot("parse_expand_s"),
        "config.jobs": len(runs) + len(py),
        "bindings.import_s": tot("import_s", py),
        "api.run_s": tot("run_s", py),
    }, [sim_of_raw(r) for r in runs] + [sim_of_dict(p["result"]) for p in py]


# Every per-layer metric and its unit; a layer that does no work on a
# workload reports 0.
LAYER_UNITS = {
    "aging.lut_build_s": "s", "aging.lifetime_s": "s",
    "aging.lifetime_calls": "count",
    "trace.gen_s": "s", "trace.gen_acc_per_s": "acc/s",
    "trace.sources_built": "count", "trace.distinct_share": "ratio",
    "trace.replay_s": "s",
    "engine.run_s": "s", "engine.batched_acc_per_s": "acc/s",
    "engine.scalar_acc_per_s": "acc/s", "engine.batched_share": "ratio",
    "sim.accesses": "count", "sim.total_cycles": "cycles",
    "sim.stall_cycles": "cycles", "sim.mshr_stall_cycles": "cycles",
    "sim.bw_stall_cycles": "cycles", "sim.port_stall_cycles": "cycles",
    "sim.l1_hit_rate": "ratio", "sim.avg_idleness": "ratio",
    "sim.lifetime_years": "y", "sim.energy_pj": "pJ",
    "sweep.wall_s": "s", "sweep.job_p50_ms": "ms", "sweep.job_p90_ms": "ms",
    "sweep.queue_wait_p50_ms": "ms", "sweep.busy_share": "ratio",
    "sweep.steals": "count", "sweep.failed": "count",
    "checkpoint.append_s": "s", "checkpoint.records": "count",
    "checkpoint.bytes": "B",
    "output.table_s": "s", "output.record_s": "s",
    "timeline.write_s": "s", "timeline.bytes": "B",
    "config.parse_expand_s": "s", "config.jobs": "count",
    "bindings.import_s": "s", "api.run_s": "s",
    "tracing_overhead_pct": "%", "failed_ratio": "ratio",
    "paper_idl_err_pp": "pp", "paper_lt_err_pct": "%",
}


def per_layer(workload, plain, traced, failed, attempted):
    values, sims = layer_values(workload, traced)
    total = {k: sum(s[k] for s in sims) for k in sims[0]}
    values.update({
        "sim.accesses": total["accesses"],
        "sim.total_cycles": total["total_cycles"],
        "sim.stall_cycles": total["stall_cycles"],
        "sim.mshr_stall_cycles": total["mshr"],
        "sim.bw_stall_cycles": total["bw"],
        "sim.port_stall_cycles": total["port"],
        "sim.l1_hit_rate": ratio(total["l1_hits"], total["l1_accesses"]),
        "sim.avg_idleness": ratio(total["idleness_sum"], total["runs"]),
        "sim.lifetime_years": ratio(total["lifetime_sum"], total["runs"]),
        "sim.energy_pj": total["energy_pj"],
        "tracing_overhead_pct": 100.0 * (traced.wall / plain.wall - 1.0),
        "failed_ratio": failed / attempted,
    })
    if workload == "table4_sweep" and traced.rows:
        idl, lt = paper_errors(traced.rows)
    else:
        idl, lt = -1.0, -1.0  # no reference in the repo: unvalidated
    values["paper_idl_err_pp"] = idl
    values["paper_lt_err_pct"] = lt
    return {name: (float(values.get(name, 0.0)), unit)
            for name, unit in LAYER_UNITS.items()}


# ----------------------------------------------------------------- main

def run(args):
    build()
    os.makedirs(WORK, exist_ok=True)
    impl = workload_impl(args.workload)
    prov = provenance(args.workload, args.seed)
    setup = measure_setup(impl, args.seed)
    record = {"provenance": prov, "setup": setup, "workload": args.workload,
              "trace": args.trace}
    if args.trace:
        plain = impl.rep(args.seed, traced=False)
        traced = impl.rep(args.seed, traced=True)
        reps = [plain, traced]
        record["digests"] = {"untraced": plain.digest,
                             "traced": traced.digest}
        record["digest_match"] = plain.digest == traced.digest
        if not record["digest_match"]:
            traced.fail("traced sim digest %s != untraced %s"
                        % (traced.digest, plain.digest))
    else:
        reps = []
        t0 = time.perf_counter()
        while True:
            reps.append(impl.rep(args.seed, traced=False))
            if time.perf_counter() - t0 + reps[-1].wall > args.seconds:
                break
    attempted = sum(r.attempted for r in reps)
    failed = sum(r.failed for r in reps)
    if args.trace:
        if traced.trace is None:
            raise BenchError("traced pass failed: %s"
                             % "; ".join(p for r in reps for p in r.problems))
        metrics = per_layer(args.workload, plain, traced, failed, attempted)
    else:
        metrics = end_to_end(setup, reps)
    prov.update({"max_concurrent_processes": CENSUS.max_live,
                 "max_child_threads": CENSUS.max_threads,
                 "reps": len(reps)})
    problems = [p for r in reps for p in r.problems]
    record.update({
        "samples": [{"wall": r.wall, "cpu": r.cpu, "maxrss_kb": r.maxrss_kb,
                     "accesses": r.accesses, "digest": r.digest}
                    for r in reps],
        "problems": problems,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    })
    for name, (value, unit) in metrics.items():
        print("%-28s %16.6g %s" % (name, value, unit))
    for p in problems:
        print("pcalbench: FAILED CHECK: " + p, file=sys.stderr)
    print("pcalbench provenance: " + json.dumps(prov, sort_keys=True))
    if args.record:
        with open(args.record, "w") as f:
            json.dump(record, f, indent=1, sort_keys=True)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": record["metrics"]}))
    return 0


def capture_goldens():
    """Captures every workload's golden at the current commit: table4
    once, the seeded workloads once per seed class."""
    build()
    os.makedirs(WORK, exist_ok=True)
    os.makedirs(GOLDENS, exist_ok=True)
    Table4Sweep().rep(0, traced=False, capture=True)
    for cls in range(SEED_CLASSES):
        ContendedMulticore().rep(cls, traced=False, capture=True)
        ColdStart().rep(cls, traced=False, capture=True)
    return 0


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=25)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record")
    p.add_argument("--capture-goldens", action="store_true")
    args = p.parse_args()
    try:
        if args.capture_goldens:
            return capture_goldens()
        if not args.workload:
            p.error("--workload is required")
        return run(args)
    except (BenchError, OSError, ValueError, KeyError) as e:
        print("pcalbench: error: %s" % e, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
