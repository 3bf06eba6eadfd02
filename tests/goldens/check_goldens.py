#!/usr/bin/env python3
"""Byte-for-byte golden gate for the simulator's user-visible outputs.

Regenerates, in a scratch directory, every output committed next to this
script and diffs each against its golden:

  sweep/<spec>.out         pcalsweep stdout of every examples/*.sweep at
                           PCAL_BENCH_ACCESSES=20000
  sweep/<spec>.bench.json  that run's BENCH record, normalized by
                           tools/check_bench_json.py --normalize (the
                           run-varying keys dropped)
  pcalsim/<case>.out       pcalsim reports: every granularity and policy,
                           the L2/L3 hierarchies under each inclusion
                           policy, multi-program, multi-core and the
                           contention configs (on `pcalsim --example`)
  pcalsim/<case>.timeline.json
                           the --timeline artifact of the cases that
                           request one

Only the Python interpreter is needed (not the pcal module), so the gate
runs on sanitizer builds too.  A new examples/*.sweep without a golden
fails the gate until its golden is captured.

Usage:
  check_goldens.py --pcalsim P --pcalsweep S --tracepack T [--update]

--update rewrites the goldens from the given binaries instead of
comparing; review the resulting diff before committing it.
"""
import argparse
import difflib
import glob
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SWEEP_ACCESSES = "20000"
SWEEP_WORKERS = "2"  # outputs are worker-count independent; keep it light

# (case name, pcalsim overrides, emit a timeline)
PCALSIM_ACCESSES = "workload.accesses=50000"
STREAMING_TIMED = ["workload.name=streaming", "latency.miss=8"]
PCALSIM_CASES = [
    ("monolithic", ["partition.granularity=monolithic"], True),
    ("bank", ["partition.granularity=bank"], True),
    ("line", ["partition.granularity=line"], True),
    ("way", ["partition.granularity=way", "cache.ways=4"], True),
    ("drowsy", ["partition.policy=drowsy", "partition.drowsy_window=128"],
     True),
    ("l2", ["l2.size=65536"], True),
    ("multiprogram",
     ["multiprogram.programs=sha+cjpeg", "multiprogram.quantum=2000"],
     False),
    ("multicore_shared",
     ["multicore.cores=2", "multicore.llc_size=65536",
      "core1.workload=streaming"], False),
    ("multicore_wpc4",
     ["multicore.cores=2", "multicore.llc_size=65536",
      "multicore.llc_ways_per_core=4", "core1.workload=streaming"], False),
] + [
    ("l3_" + incl,
     ["workload.name=dijkstra", "latency.miss=8", "latency.gated_wake=3",
      "l2.size=32768", "l2.inclusion=" + incl, "l2.hit_latency=2",
      "l2.miss_latency=30", "l3.size=131072", "l3.inclusion=" + incl],
     False)
    for incl in ("noninclusive", "inclusive", "exclusive", "victim")
] + [
    ("contention_single",
     STREAMING_TIMED + ["contention.mshrs=2", "contention.bandwidth=4"],
     False),
    ("contention_l2",
     STREAMING_TIMED + ["l2.size=32768", "l2.mshrs=2", "l2.bandwidth=2"],
     False),
    ("contention_multicore",
     STREAMING_TIMED + ["multicore.cores=2", "multicore.llc_size=65536",
                        "multicore.llc_mshrs=2",
                        "multicore.llc_bandwidth=2"], False),
] + [
    # A drowsy L1 over an exclusive drowsy L2 at every granularity: the
    # policy split, the probe path and the per-level census together.
    # The explicit breakeven lets line-grain units sleep too.
    ("drowsy_exclusive_" + g,
     ["partition.granularity=" + g, "cache.ways=4", "partition.breakeven=28",
      "partition.policy=drowsy", "partition.drowsy_window=64",
      "l2.size=65536", "l2.inclusion=exclusive", "l2.granularity=" + g,
      "l2.indexing=scrambling", "l2.policy=drowsy", "l2.drowsy_window=64"],
     True)
    for g in ("monolithic", "bank", "way", "line")
]


def clean_env(extra):
    env = {k: v for k, v in os.environ.items() if not k.startswith("PCAL_")}
    env.update(extra)
    return env


def run(cmd, cwd, env):
    proc = subprocess.run(cmd, cwd=cwd, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE)
    if proc.returncode != 0:
        raise RuntimeError("command failed (exit %d): %s\n%s" %
                           (proc.returncode, " ".join(cmd),
                            proc.stderr.decode(errors="replace")))
    return proc.stdout


def read(path):
    with open(path, "rb") as f:
        return f.read()


class Gate:
    def __init__(self, update):
        self.update = update
        self.checked = 0
        self.failures = []

    def check(self, rel, actual):
        path = os.path.join(HERE, rel)
        self.checked += 1
        if self.update:
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "wb") as f:
                f.write(actual)
            return
        if not os.path.exists(path):
            self.failures.append("%s: no golden (capture it with --update)"
                                 % rel)
            return
        expected = read(path)
        if expected == actual:
            return
        diff = difflib.unified_diff(
            expected.decode(errors="replace").splitlines(),
            actual.decode(errors="replace").splitlines(),
            "golden/" + rel, "actual/" + rel, lineterm="", n=1)
        self.failures.append("%s differs:\n%s" %
                             (rel, "\n".join(list(diff)[:40])))


def check_sweeps(gate, args, work):
    # trace_mix.sweep replays demo.pct from the working directory.
    run([args.tracepack, "gen", "cjpeg", "100000", "demo.pct"], work,
        clean_env({}))
    specs = sorted(glob.glob(os.path.join(ROOT, "examples", "*.sweep")))
    if not specs:
        raise RuntimeError("no examples/*.sweep found under " + ROOT)
    normalizer = os.path.join(ROOT, "tools", "check_bench_json.py")
    for spec in specs:
        name = os.path.splitext(os.path.basename(spec))[0]
        json_dir = os.path.join(work, "bench_" + name)
        os.makedirs(json_dir)
        env = clean_env({"PCAL_BENCH_ACCESSES": SWEEP_ACCESSES,
                         "PCAL_BENCH_THREADS": SWEEP_WORKERS,
                         "PCAL_BENCH_JSON_DIR": json_dir})
        gate.check(os.path.join("sweep", name + ".out"),
                   run([args.pcalsweep, spec], work, env))
        records = glob.glob(os.path.join(json_dir, "BENCH_*.json"))
        if len(records) != 1:
            raise RuntimeError("%s wrote %d BENCH records, expected 1" %
                               (spec, len(records)))
        gate.check(os.path.join("sweep", name + ".bench.json"),
                   run([sys.executable, normalizer, "--normalize",
                        records[0]], work, clean_env({})))


def check_pcalsim(gate, args, work):
    env = clean_env({"PCAL_BENCH_JSON_DIR": work})
    cfg = os.path.join(work, "cfg.ini")
    with open(cfg, "wb") as f:
        f.write(run([args.pcalsim, "--example"], work, env))
    for name, overrides, timeline in PCALSIM_CASES:
        cmd = [args.pcalsim, cfg, PCALSIM_ACCESSES] + overrides
        tl_path = os.path.join(work, name + ".timeline.json")
        if timeline:
            cmd += ["--timeline", tl_path]
        gate.check(os.path.join("pcalsim", name + ".out"),
                   run(cmd, work, env))
        if timeline:
            gate.check(os.path.join("pcalsim", name + ".timeline.json"),
                       read(tl_path))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--pcalsim", required=True)
    ap.add_argument("--pcalsweep", required=True)
    ap.add_argument("--tracepack", required=True)
    ap.add_argument("--update", action="store_true",
                    help="rewrite the goldens instead of comparing")
    args = ap.parse_args()
    for tool in ("pcalsim", "pcalsweep", "tracepack"):
        setattr(args, tool, os.path.abspath(getattr(args, tool)))

    gate = Gate(args.update)
    with tempfile.TemporaryDirectory(prefix="pcal_goldens_") as work:
        check_sweeps(gate, args, work)
        check_pcalsim(gate, args, work)

    if gate.failures:
        for f in gate.failures:
            print("FAIL " + f, file=sys.stderr)
        print("%d of %d golden outputs differ" %
              (len(gate.failures), gate.checked), file=sys.stderr)
        return 1
    verb = "wrote" if args.update else "matched"
    print("%s %d golden outputs" % (verb, gate.checked))
    return 0


if __name__ == "__main__":
    sys.exit(main())
