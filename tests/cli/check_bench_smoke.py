#!/usr/bin/env python3
"""Smoke checks of the bench binaries and the Table IV spec.

  gates        each bench exits 0: bench_drowsy_comparison checks that
               each of the five backends prices nonzero energy
  determinism  each bench prints the same stdout at 1 and 8 workers
               (PCAL_BENCH_THREADS)
  goldens      a bench with a golden tests/goldens/bench/<name>.out
               (bench_<name>) prints exactly it at 1 and at 8 workers;
               such a bench writes no BENCH record
  table4       `pcalsweep examples/table4.sweep`, which runs lockstep
               cohorts, prints tests/goldens/sweep/table4.out at 1, 3
               and 8 workers; that golden is the table the solo path
               (every job alone) printed at the same trace length
  records      every other run writes a BENCH record, and
               tools/check_bench_json.py passes them all

Every run is at PCAL_BENCH_ACCESSES=20000.  Only the Python interpreter
is needed, so it runs on sanitizer builds too.

Usage:
  check_bench_smoke.py --pcalsweep S BENCH [BENCH ...]
"""
import argparse
import glob
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BENCH_GATE = os.path.join(ROOT, "tools", "check_bench_json.py")
TABLE4_SPEC = os.path.join(ROOT, "examples", "table4.sweep")
TABLE4_GOLDEN = os.path.join(ROOT, "tests", "goldens", "sweep", "table4.out")
BENCH_GOLDENS = os.path.join(ROOT, "tests", "goldens", "bench")
ACCESSES = "20000"
WORKERS = (1, 8)
SPEC_WORKERS = (1, 3, 8)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--pcalsweep", required=True)
    ap.add_argument("benches", nargs="+", metavar="BENCH")
    args = ap.parse_args()
    failures = []
    checked = 0

    def check(name, ok, detail=""):
        nonlocal checked
        checked += 1
        if not ok:
            failures.append(name + (": " + detail if detail else ""))

    with tempfile.TemporaryDirectory(prefix="pcal_bench_smoke_") as work:
        records = []

        def run(label, argv, workers, record=True):
            """Runs argv at PCAL_BENCH_ACCESSES and `workers`, its BENCH
            record in a directory of its own; requires exit 0 and, when
            `record`, a record, and returns stdout."""
            out_dir = tempfile.mkdtemp(prefix="records_", dir=work)
            if record:
                records.append(out_dir)
            env = {k: v for k, v in os.environ.items()
                   if not k.startswith("PCAL_")}
            env.update({"PCAL_BENCH_ACCESSES": ACCESSES,
                        "PCAL_BENCH_THREADS": str(workers),
                        "PCAL_BENCH_JSON_DIR": out_dir})
            proc = subprocess.run(argv, cwd=work, env=env,
                                  stdout=subprocess.PIPE,
                                  stderr=subprocess.PIPE)
            check(label, proc.returncode == 0, "exit %d\n%s" % (
                proc.returncode, proc.stderr.decode(errors="replace")))
            if record:
                check(label + " wrote a BENCH record",
                      bool(glob.glob(os.path.join(out_dir, "BENCH_*.json"))))
            return proc.stdout.decode(errors="replace")

        for bench in args.benches:
            name = os.path.basename(bench)
            golden_path = os.path.join(
                BENCH_GOLDENS, name.replace("bench_", "", 1) + ".out")
            golden = None
            if os.path.exists(golden_path):
                with open(golden_path, encoding="utf-8") as f:
                    golden = f.read()
            stdout = {w: run("%s at %d worker(s)" % (name, w),
                             [os.path.abspath(bench)], w,
                             record=golden is None) for w in WORKERS}
            if golden is not None:
                for w in WORKERS:
                    check("%s: stdout == golden at %d worker(s)" % (name, w),
                          stdout[w] == golden, "outputs differ")
                continue
            a, b = (stdout[w] for w in WORKERS)
            check("%s: 1 worker == 8 workers" % name, a == b and a != "",
                  "outputs differ" if a != b else "empty output")

        with open(TABLE4_GOLDEN, encoding="utf-8") as f:
            golden = f.read()
        for w in SPEC_WORKERS:
            spec = run("pcalsweep table4.sweep at %d worker(s)" % w,
                       [os.path.abspath(args.pcalsweep), TABLE4_SPEC], w)
            check("table4: spec == golden at %d worker(s)" % w,
                  spec == golden, "outputs differ")

        gate = subprocess.run([sys.executable, BENCH_GATE] + records,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        check("bench gate", gate.returncode == 0,
              gate.stderr.decode(errors="replace"))

    for f in failures:
        print("FAIL " + f, file=sys.stderr)
    if failures:
        print("%d of %d bench smoke checks failed" % (len(failures), checked),
              file=sys.stderr)
        return 1
    print("passed %d bench smoke checks" % checked)
    return 0


if __name__ == "__main__":
    sys.exit(main())
