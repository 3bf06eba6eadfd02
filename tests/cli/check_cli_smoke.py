#!/usr/bin/env python3
"""End-to-end smoke checks of pcalsweep and pcalsim.

  spec validation  `--dry-run` accepts `pcalsweep --example` and every
                   examples/*.sweep (trace_mix.sweep over a generated
                   `pcal-tracepack gen cjpeg 100000 demo.pct`)
  tracepack        `info` reports demo.pct's 100000 records, and
                   `unpack` then `pack` rebuilds it byte for byte
  env overrides    PCAL_BENCH_ACCESSES=20000 overrides a 2-job spec's
                   `accesses = 3000`; a malformed PCAL_BENCH_ACCESSES,
                   PCAL_BENCH_THREADS or PCAL_SWEEP_THREADS fails
                   pcalsweep with an error naming the variable and value
  counts           a count that is not a plain decimal fails naming the
                   flag or field and its value: pcalsweep's --timeout-ms
                   and --shard (checked with --dry-run), a
                   PCAL_FAULT_INJECT job, `pcal-tracepack gen`'s access
                   count, and aging_exploration's cache size (before any
                   simulation runs)
  scrambling seed  `--dry-run` fails, naming the seed and the LFSR width,
                   on a Scrambling spec whose seed is zero in the low
                   bits of its LFSR (`seed = 1, 1024` and `seed = 0` at
                   M = 4, a 10-bit LFSR), and accepts `seed = 1, 1025`
  unknown input    pcalsweep fails naming an option it does not know
                   (--retries, --retry-backoff-ms, --bogus), a second
                   positional argument that is not an override, and a
                   PCAL_FAULT_INJECT mode or key it does not know
                   (mode=transient, times=2)
  determinism      examples/trace_mix.sweep and examples/hierarchy.sweep
                   print the same stdout at 1 and 8 workers
  timeline         pcalsim (`--example` at 50000 accesses, a 64 kB L2,
                   the drowsy policy) prints the same report with and
                   without `--timeline`; hierarchy.sweep at 8 workers
                   with a `timeline.dir` prints the plain 8-worker
                   table; multicore.sweep at `sweep.cores=1,2` with a
                   `timeline.dir` runs
  gates            tools/check_timeline_json.py passes every timeline
                   artifact, and tools/check_bench_json.py every BENCH
                   record the sweeps write

Every sweep runs at PCAL_BENCH_ACCESSES=20000.  Only the Python
interpreter is needed, so it runs on sanitizer builds too.

Usage:
  check_cli_smoke.py --pcalsim P --pcalsweep S --tracepack T
                     [--aging-exploration A]
"""
import argparse
import glob
import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
EXAMPLES = os.path.join(ROOT, "examples")
BENCH_GATE = os.path.join(ROOT, "tools", "check_bench_json.py")
TIMELINE_GATE = os.path.join(ROOT, "tools", "check_timeline_json.py")
ACCESSES = "20000"


class Checks:
    def __init__(self, args, work):
        self.pcalsim = os.path.abspath(args.pcalsim)
        self.pcalsweep = os.path.abspath(args.pcalsweep)
        self.tracepack = os.path.abspath(args.tracepack)
        self.aging_exploration = (os.path.abspath(args.aging_exploration)
                                  if args.aging_exploration else None)
        self.work = work
        self.records = []
        self.failures = []
        self.checked = 0

    def check(self, name, ok, detail=""):
        self.checked += 1
        if not ok:
            self.failures.append(name + (": " + detail if detail else ""))

    def spawn(self, argv, env=None):
        """Runs argv in the work directory with no PCAL_* variable but
        those in `env`."""
        full_env = {k: v for k, v in os.environ.items()
                    if not k.startswith("PCAL_")}
        full_env.update(env or {})
        return subprocess.run(argv, cwd=self.work, env=full_env,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE)

    def run(self, name, argv, env=None):
        """Runs argv and requires exit 0; returns stdout."""
        proc = self.spawn(argv, env)
        self.check(name, proc.returncode == 0, "exit %d\n%s" % (
            proc.returncode, proc.stderr.decode(errors="replace")))
        return proc.stdout.decode(errors="replace")

    def fails(self, name, argv, env, needles, code=None):
        """Runs argv and requires a nonzero exit (`code`, when given)
        whose stderr contains every needle; returns stdout."""
        proc = self.spawn(argv, env)
        err = proc.stderr.decode(errors="replace")
        self.check(name, proc.returncode != 0 and
                   code in (None, proc.returncode) and
                   all(n in err for n in needles),
                   "exit %d\n%s" % (proc.returncode, err))
        return proc.stdout.decode(errors="replace")

    def sweep(self, name, args, workers=None):
        """pcalsweep at PCAL_BENCH_ACCESSES, its BENCH record written to a
        directory of its own (gated at the end); returns stdout."""
        records = os.path.join(self.work, "records", str(len(self.records)))
        os.makedirs(records)
        self.records.append(records)
        env = {"PCAL_BENCH_ACCESSES": ACCESSES,
               "PCAL_BENCH_JSON_DIR": records}
        if workers is not None:
            env["PCAL_BENCH_THREADS"] = str(workers)
        return self.run(name, [self.pcalsweep] + args, env)

    def same(self, name, a, b):
        self.check(name, a == b and a != "",
                   "outputs differ" if a != b else "empty output")

    def gate(self, name, argv):
        proc = subprocess.run([sys.executable] + argv, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE)
        self.check(name, proc.returncode == 0,
                   proc.stderr.decode(errors="replace"))


def spec(name):
    return os.path.join(EXAMPLES, name + ".sweep")


def spec_validation(c):
    # trace_mix replays demo.pct from the working directory, even to
    # validate its grid.
    c.run("pcal-tracepack gen", [c.tracepack, "gen", "cjpeg", "100000",
                                 "demo.pct"])
    example = os.path.join(c.work, "example.sweep")
    with open(example, "w") as f:
        f.write(c.run("pcalsweep --example", [c.pcalsweep, "--example"]))
    c.run("--dry-run of the --example spec",
          [c.pcalsweep, "--dry-run", example])
    specs = sorted(glob.glob(os.path.join(EXAMPLES, "*.sweep")))
    c.check("examples/*.sweep found", bool(specs))
    for path in specs:
        c.run("--dry-run " + os.path.basename(path),
              [c.pcalsweep, "--dry-run", path])


def tracepack(c):
    # demo.pct is spec_validation's `gen cjpeg 100000`.
    info = c.run("pcal-tracepack info", [c.tracepack, "info", "demo.pct"])
    c.check("info reports 100000 records", "100000 records" in info, info)
    c.run("pcal-tracepack unpack",
          [c.tracepack, "unpack", "demo.pct", "demo.trace"])
    c.run("pcal-tracepack pack",
          [c.tracepack, "pack", "demo.trace", "repacked.pct"])
    with open(os.path.join(c.work, "demo.pct"), "rb") as a, \
            open(os.path.join(c.work, "repacked.pct"), "rb") as b:
        c.check("unpack + pack rebuilds demo.pct byte for byte",
                a.read() == b.read())


def env_overrides(c):
    two = os.path.join(c.work, "two.sweep")
    with open(two, "w") as f:
        f.write("[sweep]\nworkload = uniform\nbanks = 2, 4\n"
                "[grid]\naccesses = 3000\n")
    c.sweep("PCAL_BENCH_ACCESSES=20000 over accesses = 3000", [two], 1)
    records = glob.glob(os.path.join(c.records[-1], "BENCH_two.json"))
    total = json.load(open(records[0]))["total_accesses"] if records else 0
    c.check("2 jobs x PCAL_BENCH_ACCESSES=20000", total == 40000,
            "total_accesses %s" % total)
    bad = [("PCAL_BENCH_ACCESSES", v) for v in ("20k", "2e4", "1000", "abc")]
    bad += [(var, v) for var in ("PCAL_BENCH_THREADS", "PCAL_SWEEP_THREADS")
            for v in ("0", "abc", "-3")]
    for var, value in bad:
        c.fails("%s=%s fails" % (var, value), [c.pcalsweep, two],
                {var: value}, [var, "'%s'" % value])
    return two


def bad_counts(c, two):
    # two.sweep is env_overrides' 2-job spec.
    for flag, value in (("--timeout-ms", "5s"), ("--shard", "1x/2")):
        c.fails("%s %s fails" % (flag, value),
                [c.pcalsweep, "--dry-run", flag, value, two], {},
                [flag, "'%s'" % value])
    c.fails("PCAL_FAULT_INJECT job=-1 fails", [c.pcalsweep, two],
            {"PCAL_FAULT_INJECT": "job=-1:access=0:mode=throw",
             "PCAL_BENCH_JSON": "0"}, ["'job'", "'-1'"])
    c.fails("pcal-tracepack gen 100k fails",
            [c.tracepack, "gen", "cjpeg", "100k", "g.pct"], {}, ["'100k'"])
    if c.aging_exploration:
        for value in ("8x", "-8"):
            out = c.fails("aging_exploration dijkstra %s fails" % value,
                          [c.aging_exploration, "dijkstra", value], {},
                          ["aging_exploration: error:", "'%s'" % value], 1)
            c.check("aging_exploration %s fails before simulating" % value,
                    out == "", out)


def bad_seed(c):
    # Scrambling at M = 4 steps a 10-bit LFSR: a seed that is zero modulo
    # 2^10 fails the grid's validation, before any job runs.
    for seeds, bad in (("1, 1024", "1024"), ("0", "0"), ("1, 1025", None)):
        path = os.path.join(c.work, "seed.sweep")
        with open(path, "w") as f:
            f.write("[grid]\naccesses = 3000\n[sweep]\nworkload = cjpeg\n"
                    "indexing = scrambling\nbanks = 4\nseed = %s\n" % seeds)
        argv = [c.pcalsweep, "--dry-run", path]
        if bad is None:
            c.run("--dry-run seed = %s" % seeds, argv)
        else:
            c.fails("--dry-run seed = %s fails" % seeds, argv, {},
                    ["seed %s is zero in its low 10 bits" % bad,
                     "10-bit LFSR"], 1)


def unknown_input(c, two):
    # An option pcalsweep does not know, or a second positional argument
    # that is not a section.key=value override, fails by name and with the
    # usage, wherever it stands.
    unknown = "unknown option '%s'"
    for needle, argv in (
            (unknown % "--retries", ["--retries", "1", "--dry-run", two]),
            (unknown % "--retry-backoff-ms",
             ["--retry-backoff-ms", "5", "--dry-run", two]),
            (unknown % "--bogus", [two, "--bogus", "--dry-run"]),
            (unknown % "--bogus", ["--bogus"]),
            ("unexpected argument 'extra': a run takes one spec path plus "
             "section.key=value overrides", [two, "extra", "--dry-run"])):
        c.fails("pcalsweep %s fails" % " ".join(map(os.path.basename, argv)),
                [c.pcalsweep] + argv, {}, [needle, "usage:"], 2)
    for fault, needle in (("job=0:access=0:mode=transient", "'transient'"),
                          ("job=0:access=0:mode=throw:times=2", "'times'")):
        c.fails("PCAL_FAULT_INJECT %s fails" % fault, [c.pcalsweep, two],
                {"PCAL_FAULT_INJECT": fault, "PCAL_BENCH_JSON": "0"},
                [needle])


def determinism(c):
    tables = {}
    for name in ("trace_mix", "hierarchy"):
        for workers in (1, 8):
            tables[name, workers] = c.sweep(
                "%s at %d worker(s)" % (name, workers), [spec(name)], workers)
        c.same("%s: 1 worker == 8 workers" % name, tables[name, 1],
               tables[name, 8])
    return tables["hierarchy", 8]


def timeline(c, hierarchy_table):
    config = os.path.join(c.work, "timeline.ini")
    with open(config, "w") as f:
        f.write(c.run("pcalsim --example", [c.pcalsim, "--example"]))
    run = [c.pcalsim, config, "workload.accesses=50000", "l2.size=65536",
           "partition.policy=drowsy"]
    single = os.path.join(c.work, "single.json")
    c.same("pcalsim: --timeline leaves the report unchanged",
           c.run("pcalsim", run),
           c.run("pcalsim --timeline", run + ["--timeline", single]))

    timelines = os.path.join(c.work, "timelines")
    c.same("hierarchy at 8 workers: timeline.dir leaves the table unchanged",
           hierarchy_table,
           c.sweep("hierarchy with timeline.dir",
                   [spec("hierarchy"), "timeline.dir=" + timelines], 8))
    mc_timelines = os.path.join(c.work, "mc_timelines")
    c.sweep("multicore at cores=1,2 with timeline.dir",
            [spec("multicore"), "sweep.cores=1,2",
             "timeline.dir=" + mc_timelines])

    artifacts = [single]
    for directory in (timelines, mc_timelines):
        written = sorted(glob.glob(os.path.join(directory, "*.json")))
        c.check("timelines in " + directory, bool(written))
        artifacts += written
    c.gate("timeline gate", [TIMELINE_GATE] + artifacts)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--pcalsim", required=True)
    ap.add_argument("--pcalsweep", required=True)
    ap.add_argument("--tracepack", required=True)
    ap.add_argument("--aging-exploration")
    args = ap.parse_args()
    with tempfile.TemporaryDirectory(prefix="pcal_smoke_") as work:
        c = Checks(args, work)
        spec_validation(c)
        tracepack(c)
        two = env_overrides(c)
        bad_counts(c, two)
        bad_seed(c)
        unknown_input(c, two)
        timeline(c, determinism(c))
        for records in c.records:
            c.check("a BENCH record in " + records,
                    bool(glob.glob(os.path.join(records, "BENCH_*.json"))))
        c.gate("bench gate", [BENCH_GATE] + c.records)
    for f in c.failures:
        print("FAIL " + f, file=sys.stderr)
    if c.failures:
        print("%d of %d smoke checks failed" % (len(c.failures), c.checked),
              file=sys.stderr)
        return 1
    print("passed %d smoke checks" % c.checked)
    return 0


if __name__ == "__main__":
    sys.exit(main())
