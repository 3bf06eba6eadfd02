#!/usr/bin/env python3
"""End-to-end crash-safety checks of pcalsweep (docs/ROBUSTNESS.md).

  shard-and-merge  examples/table4.sweep run as 3 shards: each shard's
                   BENCH record passes the bench gate, and the merged
                   record normalizes to exactly the unsharded run's
  kill-and-resume  a journaled run killed by an injected _Exit(42) at
                   job 100, then resumed: the journal restores jobs, and
                   stdout and the normalized record equal an
                   uninterrupted run's
  refused resume   a journal of one design does not resume another: a
                   spec journaled with one fixed [grid] value (l2_banks,
                   footprint) is refused when resumed with another, and
                   resumes when nothing changed; that fully restored
                   resume simulated nothing, so its summary and record
                   report 0 accesses/s next to the journaled run's totals
  committed journal
                   a copy of tests/goldens/journal/journal_v1.pcalj, a v1
                   journal already on disk (one failed record, one
                   hierarchy and two 2-core records), resumes with every
                   job restored and stdout equal to a fresh run

Every run uses PCAL_BENCH_ACCESSES=20000.  Only the Python interpreter is
needed, so it runs on sanitizer builds too.

Usage:
  check_crash_safety.py --pcalsweep S
"""
import argparse
import glob
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
TABLE4 = os.path.join(ROOT, "examples", "table4.sweep")
JOURNAL_GOLDEN = os.path.join(ROOT, "tests", "goldens", "journal")
GATE = os.path.join(ROOT, "tools", "check_bench_json.py")
ACCESSES = "20000"
SHARDS = 3


class Checks:
    def __init__(self, pcalsweep, work):
        self.pcalsweep = pcalsweep
        self.work = work
        self.failures = []
        self.checked = 0

    def check(self, name, ok, detail=""):
        self.checked += 1
        if not ok:
            self.failures.append(name + (": " + detail if detail else ""))

    def sweep(self, args, json_dir, extra_env=None):
        """Runs pcalsweep; returns (exit code, stdout, stderr)."""
        env = {k: v for k, v in os.environ.items()
               if not k.startswith("PCAL_")}
        env.update({"PCAL_BENCH_ACCESSES": ACCESSES,
                    "PCAL_BENCH_JSON_DIR": json_dir})
        env.update(extra_env or {})
        proc = subprocess.run([self.pcalsweep] + args, cwd=self.work,
                              env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE)
        return (proc.returncode, proc.stdout.decode(errors="replace"),
                proc.stderr.decode(errors="replace"))

    def ok(self, name, args, json_dir, extra_env=None):
        code, out, err = self.sweep(args, json_dir, extra_env)
        self.check(name, code == 0, "exit %d\n%s" % (code, err))
        return out, err

    def gate(self, name, *args):
        """tools/check_bench_json.py; returns its stdout."""
        proc = subprocess.run([sys.executable, GATE] + list(args),
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        self.check(name, proc.returncode == 0,
                   proc.stderr.decode(errors="replace"))
        return proc.stdout.decode(errors="replace")

    def dir(self, name):
        path = os.path.join(self.work, name)
        os.makedirs(path)
        return path


def shard_and_merge(c):
    d = c.dir("shards")
    c.ok("unsharded run", [TABLE4], d)
    records = []
    for k in range(1, SHARDS + 1):
        c.ok("shard %d/%d" % (k, SHARDS),
             ["--shard", "%d/%d" % (k, SHARDS), TABLE4], d)
        records.append(os.path.join(
            d, "BENCH_table4_banks_shard%dof%d.json" % (k, SHARDS)))
        c.gate("shard %d record" % k, records[-1])
    merged = os.path.join(d, "merged.json")
    c.gate("merge", "--merge", merged, *records)
    c.gate("merged record", merged)
    unsharded = c.gate("normalize unsharded", "--normalize",
                       os.path.join(d, "BENCH_table4_banks.json"))
    c.check("merged shards == unsharded run",
            unsharded and unsharded == c.gate("normalize merged",
                                              "--normalize", merged))


def kill_and_resume(c):
    d = c.dir("resume")
    reference, _ = c.ok("uninterrupted run", [TABLE4], d)
    record = os.path.join(d, "BENCH_table4_banks.json")
    expected = c.gate("normalize uninterrupted", "--normalize", record)
    os.remove(record)
    journal = os.path.join(d, "run.pcalj")
    code, _, err = c.sweep(["--journal", journal, TABLE4], d,
                           {"PCAL_FAULT_INJECT":
                                "job=100:access=1000:mode=exit"})
    c.check("the injected crash exits 42", code == 42,
            "exit %d\n%s" % (code, err))
    resumed, err = c.ok("resumed run", ["--resume", journal, TABLE4], d)
    # Cohort scheduling decides which jobs finish before job 100's exit,
    # so require only that the journal restored some.
    c.check("the journal fed the resume",
            re.search(r"resume: [1-9]", err) is not None, err)
    c.check("resumed stdout == uninterrupted stdout",
            reference and resumed == reference)
    c.check("resumed record == uninterrupted record",
            expected and expected == c.gate("normalize resumed",
                                            "--normalize", record))


def read_record(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def refused_resume(c):
    d = c.dir("refused")
    record = os.path.join(d, "BENCH_design.json")
    spec = os.path.join(d, "design.sweep")
    with open(spec, "w") as f:
        f.write("[grid]\nname = design\nl2_banks = 4\nfootprint = 16k\n"
                "[sweep]\nl2_size = 32k\nworkload = uniform, cjpeg\n")
    for key, other in (("l2_banks", "16"), ("footprint", "256k")):
        journal = os.path.join(d, key + ".pcalj")
        c.ok("journal the design", ["--journal", journal, spec], d)
        journaled = read_record(record)
        code, out, err = c.sweep(["--resume", journal, spec,
                                  "grid.%s=%s" % (key, other)], d)
        c.check("resume with another [grid] %s is refused" % key,
                code == 1 and not out and
                "journaled for a different run" in err,
                "exit %d\n%s" % (code, err))
        _, err = c.ok("resume of the same design",
                      ["--resume", journal, spec], d)
        c.check("the same design resumes every job",
                "resume: 2 jobs restored" in err, err)
        c.check("a fully restored resume reports 0 accesses/s",
                re.search(r" 0\.0M accesses/s,", err) is not None, err)
        resumed = read_record(record)
        c.check("its record's rate is 0 and its totals the journaled run's",
                resumed["accesses_per_second"] == 0 and
                all(resumed[k] == journaled[k] for k in
                    ("jobs", "failed_jobs", "total_accesses")) and
                resumed["total_accesses"] > 0,
                json.dumps({k: resumed.get(k) for k in
                            ("accesses_per_second", "jobs", "failed_jobs",
                             "total_accesses")}))


def committed_journal(c):
    d = c.dir("committed")
    spec = os.path.join(JOURNAL_GOLDEN, "journal_v1.sweep")
    journal = os.path.join(d, "journal_v1.pcalj")
    shutil.copyfile(os.path.join(JOURNAL_GOLDEN, "journal_v1.pcalj"), journal)
    # The fault and the failure policy the journal was written under.
    fault = {"PCAL_FAULT_INJECT": "job=1:access=5000:mode=throw"}
    fresh, _ = c.ok("fresh run of the journaled grid",
                    ["--on-failure", "record", spec], d, fault)
    resumed, err = c.ok("resume of the committed journal",
                        ["--on-failure", "record", "--resume", journal, spec],
                        d, fault)
    c.check("the committed journal restores every job",
            "resume: 4 jobs restored" in err, err)
    c.check("resumed stdout == fresh stdout", fresh and resumed == fresh)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--pcalsweep", required=True)
    args = ap.parse_args()
    with tempfile.TemporaryDirectory(prefix="pcal_crash_") as work:
        c = Checks(os.path.abspath(args.pcalsweep), work)
        shard_and_merge(c)
        kill_and_resume(c)
        refused_resume(c)
        committed_journal(c)
        leftovers = glob.glob(os.path.join(work, "BENCH_*.json"))
        c.check("records land in their own directories", not leftovers,
                " ".join(leftovers))
    for f in c.failures:
        print("FAIL " + f, file=sys.stderr)
    if c.failures:
        print("%d of %d crash-safety checks failed" %
              (len(c.failures), c.checked), file=sys.stderr)
        return 1
    print("passed %d crash-safety checks" % c.checked)
    return 0


if __name__ == "__main__":
    sys.exit(main())
