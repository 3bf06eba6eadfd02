#!/usr/bin/env python3
"""The benchmark's own tests (stdlib unittest, about two minutes).

  python3 pcalbench/test_pcalbench.py

Builds the simulator if needed, makes one traced run (--trace 1, which
also makes an untraced pass) per workload on a seed, and checks that:
  - tracing changes no simulated statistic: the traced pass's sim digest
    equals the untraced pass's, and every output matched its golden;
  - setup_s is taken in fresh processes of its own, each of which built
    the aging LUT itself;
  - the load generator never ran more than nproc processes at once, nor
    a child with more than nproc worker threads.
"""
import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run as bench  # noqa: E402

SEED = 5


class TracedRuns(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        out = os.path.join(bench.WORK, "tests")
        os.makedirs(out, exist_ok=True)
        cls.records = {}
        for workload in bench.WORKLOADS:
            path = os.path.join(out, workload + ".json")
            subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload",
                 workload, "--seed", str(SEED), "--seconds", "1", "--trace",
                 "1", "--record", path],
                check=True, stdout=subprocess.DEVNULL)
            with open(path) as f:
                cls.records[workload] = json.load(f)

    def test_tracing_changes_no_simulated_statistic(self):
        for workload, rec in self.records.items():
            with self.subTest(workload=workload):
                self.assertEqual(rec["problems"], [])
                self.assertTrue(rec["digest_match"])
                self.assertEqual(rec["digests"]["traced"],
                                 rec["digests"]["untraced"])

    def test_setup_is_timed_in_fresh_processes(self):
        for workload, rec in self.records.items():
            with self.subTest(workload=workload):
                pids = [s["pid"] for s in rec["setup"]]
                self.assertEqual(len(pids), bench.SETUP_SAMPLES)
                self.assertEqual(len(set(pids)), len(pids))
                self.assertNotIn(os.getpid(), pids)
                for s in rec["setup"]:
                    # A process that found the LUT already built would
                    # report (near) zero here.
                    self.assertGreater(s["lut_build_s"], 0.1)
                    self.assertLess(s["lut_build_s"] + s["parse_expand_s"],
                                    s["wall"])

    def test_generator_stays_within_nproc(self):
        for workload, rec in self.records.items():
            with self.subTest(workload=workload):
                prov = rec["provenance"]
                self.assertEqual(prov["max_concurrent_processes"], 1)
                self.assertLessEqual(prov["workers"], prov["nproc"])
                # One main thread plus at most nproc workers.
                self.assertLessEqual(prov["max_child_threads"],
                                     prov["nproc"] + 1)


if __name__ == "__main__":
    unittest.main()
