#!/usr/bin/env python3
"""Schema-validation tests for the power-state timeline artifact.

Emits real timelines through the `pcal` module (single run, multi-core
run, and the sweep timeline_dir knob) and pushes them — plus
deliberately broken variants (torn file, wrong version, unknown member,
census mismatch) — through tools/check_timeline_json.py.

Both validation layers are exercised explicitly: the jsonschema-backed
path (when the package is importable) and the built-in fallback
checker, so neither can rot unnoticed on machines that happen to have
the other.  PCAL_TOOLS_DIR (set by CTest) locates the validator;
without it the tools/ directory next to this file's repo is used.
"""
import copy
import json
import os
import subprocess
import sys
import tempfile

import pcal

TOOLS_DIR = os.environ.get(
    "PCAL_TOOLS_DIR",
    os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "..",
                 "tools"))
sys.path.insert(0, TOOLS_DIR)
import check_timeline_json as ctj  # noqa: E402

CHECKER = os.path.join(TOOLS_DIR, "check_timeline_json.py")
SCHEMA = json.load(open(os.path.join(TOOLS_DIR, "..", "docs",
                                     "timeline_schema_v1.json")))

RUN = {"cache_size": "8k", "banks": 4, "l2_size": "32k", "l2_banks": 8,
       "policy": "drowsy", "drowsy_window": 64,
       "workload": "streaming", "accesses": 40000}
MC_RUN = {"cores": 2, "llc_size": "64k", "llc_ways_per_core": 4,
          "cache_size": "8k", "banks": 4, "workload": "uniform",
          "accesses": 40000}
SPEC = ("[sweep]\nworkload = uniform\nbanks = 2, 4\n"
        "[grid]\naccesses = 20000\n")


def emit(tmp, name, entries):
    path = os.path.join(tmp, name)
    pcal.run(entries, timeline=path)
    return path


def run_checker(*paths):
    return subprocess.run(
        [sys.executable, CHECKER] + list(paths),
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)


def both_layers(doc):
    """(jsonschema-or-fallback errors, always-fallback errors)."""
    return ctj.schema_validate(doc, SCHEMA), ctj._builtin_validate(doc, SCHEMA)


def test_emitted_timelines_validate():
    with tempfile.TemporaryDirectory() as tmp:
        single = emit(tmp, "single.json", RUN)
        multi = emit(tmp, "multi.json", MC_RUN)
        pcal.sweep(SPEC, workers=2, name="tl", timeline_dir=tmp)
        sweeps = sorted(os.path.join(tmp, f) for f in os.listdir(tmp)
                        if f.startswith("tl_job"))
        assert len(sweeps) == 2, "sweep should drop one artifact per job"
        proc = run_checker(single, multi, *sweeps)
        assert proc.returncode == 0, proc.stdout
        doc = json.load(open(single))
        assert doc["schema"] == pcal.TIMELINE_SCHEMA
        assert doc["version"] == pcal.TIMELINE_VERSION
        # Both layers agree the emitted artifact is clean.
        for errors in both_layers(doc):
            assert errors == [], errors
        assert ctj.semantic_checks(doc) == []
        # The multi-core artifact names each core's levels plus the
        # shared LLC (core == -1).
        mc = json.load(open(multi))
        cores = sorted({g["core"] for g in mc["groups"]})
        assert cores == [-1, 0, 1], mc["groups"]


def test_timeline_leaves_the_run_result_unchanged():
    # The artifact is a side output: a default-workload run returns the
    # plain run's result dict, and what it wrote passes the checker.
    cfg = {"cache_size": "8k", "banks": 4, "accesses": 20000}
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "run.json")
        r = pcal.run(cfg, timeline=path)
        assert r["accesses"] == 20000
        assert r == pcal.run(cfg)
        proc = run_checker(path)
        assert proc.returncode == 0, proc.stdout


def test_one_core_run_reports_the_single_stream_census():
    # A 1-core multi-core run is the single-stream run: every group,
    # private levels included, carries core -1.
    with tempfile.TemporaryDirectory() as tmp:
        doc = json.load(open(emit(tmp, "one.json", dict(MC_RUN, cores=1,
                                                        llc_ways_per_core=0))))
    assert [g["core"] for g in doc["groups"]] == [-1, -1], doc["groups"]
    assert ctj.semantic_checks(doc) == []


def test_census_core_ids_are_semantic():
    def groups(*cores):  # private groups at level 0, the last at level 1
        last = len(cores) - 1
        return [{"core": c, "level": int(i == last), "first_unit": i,
                 "units": 1} for i, c in enumerate(cores)]
    assert ctj.census_core_checks(groups(-1, -1)) == []
    assert ctj.census_core_checks(groups(0, 1, -1)) == []
    # A lone core 0 is a one-core run reporting a core id.
    assert ctj.census_core_checks(groups(0, -1))
    # Out-of-order cores, a private -1, and a non-LLC last group.
    assert ctj.census_core_checks(groups(1, 0, -1))
    assert ctj.census_core_checks(groups(0, -1, 1, -1))
    assert ctj.census_core_checks(groups(0, 1))


def good_doc():
    with tempfile.TemporaryDirectory() as tmp:
        return json.load(open(emit(tmp, "t.json", RUN)))


def test_torn_file_fails():
    with tempfile.TemporaryDirectory() as tmp:
        path = emit(tmp, "torn.json", RUN)
        blob = open(path, "rb").read()
        with open(path, "wb") as f:
            f.write(blob[: len(blob) // 2])
        proc = run_checker(path)
        assert proc.returncode == 1, proc.stdout
        assert "malformed JSON" in proc.stdout


def test_wrong_version_fails_both_layers():
    doc = good_doc()
    doc["version"] = 2
    for errors in both_layers(doc):
        assert any("version" in e or "2" in e for e in errors), errors


def test_unknown_member_fails_both_layers():
    doc = good_doc()
    doc["intervals"][0]["surprise"] = 1
    for errors in both_layers(doc):
        assert errors, "additionalProperties violation not caught"


def test_bad_state_alphabet_fails_both_layers():
    doc = good_doc()
    sample = doc["intervals"][0]["groups"][0]
    sample["states"] = "Z" * len(sample["states"])
    for errors in both_layers(doc):
        assert errors, "A/D/G alphabet violation not caught"


def test_census_mismatch_is_semantic():
    doc = good_doc()
    sample = doc["intervals"][0]["groups"][0]
    sample["awake"], sample["gated"] = sample["gated"], sample["awake"]
    if sample["awake"] == sample["gated"]:
        sample["awake"] += 1  # force disagreement even on symmetric counts
    assert ctj.semantic_checks(doc), "state census mismatch not caught"


def test_final_flag_must_mark_exactly_the_last_record():
    doc = good_doc()
    doc["intervals"][-1]["final"] = False
    assert any("final" in e for e in ctj.semantic_checks(doc))


def test_checker_usage_errors():
    assert run_checker().returncode == 2  # no files: never pass vacuously
    proc = subprocess.run(
        [sys.executable, CHECKER, "--schema", "/no/such/schema.json", "x"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    assert proc.returncode == 2


def main():
    tests = [(name, fn) for name, fn in sorted(globals().items())
             if name.startswith("test_")]
    failures = 0
    for name, fn in tests:
        try:
            fn()
        except Exception as e:  # noqa: BLE001 - report and keep going
            failures += 1
            print("FAIL %s: %s: %s" % (name, type(e).__name__, e))
        else:
            print("ok   %s" % name)
    if failures:
        print("%d of %d tests failed" % (failures, len(tests)))
        return 1
    print("%d tests passed" % len(tests))
    return 0


if __name__ == "__main__":
    sys.exit(main())
