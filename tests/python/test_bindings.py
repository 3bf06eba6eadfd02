#!/usr/bin/env python3
"""Self-running tests for the `pcal` Python module (bindings/).

No pytest in the loop: each test_* function either returns or raises,
and main() reports one line per test.  CTest registers this file with
PYTHONPATH pointing at the built module (CMakeLists.txt).

The load-bearing check is sweep parity: a Python-driven sweep must
reproduce pcalsweep's BENCH result rows *byte for byte*, at 1 worker
and at 8 — the facade promises bindings are not a second, subtly
different engine.  PCAL_PCALSWEEP (set by CTest) points at the binary;
without it the cross-binary half is skipped (the 1-vs-8 half still
runs).
"""
import json
import os
import subprocess
import sys
import tempfile

import pcal

SPEC = """\
[sweep]
workload = uniform, streaming
banks = 2, 4

[grid]
accesses = 20000
"""


def test_version():
    assert pcal.version() == pcal.__version__
    major = int(pcal.version().split(".")[0])
    assert major >= 1


def test_knows():
    assert pcal.knows("cache_size")
    assert pcal.knows("llc_ways_per_core")
    assert not pcal.knows("no_such_knob")


def test_validate_accepts_clean_config():
    assert pcal.validate({"cache_size": "8k", "banks": 4}) == []
    # Values are str()-ed: ints, "8k" suffixes and booleans all work.
    assert pcal.validate([("cache_size", 8192), ("unit_pricing", True)]) == []


def test_validate_reports_every_entry_issue():
    issues = pcal.validate([("no_such_knob", "1"), ("banks", "three")])
    assert [i["key"] for i in issues] == ["no_such_knob", "banks"]
    for i in issues:
        assert set(i) == {"key", "value", "reason"} and i["reason"]


def test_validate_checks_the_assembled_whole():
    issues = pcal.validate({"cores": 2})  # no llc_size
    assert len(issues) == 1 and "llc_size" in issues[0]["reason"]
    issues = pcal.validate({"workload": "no_such_workload"})
    assert len(issues) == 1 and issues[0]["key"] == "workload"


def test_validate_rejects_core_workloads_past_the_core_count():
    issues = pcal.validate({"cores": "2", "llc_size": "64k",
                            "workload": "cjpeg", "core7_workload": "sha"})
    assert [i["key"] for i in issues] == ["core7_workload"]
    try:
        pcal.run({"cores": "2", "llc_size": "64k", "workload": "cjpeg",
                  "core7_workload": "sha", "accesses": 1000})
    except pcal.Error as e:
        assert "core7_workload" in str(e)
    else:
        raise AssertionError("core7_workload ran on a 2-core system")


def test_validate_caps_event_costs():
    issues = pcal.validate({"miss_latency": "18446744073709551615"})
    assert [i["key"] for i in issues] == ["miss_latency"]


def test_energy_keys_need_a_unit_priced_run():
    # A single-level gated bank run is priced by the paper's bank model,
    # which no energy_* key reaches: validate and run both say so.
    cfg = {"cache_size": "8k", "banks": 4, "workload": "cjpeg",
           "accesses": 20000, "energy_gated_leak": 0.01}
    issues = pcal.validate(cfg)
    assert len(issues) == 1, issues
    assert "energy_gated_leak" in issues[0]["reason"]
    assert "unit_pricing = true" in issues[0]["reason"]
    try:
        pcal.run(cfg)
    except pcal.Error as e:
        assert "energy_gated_leak" in str(e)
    else:
        raise AssertionError("pcal.run ignored energy_gated_leak")
    assert pcal.validate(dict(cfg, unit_pricing=True)) == []
    assert pcal.validate(dict(cfg, granularity="line")) == []
    assert pcal.run(dict(cfg, unit_pricing=True))["energy_pj"] > 0


def test_run_single():
    r = pcal.run({"cache_size": "8k", "banks": 4, "workload": "uniform",
                  "accesses": 20000})
    assert r["accesses"] == 20000
    assert r["total_cycles"] >= r["accesses"]
    lv = r["levels"]
    assert len(lv) == 1 and lv[0]["units"] == 4
    assert lv[0]["hits"] + lv[0]["misses"] == lv[0]["accesses"]
    assert 0.0 <= r["idleness"] <= 1.0
    assert r["cores"] == []


def test_run_multicore():
    r = pcal.run({"cores": 2, "llc_size": "64k", "llc_ways_per_core": 4,
                  "cache_size": "8k", "banks": 4, "workload": "uniform",
                  "accesses": 20000})
    assert len(r["cores"]) == 2
    masks = [c["llc_way_mask"] for c in r["cores"]]
    assert masks[0] & masks[1] == 0  # disjoint LLC way partitions
    assert sum(c["accesses"] for c in r["cores"]) == r["accesses"]


def test_run_rejects_bad_config():
    try:
        pcal.run({"banks": "x"})
    except pcal.Error as e:
        assert "banks" in str(e)
    else:
        raise AssertionError("pcal.run accepted a malformed config")
    assert issubclass(pcal.Error, ValueError)


def test_sweep_worker_count_invariance():
    one = pcal.sweep(SPEC, workers=1, name="par")
    eight = pcal.sweep(SPEC, workers=8, name="par")
    assert one["jobs"] == 4 and one["failed_jobs"] == 0
    assert one["rows"] == eight["rows"]
    assert one["table"] == eight["table"]
    assert one["labels"] == eight["labels"]
    assert one["labels"][0] == "workload=uniform banks=2"
    # Rows are JSON, and their metrics agree with the result dicts.
    for row, res in zip(one["rows"], one["results"]):
        parsed = json.loads(row)
        assert parsed["ok"] and res["ok"]
        assert parsed["accesses"] == res["accesses"]


def bench_rows_of(record_path):
    """The raw "results" row strings of a pcalsweep BENCH record —
    extracted textually so the comparison is byte-exact, not
    parse-and-reformat."""
    rows, inside = [], False
    with open(record_path) as f:
        for line in f:
            stripped = line.strip()
            if stripped == '"results": [':
                inside = True
            elif inside and stripped in ("],", "]"):
                break
            elif inside:
                rows.append(stripped.rstrip(","))
    return rows


def test_sweep_rows_match_pcalsweep():
    binary = os.environ.get("PCAL_PCALSWEEP")
    if not binary:
        return "skipped (PCAL_PCALSWEEP not set)"
    with tempfile.TemporaryDirectory() as tmp:
        spec_path = os.path.join(tmp, "par.sweep")
        with open(spec_path, "w") as f:
            f.write(SPEC)
        env = dict(os.environ, PCAL_BENCH_JSON="1", PCAL_BENCH_JSON_DIR=tmp,
                   PCAL_SWEEP_THREADS="2")
        subprocess.run([binary, spec_path], check=True, env=env,
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        expected = bench_rows_of(os.path.join(tmp, "BENCH_par.json"))
    assert expected, "no result rows in the pcalsweep record"
    for workers in (1, 8):
        got = pcal.sweep(SPEC, workers=workers, name="par")["rows"]
        assert got == expected, (
            "workers=%d rows diverge from pcalsweep:\n%s\nvs\n%s"
            % (workers, got, expected))


def main():
    tests = [(name, fn) for name, fn in sorted(globals().items())
             if name.startswith("test_")]
    failures = 0
    for name, fn in tests:
        try:
            note = fn()
        except Exception as e:  # noqa: BLE001 - report and keep going
            failures += 1
            print("FAIL %s: %s: %s" % (name, type(e).__name__, e))
        else:
            print("ok   %s%s" % (name, " [%s]" % note if note else ""))
    if failures:
        print("%d of %d tests failed" % (failures, len(tests)))
        return 1
    print("%d tests passed" % len(tests))
    return 0


if __name__ == "__main__":
    sys.exit(main())
