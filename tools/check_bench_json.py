#!/usr/bin/env python3
"""Bench-regression gate over BENCH_*.json perf records (stdlib only).

Every sweep run — the bench binaries and the pcalsweep CLI — drops a
BENCH_<name>.json record (written by src/core/bench_record.cc).  This
gate rejects records that indicate a silently broken run:

  - malformed JSON, or a missing/mistyped core schema key;
  - failed_jobs != 0, zero jobs, or zero total accesses;
  - pcalsweep records whose job count disagrees with the spec's declared
    cross-product (or, for sharded records, with the deterministic
    shard slice), or whose per-job result rows are missing, short, or
    carry a zero/negative energy (the honest-energy invariant: every
    backend prices every run — see docs/ENERGY_MODEL.md);
  - multi-core result rows ("cores" arrays from multi-core pcalsweep
    grids) with a malformed core entry, a core that was attributed zero
    energy, or per-core accesses/energies that do not sum back to the
    system row;
  - drowsy_comparison-style backend_energy sections with a zero-energy
    backend.

Usage:
  check_bench_json.py [--allow-failures] <dir-or-BENCH_file.json> [...]
  check_bench_json.py --merge <out.json> <shard1.json> <shard2.json> [...]
  check_bench_json.py --normalize <file.json> [...]

Modes (docs/ROBUSTNESS.md):
  --allow-failures  a record with failed_jobs > 0 passes iff the
                    failures are structured data: a "failures" array
                    whose entries name the job, config and reason, in
                    one-to-one correspondence with the ok:false result
                    rows (which are then exempt from the energy/timing
                    row checks — they carry no data).
  --merge           recombine shard-tagged records (pcalsweep --shard)
                    into one full-grid record, validating that the
                    shards share one fingerprint/grid, that their job
                    indices are disjoint, and that together they cover
                    the whole cross-product.  The merged record passes
                    this gate like an unsharded run's.
  --normalize       print the canonical form of a record with the
                    run-varying keys (wall_seconds, accesses_per_second,
                    threads, steals) removed and keys sorted — the form
                    to diff when comparing a resumed or merged record
                    against an uninterrupted run.

Exits nonzero on any violation, and also when no records are found at
all (an empty gate would pass vacuously exactly when the smoke steps
stopped producing records).
"""
import glob
import json
import os
import sys

# key -> allowed types; bool is excluded from the numeric keys (in
# Python bool is an int subclass, and a "jobs": true record is garbage).
CORE_SCHEMA = {
    "bench": (str,),
    "jobs": (int,),
    "failed_jobs": (int,),
    "threads": (int,),
    "wall_seconds": (int, float),
    "total_accesses": (int,),
    "accesses_per_second": (int, float),
    "intervals_observed": (int,),
    "steals": (int,),
}

RESULT_ROW_SCHEMA = {
    "workload": (str,),
    "config": (str,),
    "accesses": (int,),
    "total_cycles": (int,),
    "stall_cycles": (int,),
    "mshr_stall_cycles": (int,),
    "port_stall_cycles": (int,),
    "bw_stall_cycles": (int,),
    "avg_latency": (int, float),
    "energy_pj": (int, float),
    "idleness": (int, float),
    "lifetime_years": (int, float),
}

# Per-core entries inside a multi-core result row's "cores" array
# (written by write_result_row when the job ran a MultiCoreSystem).
CORE_ROW_SCHEMA = {
    "workload": (str,),
    "accesses": (int,),
    "stall_cycles": (int,),
    "llc_way_mask": (int,),
    "l1_hit_rate": (int, float),
    "llc_accesses": (int,),
    "llc_hits": (int,),
    "energy_pj": (int, float),
    "idleness": (int, float),
}

# Structured failed-job entries (pcalsweep --on-failure record).
FAILURE_ROW_SCHEMA = {
    "job": (int,),
    "workload": (str,),
    "config": (str,),
    "reason": (str,),
    "attempts": (int,),
    "timed_out": (bool,),
    "cancelled": (bool,),
}

# Run-varying keys normalized out before determinism diffs: they depend
# on the machine and scheduling, never on the simulated results.
RUN_VARYING_KEYS = ("wall_seconds", "accesses_per_second", "threads", "steals")


def typed(value, types):
    return isinstance(value, types) and not (
        isinstance(value, bool) and bool not in types
    )


def shard_slice(record):
    """The global job indices a sharded record must cover, or None."""
    if "shard_count" not in record:
        return None
    count = record.get("shard_count")
    index = record.get("shard_index")
    cross = record.get("cross_product")
    if (
        not typed(count, (int,))
        or not typed(index, (int,))
        or not typed(cross, (int,))
        or count < 1
        or not 1 <= index <= count
    ):
        return None
    return [i for i in range(cross) if i % count == index - 1]


def check_cores(row, i, bad):
    cores = row["cores"]
    if not isinstance(cores, list) or not cores:
        bad("result row %d: 'cores' is not a non-empty list" % i)
        return
    sum_accesses = 0
    sum_energy = 0.0
    for k, core in enumerate(cores):
        if not isinstance(core, dict):
            bad("result row %d core %d is not an object" % (i, k))
            return
        for key, types in CORE_ROW_SCHEMA.items():
            if key not in core or not typed(core[key], types):
                bad("result row %d core %d: bad or missing '%s'" % (i, k, key))
                return
        if not core["energy_pj"] > 0:
            bad(
                "result row %d core %d (%s): zero attributed energy"
                % (i, k, core["workload"])
            )
        if core["llc_hits"] > core["llc_accesses"]:
            bad(
                "result row %d core %d: llc_hits %d > llc_accesses %d"
                % (i, k, core["llc_hits"], core["llc_accesses"])
            )
        sum_accesses += core["accesses"]
        sum_energy += core["energy_pj"]
    if sum_accesses != row.get("accesses"):
        bad(
            "result row %d: per-core accesses sum %d != system %s"
            % (i, sum_accesses, row.get("accesses"))
        )
    system_energy = row.get("energy_pj", 0)
    if system_energy > 0 and abs(sum_energy - system_energy) > (
        # Each printed value carries 6 significant digits.
        1e-4 * system_energy
    ):
        bad(
            "result row %d: per-core energy sum %s != system %s"
            % (i, sum_energy, system_energy)
        )


def check_failures(record, bad):
    """Validates the structured "failures" array against failed_jobs and
    the ok:false result rows.  Returns the set of failed job ids (or row
    positions when rows carry no "job" member)."""
    failures = record.get("failures")
    if not isinstance(failures, list) or not failures:
        bad(
            "failed_jobs is %d but there is no structured 'failures' array"
            % record["failed_jobs"]
        )
        return set()
    if len(failures) != record["failed_jobs"]:
        bad(
            "failed_jobs is %d but 'failures' lists %d entries"
            % (record["failed_jobs"], len(failures))
        )
    failed_ids = set()
    for k, entry in enumerate(failures):
        if not isinstance(entry, dict):
            bad("failures entry %d is not an object" % k)
            continue
        for key, types in FAILURE_ROW_SCHEMA.items():
            if key not in entry or not typed(entry[key], types):
                bad("failures entry %d: bad or missing '%s'" % (k, key))
        if not entry.get("reason"):
            bad("failures entry %d: empty reason" % k)
        if "job" in entry:
            failed_ids.add(entry["job"])
    return failed_ids


def check_record(path, allow_failures=False):
    errors = []

    def bad(msg):
        errors.append("%s: %s" % (os.path.basename(path), msg))

    try:
        with open(path, encoding="utf-8") as f:
            record = json.load(f)
    except (OSError, ValueError) as e:
        bad("unreadable or malformed JSON (%s)" % e)
        return errors
    if not isinstance(record, dict):
        bad("top level is not a JSON object")
        return errors

    for key, types in CORE_SCHEMA.items():
        if key not in record:
            bad("missing key '%s'" % key)
        elif not typed(record[key], types):
            bad("key '%s' has type %s" % (key, type(record[key]).__name__))
    if errors:
        return errors

    if record["jobs"] <= 0:
        bad("ran no jobs")
    failed_ids = set()
    if record["failed_jobs"] != 0:
        if allow_failures:
            failed_ids = check_failures(record, bad)
        else:
            bad("%d failed jobs" % record["failed_jobs"])
    if record["threads"] <= 0:
        bad("nonpositive thread count")
    if record["total_accesses"] <= 0 and record["failed_jobs"] < record["jobs"]:
        bad("zero total accesses")

    # pcalsweep extras: the job count must match the spec's declared
    # cross-product — or, for a sharded record, the deterministic slice
    # (global index % shard_count == shard_index - 1) — and every result
    # row must carry nonzero energy.
    slice_ids = shard_slice(record)
    if "shard_count" in record and slice_ids is None:
        bad("malformed shard members (shard_index/shard_count/cross_product)")
    elif slice_ids is not None:
        if record["jobs"] != len(slice_ids):
            bad(
                "jobs (%s) != shard %s/%s slice size (%s)"
                % (
                    record["jobs"],
                    record["shard_index"],
                    record["shard_count"],
                    len(slice_ids),
                )
            )
    elif "cross_product" in record and record["jobs"] != record["cross_product"]:
        bad(
            "jobs (%s) != spec cross-product (%s)"
            % (record["jobs"], record["cross_product"])
        )
    if "results" in record:
        rows = record["results"]
        if not isinstance(rows, list):
            bad("'results' is not a list")
        elif len(rows) != record["jobs"]:
            bad("%d result rows for %d jobs" % (len(rows), record["jobs"]))
        else:
            row_jobs = [
                row["job"]
                for row in rows
                if isinstance(row, dict) and typed(row.get("job"), (int,))
            ]
            if slice_ids is not None and row_jobs != slice_ids:
                bad("result rows do not cover the shard's job slice")
            elif row_jobs and row_jobs != sorted(set(row_jobs)):
                bad("result row 'job' indices are not strictly increasing")
            for i, row in enumerate(rows):
                if not isinstance(row, dict):
                    bad("result row %d is not an object" % i)
                    continue
                for key, types in RESULT_ROW_SCHEMA.items():
                    if key not in row or not typed(row[key], types):
                        bad("result row %d: bad or missing '%s'" % (i, key))
                if not row.get("ok", True):
                    if not allow_failures:
                        bad("result row %d: job failed" % i)
                    elif failed_ids and row.get("job") not in failed_ids:
                        bad(
                            "result row %d: failed but job %s is not in "
                            "'failures'" % (i, row.get("job"))
                        )
                    # Failed rows carry no data — the energy/timing
                    # invariants below do not apply to them.
                    continue
                if not row.get("energy_pj", 0) > 0:
                    bad(
                        "result row %d (%s on %s): zero energy"
                        % (i, row.get("workload"), row.get("config"))
                    )
                # Timing-core invariants: the clock never runs backwards
                # (total = accesses + stalls) and the reported average
                # latency agrees with it.
                acc = row.get("accesses", 0)
                total = row.get("total_cycles", 0)
                stall = row.get("stall_cycles", 0)
                if total != acc + stall:
                    bad(
                        "result row %d: total_cycles (%s) != accesses (%s)"
                        " + stall_cycles (%s)" % (i, total, acc, stall)
                    )
                # Contention stalls (core/contention.h) are a breakdown
                # of stall_cycles, never an addition beyond it.
                contention = (
                    row.get("mshr_stall_cycles", 0)
                    + row.get("port_stall_cycles", 0)
                    + row.get("bw_stall_cycles", 0)
                )
                if contention > stall:
                    bad(
                        "result row %d: contention stalls (%s) exceed "
                        "stall_cycles (%s)" % (i, contention, stall)
                    )
                if acc > 0:
                    # Records print 6 significant digits; allow that much.
                    want = total / acc
                    if abs(row.get("avg_latency", 0) - want) > 1e-5 * want:
                        bad(
                            "result row %d: avg_latency %s disagrees with "
                            "total_cycles/accesses %s"
                            % (i, row.get("avg_latency"), want)
                        )
                # Multi-core rows: each core entry is schema-valid, every
                # core's attributed energy is positive, and the per-core
                # accesses/energies sum back to the system row (honest
                # attribution — the LLC report is split by access share).
                if "cores" in row:
                    check_cores(row, i, bad)

    # drowsy_comparison-style per-backend energy sections.
    if "backend_energy" in record:
        backends = record["backend_energy"]
        if not isinstance(backends, dict) or not backends:
            bad("'backend_energy' is not a non-empty object")
        else:
            for name, facts in backends.items():
                if not isinstance(facts, dict) or not facts.get(
                    "min_total_pj", 0
                ) > 0:
                    bad("backend '%s' reports zero energy" % name)

    return errors


def normalized(record):
    """The record minus its run-varying keys (for determinism diffs)."""
    return {k: v for k, v in record.items() if k not in RUN_VARYING_KEYS}


def merge_shards(out_path, shard_paths):
    """Recombines pcalsweep --shard records into one full-grid record."""
    shards = []
    for path in shard_paths:
        try:
            with open(path, encoding="utf-8") as f:
                shards.append((path, json.load(f)))
        except (OSError, ValueError) as e:
            print("FAIL %s: unreadable (%s)" % (path, e), file=sys.stderr)
            return 1

    errors = []
    first = shards[0][1]
    identity_keys = ("fingerprint", "cross_product", "axes", "spec")
    for key in identity_keys + ("shard_count",):
        if key not in first:
            errors.append("%s: missing '%s'" % (shards[0][0], key))
    for path, record in shards[1:]:
        for key in identity_keys + ("shard_count",):
            if record.get(key) != first.get(key):
                errors.append(
                    "%s: '%s' disagrees with %s" % (path, key, shards[0][0])
                )
    if errors:
        for e in errors:
            print("FAIL %s" % e, file=sys.stderr)
        return 1

    count = first["shard_count"]
    seen_shards = sorted(r.get("shard_index") for _, r in shards)
    if seen_shards != list(range(1, count + 1)):
        print(
            "FAIL merge: need shards 1..%d exactly once, got %s"
            % (count, seen_shards),
            file=sys.stderr,
        )
        return 1

    rows = {}
    failures = []
    for path, record in shards:
        for row in record.get("results", []):
            job = row.get("job")
            if not typed(job, (int,)):
                errors.append("%s: result row without a 'job' index" % path)
                continue
            if job in rows:
                errors.append(
                    "%s: job %d already contributed by another shard"
                    % (path, job)
                )
                continue
            rows[job] = row
        failures.extend(record.get("failures", []))
    cross = first["cross_product"]
    missing = [i for i in range(cross) if i not in rows]
    if missing:
        errors.append(
            "merge: %d of %d jobs uncovered (first missing: %d)"
            % (len(missing), cross, missing[0])
        )
    extra = [i for i in rows if not 0 <= i < cross]
    if extra:
        errors.append("merge: job indices out of range: %s" % extra[:5])
    if errors:
        for e in errors:
            print("FAIL %s" % e, file=sys.stderr)
        return 1

    base_name = first["bench"]
    suffix = "_shard%dof%d" % (first["shard_index"], count)
    if base_name.endswith(suffix):
        base_name = base_name[: -len(suffix)]
    wall = sum(r.get("wall_seconds", 0) for _, r in shards)
    total_accesses = sum(r.get("total_accesses", 0) for _, r in shards)
    merged = {
        "bench": base_name,
        "spec": first["spec"],
        "fingerprint": first["fingerprint"],
        "cross_product": cross,
        "axes": first["axes"],
        "jobs": cross,
        "failed_jobs": sum(r.get("failed_jobs", 0) for _, r in shards),
        "threads": max(r.get("threads", 0) for _, r in shards),
        "wall_seconds": wall,
        "total_accesses": total_accesses,
        "accesses_per_second": total_accesses / wall if wall > 0 else 0,
        "intervals_observed": sum(
            r.get("intervals_observed", 0) for _, r in shards
        ),
        "steals": sum(r.get("steals", 0) for _, r in shards),
        "results": [rows[i] for i in range(cross)],
    }
    if failures:
        merged["failures"] = sorted(
            failures, key=lambda entry: entry.get("job", -1)
        )
    with open(out_path, "w", encoding="utf-8") as f:
        json.dump(merged, f, indent=2, sort_keys=True)
        f.write("\n")
    print(
        "merged %d shards (%d jobs) into %s"
        % (len(shards), cross, out_path)
    )
    return 0


def normalize_files(paths):
    for path in paths:
        try:
            with open(path, encoding="utf-8") as f:
                record = json.load(f)
        except (OSError, ValueError) as e:
            print("FAIL %s: unreadable (%s)" % (path, e), file=sys.stderr)
            return 1
        print(json.dumps(normalized(record), indent=2, sort_keys=True))
    return 0


def main(argv):
    if argv and argv[0] == "--merge":
        if len(argv) < 3:
            print(
                "usage: check_bench_json.py --merge <out.json> <shard.json>...",
                file=sys.stderr,
            )
            return 2
        return merge_shards(argv[1], argv[2:])
    if argv and argv[0] == "--normalize":
        if len(argv) < 2:
            print(
                "usage: check_bench_json.py --normalize <file.json> [...]",
                file=sys.stderr,
            )
            return 2
        return normalize_files(argv[1:])

    allow_failures = False
    args = []
    for arg in argv:
        if arg == "--allow-failures":
            allow_failures = True
        else:
            args.append(arg)

    paths = []
    for arg in args:
        if os.path.isdir(arg):
            paths.extend(sorted(glob.glob(os.path.join(arg, "BENCH_*.json"))))
        else:
            paths.append(arg)
    if not paths:
        print("check_bench_json: no BENCH_*.json records found", file=sys.stderr)
        return 1

    failures = 0
    for path in paths:
        errors = check_record(path, allow_failures=allow_failures)
        if errors:
            failures += 1
            for e in errors:
                print("FAIL %s" % e, file=sys.stderr)
        else:
            print("ok   %s" % os.path.basename(path))
    if failures:
        print(
            "check_bench_json: %d of %d records failed" % (failures, len(paths)),
            file=sys.stderr,
        )
        return 1
    print("check_bench_json: %d records ok" % len(paths))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
