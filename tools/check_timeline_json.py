#!/usr/bin/env python3
"""Validator for pcal power-state timeline artifacts.

Every timeline emitter — `pcalsim --timeline`, the `[timeline]` sweep
knob, and the Python bindings — writes the versioned JSON artifact
described by docs/timeline_schema_v1.json.  CI runs this gate on every
emitted timeline so a drifting writer (or a torn file from a killed
run) is caught before anyone builds tooling on top of it.

Validation is two-layered:

  1. JSON Schema validation against docs/timeline_schema_v1.json —
     through the `jsonschema` package when importable, else through a
     built-in structural checker covering the same constraints (type,
     required members, additionalProperties, the A/D/G state alphabet),
     so the gate never silently weakens on machines without the
     package.
  2. Semantic cross-checks the schema language cannot express:
     - every interval carries one sample per group-table row;
     - each sample's states string is exactly its group's unit count
       long, and its awake/drowsy/gated counts sum to it and agree
       with the string's letter census;
     - group rows tile the unit vector contiguously (first_unit of row
       k+1 == first_unit + units of row k, starting at 0);
     - the census core ids: a single-stream (one-core) timeline
       reports every group with core -1; a multi-core timeline lists
       cores 0..N-1 (N >= 2) at each private depth and only its last
       group, the shared LLC, has core -1;
     - interval cycle counts are non-decreasing and span_cycles match
       their differences; exactly the last record is final.

Usage:
  check_timeline_json.py <timeline.json> [...]
  check_timeline_json.py --schema <schema.json> <timeline.json> [...]

Exits nonzero on any violation, and when no files are given (an empty
gate would pass vacuously exactly when the smoke steps stopped
producing timelines).
"""
import json
import os
import sys

SCHEMA_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "..", "docs",
    "timeline_schema_v1.json")

STATE_CHARS = frozenset("ADG")


def _type_ok(value, schema_type):
    if schema_type == "object":
        return isinstance(value, dict)
    if schema_type == "array":
        return isinstance(value, list)
    if schema_type == "string":
        return isinstance(value, str)
    if schema_type == "integer":
        return isinstance(value, int) and not isinstance(value, bool)
    if schema_type == "number":
        return (isinstance(value, (int, float))
                and not isinstance(value, bool))
    if schema_type == "boolean":
        return isinstance(value, bool)
    return True


def _builtin_validate(doc, schema, path="$"):
    """Minimal draft-07 subset: the constructs the timeline schema uses
    (type, const, required, properties, additionalProperties, items,
    minimum, pattern over the fixed [ADG]* alphabet)."""
    errors = []
    if "const" in schema and doc != schema["const"]:
        errors.append("%s: expected %r, got %r" % (path, schema["const"], doc))
        return errors
    if "type" in schema and not _type_ok(doc, schema["type"]):
        errors.append("%s: expected %s" % (path, schema["type"]))
        return errors
    if isinstance(doc, dict):
        for key in schema.get("required", ()):
            if key not in doc:
                errors.append("%s: missing required member %r" % (path, key))
        props = schema.get("properties", {})
        if schema.get("additionalProperties", True) is False:
            for key in doc:
                if key not in props:
                    errors.append("%s: unknown member %r" % (path, key))
        for key, sub in props.items():
            if key in doc:
                errors.extend(
                    _builtin_validate(doc[key], sub, "%s.%s" % (path, key)))
    elif isinstance(doc, list) and "items" in schema:
        for i, item in enumerate(doc):
            errors.extend(
                _builtin_validate(item, schema["items"],
                                  "%s[%d]" % (path, i)))
    else:
        if "minimum" in schema and isinstance(doc, (int, float)) \
                and not isinstance(doc, bool) and doc < schema["minimum"]:
            errors.append("%s: %r below minimum %r"
                          % (path, doc, schema["minimum"]))
        if schema.get("pattern") == "^[ADG]*$" and isinstance(doc, str):
            if not set(doc) <= STATE_CHARS:
                errors.append("%s: states outside the A/D/G alphabet" % path)
    return errors


def schema_validate(doc, schema):
    """Returns a list of error strings (empty = valid)."""
    try:
        import jsonschema
    except ImportError:
        return _builtin_validate(doc, schema)
    validator = jsonschema.Draft7Validator(schema)
    return ["%s: %s" % ("$" + "".join("[%r]" % p for p in e.absolute_path),
                        e.message)
            for e in validator.iter_errors(doc)]


def census_core_checks(groups):
    """The engine's core-id rule for the group table."""
    cores = [g["core"] for g in groups]
    if all(c == -1 for c in cores):
        return []  # single stream: every group is core -1
    errors = []
    if cores[-1] != -1:
        errors.append("multi-core timeline: last group (the shared LLC) "
                      "has core %d, expected -1" % cores[-1])
    depths = {}
    for i, g in enumerate(groups[:-1]):
        if g["core"] == -1:
            errors.append("group %d: core -1 before the last group (only "
                          "the shared LLC is core -1)" % i)
        depths.setdefault(g["level"], []).append(g["core"])
    widths = {len(ids) for ids in depths.values()}
    for level, ids in sorted(depths.items()):
        if ids != list(range(len(ids))) or len(ids) < 2:
            errors.append("level %d lists cores %s; a multi-core private "
                          "depth lists cores 0..N-1 with N >= 2 (a "
                          "one-core run reports core -1)" % (level, ids))
    if len(widths) > 1:
        errors.append("private depths list different core counts %s"
                      % sorted(widths))
    return errors


def semantic_checks(doc):
    """Cross-member invariants the schema language cannot express.
    Assumes schema validation already passed."""
    groups = doc["groups"]
    errors = census_core_checks(groups) if groups else []
    next_unit = 0
    for i, g in enumerate(groups):
        if g["first_unit"] != next_unit:
            errors.append("group %d: first_unit %d, expected %d (group "
                          "rows must tile the unit vector)"
                          % (i, g["first_unit"], next_unit))
        next_unit = g["first_unit"] + g["units"]

    prev_cycles = 0
    for i, rec in enumerate(doc["intervals"]):
        where = "interval[%d]" % i
        if len(rec["groups"]) != len(groups):
            errors.append("%s: %d samples for %d group rows"
                          % (where, len(rec["groups"]), len(groups)))
            continue
        if rec["cycles"] < prev_cycles:
            errors.append("%s: cycles %d below previous %d"
                          % (where, rec["cycles"], prev_cycles))
        if rec["span_cycles"] != rec["cycles"] - prev_cycles:
            errors.append("%s: span_cycles %d != cycle delta %d"
                          % (where, rec["span_cycles"],
                             rec["cycles"] - prev_cycles))
        prev_cycles = rec["cycles"]
        is_last = i == len(doc["intervals"]) - 1
        if rec["final"] != is_last:
            errors.append("%s: final=%s but record is%s the last"
                          % (where, rec["final"], "" if is_last else " not"))
        for k, (g, s) in enumerate(zip(groups, rec["groups"])):
            gwhere = "%s.groups[%d]" % (where, k)
            if len(s["states"]) != g["units"]:
                errors.append("%s: states length %d != %d units"
                              % (gwhere, len(s["states"]), g["units"]))
                continue
            census = {"A": s["awake"], "D": s["drowsy"], "G": s["gated"]}
            for char, count in census.items():
                actual = s["states"].count(char)
                if actual != count:
                    errors.append("%s: %d '%s' chars but count says %d"
                                  % (gwhere, actual, char, count))
            if s["awake"] + s["drowsy"] + s["gated"] != g["units"]:
                errors.append("%s: state counts sum to %d, not %d units"
                              % (gwhere,
                                 s["awake"] + s["drowsy"] + s["gated"],
                                 g["units"]))
            if s["hits"] + s["misses"] != s["accesses"]:
                errors.append("%s: hits %d + misses %d != accesses %d"
                              % (gwhere, s["hits"], s["misses"],
                                 s["accesses"]))
    return errors


def check_file(path, schema):
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, ValueError) as e:
        return ["%s: unreadable or malformed JSON: %s" % (path, e)]
    errors = schema_validate(doc, schema)
    if not errors:
        errors = semantic_checks(doc)
    return ["%s: %s" % (path, e) for e in errors]


def main(argv):
    args = argv[1:]
    schema_path = SCHEMA_PATH
    if args and args[0] == "--schema":
        if len(args) < 2:
            print("check_timeline_json: --schema needs a path",
                  file=sys.stderr)
            return 2
        schema_path = args[1]
        args = args[2:]
    if not args:
        print("usage: check_timeline_json.py [--schema <schema.json>] "
              "<timeline.json> [...]", file=sys.stderr)
        return 2
    try:
        with open(schema_path) as f:
            schema = json.load(f)
    except (OSError, ValueError) as e:
        print("check_timeline_json: cannot load schema %s: %s"
              % (schema_path, e), file=sys.stderr)
        return 2

    failures = 0
    for path in args:
        errors = check_file(path, schema)
        if errors:
            failures += 1
            for e in errors:
                print("FAIL %s" % e)
        else:
            print("ok   %s" % path)
    if failures:
        print("check_timeline_json: %d of %d file(s) failed"
              % (failures, len(args)))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
