#!/usr/bin/env python3
"""Docs gate: the documented key tables name exactly the keys pcal takes.

For an unknown key, pcalsim and pcalsweep print the "valid: ..." list of
the section it was given in, and those lists derive from the key table
(src/core/run_assembly.h).  This driver collects them and fails unless

  README.md    the pcalsim key table names exactly pcalsim's section.key
               keys, and maps each onto the run key pcalsim stages for it
               (pcalsim names that run key when the value is malformed)
  SWEEP_CLI.md the [grid] table and the [sweep] axis table name exactly
               pcalsweep's [grid] and [sweep] keys

Only the Python interpreter is needed, so it runs on sanitizer builds too.

Usage:
  check_key_docs.py --pcalsim P --pcalsweep S
"""
import argparse
import os
import re
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
NO_KEY = "no_such_key"
BAD = "-1"  # malformed for every value type: count, real, flag, enum, ...


def run(cmd, cwd):
    env = {k: v for k, v in os.environ.items() if not k.startswith("PCAL_")}
    proc = subprocess.run(cmd, cwd=cwd, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE)
    return proc.returncode, proc.stderr.decode(errors="replace")


def valid_list(err, what):
    m = re.search(r"\(valid: ([^)]*)\)", err)
    if not m:
        raise RuntimeError("%s printed no valid-key list:\n%s" % (what, err))
    return m.group(1).split()


def pcalsim_keys(pcalsim, ini, work):
    """{section.key: run key or None}, from pcalsim's own messages."""
    _, err = run([pcalsim, ini, "no_such_section.key=1"], work)
    m = re.search(r"expected (.*)\)", err)
    if not m:
        raise RuntimeError("pcalsim listed no sections:\n" + err)
    sections = re.findall(r"\[([^\]]+)\]", m.group(1))
    keys = {}
    for section in sections:
        probe = section.replace("<k>", "1")
        _, err = run([pcalsim, ini, "%s.%s=1" % (probe, NO_KEY)], work)
        for key in valid_list(err, "pcalsim [%s]" % section):
            code, err = run([pcalsim, ini, "%s.%s=%s" % (probe, key, BAD)],
                            work)
            # The entry's own key is staged last (an unset [l3] key may
            # copy the L1 value first).
            staged = re.findall(r"^  (\S+) = %s: " % re.escape(BAD), err,
                                re.M)
            run_key = staged[-1].replace("core1_", "core<k>_") \
                if code == 1 and staged else None
            keys["%s.%s" % (section, key)] = run_key
    return keys


def pcalsweep_keys(pcalsweep, work):
    spec = os.path.join(work, "probe.sweep")
    with open(spec, "w") as f:
        f.write("[sweep]\nworkload = cjpeg\n")
    out = {}
    for section in ("grid", "sweep"):
        _, err = run([pcalsweep, "--dry-run", spec,
                      "%s.%s=1" % (section, NO_KEY)], work)
        out[section] = set(valid_list(err, "pcalsweep [%s]" % section))
    return out


def table_after(path, heading):
    """Rows (lists of cells) of the first table after `heading`."""
    with open(path) as f:
        lines = f.read().splitlines()
    start = next(i for i, l in enumerate(lines) if l.startswith(heading))
    rows = []
    for line in lines[start + 1:]:
        if line.startswith("|"):
            rows.append([c.strip() for c in line.strip("|").split("|")])
        elif rows:
            break
    return rows[2:]  # drop the header and the |---| rule


def ticked(cell):
    return re.findall(r"`([^`]+)`", cell)


def check_readme(gate, sim):
    rows = table_after(os.path.join(ROOT, "README.md"),
                       "## Running one simulation")
    documented = {}
    for cells in rows:
        names, shared = ticked(cells[0]), ticked(cells[1])
        for i, name in enumerate(names):
            documented[name] = shared[i] if len(shared) == len(names) \
                else shared[0]
    # `l3.<key>` stands for every [l2] key, as `l3_<key>`.
    if "l3.<key>" in documented:
        del documented["l3.<key>"]
        for name, shared in list(documented.items()):
            if name.startswith("l2."):
                documented["l3." + name[3:]] = "l3_" + shared[3:]
    gate.same("README.md pcalsim table", set(documented), set(sim))
    for name, run_key in sorted(sim.items()):
        if run_key is not None and name in documented:
            gate.check(documented[name] == run_key,
                       "README.md: %s stages %s, documented as %s" %
                       (name, run_key, documented[name]))


def check_sweep_cli(gate, sweep):
    path = os.path.join(ROOT, "docs", "SWEEP_CLI.md")
    axes = set()
    for cells in table_after(path, "### `[sweep]` axes"):
        axes.update(ticked(cells[0]))
    gate.same("SWEEP_CLI.md [sweep] table", axes, sweep["sweep"])
    grid = set()
    for cells in table_after(path, "### `[grid]` keys"):
        if cells[0].startswith("any "):  # "any [sweep] axis but ..."
            grid.update(axes - set(ticked(cells[0])))
        else:
            grid.update(ticked(cells[0]))
    gate.same("SWEEP_CLI.md [grid] table", grid, sweep["grid"])


class Gate:
    def __init__(self):
        self.failures = []
        self.checked = 0

    def check(self, ok, detail):
        self.checked += 1
        if not ok:
            self.failures.append(detail)

    def same(self, what, documented, actual):
        self.check(documented == actual,
                   "%s: undocumented %s, not accepted %s" %
                   (what, sorted(actual - documented),
                    sorted(documented - actual)))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--pcalsim", required=True)
    ap.add_argument("--pcalsweep", required=True)
    args = ap.parse_args()
    pcalsim = os.path.abspath(args.pcalsim)
    pcalsweep = os.path.abspath(args.pcalsweep)

    gate = Gate()
    with tempfile.TemporaryDirectory(prefix="pcal_key_docs_") as work:
        ini = os.path.join(work, "example.ini")
        with open(ini, "wb") as f:
            f.write(subprocess.run([pcalsim, "--example"], check=True,
                                   stdout=subprocess.PIPE).stdout)
        sim = pcalsim_keys(pcalsim, ini, work)
        sweep = pcalsweep_keys(pcalsweep, work)
    gate.check(len(sim) >= 60 and len(sweep["sweep"]) >= 70,
               "too few keys collected: %d pcalsim, %d sweep" %
               (len(sim), len(sweep["sweep"])))
    check_readme(gate, sim)
    check_sweep_cli(gate, sweep)

    for f in gate.failures:
        print("FAIL " + f, file=sys.stderr)
    if gate.failures:
        print("%d of %d key-docs checks failed" %
              (len(gate.failures), gate.checked), file=sys.stderr)
        return 1
    print("passed %d key-docs checks (%d pcalsim keys, %d axes)" %
          (gate.checked, len(sim), len(sweep["sweep"])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
