#!/usr/bin/env python3
"""End-to-end checks of the pcalsim command line.

pcalsim reads its INI with the strict sectioned reader pcalsweep's specs
use and runs through api::run, pcal.run's path.  These checks pin what a
user sees of that:

  defaults     an INI holding only `[workload] accesses` prints the same
               report as `pcalsim --example` at that length, keys of a
               switched-off [l3] or [multicore] and a valid quantum
               without [multiprogram] programs are inert, and an [l3]
               does not inherit [l2] (its unset keys take their own
               documented defaults)
  strictness   unknown keys and sections, duplicate keys, keys before any
               section, negative numbers, a bad L1 value reported once, the
               removed
               `multiprogram.stride`, a malformed [multiprogram] quantum
               (with or without programs), a [core<k>] without that core
               and a missing INI all fail with an error that says where
  run path     `workload.accesses` caps `trace:` replays (text and .pct),
               and [multiprogram] composes the workload under [multicore]
  docs         every `./build/pcalsim <ini> section.key=value ...` command
               in README.md and docs/*.md runs against `--example` at
               1000 accesses, with a trace written here in place of any
               `trace:` path

Only the Python interpreter is needed (not the pcal module), so it runs
on sanitizer builds too.

Usage:
  check_pcalsim_cli.py --pcalsim P --tracepack T
"""
import argparse
import glob
import os
import shlex
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
TRACE_RECORDS = 30000

# A non-default value for every [l2] key, and every [l3] key at its
# documented default (the L2 default; line, ways and wakeups from L1).
L2_NON_DEFAULT = {
    "size": "32k", "line": "32", "ways": "2", "granularity": "way",
    "banks": "2", "indexing": "probing", "breakeven": "32",
    "policy": "drowsy", "drowsy_window": "16", "hit_latency": "2",
    "miss_latency": "20", "drowsy_wake": "1", "gated_wake": "4",
    "mshrs": "2", "ports": "1", "bandwidth": "8", "inclusion": "inclusive",
}
L3_DEFAULTS = {
    "line": "16", "ways": "1", "granularity": "bank", "banks": "4",
    "indexing": "static", "breakeven": "64", "policy": "gated",
    "drowsy_window": "0", "hit_latency": "0", "miss_latency": "0",
    "drowsy_wake": "0", "gated_wake": "0", "mshrs": "0", "ports": "0",
    "bandwidth": "0", "inclusion": "noninclusive",
}


class Cli:
    def __init__(self, pcalsim, work):
        self.pcalsim = pcalsim
        self.work = work
        self.failures = []
        self.checked = 0

    def run(self, args):
        env = {k: v for k, v in os.environ.items()
               if not k.startswith("PCAL_")}
        proc = subprocess.run([self.pcalsim] + args, cwd=self.work, env=env,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        return (proc.returncode, proc.stdout.decode(errors="replace"),
                proc.stderr.decode(errors="replace"))

    def write(self, name, text):
        path = os.path.join(self.work, name)
        with open(path, "w") as f:
            f.write(text)
        return path

    def check(self, name, ok, detail=""):
        self.checked += 1
        if not ok:
            self.failures.append("%s%s" % (name, ": " + detail if detail
                                           else ""))

    def ok(self, name, args):
        """Runs pcalsim and requires exit 0; returns stdout."""
        code, out, err = self.run(args)
        self.check(name, code == 0, "exit %d\n%s" % (code, err))
        return out

    def rejects(self, name, args, *needles):
        """Requires exit 1 with a `pcalsim:` error naming every needle,
        and no engine check failure (the config must fail up front)."""
        code, out, err = self.run(args)
        missing = [n for n in needles if n not in err]
        self.check(name, code == 1 and err.startswith("pcalsim: ") and
                   not missing and "check failed" not in err and not out,
                   "exit %d, missing %r in stderr:\n%s" % (code, missing,
                                                           err))

    def same(self, name, a, b):
        self.check(name, a == b and a != "",
                   "reports differ" if a != b else "empty report")


def check_defaults(cli, example):
    accesses = cli.write("accesses_only.ini", "[workload]\naccesses = 20000\n")
    cli.same("defaults: [workload] accesses alone == --example",
             cli.ok("defaults-min", [accesses]),
             cli.ok("defaults-example",
                    [example, "workload.accesses=20000"]))

    # Keys of a switched-off section stay accepted and inert.
    cli.same("defaults: [l3] keys at size 0 and [multicore] keys at "
             "cores 0 change nothing",
             cli.ok("inert", [example, "workload.accesses=20000",
                              "l3.banks=8", "l3.policy=drowsy",
                              "multicore.cores=0", "multicore.llc_size=64k",
                              "multicore.llc_ways_per_core=4"]),
             cli.ok("inert-example", [example, "workload.accesses=20000"]))
    cli.same("defaults: a quantum without programs changes nothing",
             cli.ok("inert-quantum", [example, "workload.accesses=20000",
                                      "multiprogram.quantum=5000"]),
             cli.ok("inert-example", [example, "workload.accesses=20000"]))

    base = [example, "workload.accesses=20000"]
    l2 = ["l2.%s=%s" % kv for kv in L2_NON_DEFAULT.items()]
    bare = cli.ok("l3-bare", base + l2 + ["l3.size=128k"])
    spelled = cli.ok("l3-spelled", base + l2 + ["l3.size=128k"] +
                     ["l3.%s=%s" % kv for kv in L3_DEFAULTS.items()])
    cli.same("defaults: an unset [l3] key takes its own default, not [l2]'s",
             bare, spelled)
    cli.check("defaults: the [l3] case runs three levels", "\nL3: " in bare,
              bare)
    inherited = cli.ok("l3-inherited", base + l2 + ["l3.size=128k"] +
                       ["l3.%s=%s" % kv for kv in L2_NON_DEFAULT.items()
                        if kv[0] != "size"])
    cli.check("defaults: inheriting [l2] would change the report",
              inherited != bare)


def check_strictness(cli, example, example_text):
    def appended(name, text):
        return cli.write(name, example_text + text)

    # 1. Unknown keys and sections, duplicates, keys before any section.
    path = appended("typo_key.ini", "\n[partition]\nbnaks = 16\n")
    line = len((example_text + "\n[partition]\n").splitlines()) + 1
    cli.rejects("unknown key in the file", [path],
                "typo_key.ini line %d" % line, "[partition]", "'bnaks'")
    cli.rejects("unknown key override", [example, "partition.bnaks=16"],
                "override 'partition.bnaks=16'", "[partition]", "'bnaks'")
    path = appended("typo_size.ini", "\n[cache]\nsise = 32k\n")
    cli.rejects("unknown [cache] key in the file", [path], "typo_size.ini",
                "[cache]", "'sise'")
    cli.rejects("unknown [cache] key override", [example, "cache.sise=32k"],
                "override 'cache.sise=32k'", "'sise'")
    path = appended("bogus.ini", "\n[bogus]\nsection = 1\n")
    cli.rejects("unknown section in the file", [path], "bogus.ini line",
                "unknown section [bogus]")
    cli.rejects("unknown section override", [example, "bogus.section=1"],
                "override 'bogus.section=1'", "unknown section [bogus]")
    path = cli.write("duplicate.ini",
                     "[cache]\nsize = 8k\nline = 16\nsize = 32k\n")
    cli.rejects("duplicate key in the file", [path],
                "duplicate.ini line 4", "duplicate key 'cache.size'",
                "first defined at line 2")
    path = cli.write("orphan.ini", "accesses = 1000\n[workload]\n")
    cli.rejects("key before any section", [path], "orphan.ini line 1",
                "key before any [section] header")

    # 2. A leading '-' no longer wraps to 2^64 - 1.
    cli.rejects("negative latency override", [example, "latency.miss=-1"],
                "miss_latency = -1", "not a non-negative integer")
    path = cli.write("negative.ini", "[latency]\nmiss = -1\n")
    cli.rejects("negative latency in the file", [path], "miss_latency = -1")
    cli.rejects("negative updates override",
                [example, "partition.updates=-1"], "updates = -1")
    path = cli.write("negative_updates.ini", "[partition]\nupdates = -1\n")
    cli.rejects("negative updates in the file", [path], "updates = -1")
    # A bad L1 value is reported once, against its own key, not again
    # through an [l3] key the INI never set.
    code, _, err = cli.run([example, "cache.line=-1", "l3.size=128k"])
    cli.check("a bad cache.line is one issue", code == 1 and
              "line_size = -1: " in err and "l3_" not in err, err)

    # [multiprogram] stride has no spelling in the shared vocabulary.
    cli.rejects("multiprogram.stride override",
                [example, "multiprogram.programs=sha+cjpeg",
                 "multiprogram.stride=1m"], "'stride'", "[multiprogram]")
    path = cli.write("stride.ini",
                     "[multiprogram]\nprograms = sha+cjpeg\nstride = 1m\n")
    cli.rejects("multiprogram stride in the file", [path], "stride.ini line 3",
                "'stride'")

    # A [multiprogram] quantum is checked whether or not programs are set.
    # (2^54 + 1) k and a count of 77 bits overflow 64 bits.
    for bad in ("-1", "abc", "18014398509481985k",
                "99999999999999999999999"):
        for programs in ([], ["multiprogram.programs=sha+cjpeg"]):
            cli.rejects("multiprogram.quantum=%s override%s"
                        % (bad, " with programs" if programs else ""),
                        [example] + programs +
                        ["multiprogram.quantum=" + bad],
                        "override 'multiprogram.quantum=%s'" % bad,
                        "[multiprogram] quantum", "bad multiprog quantum")
    path = cli.write("quantum.ini", "[multiprogram]\nquantum = abc\n")
    cli.rejects("multiprogram quantum in the file", [path],
                "quantum.ini line 2", "[multiprogram] quantum")

    # A [core<k>] needs a core k.
    cli.rejects("core1 without cores override",
                [example, "core1.workload=sha"], "core1_workload")
    path = cli.write("core1.ini", "[core1]\nworkload = sha\n")
    cli.rejects("core1 without cores in the file", [path], "core1_workload")
    cli.rejects("core2 on a 2-core run",
                [example, "multicore.cores=2", "multicore.llc_size=64k",
                 "core2.workload=sha"], "core2_workload", "2 cores")

    cli.rejects("missing INI", [os.path.join(cli.work, "no_such.ini")],
                "cannot open config file", "no_such.ini")


def check_run_path(cli, example, traces):
    # 3. workload.accesses caps a trace: replay, as in pcalsweep/pcal.run.
    reports = []
    for trace in traces:
        name = os.path.basename(trace)
        path = cli.write("trace_%s.ini" % name.replace(".", "_"),
                         "[workload]\nname = trace:%s\naccesses = 1000\n"
                         % trace)
        from_file = cli.ok("trace file " + name, [path])
        cli.check("accesses caps a %s trace (file)" % name,
                  "\naccesses: 1000," in from_file, from_file)
        from_override = cli.ok("trace override " + name,
                               [example, "workload.name=trace:" + trace,
                                "workload.accesses=1000"])
        cli.check("accesses caps a %s trace (override)" % name,
                  "\naccesses: 1000," in from_override, from_override)
        cli.same("a %s trace replays alike from file and override" % name,
                 from_file, from_override)
        reports.append(from_file.split("\n", 1)[-1])  # title names the file
    cli.same("text and .pct traces replay alike", reports[0], reports[1])

    # 4. [multiprogram] composes the workload under [multicore] too.
    multicore = ["multicore.cores=2", "multicore.llc_size=64k",
                 "workload.accesses=20000"]
    spelled = cli.ok("multiprog workload",
                     [example, "workload.name=multiprog:sha+cjpeg@2000"] +
                     multicore)
    via_section = cli.ok("multiprogram override",
                         [example, "multiprogram.programs=sha,cjpeg",
                          "multiprogram.quantum=2000"] + multicore)
    cli.same("[multiprogram] under [multicore] (override)", spelled,
             via_section)
    cli.check("[multiprogram] reaches every core",
              "rijndael_i" not in via_section and
              via_section.count("multi[sha+cjpeg]") >= 3, via_section)
    path = cli.write("multiprogram.ini",
                     "[workload]\naccesses = 20000\n"
                     "[multiprogram]\nprograms = sha+cjpeg\nquantum = 2000\n"
                     "[multicore]\ncores = 2\nllc_size = 64k\n")
    cli.same("[multiprogram] under [multicore] (file)", spelled,
             cli.ok("multiprogram file", [path]))


def doc_commands():
    """(file, line, argv) of every `./build/pcalsim <ini> ...` command
    in README.md and docs/*.md, backslash continuations joined."""
    found = []
    for doc in [os.path.join(ROOT, "README.md")] + sorted(
            glob.glob(os.path.join(ROOT, "docs", "*.md"))):
        with open(doc) as f:
            lines = f.read().splitlines()
        i = 0
        while i < len(lines):
            start = i
            text = lines[i].strip()
            while text.endswith("\\") and i + 1 < len(lines):
                i += 1
                text = text[:-1] + " " + lines[i].strip()
            i += 1
            if not text.startswith("./build/pcalsim "):
                continue
            argv = []
            for tok in shlex.split(text, comments=True)[1:]:
                if tok[0] in "<>|&;" or tok.startswith("2>"):
                    break
                argv.append(tok)
            if argv and argv[0] != "--example":
                found.append((os.path.relpath(doc, ROOT), start + 1, argv))
    return found


def check_docs(cli, example, traces):
    commands = doc_commands()
    cli.check("docs: pcalsim commands found", len(commands) >= 3,
              "only %d" % len(commands))
    for doc, line, argv in commands:
        args = [example]
        rest = argv[1:]
        while rest:
            tok = rest.pop(0)
            if tok == "--timeline" and rest:
                rest.pop(0)
                args += [tok, os.path.join(cli.work, "doc.timeline.json")]
            elif "=trace:" in tok:
                trace = traces[1] if tok.endswith(".pct") else traces[0]
                args.append(tok.split("=trace:")[0] + "=trace:" + trace)
            else:
                args.append(tok)
        cli.ok("docs: %s:%d %s" % (doc, line, " ".join(argv)),
               args + ["workload.accesses=1000"])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--pcalsim", required=True)
    ap.add_argument("--tracepack", required=True)
    args = ap.parse_args()

    with tempfile.TemporaryDirectory(prefix="pcalsim_cli_") as work:
        cli = Cli(os.path.abspath(args.pcalsim), work)
        example_text = subprocess.run([cli.pcalsim, "--example"], check=True,
                                      stdout=subprocess.PIPE).stdout.decode()
        example = cli.write("example.ini", example_text)
        pct = os.path.join(work, "cjpeg.pct")
        txt = os.path.join(work, "cjpeg.txt")
        tracepack = os.path.abspath(args.tracepack)
        subprocess.run([tracepack, "gen", "cjpeg", str(TRACE_RECORDS), pct],
                       check=True, stdout=subprocess.DEVNULL)
        subprocess.run([tracepack, "unpack", pct, txt], check=True,
                       stdout=subprocess.DEVNULL)
        traces = [txt, pct]

        check_defaults(cli, example)
        check_strictness(cli, example, example_text)
        check_run_path(cli, example, traces)
        check_docs(cli, example, traces)

    for f in cli.failures:
        print("FAIL " + f, file=sys.stderr)
    if cli.failures:
        print("%d of %d pcalsim CLI checks failed" %
              (len(cli.failures), cli.checked), file=sys.stderr)
        return 1
    print("passed %d pcalsim CLI checks" % cli.checked)
    return 0


if __name__ == "__main__":
    sys.exit(main())
