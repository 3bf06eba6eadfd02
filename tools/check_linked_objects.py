#!/usr/bin/env python3
"""Fails when a member of the engine archive is linked by no entry point.

Lists the archive's members with `AR t`, collects every
`<archive>(<member>)` name from the given linker maps (GNU ld and gold
name each member they pull in that way), and fails, naming each member
that no map names.  It also fails when a map names no member at all (a
map format this script cannot read), and when two members share a name
(a map could not tell them apart).

The build writes the maps only when tests are built (build/linkmaps/);
CTest runs this as `linked_objects` over pcalsim, pcalsweep,
pcal-tracepack and, when it is built, the pcal Python module.

Usage:
  check_linked_objects.py --ar AR ARCHIVE MAP [MAP ...]
"""
import argparse
import collections
import os
import re
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--ar", default="ar", help="the archiver (default: ar)")
    ap.add_argument("archive")
    ap.add_argument("maps", nargs="+", metavar="MAP")
    args = ap.parse_args()

    listing = subprocess.run([args.ar, "t", args.archive],
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    if listing.returncode != 0:
        print("FAIL %s t %s: %s" % (args.ar, args.archive,
                                    listing.stderr.decode(errors="replace")),
              file=sys.stderr)
        return 1
    members = listing.stdout.decode().split()
    failures = ["%s: %d members named %s" % (args.archive, n, name)
                for name, n in collections.Counter(members).items() if n > 1]

    entry = re.compile(re.escape(os.path.basename(args.archive)) +
                       r"\(([^()\s]+)\)")
    linked = set()
    for path in args.maps:
        with open(path, errors="replace") as f:
            named = set(entry.findall(f.read()))
        if not named:
            failures.append("%s names no member of %s" % (
                path, os.path.basename(args.archive)))
        linked |= named

    dead = sorted(set(members) - linked)
    failures += ["%s is linked by no entry point" % m for m in dead]
    for f in failures:
        print("FAIL " + f, file=sys.stderr)
    if failures:
        return 1
    print("every one of %d members of %s is linked by one of %d maps" % (
        len(members), os.path.basename(args.archive), len(args.maps)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
