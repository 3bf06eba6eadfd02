#!/usr/bin/env python3
"""Markdown link checker for the repo docs (stdlib only, used by CI).

Scans the given markdown files/directories for inline links and images
(``[text](target)`` / ``![alt](target)``) and one-line reference
definitions (``[label]: target``), and verifies that every *relative*
target exists on disk (anchors are stripped; external schemes are
skipped).  It also
checks every backticked repo path (`src/...`, `tests/...`, `tools/...`,
`examples/...`, `bench/...`, `bindings/...`, `docs/...`,
`pcalbench/...`) against the repo root, so a doc that names a deleted
or moved file fails; a span with a placeholder ({}*<>) is skipped, and
a command span is checked by its first word.  Exits nonzero listing
every broken link and stale path.

Usage: check_markdown_links.py <file-or-dir> [...]
"""
import os
import re
import sys

INLINE = re.compile(r"!?\[[^\]]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")
# A reference definition is one line: neither the label nor the gap after
# the colon may cross a newline, or a wrapped line that starts with "["
# would pair with a "]:" lines below.
REFDEF = re.compile(r"^[ \t]{0,3}\[[^\]\n]+\]:[ \t]+(\S+)", re.MULTILINE)
SKIP_SCHEMES = ("http://", "https://", "mailto:", "ftp://")
CODE_SPAN = re.compile(r"`([^`\n]+)`")
REPO_DIRS = ("src/", "tests/", "tools/", "examples/", "bench/", "bindings/",
             "docs/", "pcalbench/")
PLACEHOLDER = set("{}*<>")
REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def markdown_files(paths):
    for path in paths:
        if os.path.isdir(path):
            for root, _dirs, names in os.walk(path):
                for name in sorted(names):
                    if name.lower().endswith((".md", ".markdown")):
                        yield os.path.join(root, name)
        else:
            yield path


def repo_paths(text):
    """Backticked repo paths in `text`, placeholders skipped."""
    for span in CODE_SPAN.findall(text):
        if not span.startswith(REPO_DIRS) or PLACEHOLDER & set(span):
            continue
        yield span.split()[0]


def check_file(md_path):
    """(target, missing path) for every broken link and stale repo path."""
    broken = []
    with open(md_path, encoding="utf-8") as f:
        text = f.read()
    # Drop fenced code blocks: their bracket syntax is not link syntax.
    text = re.sub(r"```.*?```", "", text, flags=re.DOTALL)
    targets = INLINE.findall(text) + REFDEF.findall(text)
    base = os.path.dirname(md_path)
    for target in targets:
        if target.startswith(SKIP_SCHEMES) or target.startswith("#"):
            continue
        rel = target.split("#", 1)[0]
        if not rel:
            continue
        resolved = os.path.normpath(os.path.join(base, rel))
        if not os.path.exists(resolved):
            broken.append((target, resolved))
    for path in repo_paths(text):
        resolved = os.path.join(REPO_ROOT, path)
        if not os.path.exists(resolved):
            broken.append(("`%s`" % path, resolved))
    return broken


def main(argv):
    if len(argv) < 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    failures = 0
    checked = 0
    for md in markdown_files(argv[1:]):
        checked += 1
        for target, resolved in check_file(md):
            print(f"BROKEN {md}: ({target}) -> missing {resolved}")
            failures += 1
    print(f"checked {checked} markdown file(s), {failures} broken link(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
