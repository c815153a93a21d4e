#!/usr/bin/env python3
"""Compare a fresh report of every bundled example with its fixture.

Usage: python scripts/fixtures.py [--write] [--out DIR]

For each name in `ghl.fileio.BUNDLED` the report is built anew and compared
with `<name>.expected.json`.  A fixture whose bytes match prints
`<name> identical`; otherwise each top-level key whose JSON differs prints
`<name> <key> <status>`:

    equal    `compare_reports` (the semantic test of `ghl check`) finds no
             mismatch under the key: the value holds, its text moved;
    changed  otherwise, a key missing on one side included.

Exit 1 on any `changed`, else 0.  `--write` then rewrites the fixtures with
the fresh reports; `--out DIR` writes them to `DIR/<name>.report.json`."""

import argparse
import json
import re
import sys
from pathlib import Path

from ghl.fileio import (BUNDLED, GhlFormatError, build_report, bundled_path,
                        compare_reports, load_ghl, serialize_report)


def classify(fresh: dict, fixture: dict) -> dict:
    """{key: 'equal' | 'changed'} for each top-level key whose JSON differs."""
    new, old = ({k: json.dumps(v, sort_keys=True) for k, v in d.items()} for d in (fresh, fixture))
    keys = sorted(k for k in new.keys() | old.keys() if new.get(k) != old.get(k))
    try:
        mismatches = compare_reports(fresh, fixture)
    except GhlFormatError:      # another schema: nothing compares
        mismatches = [f"/{k}" for k in keys]
    # a mismatch path is /key, /key/..., /key[i]... or "/key (why)"
    changed = {re.match(r"/([^/\[ ]*)", path).group(1) for path in mismatches}
    return {k: "changed" if k in changed else "equal" for k in keys}


def diff_fixture(name: str, fresh: str, fixture: str) -> int:
    """Print the lines of one fixture; 1 if a key changed, else 0."""
    if fresh == fixture:
        print(f"{name} identical")
        return 0
    statuses = classify(json.loads(fresh), json.loads(fixture))
    for key, status in statuses.items():
        print(f"{name} {key} {status}")
    return int("changed" in statuses.values())


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--write", action="store_true", help="rewrite the fixtures")
    ap.add_argument("--out", type=Path, metavar="DIR", help="write DIR/<name>.report.json")
    args = ap.parse_args(argv)
    code = 0
    for name in BUNDLED:
        fresh = serialize_report(build_report(load_ghl(bundled_path(name))))
        path = bundled_path(f"{name}.expected.json")
        code |= diff_fixture(name, fresh, path.read_text(encoding="utf-8") if path.exists() else "{}")
        if args.write:
            path.write_text(fresh, encoding="utf-8")
        if args.out:
            args.out.mkdir(parents=True, exist_ok=True)
            (args.out / f"{name}.report.json").write_text(fresh, encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main())
