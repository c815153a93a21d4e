#!/usr/bin/env python3
"""Digest of the CLI's observable behaviour: one JSON line per call.

Usage: python scripts/cli_digest.py

Runs a fixed list of in-process `ghl.cli.main` calls (every verb on every
bundled and test data file, `check` on the two brackets that fail
validation, `--t` symbolic/rational/-1/0, JSON and text reports, the two
numeric scale probes, t-only, two-axis and pole-row sweeps, and usage
errors, bad input files among them) and prints, per call, its argv, exit
code, the sha256 of its stdout and the last line of its stderr.  `ghl` is imported from
PYTHONPATH, so

    PYTHONPATH=src python3 scripts/cli_digest.py > after.jsonl
    PYTHONPATH=<other checkout>/src python3 scripts/cli_digest.py > before.jsonl

digest two source trees against the same data files, and `diff` of the two
outputs lists every call whose behaviour differs.  The paths in argv are
relative to the repository root, which the script makes its working
directory.  Bump VERSION whenever `calls()` changes, so that digests of
different lists are not compared line by line."""

import hashlib
import io
import json
import os
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from ghl.cli import main as ghl_main

VERSION = 6
ROOT = Path(__file__).resolve().parent.parent

DATA = "src/ghl/data/"
TESTS = "tests/data/"
BUNDLED = ("abelian2", "sphere", "iwasawa", "kodaira", "kodaira-thurston")
TEST_FILES = ("broken-h2", "broken-jacobi", "iwasawa-metric", "kodaira-times-c", "kt-exact",
              "nonunimodular", "non-integer-dimension", "negative-dimension", "zero-divisor")
# a rational point of each algebra file's parameters, for the verbs that
# need constant structure constants
POINT = {"abelian2": "", "sphere": "", "iwasawa": "alpha=1",
         "kodaira": "alpha=2,beta=1,r=1/2,v=5", "kt-exact": "",
         "broken-h2": "", "broken-jacobi": ""}
KT = DATA + "kodaira-thurston.ghl"
KOD = DATA + "kodaira.ghl"
IWA = DATA + "iwasawa.ghl"
# Kodaira-Thurston metric points from 10^-6 to 10^6, on and off the
# almost-Kaehler slice x = 0
KT_POINTS = ("r=1/1000000,sigma=1000000,x=1/2,y=0",
             "r=1/1000,sigma=2/1000,x=1/1000000,y=0",
             "r=1,sigma=2,x=1/3,y=-1/5",
             "r=3/2,sigma=1,x=0,y=1",
             "r=1000,sigma=7,x=5,y=-3",
             "r=1000000,sigma=1000000,x=1,y=1")


def _path(name: str) -> str:
    return (DATA if name in BUNDLED else TESTS) + name + ".ghl"


def calls() -> list[list[str]]:
    out = []
    files = [_path(name) for name in BUNDLED + TEST_FILES]
    for f in files:
        out.append(["validate", f])
        out.append(["report", f])
    for name in BUNDLED:
        out.append(["report", _path(name), "--format", "text"])
        out.append(["check", _path(name), DATA + name + ".expected.json"])
    for name in ("broken-h2", "broken-jacobi"):
        out.append(["check", _path(name), DATA + "abelian2.expected.json"])
    for name in ("iwasawa", "kodaira", "kodaira-thurston", "iwasawa-metric", "kt-exact"):
        for t in ("1/2", "-1", "0"):
            out.append(["report", _path(name), "--t", t])
    out.append(["report", IWA, "--t", "symbolic", "--format", "text"])
    out.append(["report", IWA, "--params", "alpha=2/3", "--t", "-1", "--format", "text"])
    out.append(["report", KOD, "--params", POINT["kodaira"], "--t", "1/2"])
    out.append(["report", KOD, "--params", POINT["kodaira"]])
    for params in KT_POINTS:
        out.append(["report", KT, "--params", params])
    out.append(["report", TESTS + "iwasawa-metric.ghl",
                "--params", "r=2,sigma=1,tau=3,x=1/2,y=1/3", "--t", "0"])
    # the two scale probes
    out.append(["report", KT, "--params", "r=1000000,sigma=10,x=7,y=0"])
    out.append(["validate", KT, "--params", "r=1/100000,sigma=1/100000,x=0,y=0"])
    for name, point in POINT.items():
        out.append(["singer", _path(name), "--params", point])
        out.append(["killing", _path(name), "--params", point])
    out.append(["check", KOD, DATA + "iwasawa.expected.json"])
    out += [
        ["sweep", KOD, "--grid", "t=0:2:5", "--quantity", "scal",
         "--params", "alpha=1,beta=0,r=1,v=1"],
        ["sweep", KOD, "--grid", "t=0:1:2,alpha=1:2:2", "--quantity", "scal",
         "--params", "beta=0,r=1,v=1"],
        ["sweep", KOD, "--grid", "v=0:1:2", "--quantity", "scal",
         "--params", "alpha=1,beta=0,r=1", "--t", "0"],
        ["sweep", KOD, "--grid", "r=-1:1:3,v=0:1:2", "--quantity", "sec_max_basis",
         "--params", "alpha=1,beta=1"],
        ["sweep", IWA, "--grid", "alpha=1:3:3", "--quantity", "scal", "--t", "2"],
        ["sweep", IWA, "--grid", "alpha=0:2:3", "--quantity", "singer_k"],
        ["sweep", IWA, "--grid", "alpha=1:2:2", "--quantity", "sec_max_basis"],
        ["sweep", DATA + "sphere.ghl", "--grid", "t=1:1:1", "--quantity", "sec_max_basis"],
        ["sweep", DATA + "abelian2.ghl", "--grid", "t=0:1:2", "--quantity", "scal"],
        ["sweep", KT, "--grid", "x=0:1/2:3", "--quantity", "scal",
         "--params", "r=1,sigma=1,y=1/4", "--t", "0"],
        ["sweep", KT, "--grid", "t=-1:1:3", "--quantity", "sec_max_basis",
         "--params", "r=2,sigma=1,x=1/2,y=-1/3"],
        ["sweep", KT, "--grid", "x=0:1/2:3,t=0:1:2", "--quantity", "scal",
         "--params", "r=1,sigma=1,y=0"],
        ["sweep", KT, "--grid", "r=1/1000:1000:3", "--quantity", "scal",
         "--params", "sigma=1,x=0,y=0"],
        ["sweep", TESTS + "broken-jacobi.ghl", "--grid", "t=0:1:2", "--quantity", "scal"],
        ["sweep", TESTS + "broken-h2.ghl", "--grid", "t=0:1:2", "--quantity", "singer_k"],
    ]
    # usage errors
    huge = "1" + "0" * 200
    out += [
        ["sweep", KOD, "--grid", "t=0:1:2", "--quantity", "scal"],
        ["singer", KOD, "--params", "alpha=1"],
        ["singer", IWA],
        ["killing", IWA],
        ["singer", KT],
        ["report", KOD, "--t", "1/x"],
        ["sweep", IWA, "--grid", "alpha=1:2:2", "--quantity", "sec_max_basis", "--t", "1/x"],
        ["sweep", IWA, "--grid", "alpha=1:2:2", "--quantity", "singer_k", "--t", "1/x"],
        ["report", KOD, "--t", "1/0"],
        ["sweep", KOD, "--grid", "t=0:1:x", "--quantity", "scal",
         "--params", "alpha=1,beta=0,r=1,v=1"],
        ["sweep", KOD, "--grid", "t=0:1", "--quantity", "scal"],
        ["singer", IWA, "--params", "alpha=1", "--kmax", "0"],
        ["report", KT, "--params", f"r={huge},sigma={huge},x=0,y=0"],
        ["validate", KT, "--tol", "-1"],
        ["validate", KT, "--params", "r=1,sigma=1,x=2,y=0"],
        ["sweep", IWA, "--grid", "alpah=0:2:3", "--quantity", "scal", "--params", "alpha=1"],
        ["singer", IWA, "--params", "alpha=1,beta=7"],
        ["validate", KT, "--params", "r=1,sigma=1,x=0,y=0,z=1"],
        ["singer", IWA, "--params", "alpha=1,alpha=0"],
        ["report", IWA, "--params", "t=1"],
        ["sweep", KOD, "--grid", "t=0:1:2", "--quantity", "scal",
         "--params", "alpha=1,beta=0,r=1,v=1,t=1"],
        ["sweep", KOD, "--grid", "t=0:1:2,t=2:3:2", "--quantity", "scal",
         "--params", "alpha=1,beta=0,r=1,v=1"],
        ["sweep", IWA, "--grid", "alpha=0:2:3", "--quantity", "singer_k",
         "--params", "alpha=1"],
        ["sweep", KOD, "--grid", "alpha=1:2:2", "--quantity", "scal",
         "--params", "beta=1,r=1,v=1", "--t", "symbolic"],
        ["validate", TESTS + "no-such-file.ghl"],
        ["frobnicate", IWA],
    ]
    return out


def digest(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = ghl_main(argv)
    lines = err.getvalue().splitlines()
    return {"v": VERSION, "argv": argv, "exit": code,
            "stdout_sha256": hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest(),
            "stderr_last": lines[-1] if lines else ""}


def main() -> int:
    os.chdir(ROOT)
    for argv in calls():
        print(json.dumps(digest(argv), ensure_ascii=False), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
