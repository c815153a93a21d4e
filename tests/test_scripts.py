"""Smoke tests of the example scripts, each run as a subprocess.

scripts/regen_fixtures.py is not run: it rewrites the bundled fixtures."""

import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

from ghl.fileio import bundled_path

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          capture_output=True, text=True, env=env, timeout=600)


def test_run_examples_writes_the_bundled_reports(tmp_path):
    proc = run_script("run_examples.py", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    names = ("abelian2", "sphere", "iwasawa", "kodaira", "kodaira-thurston")
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        f"{name}.report.json" for name in names)
    for name in names:
        expected = bundled_path(name).with_suffix(".expected.json")
        assert (tmp_path / f"{name}.report.json").read_bytes() == expected.read_bytes(), name


def test_rescaling_exponent_measures_c_to_minus_two():
    proc = run_script("rescaling_exponent.py")
    assert proc.returncode == 0, proc.stderr
    assert "measured exponent: sec(c.mu) = c^-2 sec(mu)" in proc.stdout.splitlines()


def test_cli_digest_lines_match_the_pinned_reports():
    """One JSON line per call, in under 20 s; the default report of each
    bundled example hashes to its committed expected bytes."""
    t0 = time.monotonic()
    proc = run_script("cli_digest.py")
    elapsed = time.monotonic() - t0
    assert proc.returncode == 0, proc.stderr
    assert elapsed < 20, f"took {elapsed:.1f}s"
    lines = [json.loads(line) for line in proc.stdout.splitlines()]
    assert len({json.dumps(d["argv"]) for d in lines}) == len(lines)
    reports = {d["argv"][1]: d for d in lines
               if len(d["argv"]) == 2 and d["argv"][0] == "report"}
    for name in ("abelian2", "sphere", "iwasawa", "kodaira", "kodaira-thurston"):
        d = reports[f"src/ghl/data/{name}.ghl"]
        want = hashlib.sha256(bundled_path(name).with_suffix(".expected.json").read_bytes())
        assert (d["exit"], d["stdout_sha256"], d["stderr_last"]) == (0, want.hexdigest(), ""), name
