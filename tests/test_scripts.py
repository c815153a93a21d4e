"""Tests of the scripts: each is run as a subprocess, and the classifier of
scripts/fixtures.py is also imported from its path and run in process.

`scripts/fixtures.py --write` is not run: it rewrites the bundled fixtures."""

import hashlib
import importlib.util
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from ghl.fileio import BUNDLED, bundled_path, serialize_report

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          capture_output=True, text=True, env=env, timeout=600)


def test_fixtures_reports_every_bundled_fixture_identical():
    t0 = time.monotonic()
    proc = run_script("fixtures.py")
    elapsed = time.monotonic() - t0
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "".join(f"{name} identical\n" for name in BUNDLED)
    assert elapsed < 10, f"took {elapsed:.1f}s"


def test_fixtures_out_writes_the_bundled_reports(tmp_path):
    proc = run_script("fixtures.py", "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        f"{name}.report.json" for name in BUNDLED)
    for name in BUNDLED:
        expected = bundled_path(name).with_suffix(".expected.json")
        assert (tmp_path / f"{name}.report.json").read_bytes() == expected.read_bytes(), name


def _times_two(report):
    num, den = report["scal"].split(" / ")
    report["scal"] = f"2*{num} / (2*{den})"


@pytest.mark.parametrize("edit, lines, code", [
    (_times_two, ["kodaira scal equal"], 0),
    (lambda r: r.update(scal=f"-({r['scal']})"), ["kodaira scal changed"], 1),
    (lambda r: r.pop("rho1"), ["kodaira rho1 changed"], 1),
    (lambda r: r.update(schema=2), ["kodaira schema changed"], 1),
], ids=["equal", "negated", "missing", "schema"])
def test_fixtures_classifies_each_key(capsys, edit, lines, code):
    """The committed kodaira report against an edited copy of itself."""
    spec = importlib.util.spec_from_file_location("fixtures", ROOT / "scripts" / "fixtures.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    committed = bundled_path("kodaira.expected.json").read_text(encoding="utf-8")
    fixture = json.loads(committed)
    edit(fixture)
    assert tool.diff_fixture("kodaira", committed, serialize_report(fixture)) == code
    assert capsys.readouterr().out.splitlines() == lines


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
    for name in BUNDLED:
        d = reports[f"src/ghl/data/{name}.ghl"]
        want = hashlib.sha256(bundled_path(name).with_suffix(".expected.json").read_bytes())
        assert (d["exit"], d["stdout_sha256"], d["stderr_last"]) == (0, want.hexdigest(), ""), name


def test_line_coverage_lists_the_lines_a_run_skips(tmp_path):
    """On a one-test run that imports geometry and makes one zero test,
    every src/ghl file gets one line, the first statement of
    `_Echelon.kernel`, which it never reaches, is listed, and cli.py, which
    it never imports, is unexecuted throughout."""
    probe = tmp_path / "test_probe.py"
    probe.write_text("from ghl import geometry\n\n\ndef test_probe():\n"
                     "    assert geometry.FractionDomain.is_zero(0)\n", encoding="utf-8")
    proc = run_script("line_coverage.py", str(probe), "-q", "-p", "no:cacheprovider")
    assert proc.returncode == 0, proc.stderr
    lines = {line.split(":")[0]: line for line in proc.stdout.splitlines()
             if line.startswith(("src/", "total:"))}
    assert sorted(lines) == sorted(f"src/ghl/{p.name}" for p in (ROOT / "src" / "ghl")
                                   .glob("*.py")) + ["total"]
    total, executable = map(int, lines["src/ghl/cli.py"].split(": ")[1].split()[::2])
    assert total == executable > 100
    source = (ROOT / "src" / "ghl" / "geometry.py").read_text(encoding="utf-8").splitlines()
    first = next(i for i, text in enumerate(source, 1) if "L = math.lcm(" in text)
    assert f" {first}," in lines["src/ghl/geometry.py"]
