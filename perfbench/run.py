#!/usr/bin/env python3
"""Layered benchmark of the ghl engine.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the engine is imported from its
`src/`.  One workload runs per process, as a closed loop with one client: the
fixed batch of operations that `workloads.py` builds from the seed runs pass
after pass until S seconds are used.  The first pass always completes; after
it, an operation whose last time would take it past S is not started.  Every
output is checked against an independent oracle
outside the timed region.

--trace 0 prints the end-to-end metrics: setup_s, wall_ref and peak_rss_mb.
setup_s is the median of several set-ups (generate, write, load and validate
the inputs) in seconds of a nominal machine on which the reference work below
takes REF_NOMINAL_S; the raw seconds are printed as setup_raw_s.
wall_ref is the median time of one complete pass, summed over its operations,
each operation's time divided by the time of a fixed pure-Python reference
computation (`reference_work`, no ghl code) taken from a timer signal every
REF_EVERY seconds while that operation ran.  On a shared machine whose speed
drifts by tens of percent within seconds, this ratio is steady where the raw
seconds are not; the raw pass time is printed as wall_s.  --trace 1 runs one
untraced and one traced pass and prints the per-layer metrics: self time and
call counts of the wrapped functions, output sizes, the scalar microbench and
trace.overhead_ratio (traced / untraced pass time).

Per-verb latencies (median and, with at least 100 samples, p90, each with its
sample count), wall_s, failed_ratio, failures and run metadata are printed on
the line before the result; the result is the last line of stdout.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import json
import os
import platform
import random
import resource
import shutil
import signal
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUPS = 7
REF_NOMINAL_S = 0.005   # reference time of the nominal machine setup_s is given for
REF_EVERY = 0.15    # seconds between timings of the reference work
REF_WINDOW = 0.3    # an operation is scaled by the references this close to it


def reference_work():
    """Fixed pure-Python work that shares no code with ghl: products of
    dict-of-Fraction polynomials, the engine's kind of arithmetic.  Its time,
    taken every REF_EVERY seconds, tracks how fast this machine runs right now."""
    a = {(i, 7 - i): Fraction(i + 1, 3) for i in range(8)}
    b = {(i, i % 3): Fraction(2, i + 5) for i in range(8)}
    for _ in range(16):
        c = {}
        for ea, ca in a.items():
            for eb, cb in b.items():
                k = (ea[0] + eb[0], ea[1] + eb[1])
                c[k] = c.get(k, 0) + ca * cb
        a = dict(list(c.items())[:8])
    return a


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_engine():
    """Import ghl from this checkout's src/, refusing any other copy."""
    src = ROOT / "src"
    if not (src / "ghl" / "__init__.py").is_file():
        raise SystemExit(f"error: no engine source at {src / 'ghl'}; run from a source checkout")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import ghl
    if src.resolve() not in Path(ghl.__file__).resolve().parents:
        raise SystemExit(f"error: imported ghl from {ghl.__file__}, not from {src}")


class Run:
    """Samples and failures of one benchmark process."""

    def __init__(self):
        self.samples = []       # (verb, label, seconds, start)
        self.refs = []          # (start, seconds) of the reference work
        self.ref_spent = 0.0    # time the reference took, kept out of the samples
        self.failures = []
        self.attempted = 0
        self.failed = 0
        self.outputs = {}       # report label -> stdout, for the trace comparison

    def time_reference(self, *_signal) -> None:
        start = time.perf_counter()
        enabled = gc.isenabled()
        gc.disable()    # so the reference does not depend on the engine's heap
        try:
            t0 = time.perf_counter()
            reference_work()
            self.refs.append((t0, time.perf_counter() - t0))
        finally:
            if enabled:
                gc.enable()
            self.ref_spent += time.perf_counter() - start

    def start_reference(self) -> None:
        """Time reference_work() every REF_EVERY seconds, also in the middle
        of an operation, from a SIGALRM handler (no threads)."""
        signal.signal(signal.SIGALRM, self.time_reference)
        signal.setitimer(signal.ITIMER_REAL, REF_EVERY, REF_EVERY)

    def stop_reference(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scaled(self, first: int, last: int) -> float:
        """Samples first..last-1 summed, each in units of the median reference
        time within REF_WINDOW of it, which factors out how fast the machine
        ran while the operation did."""
        starts = [t for t, _ in self.refs]
        total = 0.0
        for _, _, dt, t0 in self.samples[first:last]:
            lo = bisect.bisect_left(starts, t0 - REF_WINDOW)
            hi = bisect.bisect_right(starts, t0 + dt + REF_WINDOW)
            total += dt / statistics.median(d for _, d in self.refs[lo:hi])
        return total

    def do(self, op, index: int, tracer=None) -> float:
        if tracer is not None:
            tracer.op_id = index
        self.attempted += 1
        spent = self.ref_spent
        t0 = time.perf_counter()
        try:
            res = op.run()
        except Exception as exc:   # an engine failure is a result, never an abort
            dt = time.perf_counter() - t0 - (self.ref_spent - spent)
            self.samples.append((op.verb, op.label, dt, t0))
            self.failures.append(f"{op.verb} {op.label}: raised {type(exc).__name__}: {exc}")
            self.failed += 1
            return dt
        dt = time.perf_counter() - t0 - (self.ref_spent - spent)
        self.samples.append((op.verb, op.label, dt, t0))
        try:
            reasons = op.check(res)
        except Exception as exc:
            reasons = [f"output check raised {type(exc).__name__}: {exc}"]
        if op.verb == "report" and isinstance(res, tuple):
            if tracer is None:
                self.outputs[op.label] = res[1]
            elif self.outputs.get(op.label, res[1]) != res[1]:
                reasons.append("report bytes differ with tracing on")
        self.failures += [f"{op.verb} {op.label}: {r}" for r in reasons]
        self.failed += bool(reasons)
        return dt

    def one_pass(self, ops, tracer=None) -> float:
        return sum(self.do(op, i, tracer) for i, op in enumerate(ops))


def setup(workload: str, seed: int, workdir: Path, run: Run):
    """Generate, write, load and validate the inputs SETUPS times, with the
    reference work timed in between; returns the last batch of operations,
    the set-up times and the reference times."""
    import workloads
    build = workloads.WORKLOADS[workload]
    times, ops, inputs = [], None, None
    run.start_reference()
    try:
        for _ in range(SETUPS):
            shutil.rmtree(workdir, ignore_errors=True)
            workdir.mkdir(parents=True)
            for _ in range(2):
                run.time_reference()
            spent = run.ref_spent
            t0 = time.perf_counter()
            rng = random.Random(f"{workload}:{seed}")
            inputs = workloads.Inputs(ROOT, workdir)
            ops = build(rng, inputs)
            times.append(time.perf_counter() - t0 - (run.ref_spent - spent))
    finally:
        run.stop_reference()
    refs = [d for _, d in run.refs]
    run.refs.clear()
    return ops, times, refs, rng, inputs


def measure(ops, seconds: float, run: Run) -> list:
    """Closed loop over the batch until `seconds` are used; returns the
    complete passes as (first sample, end sample) index pairs."""
    passes = []
    last = {}           # op index -> its latest time, to not start what would overrun
    deadline = time.perf_counter() + seconds
    run.start_reference()
    try:
        while True:
            first, complete = len(run.samples), True
            for i, op in enumerate(ops):
                if passes and time.perf_counter() + last.get(i, 0.0) >= deadline:
                    complete = False
                    break
                last[i] = run.do(op, i)
            if complete:
                passes.append((first, len(run.samples)))
            if not complete or time.perf_counter() >= deadline:
                return passes
    finally:
        run.stop_reference()


def latencies(samples) -> dict:
    out = {}
    import workloads
    for verb in workloads.VERBS:
        xs = sorted(s[2] for s in samples if s[0] == verb)
        if not xs:
            continue
        entry = {"p50_s": statistics.median(xs), "n": len(xs)}
        if len(xs) >= 100:
            entry["p90_s"] = statistics.quantiles(xs, n=10)[-1]
        out[verb] = entry
    return out


def src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((ROOT / "src" / "ghl").glob("*.py")))


def main(argv=None) -> int:
    args = parse_args(argv)
    import_engine()
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workdir = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        return bench(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def bench(args, workdir: Path) -> int:
    import workloads
    run = Run()
    ops, setup_times, setup_refs, rng, inputs = setup(args.workload, args.seed, workdir, run)
    setup_s = statistics.median(setup_times) * REF_NOMINAL_S / statistics.median(setup_refs)
    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "setup_raw_s": {"median": statistics.median(setup_times), "n": len(setup_times),
                              "samples": setup_times},
              "setup_reference_s": {"median": statistics.median(setup_refs),
                                    "n": len(setup_refs)}}
    if args.trace:
        import micro
        import tracer as tracing
        untraced = run.one_pass(ops)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = run.one_pass(ops, tracer)
        finally:
            tracer.uninstall()
        metrics = tracer.metrics()
        for name, value in micro.run(random.Random(f"micro:{args.seed}")).items():
            metrics[name] = (value, "1/s")
        metrics["trace.overhead_ratio"] = (traced / untraced, "ratio")
        detail["absent"] = tracer.absent
        spans = ROOT / ".bench_work" / f"spans-{args.workload}-{args.seed}.jsonl"
        tracer.write(spans)
        detail["spans_file"] = str(spans.relative_to(ROOT))
        detail["pass_s"] = {"untraced": untraced, "traced": traced}
    else:
        passes = measure(ops, args.seconds, run)
        wall = [sum(s[2] for s in run.samples[a:b]) for a, b in passes]
        wall_ref = [run.scaled(a, b) for a, b in passes]
        metrics = {
            "setup_s": (setup_s, "s"),
            "wall_ref": (statistics.median(wall_ref), "ref"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        detail["wall_s"] = {"median": statistics.median(wall), "n": len(wall), "samples": wall}
        detail["wall_ref"] = {"median": statistics.median(wall_ref), "n": len(wall_ref),
                              "samples": wall_ref}
        detail["reference_s"] = {"median": statistics.median(d for _, d in run.refs),
                                 "n": len(run.refs), "samples": run.refs}
    if args.workload == "frame-numeric":
        detail["known_defect_5b"] = workloads.scale_probe(rng, inputs)
    detail.update({
        "latency": latencies(run.samples),
        "attempted": run.attempted,
        "failed_ratio": run.failed / run.attempted,
        "failures": run.failures,
        "meta": {"python": platform.python_version(), "nproc": os.cpu_count(),
                 "src_ghl_lines": src_lines(), "seconds": args.seconds},
        "op_samples": run.samples,
    })
    print_table(detail, metrics)
    print(json.dumps(detail))
    print(json.dumps({
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def print_table(detail: dict, metrics: dict) -> None:
    print(f"# {detail['workload']} seed={detail['seed']} trace={detail['trace']} "
          f"attempted={detail['attempted']} failed_ratio={detail['failed_ratio']:.4f}")
    for name, (value, unit) in metrics.items():
        print(f"{name:48s} {value:14.6g} {unit}")
    if "wall_s" in detail:
        w = detail["wall_s"]
        print(f"{'wall_s':48s} {w['median']:14.6g} s  (n={w['n']} passes)")
    for verb, e in detail["latency"].items():
        line = f"{verb + '_p50_s':48s} {e['p50_s']:14.6g} s  (n={e['n']})"
        if "p90_s" in e:
            line += f"\n{verb + '_p90_s':48s} {e['p90_s']:14.6g} s  (n={e['n']})"
        print(line)
    for f in detail["failures"]:
        print(f"FAILED {f}")
    for f in detail.get("known_defect_5b", []):
        print(f"known defect (ROADMAP 5b) {f}")


if __name__ == "__main__":
    sys.exit(main())
