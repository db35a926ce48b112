"""Benchmark of ``coordrig check`` on seeded plane and GF(q) workloads.

    python3 perfbench/run.py --workload plane_k12 --seed 3 --seconds 30 --trace 0

Run from a checkout: the program is imported from ``src/``.  One process,
one thread, closed loop: each seeded instance file is decided in-process
through ``coordrig.cli.main`` and the next call starts when it returns.

A run times five set-ups (generate and write the instances, then a cold
``import coordrig``), makes a few warm-up calls, then runs whole passes
over the instances, at least two, for about ``--seconds``.

Times are in reference seconds (calibrate.py).  The machine is shared and
its speed drifts by up to 1.7x for minutes at a time, so a calibration
sample runs between consecutive calls, and each call's time is divided by
the median of the CAL_WINDOW samples around it.  An instance's check time
is the median of its calls so scaled; each set-up is scaled by samples
taken just before and after it.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes, prints the per-layer metrics with the tracing
overhead, and writes the spans to ``.perfbench/traces/``.  Every run checks
every output (gate.py).  The last stdout line is one JSON object: correct,
attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if not (SRC / "coordrig" / "__init__.py").is_file():
    sys.exit(f"perfbench: {SRC / 'coordrig'} not found; run from a full checkout")
sys.path.insert(0, str(SRC))

import coordrig  # noqa: E402
from coordrig import cli  # noqa: E402
from coordrig.cgraph import serialize  # noqa: E402

import calibrate  # noqa: E402
import gate  # noqa: E402
from instances import FLEXIBLE, NO_RAINBOW_KINDS, RIGID, WORKLOADS, generate  # noqa: E402
from tracing import Tracer  # noqa: E402

SETUP_REPEATS = 5
CAL_WINDOW = 6  # calibration samples around a call: three before, three after
WARMUP_CALLS = 3
MIN_PASSES = 2  # so that every instance is called at least twice
TAIL_BEYOND = 10  # samples above the tail percentile
RETRY_STRIDE = 1_000_003  # seed step between decider attempts

END_TO_END = {
    "setup_s": "s",
    "check_p50_s": "s",
    "check_tail_s": "s",
    "verdicts_per_s": "1/s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "cli.main_s": "s",
    "cli.self_s": "s",
    "cli.stdout_bytes": "bytes",
    "cgraph.parse_s": "s",
    "pebble.self_s": "s",
    "pebble.games": "count",
    "pebble.inserts": "count",
    "pebble.accept_ratio": "ratio",
    "laman.union_s": "s",
    "laman.union_calls": "count",
    "laman.games_per_union": "count",
    "laman.check_self_s": "s",
    "laman.rainbow_pair_s": "s",
    "generic.decide_s.d2": "s",
    "generic.decide_s.d3": "s",
    "generic.tuple_search_s": "s",
    "generic.retries": "count",
    "linalg.elims": "count",
    "linalg.elim_cells": "count",
    "linalg.elim_s": "s",
    "linalg.modmatrix_s": "s",
    "linalg.float_s": "s",
    "linalg.svd_calls": "count",
    "trace_overhead_frac": "ratio",
}


def _cold_import() -> None:
    """``import coordrig`` in a fresh interpreter, waited for."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    subprocess.run([sys.executable, "-c", "import coordrig"], env=env, cwd=ROOT,
                   check=True, timeout=120, stdout=subprocess.DEVNULL)


def setup_instances(workload, seed, tiny, work: Path):
    """Generate and write the instances, then import cold; returns
    (instances, file texts, paths, seconds)."""
    t0 = time.perf_counter()
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    insts = generate(workload, seed, tiny)
    texts, paths = [], []
    for inst in insts:
        text = serialize(inst.graph()) + "\n"
        path = work / f"{inst.ident}.json"
        path.write_text(text)
        texts.append(text)
        paths.append(str(path))
    _cold_import()
    return insts, texts, paths, time.perf_counter() - t0


def call_check(argv):
    """One ``coordrig check``; returns (exit code or None, stdout, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            rc = cli.main(argv)
        except Exception:  # a crash is a failed instance, not a failed run
            rc = None
            err.write(traceback.format_exc())
        dt = time.perf_counter() - t0
    if rc not in (0, 1):
        sys.stderr.write(f"perfbench: {' '.join(argv)} -> {rc}\n{err.getvalue()}")
    return rc, out.getvalue(), dt


def timed_setup(workload, seed, tiny, work: Path):
    """``setup_instances`` with its time in reference seconds."""
    before = calibrate.speed_now()
    insts, texts, paths, dt = setup_instances(workload, seed, tiny, work)
    cal = statistics.median([before, calibrate.speed_now()])
    return insts, texts, paths, dt / cal * calibrate.REFERENCE_S


class Loop:
    """Whole passes over the instances.  The first pass's exit codes and
    stdout bytes are kept; every later call must repeat them exactly.
    ``scaled`` holds each instance's calls of the untraced passes in
    reference seconds."""

    def __init__(self, idents, argvs):
        self.idents, self.argvs = idents, argvs
        self.first = [None] * len(argvs)
        self.failures = [[] for _ in argvs]
        self.scaled = [[] for _ in argvs]
        self.passes = self.calls = 0

    def run_pass(self, tracer=None) -> float:
        """One pass; returns the seconds spent in ``check`` calls.  Untraced
        passes take calibration samples and keep the scaled times."""
        gc.collect()
        cal = [] if tracer is not None else [calibrate.sample()]
        raw = []
        for i, argv in enumerate(self.argvs):
            if tracer is not None:
                tracer.instance = f"{self.passes}:{self.idents[i]}"
            rc, out, dt = call_check(argv)
            raw.append(dt)
            if tracer is None:
                cal.append(calibrate.sample())  # cal[i] before call i, cal[i + 1] after
            if self.first[i] is None:
                self.first[i] = (rc, out)
            elif (rc, out) != self.first[i] and not self.failures[i]:
                self.failures[i].append("stdout differs across repeats")
        half = CAL_WINDOW // 2
        for i, dt in enumerate(raw if cal else ()):
            lo = max(0, min(i + 1 - half, len(cal) - CAL_WINDOW))
            around = statistics.median(cal[lo:lo + CAL_WINDOW])
            self.scaled[i].append(dt / around * calibrate.REFERENCE_S)
        self.passes += 1
        self.calls += len(self.argvs)
        return sum(raw)

    def check_times(self) -> list[float]:
        """Each instance's median scaled call."""
        return [statistics.median(calls) for calls in self.scaled]


def quantile(values, p: float, steps: int = 64) -> float:
    """Harrell-Davis estimate of the p-quantile: a Beta(p(n+1), (1-p)(n+1))
    weighted mean of the order statistics.  It varies less from sample to
    sample than a single order statistic, which matters here because each
    seed draws other graphs."""
    ordered = sorted(values)
    n = len(ordered)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_norm = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    weights = []
    for i in range(n):  # the Beta mass on [i/n, (i+1)/n], midpoint rule
        mass = 0.0
        for j in range(steps):
            t = (i + (j + 0.5) / steps) / n
            mass += math.exp((a - 1) * math.log(t) + (b - 1) * math.log1p(-t) - log_norm)
        weights.append(mass)
    return sum(w * x for w, x in zip(weights, ordered)) / sum(weights)


def _tail(times):
    """Highest percentile with TAIL_BEYOND samples above it: (value, pct)."""
    if len(times) <= TAIL_BEYOND:
        return max(times), 100.0
    pct = (len(times) - 1 - TAIL_BEYOND) / (len(times) - 1)
    return quantile(times, pct), 100.0 * pct


def _layer_snapshot(tracer, outputs, insts, seed) -> dict:
    counts, selfs, groups = tracer.counts, tracer.self_s, tracer.group_s
    inserts = counts["pebble.try_insert"]
    unions = counts["laman.union_rank_d2"]
    retries = 0
    for inst, (rc, out) in zip(insts, outputs):
        if inst.method == "numeric" and rc in (0, 1):
            retries += (json.loads(out)["seed"] - seed) // RETRY_STRIDE
    return {
        "cli.main_s": groups["cli.main_s"],
        "cli.self_s": selfs["cli"],
        "cli.stdout_bytes": sum(len(out.encode()) for _, out in outputs),
        "cgraph.parse_s": groups["cgraph.parse_s"],
        "pebble.self_s": selfs["pebble"],
        "pebble.games": counts["pebble.PebbleGame"],
        "pebble.inserts": inserts,
        "pebble.accept_ratio": counts["pebble.accepted"] / inserts if inserts else 0.0,
        "laman.union_s": groups["laman.union_s"],
        "laman.union_calls": unions,
        "laman.games_per_union": counts["laman.union_games"] / unions if unions else 0.0,
        "laman.check_self_s": selfs["laman.check"],
        "laman.rainbow_pair_s": groups["laman.rainbow_pair_s"],
        "generic.decide_s.d2": groups["generic.decide_s.d2"],
        "generic.decide_s.d3": groups["generic.decide_s.d3"],
        "generic.tuple_search_s": groups["generic.tuple_search_s"],
        "generic.retries": retries,
        "linalg.elims": counts["linalg.modular_rank_rows"] + counts["linalg.modular_nullspace"],
        "linalg.elim_cells": counts["linalg.elim_cells"],
        "linalg.elim_s": groups["linalg.elim_s"],
        "linalg.modmatrix_s": groups["linalg.modmatrix_s"],
        "linalg.float_s": groups["linalg.float_s"],
        "linalg.svd_calls": counts["linalg.svd"],
    }


def measure(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    """Set up, warm up, measure and check one workload; returns the result
    object plus a ``notes`` dict of details for the report."""
    work = ROOT / ".perfbench" / f"work-{workload}-{seed}-{os.getpid()}"
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            insts, texts, paths, dt = timed_setup(workload, seed, tiny, work)
            setups.append(dt)
        argvs = [inst.argv(path, seed) for inst, path in zip(insts, paths)]
        idents = [inst.ident for inst in insts]
        for argv in argvs[:WARMUP_CALLS]:  # lazy set-up inside the program
            call_check(argv)
        loop = Loop(idents, argvs)
        notes = {"instances": len(insts)}
        if trace:
            metrics = _traced(loop, insts, seed, seconds, notes)
            traces = ROOT / ".perfbench" / "traces"
            traces.mkdir(parents=True, exist_ok=True)
            notes["span_file"] = str(traces / f"{workload}-s{seed}.jsonl")
            metrics.pop("_tracer").write_spans(notes["span_file"])
        else:
            metrics = _timed(loop, seconds, notes)
            metrics["setup_s"] = statistics.median(setups)
            metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        shutil.rmtree(work, ignore_errors=True)

    # correctness gate, outside every timed region
    failures = loop.failures
    first = loop.first
    for i, (inst, (rc, out)) in enumerate(zip(insts, first)):
        failures[i] += gate.check(inst, rc, out, seed)
    stored = None if tiny else gate.load_reference(workload, seed)
    if stored is not None:
        entries = gate.reference_entries(texts, [out for _, out in first])
        for i, why in enumerate(gate.check_reference(stored, entries)):
            failures[i] += why
    notes["reference"] = "checked" if stored is not None else "no entry"
    notes["rigid_share"] = sum(inst.decision == RIGID for inst in insts) / len(insts)
    notes["flexible_share"] = sum(inst.decision == FLEXIBLE for inst in insts) / len(insts)
    notes["no_rainbow_share"] = sum(inst.kind in NO_RAINBOW_KINDS for inst in insts) / len(insts)
    failed = sum(1 for f in failures if f)
    notes["failed_frac"] = failed / len(insts)
    notes["failures"] = {idents[i]: f for i, f in enumerate(failures) if f}
    units = PER_LAYER if trace else END_TO_END
    return {
        "correct": failed == 0,
        "attempted": len(insts),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
        "notes": notes,
    }


def _timed(loop: Loop, seconds: float, notes: dict) -> dict:
    """Passes until one more would end over half a pass after ``seconds``."""
    start = now = time.perf_counter()
    while True:
        before = now
        loop.run_pass()
        now = time.perf_counter()
        if loop.passes >= MIN_PASSES and now - start + (now - before) / 2 >= seconds:
            break
    times = loop.check_times()
    tail, pct = _tail(times)
    notes.update(passes=loop.passes, calls=loop.calls, tail_percentile=round(pct, 2),
                 timed_wall_s=time.perf_counter() - start)
    return {
        "check_p50_s": quantile(times, 0.5),
        "check_tail_s": tail,
        "verdicts_per_s": len(times) / sum(times),
    }


def _traced(loop: Loop, insts, seed, seconds: float, notes: dict) -> dict:
    tracer = Tracer()
    plain, traced, snaps = [], [], []
    start = time.perf_counter()
    while not snaps or time.perf_counter() - start < seconds:
        plain.append(loop.run_pass())
        tracer.reset_totals()
        tracer.install()
        try:
            traced.append(loop.run_pass(tracer=tracer))
        finally:
            tracer.uninstall()
        snaps.append(_layer_snapshot(tracer, loop.first, insts, seed))
    metrics = {name: statistics.median_low(s[name] for s in snaps) for name in snaps[0]}
    metrics["trace_overhead_frac"] = min(traced) / min(plain) - 1
    metrics["_tracer"] = tracer
    notes.update(traced_passes=len(traced), span_count=len(tracer.spans))
    return metrics


def _report(result: dict, workload: str, seed: int) -> None:
    notes = result["notes"]
    print(f"workload {workload}  seed {seed}  coordrig {coordrig.__version__}")
    for key, value in notes.items():
        if key != "failures":
            print(f"  {key}: {value}")
    for ident, why in notes["failures"].items():
        print(f"  FAILED {ident}: {'; '.join(why)}")
    for name, m in result["metrics"].items():
        print(f"  {name:24s} {m['value']:.6g} {m['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="a few small instances, for testing the benchmark itself")
    args = parser.parse_args(argv)
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.tiny)
    _report(result, args.workload, args.seed)
    result.pop("notes")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
