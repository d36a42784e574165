"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload box-exact --seed 1 --seconds 40 --trace 0

Run it from the root of a checkout: the program is imported from ``src/``
of the checkout this file sits in, never from an installed copy.  The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; with ``--trace 0`` the metrics are the
end-to-end ones, with ``--trace 1`` the per-layer ones.

A run: set-up (and, measured apart, set-up repeated in fresh interpreters
for ``setup_s``), one untimed warm-up pass over the workload's operations
whose records the independent checkers judge, then timed passes, each in its
own seeded order, until the whole run has used ``--seconds``.  Every record
of every pass must equal the warm-up record.

Times are scaled by a calibration block run between the operations (see
``calibrate``), so that they read in seconds of a machine running at a
fixed speed: the machine this was tuned on speeds up and slows down by a
third in phases of seconds to tens of seconds, and the block slows down
with it.
"""

from __future__ import annotations

import os
import time

START = time.perf_counter()

# one process, one thread: set before numpy is imported, inherited by children
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

import spec

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

#: fresh interpreters that repeat the set-up for ``setup_s``
SETUP_REPEATS = 7
SETUP_PER_GAP = 1
#: timed passes a run makes at least; a traced run makes at least
#: ``MIN_UNTRACED_PASSES`` untraced and ``MIN_TRACED_PASSES`` traced passes
MIN_PASSES = 3
MIN_UNTRACED_PASSES = 1
MIN_TRACED_PASSES = 1
#: wall time of one ``calibrate()`` on the machine the bounds were set on
#: (median over a 150-s loop, 2-vCPU x86-64 VM); scaled times are in its seconds
CALIBRATION_REFERENCE_S = 0.0140


def calibrate() -> float:
    """Wall time of a fixed block of work that never calls ``mmdist``.

    Python loops over dicts and small numpy arrays, like the solvers' inner
    loops.  An operation's time divided by the block's time next to it does
    not move with the machine's speed phases; times multiplied back by
    ``CALIBRATION_REFERENCE_S`` read in seconds of the reference machine.
    """
    t0 = time.perf_counter()
    acc = 0
    table: dict[int, int] = {}
    for i in range(60000):
        table[i & 255] = table.get(i & 255, 0) + i
        acc += (i * 7) % 13
    a = np.arange(36.0).reshape(6, 6)
    for _ in range(1500):
        a = np.minimum(a, a.T + 1.0)
        acc += int(a[0].argmax())
    return time.perf_counter() - t0


def _import_program():
    """Put the checkout's ``src`` first on the path and import ``mmdist``."""
    if not (SRC / "mmdist" / "__init__.py").is_file():
        sys.exit(f"error: no program to benchmark: {SRC / 'mmdist'} is missing")
    sys.path.insert(0, str(SRC))
    import mmdist

    if Path(mmdist.__file__).resolve().parent != (SRC / "mmdist").resolve():
        sys.exit(f"error: imported mmdist from {mmdist.__file__}, not from {SRC}")
    import mmdist.cli  # noqa: F401  (the CLI layer is part of the program)


def _workdir(tag: str) -> Path:
    path = OUT / f"work-{tag}-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    return path


class SetupClock:
    """Interpreter start, import, inputs and files, each in a fresh process.

    The repeats are spread over the run, one between passes, so that one
    slow phase of the machine cannot cover all of them; each is scaled by
    the calibration blocks just before and after it.
    """

    def __init__(self, workload: str, seed: int, enabled: bool):
        self.argv = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
                     "--workload", workload, "--seed", str(seed)]
        self.left = SETUP_REPEATS if enabled else 0
        self.times: list[float] = []  # scaled
        self.wall: list[float] = []

    def sample(self, count: int = SETUP_PER_GAP) -> None:
        for _ in range(min(count, self.left)):
            before = calibrate()
            t0 = time.perf_counter()
            subprocess.run(self.argv, check=True, cwd=ROOT)
            dt = time.perf_counter() - t0
            scale = CALIBRATION_REFERENCE_S / ((before + calibrate()) / 2)
            self.times.append(dt * scale)
            self.wall.append(dt)
            self.left -= 1

    def reserve(self) -> float:
        """Wall seconds the samples still to come will take."""
        return self.left * (statistics.median(self.wall) + 2 * CALIBRATION_REFERENCE_S
                            if self.wall else 0.0)


def _pass(ops, order, times, wall, records, tracer=None) -> float:
    """One pass in ``order``; returns the median calibration time of the pass.

    ``times`` gets each operation's scaled time, ``wall`` its wall time.
    """
    cal = [calibrate()]
    for i in order:
        op = ops[i]
        if tracer is not None:
            tracer.op = int(i)
            tracer.install()
        t0 = time.perf_counter()
        try:
            out = op.run()
        except Exception as exc:  # a failing operation is counted, not fatal
            out = exc
        dt = time.perf_counter() - t0
        if tracer is not None:
            tracer.remove()
        cal.append(calibrate())
        wall[i].append(dt)
        times[i].append(dt * CALIBRATION_REFERENCE_S / ((cal[-2] + cal[-1]) / 2))
        try:
            rec = {"error": repr(out)} if isinstance(out, Exception) else op.record(out)
        except Exception as exc:  # e.g. a CLI call that wrote no report
            rec = {"error": repr(exc)}
        records[i].append(rec)
    return statistics.median(cal)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=tuple(spec.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    _import_program()
    import workloads

    workdir = _workdir("setup" if args.setup_only else args.workload)
    try:
        ops = workloads.build(args.workload, args.seed, workdir)
        if args.setup_only:
            return 0
        clock = SetupClock(args.workload, args.seed, enabled=not args.trace)
        return _report(ops, args, _measure(ops, args, clock))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _check(ops, warm_records, workload: str) -> dict:
    """Judge the warm-up records, run the checker self-test and the reference figures."""
    import selftest
    import workloads

    problems = []
    for op, recs in zip(ops, warm_records):
        rec = recs[0]
        try:
            problems.append([rec["error"]] if "error" in rec else op.check(rec))
        except Exception as exc:  # a checker that cannot judge fails the operation
            problems.append([f"checker raised {exc!r}"])
    self_ok = selftest.run(quiet=True)
    if not self_ok:
        print("checker self-test failed", file=sys.stderr)
    reference = {}
    for metric in ("box_upper_mean", "hlip_lower_mean"):
        if metric != workloads.NATIVE_QUALITY[workload]:
            reference[metric] = workloads.reference_quality(metric)
    return {"problems": problems, "self_ok": self_ok, "reference": reference}


def _measure(ops, args, clock: SetupClock) -> dict:
    n = len(ops)
    deadline = START + args.seconds
    times = [[] for _ in range(n)]
    wall = [[] for _ in range(n)]
    records = [[] for _ in range(n)]
    clock.sample()
    t0 = time.perf_counter()
    _pass(ops, range(n), [[] for _ in range(n)], [[] for _ in range(n)], records)  # warm-up
    pass_wall = [time.perf_counter() - t0]
    # peak memory of set-up and one pass of every operation, before the checkers load scipy
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    checks = _check(ops, records, args.workload)

    def more(done: int, least: int, until: float, slower: float = 1.0) -> bool:
        """Another pass if fewer than ``least`` are done or the next one fits."""
        need = statistics.median(pass_wall) * slower + clock.reserve()
        return done < least or time.perf_counter() + need <= until

    def timed_pass(k: int, t, w, tracer=None) -> float:
        order = np.random.default_rng([args.seed, k]).permutation(n)
        t0 = time.perf_counter()
        cal = _pass(ops, order, t, w, records, tracer)
        pass_wall.append(time.perf_counter() - t0)
        return cal

    passes = 0
    # a traced run spends half its remaining time untraced, to measure the tracing overhead
    if args.trace:
        untraced_until = time.perf_counter() + (deadline - time.perf_counter()) / 2
        least = MIN_UNTRACED_PASSES
    else:
        untraced_until, least = deadline, MIN_PASSES
    while more(passes, least, untraced_until):
        timed_pass(passes, times, wall)
        passes += 1
        clock.sample()
    clock.sample(clock.left)

    traced_times = [[] for _ in range(n)]
    tracers = []
    if args.trace:
        from layers import Tracer

        while more(len(tracers), MIN_TRACED_PASSES, deadline, slower=1.2):
            tracer = Tracer()
            cal = timed_pass(passes, traced_times, [[] for _ in range(n)], tracer)
            tracer.scale = CALIBRATION_REFERENCE_S / cal
            tracers.append(tracer)
            passes += 1
    return {"times": times, "wall": wall, "records": records, "passes": passes,
            "run_s": time.perf_counter() - START, "workload": args.workload, "seed": args.seed,
            "traced_times": traced_times, "tracers": tracers, "peak_rss_mb": peak_rss_mb,
            "setup_times": clock.times, "checks": checks}


def _median_sum(times) -> float:
    """The sum over operations of each one's median time."""
    return float(sum(statistics.median(t) for t in times))


def _report(ops, args, res) -> int:
    import workloads

    records, checks = res["records"], res["checks"]
    attempted = failed = 0
    unexpected = []
    for op, recs, problems in zip(ops, records, checks["problems"]):
        first = recs[0]
        bad = sum(1 for rec in recs if problems or rec != first)
        attempted += len(recs)
        failed += bad
        if bad and op.known_fault is None:
            unexpected.append((op.name, problems or ["output changed between passes"]))
    for name, problems in unexpected:
        print(f"FAILED {name}: {'; '.join(problems)}", file=sys.stderr)
    correct = checks["self_ok"] and not unexpected

    if args.trace:
        metrics = _layer_metrics(res)
    else:
        quality = {"box_upper_mean": [], "hlip_lower_mean": []}
        for op, recs in zip(ops, records):
            if op.quality and "error" not in recs[0]:
                quality[op.quality].append(recs[0]["value"])
        for metric, (ref_ok, values) in checks["reference"].items():
            correct = correct and ref_ok
            quality[metric] = values
        metrics = {
            "setup_s": (statistics.median(res["setup_times"]), "s"),
            "solve_s": (_median_sum(res["times"]), "s"),
            "peak_rss_mb": (res["peak_rss_mb"], "MB"),
            "box_upper_mean": (statistics.fmean(quality["box_upper_mean"]), "distance"),
            "hlip_lower_mean": (statistics.fmean(quality["hlip_lower_mean"]), "distance"),
        }
    w = args.workload
    for name, (value, unit) in metrics.items():
        print(f"{w:14s} {name:40s} {value:14.6g} {unit}")
    print(f"{w:14s} {'solve wall time, unscaled':40s} {_median_sum(res['wall']):14.6g} s")
    print(f"{w:14s} {'run length / timed passes':40s} {res['run_s']:14.6g} s / {res['passes']}")
    print(f"{w:14s} {'operations attempted / failed':40s} {attempted:>14d} / {failed}")
    for op in ops:
        if op.known_fault:
            print(f"{w:14s} known fault kept as failing: {op.name} ({op.known_fault})")
    print(json.dumps({
        "correct": bool(correct),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def _layer_metrics(res) -> dict:
    from layers import SELF_TIME_LAYERS

    tracers = res["tracers"]
    counts = tracers[0].layer_counts()
    for t in tracers[1:]:
        if t.layer_counts() != counts:
            raise RuntimeError("per-layer counts differ between traced passes")
    out = {}
    units = spec.per_layer()
    for name, value in counts.items():
        out[name] = (value, units[name][0])
    for layer in SELF_TIME_LAYERS:
        out[layer + ".self_s"] = (statistics.median(t.self_s.get(layer, 0.0) * t.scale
                                                    for t in tracers), "s")
    out["trace.overhead_ratio"] = (_median_sum(res["traced_times"]) / _median_sum(res["times"]), "ratio")
    OUT.mkdir(parents=True, exist_ok=True)
    with open(OUT / f"trace-{res['workload']}-{res['seed']}.json", "w", encoding="utf-8") as fh:
        json.dump(tracers[0].dump(), fh)
    return {k: out[k] for k in units}


if __name__ == "__main__":
    sys.exit(main())
