"""Self-test of the benchmark's checkers: corrupted results must be rejected.

    python3 perfbench/selftest.py

Each case hands a checker a result built by hand from the definitions,
confirms that the correct result passes, then corrupts it (a wrong value, a
certificate with a dropped cell, a coupling with broken marginals, a wrong
bijection, witness or CLI report) and confirms that the checker rejects it.
Every run of the benchmark repeats this before it reports ``correct``.
"""

from __future__ import annotations

import copy
import sys
import tempfile
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent


def _cases(workdir: Path):
    """Yield ``(name, check, good record, [(corruption, bad record), ...])``."""
    import mmdist as md
    import workloads as wl

    # two 2-point spaces at distances 1 and 2: box is 1 at lambda 0, 1/2 at lambda 1
    X = md.mm_space([0.5, 0.5], [[0, 1], [1, 0]])
    Y = md.mm_space([0.5, 0.5], [[0, 2], [2, 0]])
    for lam, value, cells, pi in (
        (0.0, 1.0, [[0, 0], [1, 1]], [[0.5, 0.0], [0.0, 0.5]]),
        (1.0, 0.5, [[0, 0]], [[0.5, 0.0], [0.0, 0.5]]),
    ):
        good = {"value": value, "pair_value": value, "mass_gap": 0.0, "cells": cells,
                "retained_mass": float(sum(pi[i][j] for i, j in cells)), "coupling": pi}
        bad_value = dict(good, value=value / 2, pair_value=value / 2)
        dropped = dict(good, cells=cells[1:] or [], retained_mass=0.5 if len(cells) > 1 else 0.0)
        broken = dict(good, coupling=[[0.5, 0.1], [0.0, 0.5]])
        high = dict(good, value=value + 0.25, pair_value=value + 0.25)
        check = wl._box_op("box", X, Y, lam).check
        yield f"exact box lam={lam:g}", check, good, [
            ("value too low", bad_value), ("value too high", high),
            ("dropped cell", dropped), ("broken marginals", broken)]
        check = wl._box_op("heuristic", X, Y, lam, "heuristic").check
        yield f"heuristic box lam={lam:g}", check, good, [
            ("value below exact", bad_value), ("dropped cell", dropped), ("broken marginals", broken)]

    w = [0.25, 0.25, 0.5]
    d1 = [[0, 1, 1.5], [1, 0, 1], [1.5, 1, 0]]
    d2 = [[0, 1.5, 1.5], [1.5, 0, 1], [1.5, 1, 0]]
    op = wl._hli_exact0_op("hli exact0", w, d1, d2)
    yield "hli exact0", op.check, {"value": 0.25, "tag": "exact"}, [
        ("wrong value", {"value": 0.3, "tag": "exact"})]
    op = wl._hli_sampled_op("hli sampled", w, d1, d2)
    yield "hli sampled", op.check, {"value": 0.2, "tag": "lower-bound"}, [
        ("above exact0", {"value": 0.3, "tag": "lower-bound"}),
        ("wrong tag", {"value": 0.2, "tag": "exact"})]

    d = np.array(d1, float)
    op = wl._prokhorov_op("prokhorov", d, np.array([0.5, 0.5, 0.0]), np.array([0.0, 0.5, 0.5]))
    yield "prokhorov", op.check, {"value": 0.5}, [("wrong value", {"value": 0.4})]

    A = md.mm_space([0.25, 0.25, 0.5], d1)
    B = md.mm_space([0.5, 0.25, 0.25], [[0, 1, 1.5], [1, 0, 1], [1.5, 1, 0]])
    good = {"verdict": "indistinguishable-up-to-R", "distinguishing_r": None,
            "bijection": [2, 1, 0], "agreement": True}
    check = wl._recon_op("iso", A, B, True).check
    yield "reconstruction", check, good, [
        ("wrong bijection", dict(good, bijection=[0, 1, 2])),
        ("wrong verdict", dict(good, verdict="distinguished", bijection=None))]

    # witness from a space to itself: identity map, nothing dropped, eps 0
    good = {"eps": 0.0, "p": [0, 1, 2], "subset": [0, 1, 2], "box1_upper_bound": 0.0}
    check = wl._witness_check(A, A)
    yield "witness", check, good, [
        ("wrong eps", dict(good, eps=0.1)),
        ("dropped point", dict(good, subset=[0, 1])),
        ("box bound below box", dict(good, p=[0, 1, 2], eps=0.0, box1_upper_bound=-0.1))]

    op = wl._cli_isotest_op(workdir, A, B)
    report = {"agreement": True, "bijection": [2, 1, 0], "distinguishing_r": None,
              "r_max": 3, "verdict": "indistinguishable-up-to-R"}
    good = {"code": 0, "report": {"result": report}}
    yield "cli isotest", op.check, good, [
        ("exit code", dict(good, code=3)),
        ("report differs from library", {"code": 0, "report": {"result": dict(report, r_max=2)}})]


def run(quiet: bool = False) -> bool:
    """True when every good record passes and every corrupted one fails."""
    ok = True
    (HERE / "out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=HERE / "out") as tmp:
        for name, check, good, bad in _cases(Path(tmp)):
            problems = check(copy.deepcopy(good))
            if problems:
                ok = False
                print(f"selftest {name}: the correct result was rejected: {problems}", file=sys.stderr)
            elif not quiet:
                print(f"selftest {name}: correct result accepted")
            for what, rec in bad:
                problems = check(copy.deepcopy(rec))
                if not problems:
                    ok = False
                    print(f"selftest {name}: corruption '{what}' was accepted", file=sys.stderr)
                elif not quiet:
                    print(f"selftest {name}: '{what}' rejected ({problems[0]})")
    return ok


if __name__ == "__main__":
    import run as runner

    runner._import_program()
    sys.exit(0 if run() else 1)
