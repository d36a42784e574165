"""Frozen reports of ``box_distance`` between seeded spaces, exact and heuristic.

``data/box_space_corpus.json`` holds ``box_distance(...).to_jsonable()`` for
one seeded pair of spaces of every size from 1x1 to 5x5 points: a third of
them with equal totals, a third with the second space heavier and a third
with the first heavier, some with a zero-weight point.  Exact reports are
frozen at lambda 0, 0.5, 1 and 3, heuristic ones at one of them a pair, in
turn; the exact answers include both defect thresholds and mass breakpoints.
They were written, by running this module as a script, while the exact
solve still replayed decided probes and built its certificates as closures;
every report must stay byte-identical, and every certificate meets the
box-certificate rule (``box._certificate_violations``).
"""

import json
import sys
from functools import cache
from pathlib import Path

import numpy as np

from mmdist import box_distance, mm_space, normalized, scale_measure
from mmdist.box import _certificate_violations
from mmdist.instances import random_space

EXPECTED = Path(__file__).parent / "data" / "box_space_corpus.json"
LAMBDAS = (0.0, 0.5, 1.0, 3.0)


def _with_zero_weight(rng, X):
    """``X`` with one weight set to zero, or ``X`` itself when it has one point."""
    if X.n == 1:
        return X
    w = X.weights.copy()
    w[int(rng.integers(X.n))] = 0.0
    return mm_space(w, X.dist)


def _cases():
    for nx in range(1, 6):
        for ny in range(1, 6):
            seed = 5 * (nx - 1) + ny - 1
            rng = np.random.default_rng(3000 + seed)
            X = random_space(rng, min_points=nx, max_points=nx)
            Y = random_space(rng, min_points=ny, max_points=ny)
            if seed % 4 == 1:
                X = _with_zero_weight(rng, X)
            X, Y = normalized(X), normalized(Y)
            if seed % 3 == 1:
                Y = scale_measure(Y, 1.5)
            elif seed % 3 == 2:
                X = scale_measure(X, 1.25)
            yield f"grid {nx}x{ny}", X, Y, LAMBDAS[seed % 4]


def _runs():
    """``(name, X, Y, lam, mode)`` of every frozen report."""
    for name, X, Y, heuristic_lam in _cases():
        for lam in LAMBDAS:
            yield f"{name} exact lam={lam}", X, Y, lam, "exact"
        yield f"{name} heuristic lam={heuristic_lam}", X, Y, heuristic_lam, "heuristic"


@cache
def _results() -> dict:
    return {name: box_distance(X, Y, lam, mode, seed=3) for name, X, Y, lam, mode in _runs()}


def _mismatches() -> list[str]:
    want = json.loads(EXPECTED.read_text())
    got = {name: res.to_jsonable() for name, res in _results().items()}
    assert list(got) == list(want)
    return [name for name in want if json.dumps(got[name]) != json.dumps(want[name])]


def test_space_reports_are_frozen():
    assert _mismatches() == []


def test_frozen_certificates_meet_the_rule():
    for name, X, Y, lam, _ in _runs():
        assert _certificate_violations(X, Y, lam, _results()[name]) == [], name


def test_exact_answers_include_thresholds_and_breakpoints():
    # a threshold answer is a defect between two coupling cells; at lam > 0
    # the corpus holds answers of both kinds
    kinds = set()
    for name, X, Y, lam, mode in _runs():
        if mode == "exact" and lam > 0.0:
            xs, ys = (np.repeat(X.support, len(Y.support)), np.tile(Y.support, len(X.support)))
            delta = np.abs(X.dist[np.ix_(xs, xs)] - Y.dist[np.ix_(ys, ys)])
            pair_value = _results()[name].pair_value
            kinds.add(bool(pair_value == 0.0 or np.isin(pair_value, delta)))
    assert kinds == {True, False}


if __name__ == "__main__":
    # one result a line
    lines = (f"{json.dumps(name)}: {json.dumps(res.to_jsonable())}" for name, res in _results().items())
    sys.stdout.write("{\n" + ",\n".join(lines) + "\n}\n")
