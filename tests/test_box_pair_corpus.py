"""Frozen values of the pair box solve: ``box_pair`` and ``box_upper_from_witness``.

``data/box_pair_corpus.json`` holds the reports of ``box_pair`` at lambda 0,
0.25, 1 and 3 on seeded pairs of one to six cells, many with zero weights
(some with no positive weight at all), and the bounds of
``box_upper_from_witness`` on seeded witnesses between spaces of equal and of
unequal total mass, either side heavier.  They were written, by running this
module as a script, before ``box_pair`` restricted the pair to its support
itself; every result must stay byte-identical.
"""

import json
import sys
from functools import cache
from pathlib import Path

import numpy as np

from mmdist import SemiDistancePair, Witness, box_pair, box_upper_from_witness, mm_space, scale_measure
from mmdist.instances import random_pair_matrices, random_space

EXPECTED = Path(__file__).parent / "data" / "box_pair_corpus.json"
LAMBDAS = (0.0, 0.25, 1.0, 3.0)


def _pairs():
    for seed in range(72):
        rng = np.random.default_rng(seed)
        n = 1 + seed % 6
        w = rng.integers(0, 5, size=n) * 0.25  # a weight is zero one time in five
        yield f"pair {seed}", SemiDistancePair(w, random_pair_matrices(rng, n), random_pair_matrices(rng, n))


def _witnesses():
    for seed in range(60):
        rng = np.random.default_rng(1000 + seed)
        X = random_space(rng, min_points=1, max_points=5)
        bump = np.triu(rng.uniform(0.0, 0.3, size=(X.n, X.n)), 1)
        Xn = mm_space(X.weights, X.dist + bump + bump.T)
        if seed % 3 == 1:
            Xn = scale_measure(Xn, 1.5)
        elif seed % 3 == 2:
            X = scale_measure(X, 1.25)
        yield f"witness {seed}", Xn, X, Witness(rng.integers(0, X.n, size=Xn.n), list(range(Xn.n)), 0.0)


@cache
def _outputs() -> dict:
    out = {}
    for name, pair in _pairs():
        for lam in LAMBDAS:
            out[f"{name} lam={lam}"] = box_pair(pair, lam).to_jsonable()
    for name, Xn, X, w in _witnesses():
        out[name] = box_upper_from_witness(Xn, X, w)
    return out


def _mismatches(prefix: str) -> list[str]:
    """Names of the frozen results under ``prefix`` whose JSON text changed."""
    want = json.loads(EXPECTED.read_text())
    got = _outputs()
    assert list(got) == list(want)
    return [name for name in want if name.startswith(prefix) and json.dumps(got[name]) != json.dumps(want[name])]


def test_box_pair_reports_are_frozen():
    assert _mismatches("pair ") == []


def test_witness_bounds_are_frozen():
    assert _mismatches("witness ") == []


if __name__ == "__main__":
    # one result a line
    lines = (f"{json.dumps(name)}: {json.dumps(value)}" for name, value in _outputs().items())
    sys.stdout.write("{\n" + ",\n".join(lines) + "\n}\n")
