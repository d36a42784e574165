"""Frozen answers of two diagnostics: ``lipschitz_up_to_check`` and ``sample_mu_r``.

``data/diagnostic_corpus.json`` holds the subsets ``lipschitz_up_to_check``
keeps (or ``None``) for seeded maps between spaces of one to twenty points,
some with zero weights, at lambda 0, 0.5, 1 and 1.5 and eps 0 to 0.5, and
``sample_mu_r(...).to_jsonable()`` for seeded spaces of one to five points, a
third of them with a zero weight, at orders 1 to 3 and counts 0 to 199.  They
were written, by running this module as a script, while the clique search
stopped at twenty support points and the sampled matrices were grouped by
their rounded floats; every result must stay byte-identical.
"""

import json
import sys
from functools import cache
from pathlib import Path

import numpy as np

from mmdist import lipschitz_up_to_check, mm_space, normalized, sample_mu_r
from mmdist.instances import random_space

EXPECTED = Path(__file__).parent / "data" / "diagnostic_corpus.json"
LAMBDAS = (0.0, 0.5, 1.0, 1.5)
EPSILONS = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5)


def _with_zero_weight(rng, X):
    """``X`` with one weight set to zero, or ``X`` itself when it has one point."""
    if X.n == 1:
        return X
    w = X.weights.copy()
    w[int(rng.integers(X.n))] = 0.0
    return mm_space(w, X.dist)


def _lipschitz_cases():
    for seed in range(60):
        rng = np.random.default_rng(seed)
        n = 1 + seed % 20
        X = normalized(random_space(rng, min_points=n, max_points=n))
        if seed % 3 == 1:
            X = normalized(_with_zero_weight(rng, X))
        Y = random_space(rng, min_points=1, max_points=n)
        yield f"lipschitz {seed}", X, Y, rng.integers(0, Y.n, size=n)


def _sample_cases():
    for seed in range(60):
        rng = np.random.default_rng(2000 + seed)
        X = random_space(rng, min_points=1, max_points=5)
        if seed % 3 == 1:
            X = _with_zero_weight(rng, X)
        yield f"sample {seed}", X, 1 + seed % 3, int(rng.integers(0, 200))


@cache
def _outputs() -> dict:
    out = {}
    for name, X, Y, fmap in _lipschitz_cases():
        for lam in LAMBDAS:
            for eps in EPSILONS:
                kept = lipschitz_up_to_check(X, Y, fmap, lam, eps)
                out[f"{name} lam={lam} eps={eps}"] = None if kept is None else kept.tolist()
    for name, X, r, count in _sample_cases():
        out[name] = sample_mu_r(X, r, count, seed=7).to_jsonable()
    return out


def _mismatches(prefix: str) -> list[str]:
    """Names of the frozen results under ``prefix`` whose JSON text changed."""
    want = json.loads(EXPECTED.read_text())
    got = _outputs()
    assert list(got) == list(want)
    return [name for name in want if name.startswith(prefix) and json.dumps(got[name]) != json.dumps(want[name])]


def test_lipschitz_subsets_are_frozen():
    assert _mismatches("lipschitz ") == []


def test_sampled_distributions_are_frozen():
    assert _mismatches("sample ") == []


if __name__ == "__main__":
    # one result a line
    lines = (f"{json.dumps(name)}: {json.dumps(value)}" for name, value in _outputs().items())
    sys.stdout.write("{\n" + ",\n".join(lines) + "\n}\n")
