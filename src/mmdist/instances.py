"""Seeded generators of small random instances for property suites.

Distances are drawn from a grid inside ``[1, 2]``, which makes the
triangle inequality automatic and keeps distinct values separated by at least
one grid step, so exact solvers and tolerance-based comparisons never sit on
a knife edge.  Weights come from a coarse positive grid for the same reason.
"""

from __future__ import annotations

import numpy as np

from .core import FiniteMMSpace, SemiDistancePair, mm_space, scale_measure


def random_space(
    rng: np.random.Generator,
    *,
    min_points: int = 1,
    max_points: int = 4,
) -> FiniteMMSpace:
    """A random valid space with grid distances and grid weights."""
    n = int(rng.integers(min_points, max_points + 1))
    steps = rng.integers(100, 201, size=(n, n)).astype(float)
    d = np.triu(steps, k=1) * 0.01
    d = d + d.T
    weights = rng.integers(1, 21, size=n).astype(float) * 0.05
    return mm_space(weights, d)


def random_space_total(
    rng: np.random.Generator, total: float, **kwargs
) -> FiniteMMSpace:
    """A random space rescaled to a prescribed total mass."""
    X = random_space(rng, **kwargs)
    return scale_measure(X, total / X.total_mass)


def shuffled_copy(rng: np.random.Generator, X: FiniteMMSpace) -> tuple[FiniteMMSpace, np.ndarray]:
    """An isomorphic copy under a random relabeling permutation.

    Returns the copy and the permutation ``perm`` with point ``i`` of the
    original landing at position ``perm[i]`` of the copy.
    """
    perm = rng.permutation(X.n)
    inv = np.argsort(perm)
    return (
        FiniteMMSpace(
            tuple(f"q{i}" for i in range(X.n)),
            X.weights[inv],
            X.dist[np.ix_(inv, inv)],
        ),
        perm,
    )


def random_pair_matrices(rng: np.random.Generator, n: int) -> np.ndarray:
    """A random symmetric zero-diagonal matrix, no triangle inequality."""
    steps = rng.uniform(0.5, 2.5, size=(n, n))
    d = np.triu(np.round(steps, 2), k=1)
    return d + d.T


def random_semidist_pair(rng: np.random.Generator):
    """A random semimetric pair over a common weighted index set of one to four cells."""
    n = int(rng.integers(1, 5))
    w = rng.integers(1, 11, size=n).astype(float) * 0.1
    return SemiDistancePair(w, random_pair_matrices(rng, n), random_pair_matrices(rng, n))


def random_function(rng: np.random.Generator, n: int, scale: float = 2.0) -> np.ndarray:
    return np.round(rng.uniform(-scale, scale, size=n), 3)
