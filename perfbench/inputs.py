"""Seeded inputs for the benchmark, generated here and not by ``mmdist``.

Recipe: distances on a grid of step 1/100 inside [1, 2], so every matrix
satisfies the triangle inequality and distinct values sit at least one grid
step apart; weights proportional to integers 1..16 (a coarse grid of mixed
masses), scaled to total mass 1 unless a pair needs unequal totals.  Fixed
totals keep the quality metrics comparable from seed to seed.  Only numpy
is used, so the inputs stay the same whatever the program under test does.
"""

from __future__ import annotations

import numpy as np

def grid_dist(rng: np.random.Generator, n: int) -> np.ndarray:
    steps = rng.integers(100, 201, size=(n, n)).astype(float)
    d = np.triu(steps, k=1) / 100.0
    return d + d.T


def grid_weights(rng: np.random.Generator, n: int, total: float = 1.0) -> np.ndarray:
    """``n`` weights proportional to integers 1..16, scaled to ``total``."""
    k = rng.integers(1, 17, size=n).astype(float)
    return k * (total / k.sum())


def space(rng: np.random.Generator, n: int, total: float = 1.0):
    """``(weights, dist)`` of one random space."""
    return grid_weights(rng, n, total), grid_dist(rng, n)


def equal_mass_pair(rng: np.random.Generator, nx: int, ny: int):
    """Two independent spaces, both of total mass 1."""
    return space(rng, nx), space(rng, ny)


def relabelled(rng: np.random.Generator, weights: np.ndarray, dist: np.ndarray):
    """An isomorphic copy under a random permutation; returns (copy, perm).

    Point ``i`` of the original is point ``perm[i]`` of the copy.
    """
    perm = rng.permutation(len(weights))
    inv = np.argsort(perm)
    return (weights[inv], dist[np.ix_(inv, inv)]), perm


def perturbed(rng: np.random.Generator, dist: np.ndarray) -> np.ndarray:
    """A copy with one off-diagonal distance moved by one grid step.

    The multiset of distances changes, so no isometry can map one matrix
    onto the other; the step stays inside [1, 2].
    """
    n = dist.shape[0]
    i, j = sorted(rng.choice(n, size=2, replace=False).tolist())
    out = dist.copy()
    step = 0.01 if out[i, j] < 2.0 else -0.01
    out[i, j] = out[j, i] = round(out[i, j] + step, 2)
    return out
