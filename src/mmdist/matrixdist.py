"""Matrix distributions of finite mm-spaces and isomorphism testing.

Sampling ``r`` points independently from the measure and recording their
pairwise distance matrix pushes the ``r``-fold product measure onto a finite
distribution over ``r x r`` matrices.  These distributions are computed
exactly by enumeration, approximated empirically, and compared across spaces:
they determine a space up to measure-preserving isometry of supports, which
an explicit backtracking search certifies independently.

Matrices are compared after entrywise rounding at 1e-12 and lexicographic
serialization, so distribution equality is exact multiset equality of keys
with a mass tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .core import FiniteMMSpace, normalized
from .errors import SizeLimitError

_ROUND_DECIMALS = 12
#: absolute tolerance for comparing masses and distances
_TOL = 1e-9
#: most ``r``-tuples :func:`exact_mu_r` enumerates before refusing
EXACT_MU_R_LIMIT = 10**7


def _canonical_key(mat: np.ndarray) -> tuple:
    return tuple(np.round(np.asarray(mat, float).ravel(), _ROUND_DECIMALS).tolist())


@dataclass(frozen=True, eq=False)
class MatrixDistribution:
    """A finitely supported measure on ``r x r`` distance matrices.

    ``entries`` maps canonically rounded matrices to masses and is stored
    sorted by key, so two distributions agree exactly when their entry lists
    agree.  Masses sum to ``m ** r`` for the exact enumeration of a space of
    total mass ``m`` (1 for empirical or normalized variants).
    """

    r: int
    entries: tuple  # tuple of (key tuple, mass)

    @property
    def total_mass(self) -> float:
        return float(sum(mass for _, mass in self.entries))

    def normalized(self) -> "MatrixDistribution":
        m = self.total_mass
        return MatrixDistribution(self.r, tuple((k, mass / m) for k, mass in self.entries))

    def to_jsonable(self) -> dict:
        return {
            "r": self.r,
            "entries": [
                {"matrix": list(key), "mass": mass} for key, mass in self.entries
            ],
        }


def distributions_equal(a: MatrixDistribution, b: MatrixDistribution) -> bool:
    """Exact key equality with mass tolerance."""
    if a.r != b.r:
        return False
    da = dict(a.entries)
    db = dict(b.entries)
    if set(da) != set(db):
        return False
    return all(abs(da[k] - db[k]) <= _TOL for k in da)


def _aggregate(r: int, items) -> MatrixDistribution:
    acc: dict[tuple, float] = {}
    for key, mass in items:
        acc[key] = acc.get(key, 0.0) + mass
    return MatrixDistribution(r, tuple(sorted(acc.items())))


def k_r(space: FiniteMMSpace, indices) -> np.ndarray:
    """Distance matrix of an ordered tuple of points."""
    idx = np.asarray(indices, dtype=int)
    return space.dist[np.ix_(idx, idx)]


def exact_mu_r(space: FiniteMMSpace, r: int) -> MatrixDistribution:
    """Exact matrix distribution by enumerating all ``r``-tuples of support points."""
    if r < 1:
        raise ValueError("r must be at least 1")
    s = space.support
    if len(s) ** r > EXACT_MU_R_LIMIT:
        raise SizeLimitError(
            f"exact_mu_r would enumerate {len(s) ** r} tuples (limit {EXACT_MU_R_LIMIT})"
        )
    w = space.weights

    def items():
        for tup in product(s.tolist(), repeat=r):
            mass = 1.0
            for i in tup:
                mass *= w[i]
            yield _canonical_key(k_r(space, tup)), mass

    return _aggregate(r, items())


def sample_mu_r(space: FiniteMMSpace, r: int, count: int, seed: int = 0) -> MatrixDistribution:
    """Empirical matrix distribution from ``count`` i.i.d. tuples by weight.

    Masses sum to one, matching the exact distribution of the mass-normalized
    space in the large-count limit.
    """
    if count < 0:
        raise ValueError("count must be nonnegative")
    if count == 0:
        return MatrixDistribution(r, ())
    rng = np.random.default_rng(seed)
    s = space.support
    p = space.weights[s] / space.weights[s].sum()
    draws = rng.choice(s, size=(count, r), p=p)
    mats = space.dist[draws[:, :, None], draws[:, None, :]].reshape(count, r * r)
    keys, counts = np.unique(np.round(mats, _ROUND_DECIMALS), axis=0, return_counts=True)
    entries = tuple(
        sorted((tuple(k.tolist()), c / count) for k, c in zip(keys, counts))
    )
    return MatrixDistribution(r, entries)


def total_variation(a: MatrixDistribution, b: MatrixDistribution) -> float:
    """Total variation between two (normalized) matrix distributions."""
    da = dict(a.entries)
    db = dict(b.entries)
    keys = set(da) | set(db)
    return 0.5 * sum(abs(da.get(k, 0.0) - db.get(k, 0.0)) for k in keys)


# ---------------------------------------------------------------------------
# isomorphism


def _isomorphisms(X: FiniteMMSpace, Y: FiniteMMSpace):
    """Yield every weight- and distance-preserving bijection between the supports.

    Backtracking over weight classes with distance-profile pruning; each map
    is full-length (non-support entries -1).
    """
    sx, sy = X.support, Y.support
    if len(sx) != len(sy):
        return
    if abs(X.total_mass - Y.total_mass) > _TOL:
        return
    wx, wy = X.weights[sx], Y.weights[sy]
    if np.max(np.abs(np.sort(wx) - np.sort(wy))) > _TOL:
        return
    dx = X.dist[np.ix_(sx, sx)]
    dy = Y.dist[np.ix_(sy, sy)]
    if np.max(np.abs(np.sort(dx.ravel()) - np.sort(dy.ravel()))) > _TOL:
        return
    k = len(sx)
    # order source points by weight class then distance profile, for pruning
    order = sorted(range(k), key=lambda i: (wx[i], tuple(np.sort(dx[i]))))
    assigned = np.full(k, -1, dtype=int)
    used = np.zeros(k, dtype=bool)

    def profile_ok(step: int, j: int) -> bool:
        i = order[step]
        if abs(wx[i] - wy[j]) > _TOL:
            return False
        return all(abs(dx[i, a] - dy[j, assigned[a]]) <= _TOL for a in order[:step])

    def backtrack(step: int):
        if step == k:
            out = np.full(X.n, -1, dtype=int)
            out[sx] = sy[assigned]
            yield out
            return
        i = order[step]
        for j in range(k):
            if not used[j] and profile_ok(step, j):
                assigned[i] = j
                used[j] = True
                yield from backtrack(step + 1)
                assigned[i] = -1
                used[j] = False

    yield from backtrack(0)


def isomorphism_search(X: FiniteMMSpace, Y: FiniteMMSpace) -> np.ndarray | None:
    """Weight- and distance-preserving bijection between the supports.

    Returns the first map :func:`_isomorphisms` finds, or ``None`` after an
    exhaustive search.
    """
    return next(_isomorphisms(X, Y), None)


@dataclass(frozen=True)
class ReconstructionReport:
    """Outcome of comparing matrix distributions up to order ``r_max``.

    ``verdict`` is ``"distinguished"`` or ``"indistinguishable-up-to-R"``;
    comparisons run on mass-normalized spaces so the verdict concerns shape,
    and ``agreement`` records whether the (normalized) isomorphism search
    reached the same conclusion.
    """

    verdict: str
    r_max: int
    distinguishing_r: int | None
    bijection: np.ndarray | None
    agreement: bool

    def to_jsonable(self) -> dict:
        return {
            "verdict": self.verdict,
            "r_max": self.r_max,
            "distinguishing_r": self.distinguishing_r,
            "bijection": None if self.bijection is None else [int(x) for x in self.bijection],
            "agreement": self.agreement,
        }


def reconstruction_check(
    X: FiniteMMSpace, Y: FiniteMMSpace, R: int | None = None
) -> ReconstructionReport:
    """Compare exact matrix distributions for ``r = 1..R`` after normalization.

    ``R`` defaults to the larger support size and must be at least 1.
    Cross-checked against the explicit isomorphism search; a disagreement on
    finite spaces would be a genuine anomaly and is surfaced through
    ``agreement``.
    """
    Xn, Yn = normalized(X), normalized(Y)
    if R is None:
        R = max(len(X.support), len(Y.support))
    if R < 1:
        raise ValueError("R must be at least 1")
    distinguishing = None
    for r in range(1, R + 1):
        if not distributions_equal(exact_mu_r(Xn, r), exact_mu_r(Yn, r)):
            distinguishing = r
            break
    bijection = isomorphism_search(Xn, Yn)
    if distinguishing is None:
        verdict = "indistinguishable-up-to-R"
        agreement = bijection is not None
    else:
        verdict = "distinguished"
        agreement = bijection is None
    return ReconstructionReport(verdict, R, distinguishing, bijection, agreement)


def parameter_invariance_check(X: FiniteMMSpace, cell_points, cell_masses, R: int = 3) -> bool:
    """Matrix distributions are blind to splitting atoms into cells.

    ``cell_points[c]`` is the point of ``X`` that cell ``c`` sits on and
    ``cell_masses[c]`` its mass; the induced cell space inherits distances
    through that map.  For a genuine decomposition (per-point cell masses
    summing to the atom weights) the distributions agree at every order; a
    lossy assignment, such as merging distinct points, breaks equality and
    makes the check return False.
    """
    cp = np.asarray(cell_points, dtype=int)
    cm = np.asarray(cell_masses, dtype=float)
    cell_space = FiniteMMSpace(
        tuple(f"c{i}" for i in range(len(cp))), cm, X.dist[np.ix_(cp, cp)]
    )
    for r in range(1, R + 1):
        if not distributions_equal(exact_mu_r(X, r), exact_mu_r(cell_space, r)):
            return False
    return True
