"""Matrix distributions of finite mm-spaces and isomorphism testing.

Sampling ``r`` points independently from the measure and recording their
pairwise distance matrix pushes the ``r``-fold product measure onto a finite
distribution over ``r x r`` matrices.  These distributions are computed
exactly by enumeration, approximated empirically, and compared across spaces:
they determine a space up to measure-preserving isometry of supports, which
the one depth-first search over point maps, :func:`_point_maps`, certifies.

Matrices are compared after entrywise rounding at 1e-12.  A distribution
stores its distinct matrices as the rows of one array, flattened row-major
and sorted lexicographically, so distribution equality is exact equality of
the key arrays with a mass tolerance.  The exact enumeration walks the
``r``-tuples in chunks of index arrays and never builds a matrix per tuple in
Python.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import FiniteMMSpace, _as_indices, _refuse, _weight_violations, normalized, whole_number
from .errors import SizeLimitError

_ROUND_DECIMALS = 12
#: absolute tolerance for comparing masses and distances
_TOL = 1e-9
#: most ``r``-tuples :func:`exact_mu_r` enumerates before refusing
EXACT_MU_R_LIMIT = 10**7
#: ``r``-tuples :func:`exact_mu_r` holds in memory at once
_CHUNK = 1 << 16


@dataclass(frozen=True, eq=False)
class MatrixDistribution:
    """A finitely supported measure on ``r x r`` distance matrices.

    ``keys`` holds the canonically rounded matrices, one flattened matrix per
    row, sorted lexicographically and without repeats; ``masses[i]`` is the
    mass of ``keys[i]``.  Two distributions therefore agree exactly when
    their key arrays are equal and their masses agree.  Masses sum to
    ``m ** r`` for the exact enumeration of a space of total mass ``m`` (1
    for empirical or normalized variants).
    """

    r: int
    keys: np.ndarray
    masses: np.ndarray

    @property
    def entries(self) -> tuple:
        """``(key tuple, mass)`` pairs in key order."""
        return tuple(zip(map(tuple, self.keys.tolist()), self.masses.tolist()))

    @property
    def total_mass(self) -> float:
        return float(sum(self.masses.tolist()))

    def normalized(self) -> "MatrixDistribution":
        return MatrixDistribution(self.r, self.keys, self.masses / self.total_mass)

    def to_jsonable(self) -> dict:
        return {
            "r": self.r,
            "entries": [
                {"matrix": list(key), "mass": mass} for key, mass in self.entries
            ],
        }


def distributions_equal(a: MatrixDistribution, b: MatrixDistribution) -> bool:
    """Exact key equality with mass tolerance."""
    if a.r != b.r or a.keys.shape != b.keys.shape:
        return False
    if not np.array_equal(a.keys, b.keys):
        return False
    return bool(np.all(np.abs(a.masses - b.masses) <= _TOL))


def _group(codes: np.ndarray, masses: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct rows of ``codes`` in lexicographic order, with summed masses.

    Each row is compared as one opaque byte string.  The codes are unsigned
    and written big-endian, so byte order is lexicographic order of the rows.
    ``bincount`` adds each row's masses in input order.
    """
    rows = np.ascontiguousarray(codes, dtype=codes.dtype.newbyteorder(">"))
    rows = rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel()
    _, first, inverse = np.unique(rows, return_index=True, return_inverse=True)
    # the inverse's shape changed within numpy 2.0.x; ravel serves both
    return codes[first], np.bincount(inverse.ravel(), weights=masses, minlength=len(first))


def _aggregate(r: int, items) -> tuple[np.ndarray, np.ndarray]:
    """Merge the per-chunk ``(codes, masses)`` groups of ``r``-tuples into one.

    ``r`` is unused: the benchmark tracer wraps this signature and counts
    the items, one per chunk.
    """
    codes, masses = zip(*items)
    return _group(np.concatenate(codes), np.concatenate(masses))


def _code_table(space: FiniteMMSpace) -> tuple[np.ndarray, np.ndarray]:
    """The sorted rounded support distances ``values``, and ``code[a, b]``, the
    rank of the rounded distance of support points ``a`` and ``b`` among them."""
    s = space.support
    # + 0.0 turns the -0.0 that rounding makes of tiny negative distances into 0.0
    values, rank = np.unique(np.round(space.dist[np.ix_(s, s)], _ROUND_DECIMALS) + 0.0,
                             return_inverse=True)
    return values, rank.reshape(len(s), len(s)).astype(np.min_scalar_type(len(values) - 1))


def exact_mu_r(space: FiniteMMSpace, r: int) -> MatrixDistribution:
    """Exact matrix distribution by enumerating all ``r``-tuples of support points.

    The tuples are the base-``k`` digits of consecutive integers, which is
    ``itertools.product`` order over the ``k`` support points, taken
    :data:`_CHUNK` at a time.  A tuple's mass is the product of its weights
    from left to right.  Every matrix entry is replaced by the rank of its
    rounded value among the rounded distances, a code that orders as the
    value does, so a chunk is grouped by comparing code bytes.  Memory holds
    one chunk plus the distinct matrices of each chunk so far.
    """
    r = whole_number(r, "r", 1)
    s = space.support
    k = len(s)
    # k**r where that is within the limit: past the limit's bit length k**r exceeds it for k >= 2, and is k for k <= 1
    total = k ** min(r, EXACT_MU_R_LIMIT.bit_length())
    if total > EXACT_MU_R_LIMIT or r * r > EXACT_MU_R_LIMIT:  # a key holds r * r codes, one key even at k = 1
        what = "tuples" if total > EXACT_MU_R_LIMIT else "entries in a key"
        raise SizeLimitError(f"exact_mu_r refuses order r = {r} on {k} support points: over {EXACT_MU_R_LIMIT} {what}")
    w = space.weights[s]
    values, code = _code_table(space)

    def chunks():
        for start in range(0, total, _CHUNK):
            rest = np.arange(start, min(start + _CHUNK, total))
            idx = np.empty((len(rest), r), dtype=np.intp)
            for j in range(r - 1, -1, -1):
                rest, idx[:, j] = np.divmod(rest, k)
            mass = w[idx[:, 0]]
            for j in range(1, r):
                mass = mass * w[idx[:, j]]
            yield _group(code[idx[:, :, None], idx[:, None, :]].reshape(len(idx), r * r), mass)

    codes, masses = _aggregate(r, chunks())
    return MatrixDistribution(r, values[codes], masses)


def sample_mu_r(space: FiniteMMSpace, r: int, count: int, seed: int = 0) -> MatrixDistribution:
    """Empirical matrix distribution from ``count`` i.i.d. tuples by weight.

    Masses sum to one, matching the exact distribution of the mass-normalized
    space in the large-count limit.  The matrices are coded and grouped as
    :func:`exact_mu_r` groups them, so the keys of both read alike.
    """
    r = whole_number(r, "r", 1)
    count = whole_number(count, "count", 0)
    seed = whole_number(seed, "seed", 0)
    if count == 0:
        return MatrixDistribution(r, np.zeros((0, r * r)), np.zeros(0))
    rng = np.random.default_rng(seed)
    w = space.weights[space.support]
    draws = rng.choice(len(w), size=(count, r), p=w / w.sum())
    values, code = _code_table(space)
    codes, counts = _group(code[draws[:, :, None], draws[:, None, :]].reshape(count, r * r), np.ones(count))
    return MatrixDistribution(r, values[codes], counts / count)


def total_variation(a: MatrixDistribution, b: MatrixDistribution) -> float:
    """Total variation between two matrix distributions of one order ``r``, each of mass 1 to 1e-9."""
    if a.r != b.r:
        raise ValueError(f"total variation needs one order r, got r = {a.r} and r = {b.r}")
    for name, m in (("a", a.total_mass), ("b", b.total_mass)):
        if not abs(m - 1.0) <= 1e-9:
            raise ValueError(f"total variation needs normalized distributions, {name} has mass {m:.12g}")
    da = dict(a.entries)
    db = dict(b.entries)
    keys = set(da) | set(db)
    return 0.5 * sum(abs(da.get(k, 0.0) - db.get(k, 0.0)) for k in keys)


# ---------------------------------------------------------------------------
# isomorphism


def _point_maps(n: int, sources, targets, fits):
    """Yield every point map that places ``sources`` one by one onto ``targets``.

    The ``d``-th source ``i`` tries the targets in order and keeps ``j`` only
    when ``fits(p, placed, i, j)`` holds, where ``placed`` lists the first
    ``d`` sources and ``p[a]`` is the target of each (entries off ``placed``
    are stale).  Maps come out as length-``n`` index arrays, -1 off
    ``sources``, in lexicographic order of their targets along ``sources``.
    ``fits`` runs once per tried placement, so callers hand it Python lists,
    which index faster than numpy arrays one scalar at a time.
    """
    p = [-1] * n

    def extend(d: int):
        if d == len(sources):
            yield np.array(p)
            return
        i, placed = sources[d], sources[:d]
        for j in targets:
            if fits(p, placed, i, j):
                p[i] = j
                yield from extend(d + 1)

    yield from extend(0)


def _isomorphisms(X: FiniteMMSpace, Y: FiniteMMSpace, pin: tuple[int, int] | None = None):
    """Yield every weight- and distance-preserving bijection between the supports.

    :func:`_point_maps` places the support of ``X`` by weight class, then
    distance profile, for pruning; each map is full-length (-1 off support).
    With ``pin = (i, j)`` only the maps sending point ``i`` to ``j`` come
    out, and ``i`` is placed first.
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
    order = sorted(range(len(sx)), key=lambda i: (wx[i], tuple(np.sort(dx[i]))))
    sources = sx[order].tolist()
    if pin is not None:
        sources.remove(pin[0])
        sources.insert(0, pin[0])
    wX, wY, dX, dY = X.weights.tolist(), Y.weights.tolist(), X.dist.tolist(), Y.dist.tolist()

    def fits(p, placed, i, j):
        if abs(wX[i] - wY[j]) > _TOL or (pin is not None and i == pin[0] and j != pin[1]):
            return False
        for a in placed:
            if p[a] == j or abs(dX[i][a] - dY[j][p[a]]) > _TOL:
                return False
        return True

    yield from _point_maps(X.n, sources, sy.tolist(), fits)


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
    R = whole_number(max(len(X.support), len(Y.support)) if R is None else R, "R", 1)
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


def parameter_invariance_check(X: FiniteMMSpace, cell_points, cell_masses) -> bool:
    """Matrix distributions of orders 1 to 3 are blind to splitting atoms into cells.

    ``cell_points[c]`` is the point of ``X`` that cell ``c`` sits on and
    ``cell_masses[c]`` its mass; the induced cell space inherits distances
    through that map.  For a genuine decomposition (per-point cell masses
    summing to the atom weights) the distributions agree at every order; a
    lossy assignment, such as merging distinct points, breaks equality and
    makes the check return False.
    """
    cp = _as_indices(cell_points, "cell_points", X.n)
    cm = np.asarray(cell_masses, dtype=float)
    _refuse(_weight_violations(cm, cp.size, "cell weight"))
    if not cm.sum() > 0.0:  # massless cells carry none of the distributions of X
        return False
    cell_space = FiniteMMSpace(
        tuple(f"c{i}" for i in range(len(cp))), cm, X.dist[np.ix_(cp, cp)]
    )
    for r in range(1, 4):
        if not distributions_equal(exact_mu_r(X, r), exact_mu_r(cell_space, r)):
            return False
    return True
