"""1-Lipschitz machinery: the me distance on functions, McShane projection,
vertices of Lipschitz polytopes, and Hausdorff-type distances between them.

Functions on a finite index set are plain float vectors.  ``me_lambda`` is
the mass-truncated uniform distance: the smallest ``eps`` such that the two
functions differ by more than ``eps`` only on index mass at most
``lam * eps``; at ``lam = 0`` it is the essential supremum over the support.

The 1-Lipschitz functions for a semimetric live on the support of the
weights, where they form the polytope Lip1(C), ``C`` the shortest-path
closure of the semimetric restricted to the support.  Zero-weight indices
are dropped before the closure: a path through one would tighten the
constraints between support points.  A member of Lip1(D) is within ``eps``
of ``f`` on a retained set ``S`` exactly when ``|f_i - f_j| <= 2 eps + D_ij``
for all ``i, j`` in ``S``, so the point-to-set me distance is the same
defect-clique search the box solvers use.

At ``lam = 0`` the Hausdorff distance has a closed form.  The distance from
``f`` to Lip1(C2) is ``max_ij (|f_i - f_j| - C2_ij)^+ / 2``.  Over ``f`` in
Lip1(C1) each term is at most ``(C1_ij - C2_ij)^+ / 2``, and the cone
``f = C1(., j)`` attains it.  So the value is ``max |C1 - C2| / 2`` over
support pairs.  For ``lam > 0`` no closed form is used: the sampled mode
bounds the distance from below by measuring cones and random members of each
set exactly against the other.  Vertex enumeration (``Lip1Set.vertices``)
stays as an independent check of the closed form.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product

import numpy as np

from .box import box_distance, smallest_eps_for_defects
from .core import (
    FiniteMMSpace,
    SemiDistancePair,
    check_lambda,
    metric_closure,
    northwest_coupling,
    product_coupling,
    pullback_pair,
    scale_measure,
)
from .errors import SizeLimitError
from .transport import _threshold_solve

#: membership tolerance for the 1-Lipschitz test
LIP_TOL = 1e-9
#: random transportation vertices ``sampled`` observable_distance tries
#: besides the product coupling
COUPLING_CANDIDATES = 8


# ---------------------------------------------------------------------------
# me distances


def me_lambda(f, g, weights, lam: float) -> float:
    """Mass-truncated uniform distance between two function vectors.

    Exact: the smallest ``eps`` with ``mass(|f - g| > eps) <= lam * eps``,
    found by the threshold search the box solvers use.  The mass kept at
    tolerance ``t`` is ``mass(|f - g| <= t)``, a step function of ``t``, so
    the optimum is a defect value or a breakpoint ``tail_mass / lam``.
    """
    check_lambda(lam)
    f = np.asarray(f, dtype=float)
    g = np.asarray(g, dtype=float)
    w = np.asarray(weights, dtype=float)
    if not (len(f) == len(g) == len(w)):
        raise ValueError("f, g and weights must share one index set")
    keep = w > 0.0
    v = np.abs(f - g)[keep]
    w = w[keep]
    if v.size == 0:
        return 0.0
    if lam == 0.0:
        return float(v.max())
    thresholds = np.unique(np.concatenate(([0.0], v)))
    return _threshold_solve(thresholds, float(w.sum()), lam, lambda t, _: float(w[v <= t].sum()))


def me_lambda_maps(fmap, gmap, weights, dY, lam: float) -> float:
    """me distance between two maps into a common metric target.

    ``fmap`` and ``gmap`` are index vectors into the target space with
    distance matrix ``dY``; the distance is ``me_lambda`` applied to the
    pointwise target distances against zero.
    """
    fmap = np.asarray(fmap, dtype=int)
    gmap = np.asarray(gmap, dtype=int)
    gaps = np.asarray(dY, dtype=float)[fmap, gmap]
    return me_lambda(gaps, np.zeros_like(gaps), weights, lam)


# ---------------------------------------------------------------------------
# Lipschitz sets


def project_to_lip1(f, dist, anchor) -> np.ndarray:
    """McShane projection: the largest 1-Lipschitz minorant of ``f + d``.

    ``out[i] = min over a in anchor of f[a] + dist[i, a]``.  For a matrix
    satisfying the triangle inequality the output is 1-Lipschitz everywhere
    and fixes any function that is already 1-Lipschitz (full anchor).
    """
    anchor = np.asarray(anchor, dtype=int)
    if anchor.size == 0:
        raise ValueError("anchor must be nonempty")
    f = np.asarray(f, dtype=float)
    d = np.asarray(dist, dtype=float)
    return np.min(f[anchor][None, :] + d[:, anchor], axis=1)


@dataclass(frozen=True, eq=False)
class Lip1Set:
    """The polytope of 1-Lipschitz functions on the support of an index set.

    Functions are considered on the support only and pinned to zero at the
    first support point; adding constants never leaves the set, so all
    distances computed against it optimize over translations implicitly.
    """

    dist: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "dist", np.asarray(self.dist, dtype=float))
        object.__setattr__(self, "weights", np.asarray(self.weights, dtype=float))

    @property
    def support(self) -> np.ndarray:
        return np.flatnonzero(self.weights > 0.0)

    def contains(self, f) -> bool:
        """Whether ``f`` is 1-Lipschitz on the support, within :data:`LIP_TOL`."""
        s = self.support
        f = np.asarray(f, dtype=float)[s]
        d = self.dist[np.ix_(s, s)]
        return float(np.max(np.abs(f[:, None] - f[None, :]) - d, initial=0.0)) <= LIP_TOL

    def vertices(self, *, max_support: int = 6) -> np.ndarray:
        """All extreme points, pinned at the first support point.

        Every vertex is the solution of ``k - 1`` tight constraints
        ``f_j - f_i = +-d_ij`` forming a spanning tree of the support, so the
        enumeration walks spanning trees with sign choices, keeps the
        feasible solutions and deduplicates.  Returns full-length vectors
        (non-support coordinates filled by McShane extension from the
        support).
        """
        s = self.support
        k = len(s)
        if k > max_support:
            raise SizeLimitError(
                f"vertex enumeration refuses support size {k} (limit {max_support})"
            )
        n = self.dist.shape[0]
        if k == 0:
            return np.zeros((0, n))
        d = self.dist[np.ix_(s, s)]
        if k == 1:
            out = np.zeros((1, n))
            out[0] = self._extend(np.zeros(1))
            return out
        edges = list(combinations(range(k), 2))
        seen: dict[tuple, np.ndarray] = {}
        for tree in combinations(edges, k - 1):
            if not _is_spanning_tree(tree, k):
                continue
            nbrs: list[list[tuple[int, int, int]]] = [[] for _ in range(k)]
            for e, (a, b) in enumerate(tree):
                nbrs[a].append((b, e, +1))
                nbrs[b].append((a, e, -1))
            for signs in product((1.0, -1.0), repeat=k - 1):
                vals = np.full(k, np.nan)
                vals[0] = 0.0
                stack = [0]
                while stack:
                    a = stack.pop()
                    for b, e, orient in nbrs[a]:
                        if np.isnan(vals[b]):
                            # edge e pinned as f_b - f_a = signs[e] * d_ab
                            vals[b] = vals[a] + orient * signs[e] * d[tree[e][0], tree[e][1]]
                            stack.append(b)
                viol = np.max(np.abs(vals[:, None] - vals[None, :]) - d)
                if viol > 1e-9:
                    continue
                key = tuple(np.round(vals / 1e-9).astype(np.int64).tolist())
                if key not in seen:
                    seen[key] = vals
        out = np.zeros((len(seen), n))
        for row, key in enumerate(sorted(seen)):
            out[row] = self._extend(seen[key])
        return out

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        """A random member: signed cone values on a random anchor, projected.

        Anchor values are combinations of distance cones ``+-d(., x_i)``;
        the McShane projection of any anchor data is 1-Lipschitz, so the
        sampler covers the polytope without rejection.
        """
        s = self.support
        k = len(s)
        d = self.dist[np.ix_(s, s)]
        size = int(rng.integers(1, k + 1))
        anchor = np.sort(rng.choice(k, size=size, replace=False))
        apex = int(rng.integers(0, k))
        sign = -1.0 if rng.random() < 0.5 else 1.0
        raw = sign * d[:, apex] + rng.normal(0.0, 0.25 * (1.0 + d.max()), size=k)
        # project anchor values through the closure so the result is Lipschitz
        proj = project_to_lip1(raw, metric_closure(d), anchor)
        proj = proj - proj[0]
        return self._extend(proj)

    def _extend(self, support_values: np.ndarray) -> np.ndarray:
        """Fill non-support coordinates by McShane extension from the support."""
        s = self.support
        n = self.dist.shape[0]
        out = np.zeros(n)
        out[s] = support_values
        rest = np.setdiff1d(np.arange(n), s)
        if rest.size:
            out[rest] = np.min(
                support_values[None, :] + self.dist[np.ix_(rest, s)], axis=1
            )
        return out


def _is_spanning_tree(edges, k: int) -> bool:
    parent = list(range(k))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    joined = 0
    for a, b in edges:
        ra, rb = find(a), find(b)
        if ra == rb:
            return False
        parent[ra] = rb
        joined += 1
    return joined == k - 1


# ---------------------------------------------------------------------------
# Hausdorff distances between Lipschitz sets


def lip_point_distance(f, dist_other, weights, lam: float) -> float:
    """Exact me-distance from a function to a 1-Lipschitz set.

    A 1-Lipschitz (for ``dist_other``) function within ``eps`` of ``f`` on a
    set ``S`` exists iff ``|f_i - f_j| <= 2 eps + D_ij`` on ``S``, with ``D``
    the shortest-path closure on the support; so the distance is the
    defect-clique optimum for the halved excess matrix.
    """
    w = np.asarray(weights, dtype=float)
    s = np.flatnonzero(w > 0.0)
    f = np.asarray(f, dtype=float)[s]
    D = metric_closure(np.asarray(dist_other, dtype=float)[np.ix_(s, s)])
    delta = np.clip((np.abs(f[:, None] - f[None, :]) - D) / 2.0, 0.0, None)
    np.fill_diagonal(delta, 0.0)
    eps, _ = smallest_eps_for_defects(delta, w[s], lam)
    return eps


@dataclass(frozen=True)
class HliResult:
    """Hausdorff-type distance between two Lipschitz sets, with a bound tag.

    ``tag`` is ``"exact"`` when the value is certified two-sided,
    ``"lower-bound"`` for sampled pair computations, and ``"heuristic"`` for
    sampled space-level estimates (no certified direction).
    """

    value: float
    tag: str
    lam: float
    mode: str
    coupling: np.ndarray | None = None

    def to_jsonable(self) -> dict:
        return {"value": self.value, "tag": self.tag, "lambda": self.lam, "mode": self.mode}


def hli_lambda(
    pair: SemiDistancePair,
    lam: float,
    mode: str = "exact0",
    *,
    samples: int = 48,
    seed: int = 0,
) -> HliResult:
    """Hausdorff distance between the 1-Lipschitz sets of the two semimetrics.

    ``exact0`` (``lam`` must be 0): the closed form ``max |C1 - C2| / 2``
    over support pairs, where ``C1`` and ``C2`` are the shortest-path
    closures of the two semimetrics on the support.  Proof: the distance
    from ``f`` to Lip1(C2) is ``max_ij (|f_i - f_j| - C2_ij)^+ / 2``; over
    ``f`` in Lip1(C1) this is at most ``(C1_ij - C2_ij)^+ / 2``, attained by
    the cone ``C1(., j)``.  Cubic in the support size.  ``sampled`` (any
    ``lam``): certified lower bound from the distance cones and ``samples``
    (nonnegative) random members of each set, each measured exactly against
    the other polytope.
    """
    check_lambda(lam)
    w = pair.weights
    if mode == "exact0":
        if lam != 0.0:
            raise ValueError("exact0 mode requires lambda = 0")
        s = pair.support
        c1 = metric_closure(pair.d1[np.ix_(s, s)])
        c2 = metric_closure(pair.d2[np.ix_(s, s)])
        return HliResult(float(np.max(np.abs(c1 - c2), initial=0.0)) / 2.0, "exact", lam, mode)
    if mode != "sampled":
        raise ValueError(f"unknown mode {mode!r}")
    if samples < 0:
        raise ValueError(f"samples must be nonnegative, got {samples}")
    rng = np.random.default_rng(seed)
    value = 0.0
    for da, db in ((pair.d1, pair.d2), (pair.d2, pair.d1)):
        source = Lip1Set(da, w)
        s = source.support
        # cones of the closure are members even without a triangle
        # inequality on the raw matrix; always probe them
        closure = metric_closure(source.dist[np.ix_(s, s)])
        probes = [source._extend(closure[:, j]) for j in range(len(s))]
        probes += [source.sample(rng) for _ in range(samples)]
        for f in probes:
            value = max(value, lip_point_distance(f, db, w, lam))
    return HliResult(value, "lower-bound", lam, mode)


def observable_distance(
    X: FiniteMMSpace,
    Y: FiniteMMSpace,
    lam: float,
    mode: str = "exact0",
    *,
    samples: int = 48,
    seed: int = 0,
    max_cells: int = 16,
) -> HliResult:
    """Observable distance: couplings are optimized under the Hausdorff value.

    ``exact0``: for pullback pairs both semimetrics are pseudometrics and the
    Hausdorff value at ``lam = 0`` equals half the pair's box value (the
    distance cones attain the directed suprema), so the coupling optimization
    coincides with the exact box search at ``lam = 0`` and the result is
    certified.  ``sampled``: evaluates sampled couplings with sampled pair
    bounds; tagged heuristic.  Unequal totals follow the same scale-and-gap
    rule as the box distance.
    """
    check_lambda(lam)
    mX, mY = X.total_mass, Y.total_mass
    if abs(mX - mY) > 1e-12:
        if mX > mY:
            res = observable_distance(
                Y, X, lam, mode, samples=samples, seed=seed, max_cells=max_cells
            )
            return HliResult(
                res.value, res.tag, lam, mode,
                None if res.coupling is None else res.coupling.T.copy(),
            )
        gap = mY - mX
        inner = observable_distance(
            X, scale_measure(Y, mX / mY), lam, mode, samples=samples, seed=seed, max_cells=max_cells
        )
        return HliResult(inner.value + gap, inner.tag, lam, mode, inner.coupling)

    if mode == "exact0":
        if lam != 0.0:
            raise ValueError("exact0 mode requires lambda = 0")
        if len(X.support) * len(Y.support) > max_cells:
            raise SizeLimitError(
                f"exact0 observable_distance refuses "
                f"{len(X.support) * len(Y.support)} cells (limit {max_cells})"
            )
        box = box_distance(X, Y, 0.0, "exact", max_cells=max_cells)
        return HliResult(box.value / 2.0, "exact", lam, mode, coupling=box.coupling)
    if mode != "sampled":
        raise ValueError(f"unknown mode {mode!r}")

    rng = np.random.default_rng(seed)
    candidates = [product_coupling(X, Y)]
    for _ in range(COUPLING_CANDIDATES):
        candidates.append(
            northwest_coupling(X, Y, rng.permutation(X.n), rng.permutation(Y.n))
        )
    best = np.inf
    best_pi = None
    for c in candidates:
        pair = pullback_pair(X, Y, c)
        est = hli_lambda(
            pair, lam, "sampled", samples=samples, seed=int(rng.integers(2**31)),
        ).value
        if est < best:
            best, best_pi = est, c.pi
    return HliResult(float(best), "heuristic", lam, mode, coupling=best_pi)
