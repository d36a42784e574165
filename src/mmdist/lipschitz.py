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
constraints between support points.  ``Lip1Set.closure`` holds ``C``,
computed once per set, and every computation on the set reads it.  A member
of Lip1(D) is within ``eps`` of ``f`` on a retained set ``S`` exactly when
``|f_i - f_j| <= 2 eps + D_ij`` for all ``i, j`` in ``S``, so the point-to-set
me distance is the same defect-clique search the box solvers use.

At ``lam = 0`` the Hausdorff distance has a closed form.  The distance from
``f`` to Lip1(C2) is ``max_ij (|f_i - f_j| - C2_ij)^+ / 2``.  Over ``f`` in
Lip1(C1) each term is at most ``(C1_ij - C2_ij)^+ / 2``, and the cone
``f = C1(., j)`` attains it.  So the value is ``max |C1 - C2| / 2`` over
support pairs.  For ``lam > 0`` no closed form is used: the sampled mode
bounds the distance from below by measuring cones and random members of each
set exactly against the other.  Vertex enumeration (``Lip1Set.vertices``)
stays as an independent check of the closed form: it grows the tight trees
of the vertices from the pinned point, one tight edge at a time, keeping only
partial assignments that are feasible on the points placed so far.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .box import _clique_solve, box_distance
from .core import (
    FiniteMMSpace,
    SemiDistancePair,
    _as_indices,
    _function_violations,
    _index_violations,
    _readonly,
    _refuse,
    _semimetric_violations,
    _weight_violations,
    lighter_first,
    metric_closure,
    nonnegative,
    northwest_coupling,
    product_coupling,
    pullback_pair,
    whole_number,
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
    nonnegative(lam, "lambda")
    f, g, w = (np.asarray(a, dtype=float) for a in (f, g, weights))
    _refuse(_weight_violations(w, w.size, "weight") + _function_violations(f, w.size, "f")
            + _function_violations(g, w.size, "g"))
    keep = w > 0.0
    v = np.abs(f - g)[keep]
    w = w[keep]
    if v.size == 0:
        return 0.0
    if lam == 0.0:
        return float(v.max())
    return _threshold_solve(v, float(w.sum()), lam, lambda t, _: (float(w[v <= t].sum()), None))[0]


def me_lambda_maps(fmap, gmap, weights, dY, lam: float) -> float:
    """me distance between two maps into a common metric target.

    ``fmap`` and ``gmap`` are index vectors into the target space with
    distance matrix ``dY``; the distance is ``me_lambda`` applied to the
    pointwise target distances against zero.
    """
    dY = np.asarray(dY, dtype=float)
    _refuse(_semimetric_violations(dY, len(np.atleast_1d(dY)), "dY"))
    fmap, gmap, n = np.asarray(fmap), np.asarray(gmap), np.asarray(weights).size
    _refuse(_index_violations(fmap, "fmap", len(dY), n) + _index_violations(gmap, "gmap", len(dY), n))
    gaps = dY[fmap.astype(int), gmap.astype(int)]
    return me_lambda(gaps, np.zeros_like(gaps), weights, lam)


# ---------------------------------------------------------------------------
# Lipschitz sets


def project_to_lip1(f, dist, anchor) -> np.ndarray:
    """McShane projection: the largest 1-Lipschitz minorant of ``f + d``.

    ``out[i] = min over a in anchor of f[a] + dist[i, a]``.  For a matrix
    satisfying the triangle inequality the output is 1-Lipschitz everywhere
    and fixes any function that is already 1-Lipschitz (full anchor).
    """
    f = np.asarray(f, dtype=float)
    d = np.asarray(dist, dtype=float)
    _refuse(_function_violations(f, f.size, "f") + _semimetric_violations(d, f.size, "dist"))
    anchor = _as_indices(anchor, "anchor", f.size)
    if anchor.size == 0:
        raise ValueError("anchor must be nonempty")
    return np.min(f[anchor][None, :] + d[:, anchor], axis=1)


@dataclass(frozen=True, eq=False)
class Lip1Set:
    """The polytope of 1-Lipschitz functions on the support of an index set.

    Functions are considered on the support only and pinned to zero at the
    first support point; adding constants never leaves the set, so all
    distances computed against it optimize over translations implicitly.
    The weights and ``dist`` meet the rules of a pair's weights and ``d1``
    (``ValueError`` otherwise).
    """

    dist: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        # read-only copies: the cached support and closure must keep describing them
        object.__setattr__(self, "dist", _readonly(self.dist))
        object.__setattr__(self, "weights", _readonly(self.weights))
        n = self.weights.size
        _refuse(_weight_violations(self.weights, n, "weight") + _semimetric_violations(self.dist, n, "dist"))

    @cached_property
    def support(self) -> np.ndarray:
        return np.flatnonzero(self.weights > 0.0)

    @cached_property
    def closure(self) -> np.ndarray:
        """Shortest-path closure of ``dist`` on the support, computed once per set."""
        s = self.support
        return metric_closure(self.dist[np.ix_(s, s)])

    def contains(self, f) -> bool:
        """Whether ``f`` (finite, over the weights) is 1-Lipschitz on the support, within :data:`LIP_TOL`."""
        f = np.asarray(f, dtype=float)
        _refuse(_function_violations(f, self.weights.size, "f"))
        f = f[self.support]
        excess = np.abs(f[:, None] - f[None, :]) - self.closure
        return float(np.max(excess, initial=0.0)) <= LIP_TOL

    def vertices(self, *, max_support: int = 6) -> np.ndarray:
        """All extreme points, pinned at the first support point.

        A feasible ``f`` is a vertex exactly when its tight constraints
        ``f_b - f_a = +-d_ab``, together with the pin, connect the support.
        So every vertex can be built from ``{first support point: 0}`` by
        attaching one point at a time along a tight edge, in breadth-first
        order of its tight tree, and each partial assignment on the way is
        feasible on the points placed so far.  The search grows exactly
        these partial assignments, one placed point per round, and merges
        states with the same placed set and the same values at 1e-9.
        Conversely, every complete assignment it builds is feasible and has
        a tight spanning tree, so it is a vertex.  Rows are sorted by their
        values at 1e-9; non-support coordinates are filled by McShane
        extension from the support.
        """
        s = self.support
        k = len(s)
        if k > max_support:
            raise SizeLimitError(
                f"vertex enumeration refuses support size {k} (limit {max_support})"
            )
        n = self.dist.shape[0]
        if k == 0:  # the pinned zero function is the only member
            return np.zeros((1, n))
        d = self.dist[np.ix_(s, s)]
        # (placed points, values at 1e-9) -> values, unplaced entries zero
        states = {((0,), (0,) * k): np.zeros(k)}
        for _ in range(k - 1):
            grown: dict[tuple, np.ndarray] = {}
            for (placed, _), vals in states.items():
                p = list(placed)
                for b in sorted(set(range(k)) - set(placed)):
                    cand = np.concatenate((vals[p] + d[p, b], vals[p] - d[p, b]))
                    ok = np.all(np.abs(cand[:, None] - vals[p]) - d[b, p] <= 1e-9, axis=1)
                    for v in cand[ok]:
                        new = vals.copy()
                        new[b] = v
                        at = tuple(np.round(new / 1e-9).astype(np.int64).tolist())
                        grown.setdefault((tuple(sorted(p + [b])), at), new)
            states = grown
        # every final state places all points, so the keys sort by values
        return np.array([self._extend(vals) for _, vals in sorted(states.items())]).reshape(-1, n)

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        """A random member: signed cone values on a random anchor, projected.

        Anchor values are combinations of distance cones ``+-d(., x_i)``;
        the McShane projection of any anchor data is 1-Lipschitz, so the
        sampler covers the polytope without rejection.
        """
        s = self.support
        k = len(s)
        if k == 0:  # nothing to sample from: the pinned zero function
            return np.zeros(self.dist.shape[0])
        d = self.dist[np.ix_(s, s)]
        anchor = np.sort(rng.choice(k, size=int(rng.integers(1, k + 1)), replace=False))
        apex = int(rng.integers(0, k))
        sign = -1.0 if rng.random() < 0.5 else 1.0
        raw = sign * d[:, apex] + rng.normal(0.0, 0.25 * (1.0 + d.max()), size=k)
        # project anchor values through the closure so the result is Lipschitz
        proj = np.min(raw[anchor][None, :] + self.closure[:, anchor], axis=1)
        return self._extend(proj - proj[0])

    def _extend(self, support_values: np.ndarray) -> np.ndarray:
        """Fill non-support coordinates by McShane extension from the support."""
        s = self.support
        out = np.min(support_values[None, :] + self.dist[:, s], axis=1)
        out[s] = support_values
        return out


# ---------------------------------------------------------------------------
# Hausdorff distances between Lipschitz sets


def lip_point_distance(f, target: Lip1Set, lam: float, *, floor: float = 0.0) -> float:
    """Exact me-distance from a function to a 1-Lipschitz set, or ``floor``
    if that is larger: the result is ``max(floor, distance)``.

    A member of ``target`` within ``eps`` of ``f`` on a set ``S`` exists iff
    ``|f_i - f_j| <= 2 eps + D_ij`` on ``S``, with ``D`` the set's closure;
    so the distance is the defect-clique optimum for the halved excess matrix.
    A running maximum passes itself as ``floor``: one threshold probe then
    settles a distance that cannot raise it (see
    :func:`mmdist.transport._threshold_solve`).  The distance is at most the
    largest defect, so a positive floor that no defect exceeds is the answer
    at once: the one probe the search would make, at the largest threshold,
    would return it.
    """
    nonnegative(lam, "lambda")
    floor = nonnegative(floor, "floor")
    f = np.asarray(f, dtype=float)
    _refuse(_function_violations(f, target.weights.size, "f"))
    s = target.support
    f, w = f[s], target.weights[s]
    delta = np.clip((np.abs(f[:, None] - f[None, :]) - target.closure) / 2.0, 0.0, None)
    np.fill_diagonal(delta, 0.0)
    if floor > 0.0 and delta.max(initial=0.0) <= floor:
        return floor
    return _clique_solve(delta, w, float(w.sum()), lam, floor=floor)


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


def _mode(lam: float, mode: str | None) -> str:
    """The mode of :func:`hli_lambda` and :func:`observable_distance`, once ``lam`` is checked."""
    nonnegative(lam, "lambda")
    mode = mode or ("exact0" if lam == 0.0 else "sampled")
    if mode not in ("exact0", "sampled"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "exact0" and lam != 0.0:
        raise ValueError("exact0 mode requires lambda = 0")
    return mode


def hli_lambda(
    pair: SemiDistancePair,
    lam: float,
    mode: str | None = None,
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
    the other polytope.  ``mode=None`` picks ``exact0`` at ``lam = 0``, else
    ``sampled``.  The sampled bound is the running maximum over the probes;
    each probe passes it as the ``floor`` of :func:`lip_point_distance`, so
    a probe that cannot raise it costs one threshold probe, not a search.
    """
    mode = _mode(lam, mode)
    seed = whole_number(seed, "seed", 0)
    sets = (Lip1Set(pair.d1, pair.weights), Lip1Set(pair.d2, pair.weights))
    if mode == "exact0":
        gap = np.abs(sets[0].closure - sets[1].closure)
        return HliResult(float(np.max(gap, initial=0.0)) / 2.0, "exact", lam, mode)
    samples = whole_number(samples, "samples", 0)
    rng = np.random.default_rng(seed)
    value = 0.0
    for source, target in (sets, sets[::-1]):
        # closure cones are members even where the raw matrix breaks the triangle inequality
        probes = [source._extend(cone) for cone in source.closure.T]
        probes += [source.sample(rng) for _ in range(samples)]
        for f in probes:
            value = lip_point_distance(f, target, lam, floor=value)
    return HliResult(value, "lower-bound", lam, mode)


def observable_distance(
    X: FiniteMMSpace,
    Y: FiniteMMSpace,
    lam: float,
    mode: str | None = None,
    *,
    samples: int = 48,
    seed: int = 0,
    max_cells: int = 64,
) -> HliResult:
    """Observable distance: couplings are optimized under the Hausdorff value.

    ``exact0``: for pullback pairs both semimetrics are pseudometrics and the
    Hausdorff value at ``lam = 0`` equals half the pair's box value (the
    distance cones attain the directed suprema), so the coupling optimization
    coincides with the exact box search at ``lam = 0`` and the result is
    certified.  ``sampled``: evaluates sampled couplings with sampled pair
    bounds; tagged heuristic.  Unequal totals follow the same scale-and-gap
    rule as the box distance (:func:`mmdist.core.lighter_first`).
    ``mode=None`` picks ``exact0`` at ``lam = 0``, else ``sampled``.
    """
    mode = _mode(lam, mode)
    max_cells = whole_number(max_cells, "max_cells", 1)
    seed = whole_number(seed, "seed", 0)
    X, Y, gap, swapped = lighter_first(X, Y)
    if mode == "exact0":
        box = box_distance(X, Y, 0.0, "exact", max_cells=max_cells)
        value, tag, pi = box.value / 2.0, "exact", box.coupling
    else:
        rng = np.random.default_rng(seed)
        candidates = [product_coupling(X, Y)]
        for _ in range(COUPLING_CANDIDATES):
            candidates.append(
                northwest_coupling(X, Y, rng.permutation(X.n), rng.permutation(Y.n))
            )
        value, tag, pi = np.inf, "heuristic", None
        for c in candidates:
            pair = pullback_pair(X, Y, c)
            est = hli_lambda(
                pair, lam, "sampled", samples=samples, seed=int(rng.integers(2**31)),
            ).value
            if est < value:
                value, pi = est, c
    if swapped:
        pi = pi.T.copy()
    return HliResult(value + gap, tag, lam, mode, pi)
