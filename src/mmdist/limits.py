"""Convergence and stability machinery for finite mm-spaces.

This module quantifies weak convergence through the exact Prokhorov distance
on a fixed finite space, searches for almost-isometry witnesses (a point map,
a retained subset and one tolerance bounding discarded mass, distortion and
the pushforward's Prokhorov gap simultaneously), runs empirical-measure
convergence experiments against the box distance, and probes Lipschitz
domination and homogeneity, which are stable under box convergence, with the
one depth-first search over point maps, :func:`mmdist.matrixdist._point_maps`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product

import numpy as np

from .box import _clique_cells, _clique_solve, _max_weight_clique, box_distance, box_upper_from_witness
from .core import (FiniteMMSpace, Witness, _as_indices, _index_violations, _refuse, _semimetric_violations,
                   _weight_violations, nonnegative, whole_number)
from .errors import SizeLimitError
from .lipschitz import me_lambda
from .matrixdist import _isomorphisms, _point_maps
from .transport import prokhorov_distance

#: :func:`witness_search` enumerates all maps when both supports fit here
WITNESS_ENUM_SUPPORT = 6
#: hill-climbing schedule of :func:`witness_search` beyond that size
ANNEAL_RESTARTS = 8
ANNEAL_STEPS = 500
#: size limits of the backtracking searches
DOMINATION_MAX_SUPPORT = 7
ISOMETRY_MAX_SUPPORT = 8


def prokhorov(space: FiniteMMSpace, mu, nu) -> float:
    """Exact Prokhorov distance between two weightings of one space.

    Smallest ``eps`` such that every subset's ``mu`` mass is covered by the
    ``nu`` mass of its closed ``eps``-neighborhood plus ``eps``; checked by
    transportation feasibility over the ``eps``-near pairs.
    """
    mu, nu = np.asarray(mu, dtype=float), np.asarray(nu, dtype=float)
    _refuse(_weight_violations(mu, space.n, "mu weight") + _weight_violations(nu, space.n, "nu weight"))
    return prokhorov_distance(space.dist, mu, nu)


def lipschitz_up_to_check(
    X: FiniteMMSpace,
    Y: FiniteMMSpace,
    fmap,
    lam: float,
    eps: float,
) -> np.ndarray | None:
    """Certify that a map expands distances by at most ``lam`` plus ``eps``
    off an exceptional set of mass at most ``eps``.

    Returns the maximal-mass subset on which the inequality holds pairwise,
    or ``None`` when every such subset leaves out more than ``eps`` of mass.
    One exact clique search finds it, skipping every subset too light to pass.
    """
    nonnegative(lam, "lambda")
    nonnegative(eps, "eps")
    fmap = _as_indices(fmap, "fmap", Y.n, X.n)
    s = X.support
    dY = Y.dist[np.ix_(fmap[s], fmap[s])]
    dX = X.dist[np.ix_(s, s)]
    ok = dY <= lam * dX + eps + 1e-12
    # maximum-mass subset that is pairwise admissible = max-weight clique
    _, clique = _max_weight_clique(ok, X.weights[s], least=X.total_mass - eps - 1e-9)
    kept = s[list(clique)]
    dropped = X.total_mass - float(X.weights[kept].sum())
    if dropped > eps + 1e-9:
        return None
    return kept


# ---------------------------------------------------------------------------
# witness search


def witness_search(Xn: FiniteMMSpace, X: FiniteMMSpace, *, seed: int = 0) -> Witness:
    """Best almost-isometry witness from ``Xn`` to ``X``.

    Minimizes ``max(distortion on the retained set, dropped mass,
    prokhorov(pushforward, target measure))`` over all point maps and
    retained subsets.  For a fixed map the inner subset optimization is the
    defect-clique search at unit mass-tradeoff; maps are enumerated when both
    supports fit in :data:`WITNESS_ENUM_SUPPORT` and hill-climbed with
    restarts otherwise.

    A map whose Prokhorov gap alone is at least the best objective so far
    skips the clique search: its objective, a maximum that includes that
    gap, cannot fall below the best, and both branches accept only a map
    that is strictly better.  Most such maps skip the Prokhorov search too:
    if the single-point flow bound :func:`_flow_bounds` through the cells
    within the best objective ``b`` is short of ``m - b``, no threshold or
    breakpoint up to ``b`` is feasible, so the gap is above ``b``; the
    enumeration bounds the maps left each time ``b`` falls, and both branches
    build those cells and their row reach once per value of ``b``.  Any
    other map passes ``b`` as the ``cap`` of its clique search, so one
    threshold probe turns away a map whose subset tolerance is above it, and
    any other is searched down from ``b`` (see
    :func:`mmdist.transport._threshold_solve`).  A map that its branch
    accepts (below ``b - 1e-15`` enumerating, below ``b`` climbing) keeps its
    defects, and only the map returned asks for its subset, once, after the
    search.  So the prunes return the same map, subset and tolerance as

    scoring every map.  Among tied maps the enumeration keeps the
    lexicographically first.
    """
    seed = whole_number(seed, "seed", 0)
    if abs(Xn.total_mass - X.total_mass) > 1e-9:
        raise ValueError("witness_search requires equal total masses")
    sn, sx = Xn.support, X.support
    w = Xn.weights[sn]
    m_support = float(w.sum())  # the support's own sum, which numpy may round apart from total_mass

    def evaluate(p_support: tuple, nu: np.ndarray):  # the objective, and the subset's defects and tolerance
        p = np.array(p_support, dtype=int)
        prok = prokhorov_distance(X.dist, nu, X.weights)
        if prok >= best_obj:
            return prok, None  # never accepted
        delta = np.abs(Xn.dist[np.ix_(sn, sn)] - X.dist[np.ix_(p, p)])
        eps_pair = _clique_solve(delta, w, m_support, 1.0, best_obj)
        return max(eps_pair, prok), (delta, eps_pair)

    @lru_cache(maxsize=1)
    def gate(b: float):  # the cells within b, their row reach and the flow needed, once per value of b
        admissible = X.dist <= b + 1e-12
        return admissible, admissible @ X.weights, m_support - b - 1e-12 - 1e-9 * max(m_support, 1.0)

    def ruled_out(nus: np.ndarray) -> np.ndarray:  # rows whose gap is above best_obj, past rounding
        admissible, row_reach, need = gate(best_obj)
        return _flow_bounds(nus, admissible, X.weights, row_reach) < need

    def climb(cand: tuple):
        nu = _pushforwards(np.array([cand]), w, X.n)
        return (np.inf, None) if ruled_out(nu)[0] else evaluate(cand, nu[0])

    best_obj, best_p, best_pair = np.inf, (), None
    if len(sn) <= WITNESS_ENUM_SUPPORT and len(sx) <= WITNESS_ENUM_SUPPORT:
        maps = list(product(sx.tolist(), repeat=len(sn)))
        nus, alive = _pushforwards(np.array(maps), w, X.n), np.ones(len(maps), dtype=bool)
        for k, cand in enumerate(maps):
            if alive[k]:
                obj, pair = evaluate(cand, nus[k])
                if obj < best_obj - 1e-15:
                    best_obj, best_p, best_pair = obj, cand, pair
                    rest = k + 1 + np.flatnonzero(alive[k + 1 :])
                    alive[rest] = ~ruled_out(nus[rest])
    else:
        rng = np.random.default_rng(seed)
        for _ in range(ANNEAL_RESTARTS):
            cand = tuple(rng.choice(sx, size=len(sn)).tolist())
            obj, pair = climb(cand)
            if obj < best_obj:
                best_obj, best_p, best_pair = obj, cand, pair
            for _ in range(ANNEAL_STEPS):
                trial = list(best_p)
                trial[int(rng.integers(len(sn)))] = int(rng.choice(sx))
                trial = tuple(trial)
                obj, pair = climb(trial)
                if obj < best_obj:
                    best_obj, best_p, best_pair = obj, trial, pair
    p_full = np.full(Xn.n, int(sx[0]), dtype=int)
    for k, i in enumerate(sn):
        p_full[i] = best_p[k]
    delta, eps_pair = best_pair
    subset = tuple(int(sn[c]) for c in _clique_cells(delta, w, 1.0, eps_pair))
    return Witness(p_full, np.array(subset, dtype=int), float(best_obj))


def _pushforwards(maps: np.ndarray, w: np.ndarray, n: int) -> np.ndarray:
    """Row ``k`` pushes ``w`` forward by the map ``maps[k]``, summed as ``np.add.at`` sums."""
    nus = np.zeros((len(maps), n))
    np.add.at(nus, (np.arange(len(maps))[:, None], maps), w)
    return nus


def _flow_bounds(nus: np.ndarray, admissible: np.ndarray, w: np.ndarray, row_reach: np.ndarray) -> np.ndarray:
    """Flow bound from each row ``nu`` of ``nus`` to ``w`` through ``A = admissible``: the smaller sum of
    ``min(nu_i, row_reach_i = (A w)_i)`` or ``min(w_j, (nu A)_j)``, summed alike for a row alone or in a batch."""
    reach = np.where(admissible[:, :, None], nus.T[:, None, :], 0.0).sum(axis=0)  # (nu A)_j, column k
    rows = np.minimum(nus, row_reach).sum(axis=1)
    cols = np.minimum(np.ascontiguousarray(reach.T), w).sum(axis=1)
    return np.minimum(rows, cols)


# ---------------------------------------------------------------------------
# empirical convergence


@dataclass(frozen=True)
class ConvergenceReport:
    """Box distances from empirical measures to the sampled space.

    ``rows`` holds ``(sample_size, value, mode)``; ``decreased`` compares
    the last value against the first and is the headline trend check when
    the sizes span two decades.
    """

    rows: tuple
    decreased: bool
    spans_two_decades: bool


def empirical_space(X: FiniteMMSpace, counts: np.ndarray) -> FiniteMMSpace:
    """The empirical mm-space of sampled multiplicities (atoms merge): one
    nonnegative whole count per point, with a positive total."""
    counts = np.asarray(counts, dtype=float)
    if _weight_violations(counts, X.n, "count") or not ((counts == np.round(counts)).all() and counts.sum() > 0.0):
        raise ValueError("counts must be one nonnegative whole number per point, with a positive total")
    total = int(counts.sum())
    weights = counts / total * X.total_mass
    return FiniteMMSpace(X.labels, weights, X.dist)


def empirical_convergence_experiment(
    X: FiniteMMSpace,
    sizes,
    seed: int = 0,
    *,
    max_cells: int = 64,
) -> ConvergenceReport:
    """Sample empirical measures of increasing size and track their box
    distance (at unit mass-tradeoff) to the underlying space.

    Requires a normalized space.  Uses the exact solver whenever the cell
    grid fits, otherwise the witness-based upper bound through the natural
    sample-to-point map.
    """
    max_cells = whole_number(max_cells, "max_cells", 1)
    seed = whole_number(seed, "seed", 0)
    if abs(X.total_mass - 1.0) > 1e-9:
        raise ValueError("empirical experiments require a normalized space")
    rows = []
    s = X.support
    probs = X.weights[s]
    for N in sizes:
        N = whole_number(N, "sample size", 1)
        rng = np.random.default_rng([seed, N])
        counts_s = rng.multinomial(N, probs / probs.sum())
        counts = np.zeros(X.n)
        counts[s] = counts_s
        emp = empirical_space(X, counts)
        n_cells = len(emp.support) * len(s)
        if n_cells <= max_cells:
            value = box_distance(emp, X, 1.0, "exact", max_cells=max_cells).value
            mode = "exact"
        else:
            w = Witness(np.arange(X.n), emp.support, 0.0)
            value = box_upper_from_witness(emp, X, w)
            mode = "witness-upper-bound"
        rows.append((N, float(value), mode))
    decreased = bool(rows) and rows[-1][1] < rows[0][1]
    spans = bool(rows) and max(n for n, _, _ in rows) >= 100 * min(n for n, _, _ in rows)
    return ConvergenceReport(tuple(rows), decreased, spans)


# ---------------------------------------------------------------------------
# Lipschitz domination


@dataclass(frozen=True, eq=False)
class DominationCertificate:
    """A 1-Lipschitz map of supports (``-1`` off the support) pushing the first measure
    to ``c`` times the second, ``c >= 1``; a ``c`` that is not finite and nonnegative is refused."""

    p: np.ndarray
    c: float

    def __post_init__(self):
        object.__setattr__(self, "p", _as_indices(self.p, "domination map"))
        object.__setattr__(self, "c", nonnegative(self.c, "c"))

    def violations(self, X: FiniteMMSpace, Y: FiniteMMSpace) -> list[str]:
        """Ways the certificate fails for ``X`` onto ``Y``; mass is checked to 1e-9."""
        sx, p = X.support, self.p
        v = _index_violations(p, "domination map", length=X.n) or _index_violations(p[sx], "domination map", Y.n)
        if v:
            return v
        if self.c < 1.0 - 1e-12:
            v.append(f"mass ratio c = {self.c:.6g} is below 1")
        dY = Y.dist[np.ix_(p[sx], p[sx])]
        dX = X.dist[np.ix_(sx, sx)]
        worst = float(np.max(dY - dX, initial=0.0))
        if worst > 1e-12:
            v.append(f"map expands some distance by {worst:.3g}")
        pushed = np.zeros(Y.n)
        np.add.at(pushed, p[sx], X.weights[sx])
        err = float(np.max(np.abs(pushed - self.c * Y.weights)))
        if err > 1e-9:
            v.append(f"pushforward misses c * weights by {err:.3g}")
        return v


def domination_search(X: FiniteMMSpace, Y: FiniteMMSpace) -> DominationCertificate | None:
    """Search for a Lipschitz domination certificate from ``X`` onto ``Y``.

    The mass ratio is forced to ``c = m_X / m_Y``.  :func:`_point_maps`
    places the support of ``X`` in order, keeping placements that fit the
    budget ``c * w_Y`` and expand no distance to a placed point; the first
    map whose certificate has no violations is returned, ``None`` after
    exhaustion.
    """
    sx, sy = X.support, Y.support
    if len(sx) > DOMINATION_MAX_SUPPORT or len(sy) > DOMINATION_MAX_SUPPORT:
        raise SizeLimitError(
            f"domination_search refuses supports {len(sx)}x{len(sy)} "
            f"(limit {DOMINATION_MAX_SUPPORT})"
        )
    c = X.total_mass / Y.total_mass
    if c < 1.0 - 1e-12:
        return None
    wX, dX, dY = X.weights.tolist(), X.dist.tolist(), Y.dist.tolist()
    room = (c * Y.weights + 1e-9).tolist()

    def fits(p, placed, i, j):
        load = 0.0
        for a in placed:
            if p[a] == j:
                load += wX[a]
            if dY[j][p[a]] > dX[i][a] + 1e-12:
                return False
        return load + wX[i] <= room[j]

    for p in _point_maps(X.n, sx.tolist(), sy.tolist(), fits):
        cert = DominationCertificate(p, c)
        if not cert.violations(X, Y):
            return cert
    return None


def compose_domination(
    first: DominationCertificate, second: DominationCertificate
) -> DominationCertificate:
    """Compose X > Y and Y > Z certificates into an X > Z certificate."""
    p = np.full(len(first.p), -1, dtype=int)
    defined = first.p >= 0
    _refuse(_index_violations(first.p[defined], "first domination map", len(second.p)))
    p[defined] = second.p[first.p[defined]]
    return DominationCertificate(p, first.c * second.c)


# ---------------------------------------------------------------------------
# isometries and homogeneity


def isometry_group(X: FiniteMMSpace) -> list[np.ndarray]:
    """All distance- and measure-preserving bijections of the support.

    The isomorphisms of ``X`` onto itself, as full-length maps (non-support
    entries -1) in lexicographic order, so the identity comes first.
    """
    _check_isometry_support(X, "isometry_group")
    return sorted(_isomorphisms(X, X), key=lambda g: g.tolist())


def _check_isometry_support(X: FiniteMMSpace, name: str) -> None:
    k = len(X.support)
    if k > ISOMETRY_MAX_SUPPORT:
        raise SizeLimitError(f"{name} refuses support size {k} (limit {ISOMETRY_MAX_SUPPORT})")


def _is_transitive(X: FiniteMMSpace, group: list[np.ndarray]) -> bool:
    """Whether ``group`` (which holds the identity) moves the first support
    point onto every support point."""
    s = X.support
    return {int(g[s[0]]) for g in group} == set(s.tolist())


def is_homogeneous(X: FiniteMMSpace) -> bool:
    """Whether the measure-preserving isometry group acts transitively.

    One search per support point ``t``, pinning the first support point to
    ``t`` and stopping at its first map; the group is never enumerated.
    """
    _check_isometry_support(X, "is_homogeneous")
    s = X.support.tolist()
    return all(next(_isomorphisms(X, X, pin=(s[0], t)), None) is not None for t in s)


# ---------------------------------------------------------------------------
# me_1 sequence diagnostic


@dataclass(frozen=True)
class Me1Diagnostic:
    """Pairwise me distances of a map sequence with its longest cluster chains.

    ``chains`` holds ``(eps, indices)`` for each grid tolerance: the longest
    subsequence whose members stay pairwise within ``eps``, the
    lexicographically smallest among equally long ones.  Diagnostic only.
    """

    matrix: np.ndarray
    chains: tuple

    @property
    def empty(self) -> bool:
        return self.matrix.size == 0


def me1_subsequence_diagnostic(maps, weights, dY) -> Me1Diagnostic:
    """Pairwise me_1 structure of a sequence of maps into a common target.

    For each distinct pairwise value as the tolerance, the longest chain that
    stays pairwise within the tolerance is a maximum clique of the graph
    ``M <= eps + 1e-12``, found exactly by the unit-weight clique search; a
    chain covering the whole sequence means the sequence is uniformly
    clustered at that scale.
    """
    w, dY = np.asarray(weights, dtype=float), np.asarray(dY, dtype=float)
    _refuse(_weight_violations(w, w.size, "weight") + _semimetric_violations(dY, len(np.atleast_1d(dY)), "dY"))
    maps = [_as_indices(f, f"maps[{i}]", len(dY), w.size) for i, f in enumerate(maps)]
    k = len(maps)
    if k == 0:
        return Me1Diagnostic(np.zeros((0, 0)), ())
    M = np.zeros((k, k))
    for i in range(k):
        for j in range(i + 1, k):
            M[i, j] = M[j, i] = me_lambda(dY[maps[i], maps[j]], np.zeros(w.size), w, 1.0)
    eps_grid = np.unique(M[np.triu_indices(k, k=1)]) if k > 1 else np.array([0.0])
    chains = tuple((float(eps), _max_weight_clique(M <= eps + 1e-12, np.ones(k))[1]) for eps in eps_grid)
    return Me1Diagnostic(M, chains)
