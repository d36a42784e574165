"""Box distances on semimetric pairs and between finite mm-spaces.

For a weighted index set with two semimetrics, the box value at parameter
``lam`` is the smallest tolerance ``eps`` such that after discarding index
mass at most ``lam * eps`` the two semimetrics differ by at most ``eps`` on
every retained pair.  Between two spaces, the distance additionally minimizes
over all couplings of the (mass-normalized) measures; unequal totals are
handled by scaling the heavier measure down and adding the mass gap.

Exactness rests on two observations.  First, discarding part of an atom is
never useful, so the retained set may be taken to be a union of cells and the
search is combinatorial.  Second, for a fixed tolerance the retained cells
must be pairwise compatible (a clique in the defect graph) and the retainable
mass is a transportation max-flow, both of which change only at finitely many
thresholds: the pairwise defect values and the mass breakpoints
``(m - W) / lam``.  The solver scans this candidate set with a binary search
and returns a certificate (retained cells, and for space-level solves an
optimal coupling).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    Coupling,
    FiniteMMSpace,
    SemiDistancePair,
    Witness,
    check_lambda,
    pullback_pair,
    scale_measure,
)
from .errors import InternalInvariantError, SizeLimitError
from .transport import _threshold_solve, completion, max_flow, max_flow_value, northwest_plan, prokhorov_distance

#: defect comparisons get this much absolute slack when building clique graphs
EDGE_TOL = 1e-12
#: masses within this of each other tie in the clique and flow searches
_TIE_TOL = 1e-12
#: local-search schedule of heuristic :func:`box_distance`
HEURISTIC_RESTARTS = 6
HEURISTIC_STEPS = 200


@dataclass(frozen=True)
class BoxResult:
    """Value and certificate of a box computation.

    ``value`` includes the mass gap for unequal totals; ``pair_value`` is the
    tolerance certified on the mass-normalized instance, so the certificate
    promises ``retained_mass >= m - lam * pair_value`` and pairwise defects
    at most ``pair_value`` on ``cells``.  ``coupling`` is present for
    space-level solves (marginals: the lighter measure on both sides).
    """

    value: float
    mode: str  # "exact" or "heuristic-upper-bound"
    cells: tuple
    retained_mass: float
    pair_value: float
    mass_gap: float = 0.0
    coupling: np.ndarray | None = None

    def to_jsonable(self) -> dict:
        out = {
            "value": self.value,
            "mode": self.mode,
            "certificate": {
                "cells": [list(c) if isinstance(c, tuple) else c for c in self.cells],
                "retained_mass": self.retained_mass,
                "pair_value": self.pair_value,
                "mass_gap": self.mass_gap,
            },
        }
        if self.coupling is not None:
            out["certificate"]["coupling"] = [list(map(float, row)) for row in self.coupling]
        return out


# ---------------------------------------------------------------------------
# clique machinery


def _maximal_cliques(adj: np.ndarray):
    """Yield maximal cliques of a boolean adjacency matrix (Bron-Kerbosch).

    Pivoting keeps the recursion small; iteration order is deterministic.
    """
    n = adj.shape[0]
    neigh = [set(np.flatnonzero(adj[v]).tolist()) - {v} for v in range(n)]

    def bk(r: set, p: set, x: set):
        if not p and not x:
            yield tuple(sorted(r))
            return
        pivot = max(sorted(p | x), key=lambda v: len(p & neigh[v]))
        for v in sorted(p - neigh[pivot]):
            yield from bk(r | {v}, p & neigh[v], x & neigh[v])
            p = p - {v}
            x = x | {v}

    yield from bk(set(), set(range(n)), set())


def _max_weight_clique(
    adj: np.ndarray, weights: np.ndarray, *, target: float | None = None
) -> tuple[float, tuple]:
    """Branch-and-bound maximum-weight clique with deterministic tie-breaking.

    Returns ``(mass, vertices)`` maximizing mass, then taking the
    lexicographically smallest vertex tuple among (near-)ties.  With
    ``target`` set the search stops as soon as any clique reaches it, in
    which case the result is only a witness of feasibility.
    """
    n = len(weights)
    order = sorted(range(n), key=lambda v: -weights[v])
    neigh = [set(np.flatnonzero(adj[v]).tolist()) - {v} for v in range(n)]
    best_mass = 0.0
    best_set: tuple = ()
    done = False

    def consider(r: list, mass: float):
        nonlocal best_mass, best_set, done
        tup = tuple(sorted(r))
        if mass > best_mass + _TIE_TOL:
            best_mass, best_set = mass, tup
        elif mass >= best_mass - _TIE_TOL and (not best_set or tup < best_set):
            best_mass, best_set = max(best_mass, mass), tup
        if target is not None and best_mass >= target:
            done = True

    def expand(r: list, mass: float, cand: list):
        nonlocal best_mass
        consider(r, mass)
        if done:
            return
        remaining = sum(weights[v] for v in cand)
        for idx, v in enumerate(cand):
            if mass + remaining < best_mass - _TIE_TOL:
                return  # even taking every remaining candidate cannot win
            expand(r + [v], mass + weights[v], [u for u in cand[idx + 1 :] if u in neigh[v]])
            if done:
                return
            remaining -= weights[v]

    expand([], 0.0, order)
    return best_mass, best_set


def smallest_eps_for_defects(delta: np.ndarray, weights: np.ndarray, lam: float) -> tuple[float, tuple]:
    """Exact box value for a symmetric defect matrix over weighted indices.

    Returns ``(eps, cells)`` where ``cells`` is the retained index set with
    maximum mass (lexicographically smallest among ties).  This is the common
    core of :func:`box_pair` and of the point-to-Lipschitz-set distances in
    :mod:`mmdist.lipschitz`.
    """
    check_lambda(lam)
    w_all = np.asarray(weights, dtype=float)
    support = np.flatnonzero(w_all > 0.0)
    if len(support) == 0:
        return 0.0, ()
    d = np.maximum(np.asarray(delta, dtype=float), 0.0)[np.ix_(support, support)]
    w = w_all[support]
    m = float(w_all.sum())
    if len(support) == 1:
        return 0.0, (int(support[0]),)
    off = d[np.triu_indices(len(support), k=1)]
    if lam == 0.0:
        eps = float(off.max())
        return eps, tuple(int(i) for i in support)

    thresholds = np.unique(np.concatenate(([0.0], off)))

    def retained_max(t: float, tgt):
        adj = d <= t + EDGE_TOL
        np.fill_diagonal(adj, False)
        mass, _ = _max_weight_clique(adj, w, target=tgt)
        return mass

    eps = _threshold_solve(thresholds, m, lam, retained_max)
    adj = d <= eps + EDGE_TOL
    np.fill_diagonal(adj, False)
    _, cells_local = _max_weight_clique(adj, w)
    return eps, tuple(int(support[i]) for i in cells_local)


# ---------------------------------------------------------------------------
# pairs


def box_pair(
    pair: SemiDistancePair,
    lam: float,
    mode: str = "exact",
    *,
    max_cells: int = 64,
) -> BoxResult:
    """Box value of a semimetric pair.

    Exact mode uses the branch-and-bound clique search over the defect graph;
    heuristic mode peels the worst cell greedily and returns an upper bound.
    """
    check_lambda(lam)
    delta = np.abs(pair.d1 - pair.d2)
    m = pair.total_mass
    if mode == "exact":
        if len(pair.support) > max_cells:
            raise SizeLimitError(
                f"exact box_pair refuses {len(pair.support)} cells (limit {max_cells}); "
                "use heuristic mode"
            )
        eps, cells = smallest_eps_for_defects(delta, pair.weights, lam)
        retained = float(pair.weights[list(cells)].sum()) if cells else 0.0
        return BoxResult(eps, "exact", cells, retained, eps)
    if mode != "heuristic":
        raise ValueError(f"unknown mode {mode!r}")
    return _greedy_peel(delta, pair.weights, lam, m)


def _greedy_peel(delta: np.ndarray, weights: np.ndarray, lam: float, m: float) -> BoxResult:
    """Upper bound by repeatedly dropping a cell of the worst defect pair."""
    current = [int(i) for i in np.flatnonzero(np.asarray(weights) > 0.0)]
    w = np.asarray(weights, dtype=float)
    best_eps = np.inf
    best_cells: tuple = ()
    while current:
        sub = delta[np.ix_(current, current)]
        worst = float(sub.max(initial=0.0)) if len(current) > 1 else 0.0
        dropped = m - float(w[current].sum())
        if lam > 0.0:
            eps = max(worst, dropped / lam)
        elif dropped <= 1e-15:
            eps = worst
        else:
            eps = np.inf  # cannot certify at lambda = 0 after dropping mass
        if eps < best_eps:
            best_eps, best_cells = eps, tuple(current)
        if len(current) == 1:
            break
        i, j = np.unravel_index(int(sub.argmax()), sub.shape)
        # drop the endpoint of the worst pair that frees the most defect mass,
        # breaking ties toward the smaller atom, then the larger index
        cand = sorted(
            (current[i], current[j]),
            key=lambda v: (-float(delta[v, current].max()), float(w[v]), -v),
        )
        current.remove(cand[0])
    retained = float(w[list(best_cells)].sum()) if best_cells else 0.0
    return BoxResult(float(best_eps), "heuristic-upper-bound", best_cells, retained, float(best_eps))


# ---------------------------------------------------------------------------
# spaces


def _cell_defect_matrix(X: FiniteMMSpace, Y: FiniteMMSpace, sx: np.ndarray, sy: np.ndarray):
    """Defect between all pairs of coupling cells (x, y), (x', y')."""
    dx = X.dist[np.ix_(sx, sx)]
    dy = Y.dist[np.ix_(sy, sy)]
    # delta[(i,j),(i',j')] = |dx[i,i'] - dy[j,j']| on the flattened cell grid
    return np.abs(dx[:, None, :, None] - dy[None, :, None, :]).reshape(
        len(sx) * len(sy), len(sx) * len(sy)
    )


def _best_flow_at(
    adj: np.ndarray,
    rows_of: np.ndarray,
    cols_of: np.ndarray,
    row_caps: np.ndarray,
    col_caps: np.ndarray,
    *,
    target: float | None = None,
):
    """Max over maximal compatible cell sets of the transportation flow.

    Returns ``(mass, cells)``.  Deterministic: ties go to the
    lexicographically smallest cell tuple.
    """
    best = (0.0, ())
    for clique in _maximal_cliques(adj):
        rows = sorted({int(rows_of[c]) for c in clique})
        cols = sorted({int(cols_of[c]) for c in clique})
        ub = min(float(row_caps[rows].sum()), float(col_caps[cols].sum()))
        if ub < best[0] - _TIE_TOL:
            continue
        mask = np.zeros((len(row_caps), len(col_caps)), dtype=bool)
        for c in clique:
            mask[rows_of[c], cols_of[c]] = True
        value = max_flow_value(row_caps, col_caps, mask)
        tup = tuple(int(c) for c in clique)
        if value > best[0] + _TIE_TOL or (
            value >= best[0] - _TIE_TOL and (best[1] == () or tup < best[1])
        ):
            best = (max(best[0], value), tup)
        if target is not None and best[0] >= target:
            break
    return best


def _box_equal_mass_exact(X: FiniteMMSpace, Y: FiniteMMSpace, lam: float, max_cells: int) -> BoxResult:
    sx, sy = X.support, Y.support
    n_cells = len(sx) * len(sy)
    if n_cells > max_cells:
        raise SizeLimitError(
            f"exact box_distance refuses {n_cells} cells (limit {max_cells}); "
            "use heuristic mode"
        )
    m = X.total_mass
    row_caps = X.weights[sx]
    col_caps = Y.weights[sy]
    rows_of = np.repeat(np.arange(len(sx)), len(sy))
    cols_of = np.tile(np.arange(len(sy)), len(sx))
    delta = _cell_defect_matrix(X, Y, sx, sy)

    def adj_at(t: float) -> np.ndarray:
        adj = delta <= t + EDGE_TOL
        np.fill_diagonal(adj, False)
        return adj

    def retained_max(t: float, tgt):
        mass, _ = _best_flow_at(
            adj_at(t), rows_of, cols_of, row_caps, col_caps, target=tgt
        )
        return mass

    off = delta[np.triu_indices(n_cells, k=1)] if n_cells > 1 else np.array([0.0])
    thresholds = np.unique(np.concatenate(([0.0], off)))
    eps = _threshold_solve(thresholds, m, lam, retained_max)

    mass, cells = _best_flow_at(adj_at(eps), rows_of, cols_of, row_caps, col_caps)
    if mass + lam * eps < m - 1e-9:
        raise InternalInvariantError("box certificate lost feasibility")
    mask = np.zeros((len(sx), len(sy)), dtype=bool)
    mask[rows_of[list(cells)], cols_of[list(cells)]] = True
    _, sub_plan = max_flow(row_caps, col_caps, mask)
    full_plan = completion(sub_plan, row_caps, col_caps)
    pi = np.zeros((X.n, Y.n))
    pi[np.ix_(sx, sy)] = full_plan
    cell_pairs = tuple((int(sx[rows_of[c]]), int(sy[cols_of[c]])) for c in cells)
    retained = float(sum(pi[i, j] for i, j in cell_pairs))
    return BoxResult(eps, "exact", cell_pairs, retained, eps, coupling=pi)


def _box_equal_mass_heuristic(
    X: FiniteMMSpace, Y: FiniteMMSpace, lam: float, seed: int
) -> BoxResult:
    """Local search over couplings, each scored by an exact pair solve.

    Moves are 2x2 pivots on the transportation polytope, which preserve the
    marginals; the returned value is an upper bound on the exact distance.
    """
    rng = np.random.default_rng(seed)
    best_eps = np.inf
    best_cells: tuple = ()
    best_pi: np.ndarray | None = None

    def score(pi: np.ndarray) -> tuple[float, tuple]:
        pair = pullback_pair(X, Y, Coupling(pi, X.weights, Y.weights))
        return smallest_eps_for_defects(np.abs(pair.d1 - pair.d2), pair.weights, lam)

    for attempt in range(HEURISTIC_RESTARTS):
        if attempt == 0:  # natural order: the diagonal plan for aligned spaces
            pi = northwest_plan(X.weights, Y.weights)
        else:
            pi = northwest_plan(X.weights, Y.weights, rng.permutation(X.n), rng.permutation(Y.n))
        eps, cells = score(pi)
        if eps < best_eps:
            best_eps, best_cells, best_pi = eps, cells, pi
        for _ in range(HEURISTIC_STEPS):
            i1, i2 = rng.integers(0, X.n, size=2)
            j1, j2 = rng.integers(0, Y.n, size=2)
            if i1 == i2 or j1 == j2:
                continue
            room = min(pi[i1, j2], pi[i2, j1])
            if room <= 0.0:
                continue
            shift = room if rng.random() < 0.5 else room * rng.random()
            trial = pi.copy()
            trial[i1, j1] += shift
            trial[i2, j2] += shift
            trial[i1, j2] -= shift
            trial[i2, j1] -= shift
            eps, cells = score(trial)
            if eps <= best_eps + 1e-15:
                pi = trial
                if eps < best_eps:
                    best_eps, best_cells, best_pi = eps, cells, trial
    # pullback cells are the nonzero entries of the coupling, in row-major order
    ii, jj = np.nonzero(best_pi > 0.0)
    cells = tuple((int(ii[k]), int(jj[k])) for k in best_cells)
    retained = float(sum(best_pi[i, j] for i, j in cells))
    return BoxResult(
        best_eps, "heuristic-upper-bound", cells, retained, best_eps, coupling=best_pi
    )


def box_distance(
    X: FiniteMMSpace,
    Y: FiniteMMSpace,
    lam: float,
    mode: str = "exact",
    *,
    max_cells: int = 64,
    seed: int = 0,
) -> BoxResult:
    """Box distance between two finite mm-spaces.

    Equal totals: minimize the pair value over all couplings.  Unequal
    totals: scale the heavier measure down to the lighter one and add the
    mass gap.  Exact mode certifies the optimum; heuristic mode returns an
    upper bound (never below the exact value).
    """
    check_lambda(lam)
    if mode not in ("exact", "heuristic"):
        raise ValueError(f"unknown mode {mode!r}")
    mX, mY = X.total_mass, Y.total_mass
    if abs(mX - mY) <= 1e-12:
        if mode == "exact":
            return _box_equal_mass_exact(X, Y, lam, max_cells)
        return _box_equal_mass_heuristic(X, Y, lam, seed)
    if mX > mY:
        flipped = box_distance(Y, X, lam, mode, max_cells=max_cells, seed=seed)
        return BoxResult(
            flipped.value,
            flipped.mode,
            tuple((j, i) for (i, j) in flipped.cells),
            flipped.retained_mass,
            flipped.pair_value,
            flipped.mass_gap,
            None if flipped.coupling is None else flipped.coupling.T.copy(),
        )
    gap = mY - mX
    inner = box_distance(X, scale_measure(Y, mX / mY), lam, mode, max_cells=max_cells, seed=seed)
    return BoxResult(
        inner.value + gap,
        inner.mode,
        inner.cells,
        inner.retained_mass,
        inner.pair_value,
        inner.mass_gap + gap,
        inner.coupling,
    )


def box_upper_from_witness(Xn: FiniteMMSpace, X: FiniteMMSpace, w: Witness) -> float:
    """Upper bound on the box distance at ``lam = 1`` from an almost-isometry.

    The witness map pushes the first measure onto the second space; gluing
    that pushforward coupling with a Prokhorov-optimal coupling of the
    pushforward against the target measure yields a concrete coupling, whose
    pair value is an upper bound on the true distance by definition.
    """
    p = np.asarray(w.p, dtype=int)
    if len(p) != Xn.n:
        raise ValueError("witness map length does not match the space")
    if np.any(p < 0) or np.any(p >= X.n):
        raise ValueError("witness map has out-of-range targets")
    mn, mx = Xn.total_mass, X.total_mass
    if abs(mn - mx) > 1e-12:
        if mn < mx:
            return box_upper_from_witness(Xn, scale_measure(X, mn / mx), w) + (mx - mn)
        return box_upper_from_witness(scale_measure(Xn, mx / mn), X, w) + (mn - mx)
    nu = np.zeros(X.n)
    np.add.at(nu, p, Xn.weights)
    eps = prokhorov_distance(X.dist, nu, X.weights)
    kappa = completion(max_flow(nu, X.weights, X.dist <= eps + 1e-12)[1], nu, X.weights)
    pi = np.zeros((Xn.n, X.n))
    for z in range(Xn.n):
        if Xn.weights[z] > 0.0:
            u = p[z]
            pi[z] = Xn.weights[z] * kappa[u] / nu[u]
    pair = pullback_pair(X=Xn, Y=X, pi=Coupling(pi, Xn.weights, X.weights), tol=1e-7)
    return smallest_eps_for_defects(np.abs(pair.d1 - pair.d2), pair.weights, 1.0)[0]
