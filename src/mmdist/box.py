"""Box distances on semimetric pairs and between finite mm-spaces.

For a weighted index set with two semimetrics, the box value at parameter
``lam`` is the smallest tolerance ``eps`` such that after discarding index
mass at most ``lam * eps`` the two semimetrics differ by at most ``eps`` on
every retained pair.  Between two spaces, the distance additionally minimizes
over all couplings of the (mass-normalized) measures; unequal totals are
handled by scaling the heavier measure down and adding the mass gap, the rule
:func:`mmdist.core.lighter_first` states once for every distance.

Exactness rests on two observations.  First, discarding part of an atom is
never useful, so the retained set may be taken to be a union of cells and the
search is combinatorial.  Second, for a fixed tolerance the retained cells
must be pairwise compatible (a clique in the defect graph) and the retainable
mass is a transportation max-flow, both of which change only at finitely many
thresholds: the pairwise defect values and the mass breakpoints
``(m - W) / lam``.  One threshold search over them
(:func:`mmdist.transport._threshold_solve`), whose probes each hand a search
their defect graph as one boolean matrix, returns the value and its witness.
The pair solver plugs in a maximum-weight clique and keeps the value
(:func:`_clique_solve`); its certificate, the heaviest cells,
lexicographically smallest among ties, is one more search
(:func:`_clique_cells`).  The space solver plugs in a flow over maximal
cliques and keeps the witness, so its certificate promises ``retained_mass >=
m - lam * pair_value``, not a maximum; every certificate of
:func:`box_distance` meets one rule (:func:`_certificate_violations`).  The
space solver numbers the coupling cells once, row-major, and the defect
matrix, the sweep, the flows (on a clique's row and column index lists) and
the certificate all read that one numbering.  The flow sweep is a

Bron-Kerbosch recursion on integer bitsets (:func:`_maximal_cliques`) that
yields its cliques in the order of the same recursion on sorted sets.  It
prunes subtrees by a per-row/per-column flow bound against the best flow so
far or the probe's target, read from subset-sum tables on the row-major bitset
of a node and on its column-major twin, which the recursion carries alongside
(:func:`_best_flow_at`).

The heuristic space solver scores trial couplings with the pair solve and
keeps a trial only if its value is at most the incumbent's; it draws pivots a
block at a time (:func:`_next_pivot`) and pulls trials back with no pair
check.  Feasibility is monotone in the tolerance, so the solve takes the
incumbent as a ``cap``: one probe there rejects a trial whose value is above
it, and a trial that passes is searched down from it, to the answer the cap
does not change.  The witness search of :mod:`mmdist.limits` gates its maps
the same way.  Its mirror image is the ``floor`` of a running maximum (the
sampled Hausdorff bound of :mod:`mmdist.lipschitz`): one probe at the floor
settles a value that cannot raise it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .core import (
    FiniteMMSpace,
    SemiDistancePair,
    Witness,
    _as_indices,
    _coupling_violations,
    _index_violations,
    coupling_from_matrix,
    lighter_first,
    nonnegative,
    pullback_pair,
    whole_number,
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
    at most ``pair_value`` on ``cells``: :func:`_certificate_violations`
    states the rule.  ``coupling`` is present for space-level solves
    (marginals: the lighter measure on both sides).  An exact space-level
    certificate is the witness that the threshold search hands back, so
    ``retained_mass`` need not be the largest a coupling keeps;
    :func:`box_pair` and the heuristic keep the heaviest cells,
    lexicographically smallest among ties (:func:`_clique_cells`).

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


def _maximal_cliques(adj: np.ndarray, keep, twin):
    """Yield maximal cliques of the graph of a boolean matrix (Bron-Kerbosch).

    ``adj[a, b]`` joins ``a`` and ``b``; its diagonal is ignored.  The
    recursion runs on integer bitsets (bit ``v`` for vertex ``v``): the
    clique ``r``, the candidates ``p``, the excluded ``x`` and the rows of
    ``adj``, packed at once.  The pivot is the lowest vertex of ``p | x``
    with the most neighbours in ``p``, candidates go lowest first, and
    cliques come as ascending tuples: the pivots, branches and output of the
    same recursion on sorted sets, so the cliques come in the same order.
    ``r`` and ``p`` are also carried, and the rows packed, as bitsets in the
    numbering ``twin[v]`` (a permutation), one more AND per child.
    ``keep(r, p, r_twin, p_twin)`` is asked at every node that may hold a
    maximal clique (not one with no candidates and some excluded vertex);
    every clique below the node lies in ``r | p``, and a false answer skips
    the subtree, the other cliques coming in the same order.
    """
    adj = np.asarray(adj, dtype=bool) & ~np.eye(len(adj), dtype=bool)
    nb, nb_twin = ([int.from_bytes(row.tobytes(), "little") for row in np.packbits(a, axis=1, bitorder="little")]
                   for a in (adj, adj[:, np.argsort(twin)]))
    tb = [1 << t for t in twin]

    def below(r: int, p: int, x: int, rt: int, pt: int):
        if not p:
            if not x:
                yield tuple(v for v in range(len(nb)) if r >> v & 1)
            return
        rest, most = p | x, -1
        while rest:
            low = rest & -rest
            degree = (p & nb[low.bit_length() - 1]).bit_count()
            if degree > most:
                pivot, most = low.bit_length() - 1, degree
            rest ^= low
        cand = p & ~nb[pivot]
        while cand:
            low = cand & -cand
            v = low.bit_length() - 1
            child_p, child_x, child_pt = p & nb[v], x & nb[v], pt & nb_twin[v]
            if (child_p or not child_x) and keep(r | low, child_p, rt | tb[v], child_pt):
                yield from below(r | low, child_p, child_x, rt | tb[v], child_pt)
            p, pt, x, cand = p ^ low, pt ^ tb[v], x | low, cand ^ low

    p, pt = (1 << len(nb)) - 1, sum(tb)
    if keep(0, p, 0, pt):
        yield from below(0, p, 0, 0, pt)


def _max_weight_clique(
    adj: np.ndarray, weights: np.ndarray, *, target: float | None = None, least: float = -np.inf
) -> tuple[float, tuple]:
    """Branch-and-bound maximum-weight clique of the graph of a boolean matrix.

    ``adj[a, b]`` joins ``a`` and ``b``; the diagonal is never read.
    Returns ``(mass, vertices)`` maximizing mass, then taking the
    lexicographically smallest vertex tuple among (near-)ties.  With
    ``target`` set the search stops as soon as any clique reaches it, in
    which case the result is only a witness of feasibility.  The search
    skips every subtree that cannot reach ``target`` or ``least`` less the
    tie tolerance, and goes on past a clique that reaches ``least``; so a
    search that misses either returns a clique below it, maybe lighter than
    the heaviest.  The weights and rows are read as Python lists, which
    index faster than numpy one scalar at a time and add the same floats.
    """
    weights, rows = np.asarray(weights, dtype=float).tolist(), adj.tolist()
    n = len(weights)
    order = sorted(range(n), key=lambda v: -weights[v])
    goal = max(least, -np.inf if target is None else float(target))
    best_mass = 0.0
    best_set: tuple = ()
    bar = max(best_mass, goal) - _TIE_TOL  # the prune bar; it moves only with best_mass
    done = False

    def expand(r: list, mass: float, cand: list):
        nonlocal best_mass, best_set, bar, done
        if mass >= best_mass - _TIE_TOL:
            tup = tuple(sorted(r))
            if mass > best_mass + _TIE_TOL or not best_set or tup < best_set:
                best_mass, best_set = max(best_mass, mass), tup
                bar = max(best_mass, goal) - _TIE_TOL
                if target is not None and best_mass >= target:
                    done = True
                    return
        remaining = sum(map(weights.__getitem__, cand))
        for idx, v in enumerate(cand):
            if mass + remaining < bar:
                return  # even taking every remaining candidate cannot win or reach the target
            row = rows[v]
            expand(r + [v], mass + weights[v], [u for u in cand[idx + 1 :] if row[u]])
            if done:
                return
            remaining -= weights[v]

    expand([], 0.0, order)
    return best_mass, best_set


def _clique_solve(d: np.ndarray, w: np.ndarray, m: float, lam: float, cap: float = np.inf, floor: float = 0.0):
    """Exact box value of defects ``d`` over positive weights ``w`` of total ``m``.

    Cells ``a != b`` are compatible at ``t`` when ``d[a, b] <= t + EDGE_TOL``
    (the lower half may differ within the metric tolerance); the threshold
    search runs over zero and the defects above the diagonal.  ``cap`` and
    ``floor`` gate the value as in :func:`mmdist.transport._threshold_solve`.
    ``lam = 0`` takes the closed form and ignores ``cap``.

    """
    if lam == 0.0:
        return max(float(np.triu(d, 1).max(initial=0.0)), floor)
    best_at = lambda t, target: _max_weight_clique(d <= t + EDGE_TOL, w, target=target)  # noqa: E731
    return _threshold_solve(np.triu(d, 1), m, lam, best_at, cap, floor)[0]


def _clique_cells(d: np.ndarray, w: np.ndarray, lam: float, eps: float) -> tuple:
    """The cells a pair solve keeps at its value ``eps``: the heaviest clique
    of compatible cells, lexicographically smallest among ties (every cell
    at ``lam = 0``)."""
    if lam == 0.0:
        return tuple(range(len(w)))
    return _max_weight_clique(d <= eps + EDGE_TOL, w)[1]


# ---------------------------------------------------------------------------
# pairs


def box_pair(pair: SemiDistancePair, lam: float, *, max_cells: int = 64) -> BoxResult:
    """Exact box value of a semimetric pair, by the branch-and-bound clique
    search over the defect graph of its support; the pair was checked when built."""
    nonnegative(lam, "lambda")
    max_cells = whole_number(max_cells, "max_cells", 1)
    s = pair.support
    if len(s) > max_cells:
        raise SizeLimitError(f"exact box_pair refuses {len(s)} cells (limit {max_cells})")
    d, w = np.abs(pair.d1 - pair.d2)[np.ix_(s, s)], pair.weights[s]
    eps = _clique_solve(d, w, pair.total_mass, lam)
    cells = tuple(int(s[i]) for i in _clique_cells(d, w, lam, eps))
    retained = float(pair.weights[list(cells)].sum()) if cells else 0.0
    return BoxResult(eps, "exact", cells, retained, eps)


# ---------------------------------------------------------------------------
# spaces


@lru_cache(maxsize=4)
def _line_parts(caps: tuple, cross: tuple) -> list[tuple]:
    """Subset-sum tables of a flow bound on bitsets of ``len(caps)`` lines of
    ``len(cross)`` cells, built once per solve (its probes share the capacities).

    Line ``i`` has one part ``(cap, shift, table)`` per 8 cells: ``table``
    maps the byte at bit ``shift`` to the sum of ``cross`` over its cells
    (bits past the line add nothing), and ``cap`` is ``caps[i]`` on the
    line's last part and None before it.
    """
    width = len(cross)
    tables = []
    for k in range(0, width, 8):
        table = [0.0]
        for c in cross[k : k + 8] + (0.0,) * (k + 8 - width):
            table += [t + c for t in table]
        tables.append((k, table))
    return [
        (cap if k + 8 >= width else None, i * width + k, table) for i, cap in enumerate(caps) for k, table in tables
    ]


def _reach_bound(cells: int, parts: list) -> float:
    """Sum over the lines of the bitset ``cells`` of ``min(cap, the cross
    capacity that the line admits)``, read from its :func:`_line_parts`."""
    total = reach = 0.0
    for cap, shift, table in parts:
        reach += table[cells >> shift & 255]
        if cap is not None:
            total += cap if cap < reach else reach
            reach = 0.0
    return total


def _best_flow_at(
    adj: np.ndarray,
    rows_of: np.ndarray,
    cols_of: np.ndarray,
    row_caps: np.ndarray,
    col_caps: np.ndarray,
    *,
    target: float | None = None,
):
    """Max over the maximal cliques of the cell graph ``adj`` of the flow.

    ``adj`` is a boolean matrix over the whole grid's cells (its diagonal is
    ignored), numbered row-major: cell ``c = i * ny + j`` is ``(rows_of[c],
    cols_of[c])``, and a clique goes to the transportation flow as those
    index lists.  Returns ``(mass, cells)``; ties go to the
    lexicographically smallest cells.

    Row ``i`` routes at most ``min(r_i, sum of c_j over the columns the cells
    admit in row i)``, and column ``j`` likewise; the smaller of the row sum
    and the column sum bounds the flow of a cell set and only grows as cells
    are added.  The sweep reads it on each node's ``r | p``: the row sum on
    the row-major bitset, the column sum, only if the row sum passes, on its
    column-major twin (cell ``(i, j)`` is bit ``j * nx + i``), each line a
    byte at a time from :func:`_line_parts`.  A subtree, or a clique, whose
    bound is below ``max(best mass, target)`` less the tie tolerance is
    skipped: no clique in it can become the best or reach the target.  So
    without ``target`` the result is the full sweep's, and with it the sweep
    stops at the full sweep's first witness; if no clique reaches
    ``target``, ``mass`` is the flow of ``cells`` and may be below the full
    sweep's mass.
    """
    rows, cols = rows_of.tolist(), cols_of.tolist()
    r_cap, c_cap = tuple(row_caps.tolist()), tuple(col_caps.tolist())
    by_row, by_col = _line_parts(r_cap, c_cap), _line_parts(c_cap, r_cap)
    goal = -np.inf if target is None else target
    best, floor = (0.0, ()), max(0.0, goal) - _TIE_TOL  # floor: max(best mass, goal) less the tolerance

    def keep(r: int, p: int, r_twin: int, p_twin: int) -> bool:
        return _reach_bound(r | p, by_row) >= floor and _reach_bound(r_twin | p_twin, by_col) >= floor

    for clique in _maximal_cliques(adj, keep, [j * len(r_cap) + i for i, j in zip(rows, cols)]):
        value = max_flow_value(r_cap, c_cap, ([rows[c] for c in clique], [cols[c] for c in clique]))
        if value > best[0] + _TIE_TOL or (
            value >= best[0] - _TIE_TOL and (best[1] == () or clique < best[1])
        ):
            best = (max(best[0], value), clique)
            floor = max(best[0], goal) - _TIE_TOL
        if target is not None and best[0] >= target:
            break
    return best


def _box_equal_mass_exact(X: FiniteMMSpace, Y: FiniteMMSpace, lam: float, max_cells: int) -> BoxResult:
    sx, sy = X.support, Y.support
    n_cells = len(sx) * len(sy)
    if n_cells > max_cells:
        raise SizeLimitError(
            f"exact box solve refuses {n_cells} coupling cells (limit {max_cells}); "
            "raise max_cells or use an approximate mode"
        )
    m = X.total_mass
    row_caps, col_caps = X.weights[sx], Y.weights[sy]
    # cell c, row-major: support row rows_of[c] and column cols_of[c], points xs[c] and ys[c]
    rows_of, cols_of = np.divmod(np.arange(n_cells), len(sy))
    xs, ys = sx[rows_of], sy[cols_of]
    delta = np.abs(X.dist[np.ix_(xs, xs)] - Y.dist[np.ix_(ys, ys)])
    best_at = lambda t, target: _best_flow_at(  # noqa: E731
        delta <= t + EDGE_TOL, rows_of, cols_of, row_caps, col_caps, target=target
    )
    eps, cells = _threshold_solve(np.triu(delta, 1), m, lam, best_at)
    cells = best_at(eps, None)[1] if cells is None else cells  # None: no probe showed eps feasible
    _, sub_plan = max_flow(row_caps, col_caps, (rows_of[list(cells)], cols_of[list(cells)]))
    pi = np.zeros((X.n, Y.n))
    pi[np.ix_(sx, sy)] = completion(sub_plan, row_caps, col_caps)
    cell_pairs = tuple((int(xs[c]), int(ys[c])) for c in cells)
    retained = float(sum(pi[i, j] for i, j in cell_pairs))
    return BoxResult(eps, "exact", cell_pairs, retained, eps, coupling=pi)


def _next_pivot(rng: np.random.Generator, pi: np.ndarray, left: int):
    """The first of the next ``left`` proposed 2x2 pivots of ``pi`` with room.

    Returns ``None`` once all ``left`` are drawn, or ``(k, i1, i2, j1, j2,
    shift)``: proposal ``k`` has ``i1 != i2``, ``j1 != j2`` and room
    ``min(pi[i1, j2], pi[i2, j1]) > 0``, and ``shift`` is its random share of
    that room.  ``pi`` does not move before a hit, so one array draw looks at
    all ``left``; the generator is then rewound and draws ``k + 1`` rows again
    before ``shift``.  numpy fills an integer array with per-column highs from
    the stream of scalar draws of those highs, so the generator ends where four
    scalar draws a proposal leave it, and every later draw is the same.
    """
    state = rng.bit_generator.state
    highs = [len(pi), len(pi), pi.shape[1], pi.shape[1]]
    i1, i2, j1, j2 = rng.integers(highs, size=(left, 4)).T
    hits = np.flatnonzero((i1 != i2) & (j1 != j2) & (np.minimum(pi[i1, j2], pi[i2, j1]) > 0.0))
    if not len(hits):
        return None
    k = int(hits[0])
    rng.bit_generator.state = state
    rng.integers(highs, size=(k + 1, 4))
    room = min(pi[i1[k], j2[k]], pi[i2[k], j1[k]])
    return k, i1[k], i2[k], j1[k], j2[k], room if rng.random() < 0.5 else room * rng.random()


def _box_equal_mass_heuristic(
    X: FiniteMMSpace, Y: FiniteMMSpace, lam: float, seed: int
) -> BoxResult:
    """Local search over couplings, each scored by an exact pair solve.

    Moves are 2x2 pivots on the transportation polytope, which preserve the
    marginals; the returned value is an upper bound on the exact distance.
    Pivots come a block at a time (:func:`_next_pivot`).  Only the start plans
    meet :func:`mmdist.core.coupling_from_matrix`, and the answer the rule of
    :func:`_certificate_violations`: a trial is pulled back from the spaces'
    checked matrices, which the pair rules hold on.

    A coupling valued above ``best_eps + 1e-15`` changes nothing, so each
    score passes that bound to the pair solve as its ``cap``: one probe there
    turns such a coupling away (``inf``), and any other gets its uncapped
    value, searched down from the cap (see
    :func:`mmdist.transport._threshold_solve`); every decision is that of
    uncapped scoring.  Only the coupling returned asks for its cells, once,
    after the search.  The first score has no bound (``inf``).
    """
    rng = np.random.default_rng(seed)
    best_eps = np.inf
    best_pi: np.ndarray | None = None
    best_pullback: tuple = ()

    def score(pi: np.ndarray) -> float:
        """Pair value of the pullback along ``pi``, or ``inf`` above ``best_eps +
        1e-15``; one below ``best_eps`` becomes the incumbent, with its pullback."""
        nonlocal best_eps, best_pi, best_pullback
        ii, jj = np.nonzero(pi > 0.0)
        w = pi[ii, jj]
        delta = np.abs(X.dist[np.ix_(ii, ii)] - Y.dist[np.ix_(jj, jj)])
        eps = _clique_solve(delta, w, float(w.sum()), lam, best_eps + 1e-15)
        if eps < best_eps:
            best_eps, best_pi, best_pullback = eps, pi, (ii, jj, w, delta)
        return eps

    for attempt in range(HEURISTIC_RESTARTS):
        # natural order first: the diagonal plan for aligned spaces
        orders = (rng.permutation(X.n), rng.permutation(Y.n)) if attempt else ()
        pi = coupling_from_matrix(X, Y, northwest_plan(X.weights, Y.weights, *orders))
        score(pi)
        left = HEURISTIC_STEPS
        while (pivot := _next_pivot(rng, pi, left)) is not None:
            k, i1, i2, j1, j2, shift = pivot
            left -= k + 1
            trial = pi.copy()
            trial[i1, j1] += shift
            trial[i2, j2] += shift
            trial[i1, j2] -= shift
            trial[i2, j1] -= shift
            if score(trial) <= best_eps + 1e-15:
                pi = trial
    ii, jj, w, delta = best_pullback
    best_cells = tuple((int(ii[k]), int(jj[k])) for k in _clique_cells(delta, w, lam, best_eps))
    retained = float(sum(best_pi[i, j] for i, j in best_cells))
    return BoxResult(best_eps, "heuristic-upper-bound", best_cells, retained, best_eps, coupling=best_pi)


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
    upper bound (never below the exact value).  Either certificate meets
    :func:`_certificate_violations` before it is returned, or the solve
    raises :class:`InternalInvariantError`.
    """
    nonnegative(lam, "lambda")
    max_cells = whole_number(max_cells, "max_cells", 1)
    seed = whole_number(seed, "seed", 0)
    if mode not in ("exact", "heuristic"):
        raise ValueError(f"unknown mode {mode!r}")
    A, B, gap, swapped = lighter_first(X, Y)
    if mode == "exact":
        res = _box_equal_mass_exact(A, B, lam, max_cells)
    else:
        res = _box_equal_mass_heuristic(A, B, lam, seed)
    if swapped:
        cells = tuple((j, i) for i, j in res.cells)
        res = replace(res, cells=cells, coupling=res.coupling.T.copy())
    res = replace(res, value=res.value + gap, mass_gap=gap)
    violations = _certificate_violations(X, Y, lam, res)
    if violations:
        raise InternalInvariantError("box certificate breaks its rule: " + "; ".join(violations))
    return res


def _certificate_violations(X: FiniteMMSpace, Y: FiniteMMSpace, lam: float, res: BoxResult) -> list[str]:
    """The box-certificate rule, read from the definitions alone: how ``res``
    fails to certify its value for ``X`` and ``Y`` at ``lam``.

    The coupling couples the lighter measure with the heavier one scaled down
    (:func:`mmdist.core.lighter_first`); the cells are distinct and in range,
    keep their ``retained_mass`` and at least ``m - lam * pair_value`` (``m``
    the lighter total) to the solver's 1e-9, and pairwise defects at most
    ``pair_value + EDGE_TOL`` in one order at least (a semimetric is symmetric
    only within its tolerance); ``value`` is ``pair_value + mass_gap``, the gap
    of the totals.
    """
    A, B, gap, swapped = lighter_first(X, Y)
    v = []
    if res.mass_gap != gap:
        v.append(f"mass gap {res.mass_gap!r} is not the difference of the totals {gap!r}")
    if res.value != res.pair_value + res.mass_gap:
        v.append(f"value {res.value!r} is not pair value {res.pair_value!r} plus mass gap {res.mass_gap!r}")
    pi = np.asarray(res.coupling, dtype=float)
    v += _coupling_violations(*((B, A) if swapped else (A, B)), pi)
    cells = np.asarray(res.cells).reshape(-1, 2)
    cell_v = _index_violations(cells[:, 0], "certificate rows", X.n)
    cell_v += _index_violations(cells[:, 1], "certificate columns", Y.n)
    if cell_v or pi.shape != (X.n, Y.n):
        return v + cell_v
    ii, jj = cells.astype(int).T
    if len(set(zip(ii.tolist(), jj.tolist()))) != len(ii):
        v.append("certificate repeats a cell")
    kept = float(pi[ii, jj].sum())
    if abs(kept - res.retained_mass) > 1e-9:
        v.append(f"retained mass {res.retained_mass!r} is not the coupling mass {kept!r} of the cells")
    if kept < A.total_mass - lam * res.pair_value - 1e-9:
        v.append(f"cells keep {kept!r}, below m - lam * pair_value = {A.total_mass - lam * res.pair_value!r}")
    d = np.abs(X.dist[np.ix_(ii, ii)] - Y.dist[np.ix_(jj, jj)])
    np.fill_diagonal(d, 0.0)
    worst = float(np.minimum(d, d.T).max(initial=0.0))
    if worst > res.pair_value + EDGE_TOL:
        v.append(f"two cells have defect {worst!r}, above pair value {res.pair_value!r}")
    return v


def box_upper_from_witness(Xn: FiniteMMSpace, X: FiniteMMSpace, w: Witness) -> float:
    """Upper bound on the box distance at ``lam = 1`` from an almost-isometry.

    The witness map pushes the first measure onto the second space; gluing
    that pushforward coupling with a Prokhorov-optimal coupling of the
    pushforward against the target measure yields a concrete coupling, whose
    pair value is an upper bound on the true distance by definition.  For
    unequal totals the heavier space, on its own side, is scaled down and the
    mass gap is added (:func:`mmdist.core.lighter_first`).
    """
    p = _as_indices(w.p, "witness map", X.n, Xn.n)
    A, B, gap, swapped = lighter_first(Xn, X)
    Xn, X = (B, A) if swapped else (A, B)
    nu = np.zeros(X.n)
    np.add.at(nu, p, Xn.weights)
    eps = prokhorov_distance(X.dist, nu, X.weights)
    kappa = completion(max_flow(nu, X.weights, np.nonzero(X.dist <= eps + 1e-12))[1], nu, X.weights)
    pi = np.zeros((Xn.n, X.n))
    for z in range(Xn.n):
        if Xn.weights[z] > 0.0:
            u = p[z]
            pi[z] = Xn.weights[z] * kappa[u] / nu[u]
    pair = pullback_pair(Xn, X, pi)  # its cells all have positive mass
    return _clique_solve(np.abs(pair.d1 - pair.d2), pair.weights, pair.total_mass, 1.0) + gap
