"""Transportation-polytope primitives used by the distance solvers.

Everything here works on plain arrays: row capacities, column capacities and
a boolean mask of admissible cells.  Masses are floats; the max-flow routine
uses shortest augmenting paths, whose augmentation count is bounded by the
graph size independently of capacities, so float capacities are safe.

There is one flow routine, ``max_flow`` (``max_flow_value`` is its value).
There is one threshold search, ``_threshold_solve``, shared by the box
solvers, the Prokhorov distance and ``lipschitz.me_lambda``: each asks for
the smallest tolerance ``t`` at which the mass retainable with defects up to
``t`` reaches ``m - lam * t``.
"""

from __future__ import annotations

import numpy as np

from .errors import InternalInvariantError

_RESIDUAL_TOL = 1e-15


def northwest_plan(row_caps, col_caps, row_order=None, col_order=None) -> np.ndarray:
    """Greedy corner filling; returns an extreme point of the polytope.

    Requires equal totals.  With shuffled orders this sweeps the vertices of
    the transportation polytope.
    """
    r = np.array(row_caps, dtype=float)
    c = np.array(col_caps, dtype=float)
    rows = list(range(len(r))) if row_order is None else [int(i) for i in row_order]
    cols = list(range(len(c))) if col_order is None else [int(j) for j in col_order]
    plan = np.zeros((len(r), len(c)))
    a, b = 0, 0
    while a < len(rows) and b < len(cols):
        i, j = rows[a], cols[b]
        take = min(r[i], c[j])
        if take > 0.0:
            plan[i, j] += take
            r[i] -= take
            c[j] -= take
        if r[i] <= _RESIDUAL_TOL:
            a += 1
        elif c[j] <= _RESIDUAL_TOL:
            b += 1
        else:  # both exhausted to within tolerance dust
            a += 1
            b += 1
    return plan


def completion(plan, row_targets, col_targets) -> np.ndarray:
    """Extend a sub-coupling to a full coupling by routing the deficits.

    Any plan with row sums <= ``row_targets`` and column sums <=
    ``col_targets`` and matching total deficit extends; deficits are filled
    northwest-style, deterministically.
    """
    plan = np.array(plan, dtype=float)
    r = np.clip(np.asarray(row_targets, float) - plan.sum(axis=1), 0.0, None)
    c = np.clip(np.asarray(col_targets, float) - plan.sum(axis=0), 0.0, None)
    return plan + northwest_plan(r, c)


def max_flow(row_caps, col_caps, allowed) -> tuple[float, np.ndarray]:
    """Maximum mass routable through ``allowed`` cells, with an optimal plan.

    Edmonds-Karp on the bipartite source/sink network; deterministic
    (breadth-first in ascending index order).
    """
    r = np.asarray(row_caps, dtype=float)
    c = np.asarray(col_caps, dtype=float)
    mask = np.asarray(allowed, dtype=bool)
    nr, nc = mask.shape
    plan = np.zeros((nr, nc))
    while True:
        # BFS from the source over the residual network
        row_prev = np.full(nr, -2, dtype=int)  # -2 unvisited, -1 from source
        col_prev = np.full(nc, -2, dtype=int)
        row_slack = r - plan.sum(axis=1)
        col_slack = c - plan.sum(axis=0)
        frontier = [("r", i) for i in range(nr) if row_slack[i] > _RESIDUAL_TOL]
        for _, i in frontier:
            row_prev[i] = -1
        goal = -1
        while frontier and goal < 0:
            nxt = []
            for kind, k in frontier:
                if kind == "r":
                    for j in range(nc):
                        if mask[k, j] and col_prev[j] == -2:
                            col_prev[j] = k
                            if col_slack[j] > _RESIDUAL_TOL:
                                goal = j
                                break
                            nxt.append(("c", j))
                    if goal >= 0:
                        break
                else:
                    for i in range(nr):
                        if plan[i, k] > _RESIDUAL_TOL and row_prev[i] == -2:
                            row_prev[i] = k
                            nxt.append(("r", i))
            frontier = nxt
        if goal < 0:
            break
        # trace the augmenting path and its bottleneck
        path = []  # (i, j, forward?)
        j = goal
        bottleneck = float(col_slack[j])
        while True:
            i = col_prev[j]
            path.append((i, j, True))
            if row_prev[i] == -1:
                bottleneck = min(bottleneck, float(row_slack[i]))
                break
            j2 = row_prev[i]
            path.append((i, j2, False))
            bottleneck = min(bottleneck, float(plan[i, j2]))
            j = j2
        if bottleneck <= _RESIDUAL_TOL:
            break
        for i, j, forward in path:
            if forward:
                plan[i, j] += bottleneck
            else:
                plan[i, j] -= bottleneck
    return float(plan.sum()), plan


def max_flow_value(row_caps, col_caps, allowed) -> float:
    """Maximum routable mass through ``allowed`` cells: ``max_flow`` without the plan.

    The name stays so that flow-value probes (the clique sweep of the exact
    box solver and the Prokhorov search) can be counted apart from the flows
    whose plan is kept.
    """
    return max_flow(row_caps, col_caps, allowed)[0]


def _threshold_solve(thresholds: np.ndarray, m: float, lam: float, retained_max) -> float:
    """Smallest feasible tolerance over a monotone threshold structure.

    ``retained_max(t, target)`` returns the maximum retainable mass when
    defects up to ``t`` are allowed (with optional early exit at ``target``);
    it is nondecreasing and piecewise constant between thresholds, so the
    optimum sits at a threshold or at a mass breakpoint inside one interval.
    """

    def feasible(t: float) -> bool:
        need = m - lam * t - 1e-12
        if need <= 0.0:
            return True
        return retained_max(t, need) >= need

    hi = len(thresholds) - 1
    if not feasible(float(thresholds[hi])):
        raise InternalInvariantError("threshold search infeasible at the largest defect")
    if feasible(float(thresholds[0])):
        return float(thresholds[0])
    lo = 0
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if feasible(float(thresholds[mid])):
            hi = mid
        else:
            lo = mid
    if lam == 0.0:
        return float(thresholds[hi])
    w_prev = retained_max(float(thresholds[lo]), None)
    cand = (m - w_prev) / lam
    return float(min(thresholds[hi], max(thresholds[lo], cand)))


def prokhorov_distance(dist, mu, nu) -> float:
    """Exact Prokhorov distance between equal-mass weightings of one space.

    The distance is the smallest ``eps`` for which some coupling places all
    but ``eps`` of the mass on pairs at distance at most ``eps``; by max-flow
    duality this is the usual neighborhood inequality over all subsets.  The
    optimum lies either at a pairwise distance or at a mass breakpoint
    ``m - F`` of the flow value ``F``, both of which the search visits.

    Returns ``eps`` only; an optimal coupling is ``completion`` of the
    ``max_flow`` plan on the pairs ``dist <= eps``.
    """
    d = np.asarray(dist, dtype=float)
    mu = np.asarray(mu, dtype=float)
    nu = np.asarray(nu, dtype=float)
    m = float(mu.sum())
    if abs(m - float(nu.sum())) > 1e-9:
        raise ValueError("prokhorov distance requires equal total masses")
    rows = np.flatnonzero(mu > 0.0)
    cols = np.flatnonzero(nu > 0.0)
    sub = d[np.ix_(rows, cols)]
    thresholds = np.unique(np.concatenate(([0.0], sub.ravel())))

    def flow_at(t: float, target) -> float:
        return max_flow_value(mu[rows], nu[cols], sub <= t + 1e-12)

    # moving mass costs one unit of tolerance per unit: lambda = 1
    return _threshold_solve(thresholds, m, 1.0, flow_at)
