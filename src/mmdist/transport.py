"""Transportation-polytope primitives used by the distance solvers.

Everything here works on plain arrays: row capacities, column capacities and
admissible cells as index lists ``(rows, cols)``, as ``np.nonzero`` gives
them.  Masses are floats; the max-flow routine uses shortest augmenting
paths, whose augmentation count is bounded by the graph size independently
of capacities, so float capacities are safe.

There is one flow routine, ``max_flow`` (``max_flow_value`` is its value).
Its instances are small (two supports of a few points each, in the box
sweep and the Prokhorov search), so it runs on Python lists and carries the
row and column slacks along its augmenting paths instead of summing the plan
each round; a slack, and so a plan or a value, can differ from the summed
one only in the last bit.
There is one threshold search, ``_threshold_solve``, shared by the box
solvers, the Prokhorov distance and ``lipschitz.me_lambda``: each asks for the
smallest tolerance ``t`` at which the mass retainable with defects up to ``t``
reaches ``m - lam * t``, and for a witness.  Loops that keep only a running
extremum of such answers gate the search with one probe: a running minimum
passes it as ``cap`` (an answer above it comes back as ``inf``), a running
maximum as ``floor`` (an answer below it comes back as ``floor``).  Either way
the probe decides most candidates, and the value is that of the ungated search
whenever it can move the extremum.  A ``cap`` above the largest value is not
probed, and an infinite one costs nothing; past a finite one the search steps
down from it, so a candidate that ties the minimum costs two probes.
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


def max_flow(row_caps, col_caps, cells) -> tuple[float, np.ndarray]:
    """Maximum mass routable through ``cells = (rows, cols)``, with an optimal plan.

    Edmonds-Karp on the bipartite source/sink network; deterministic: cells
    are visited in the order given, and row-major order (``np.nonzero``'s)
    makes the search breadth-first in ascending index order.  The plan is a
    list of rows until it is returned; an augmenting path changes only the
    slack of its source row and goal column, so those two are updated in place.
    """
    row_slack = np.asarray(row_caps, dtype=float).tolist()
    col_slack = np.asarray(col_caps, dtype=float).tolist()
    nr, nc = len(row_slack), len(col_slack)
    row_cols = [[] for _ in range(nr)]  # admissible columns of each row
    col_rows = [[] for _ in range(nc)]
    for i, j in zip(*(np.asarray(a).tolist() for a in cells)):
        row_cols[i].append(j)
        col_rows[j].append(i)
    plan = [[0.0] * nc for _ in range(nr)]
    while True:
        # BFS from the source over the residual network
        row_prev = [-2] * nr  # -2 unvisited, -1 from source
        col_prev = [-2] * nc
        frontier = [i for i in range(nr) if row_slack[i] > _RESIDUAL_TOL]
        for i in frontier:
            row_prev[i] = -1
        goal = -1
        while frontier:
            cols = []  # rows reach unvisited columns through admissible cells
            for k in frontier:
                for j in row_cols[k]:
                    if col_prev[j] == -2:
                        col_prev[j] = k
                        if col_slack[j] > _RESIDUAL_TOL:
                            goal = j
                            break
                        cols.append(j)
                if goal >= 0:
                    break
            if goal >= 0:
                break
            frontier = []  # columns reach unvisited rows through the plan
            for k in cols:
                for i in col_rows[k]:
                    if plan[i][k] > _RESIDUAL_TOL and row_prev[i] == -2:
                        row_prev[i] = k
                        frontier.append(i)
        if goal < 0:
            break
        # trace the augmenting path and its bottleneck
        path = []  # (i, j, forward?)
        j = goal
        bottleneck = col_slack[j]
        while True:
            i = col_prev[j]
            path.append((i, j, True))
            if row_prev[i] == -1:
                bottleneck = min(bottleneck, row_slack[i])
                break
            j2 = row_prev[i]
            path.append((i, j2, False))
            bottleneck = min(bottleneck, plan[i][j2])
            j = j2
        row_slack[i] -= bottleneck  # the trace ended at the source row i
        col_slack[goal] -= bottleneck
        for i, j, forward in path:
            if forward:
                plan[i][j] += bottleneck
            else:
                plan[i][j] -= bottleneck
    out = np.array(plan, dtype=float).reshape(nr, nc)
    return float(out.sum()), out


def max_flow_value(row_caps, col_caps, cells) -> float:
    """Maximum routable mass through ``cells``: ``max_flow`` without the plan.

    Cells are visited in the order given, as there.  The name stays so that
    flow-value probes (the clique sweep of the exact box solver and the
    Prokhorov search) can be counted apart from the flows whose plan is kept.
    """
    return max_flow(row_caps, col_caps, cells)[0]


def _threshold_solve(values, m: float, lam: float, best_at, cap: float = np.inf, floor: float = 0.0):
    """Smallest feasible tolerance over a monotone threshold structure, and its witness.

    The thresholds are zero and the distinct entries of the array ``values``.
    ``best_at(t, target)`` returns ``(mass, witness)``: the maximum mass
    retainable with defects up to ``t`` (with optional early exit at
    ``target``) and what retains it.  The mass is nondecreasing and
    piecewise constant between thresholds, so the optimum sits at a
    threshold or at a mass breakpoint inside one interval.  Returns ``(eps,
    witness)``: at a threshold answer the witness of the probe that showed
    ``eps`` feasible; at a breakpoint that of the failed probe just below
    ``eps`` if it keeps ``m - lam * eps`` (to the probes' 1e-12), and
    otherwise that of the breakpoint's untargeted search there.  It is None
    for an answer that a gate decided (``inf``, ``floor``) or that no probe
    was needed for (``m - lam * eps <= 1e-12``).

    Two gates serve loops that keep only a running extremum of answers.
    Each adds one probe, which settles most candidates; feasibility is
    monotone in ``t``, so a candidate that can move the extremum gets the
    ungated answer.  A gate probe that succeeds also stands in for the
    sanity probe at the largest threshold, which monotonicity makes feasible.

    ``cap`` (a running minimum) is probed first, before the thresholds are
    built, if it is at most the largest threshold.  If it is infeasible, the
    answer is above it: every threshold up to ``cap`` is infeasible, and a
    breakpoint ``(m - W) / lam`` over a lower threshold below ``cap`` has
    ``W`` at most the mass at ``cap``.  Then ``inf`` is returned.  Otherwise
    the first threshold at or above ``cap`` (or the largest) is feasible,
    and the search probes the thresholds 1, 2, 4, ... places below it until
    one fails, then bisects the last gap: a tie with the cap costs two
    probes.  Monotonicity fixes the adjacent pair of thresholds where
    feasibility starts, so every search order ends there, at the same bits.

    ``floor`` (a running maximum) makes the result ``max(floor, answer)``.
    A positive ``floor`` probes the last threshold at or below it.  If that
    threshold is feasible, the answer is at most it, and ``floor`` is
    returned.  Otherwise the answer is above that threshold, and the search
    starts from it and ends at the same pair of thresholds.
    """

    last = {}  # feasible? -> (mass, witness) of the latest such probe: at thresholds[hi], thresholds[lo]

    def feasible(t: float) -> bool:
        need = m - lam * t - 1e-12
        hit = best_at(t, need) if need > 0.0 else None
        ok = hit is None or hit[0] >= need
        last[ok] = hit
        return ok

    def answer(eps: float, hit) -> tuple:
        return (floor, None) if floor > eps else (eps, None if hit is None else hit[1])

    if cap < np.inf and cap <= np.max(values, initial=0.0) and not feasible(cap):
        return np.inf, None
    thresholds = np.unique(np.concatenate(([0.0], np.ravel(values))))
    top = len(thresholds) - 1
    hi = int(np.searchsorted(thresholds, cap))  # first threshold at or above cap
    lo = max(int(np.searchsorted(thresholds, floor, side="right")) - 1, 0)  # last at or below floor
    if lo > 0 and feasible(float(thresholds[lo])):
        return floor, None
    if hi > top:  # no gate probe has shown the largest threshold feasible
        hi = top
        if not feasible(float(thresholds[hi])):
            raise InternalInvariantError("threshold search infeasible at the largest defect")
    if cap < np.inf:  # step down from the cap, doubling the step, until a probe fails
        start, step = hi, 1
        while start - step > lo and feasible(float(thresholds[start - step])):
            hi, step = start - step, 2 * step
        lo = max(lo, start - step)
    if lo == 0 and (hi == 0 or feasible(float(thresholds[0]))):
        return answer(float(thresholds[0]), last.get(True))
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if feasible(float(thresholds[mid])):
            hi = mid
        else:
            lo = mid
    if lam > 0.0:
        heaviest = best_at(float(thresholds[lo]), None)
        eps = float(min(thresholds[hi], max(thresholds[lo], (m - heaviest[0]) / lam)))
        if eps < thresholds[hi]:  # a breakpoint
            return answer(eps, last[False] if last[False][0] >= m - lam * eps - 1e-12 else heaviest)
    return answer(float(thresholds[hi]), last.get(True))


def prokhorov_distance(dist, mu, nu) -> float:
    """Exact Prokhorov distance between equal-mass weightings of one space.

    The distance is the smallest ``eps`` for which some coupling places all
    but ``eps`` of the mass on pairs at distance at most ``eps``; by max-flow
    duality this is the usual neighborhood inequality over all subsets.  The
    optimum lies either at a pairwise distance or at a mass breakpoint
    ``m - F`` of the flow value ``F``, both of which the search visits.

    Returns ``eps`` only; an optimal coupling is ``completion`` of the
    ``max_flow`` plan on the pairs ``dist <= eps``.  The flow ignores its
    target, so each threshold's value is kept: the search's final breakpoint
    asks again for the threshold it probed last below the answer.
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

    flows: dict[float, float] = {}  # the search asks again at its last infeasible threshold

    def flow_at(t: float, target):
        if t not in flows:
            flows[t] = max_flow_value(mu[rows], nu[cols], np.nonzero(sub <= t + 1e-12))
        return flows[t], None

    # moving mass costs one unit of tolerance per unit: lambda = 1
    return _threshold_solve(sub, m, 1.0, flow_at)[0]
