"""Independent checkers for the benchmark's operations.

Nothing here calls into ``mmdist``: every expected property is recomputed
from the definitions with numpy, and optimality of exact box values is
confirmed with a mixed-integer model solved by HiGHS through
``scipy.optimize.milp``.  Each checker returns a list of problems; an empty
list means the output passed.

Definitions used (``m`` the common total mass, ``lam`` the mass trade-off):

- box: a tolerance ``t`` is feasible when some coupling of the two measures
  and some set ``S`` of its cells satisfy ``|dX(i,i') - dY(j,j')| <= t`` for
  all cells ``(i,j), (i',j')`` in ``S`` and ``pi(S) >= m - lam * t``; the
  box value is the smallest feasible ``t`` (plus the mass gap when the totals
  differ, after scaling the heavier measure down);
- Prokhorov: the smallest ``eps`` with ``mu(A) <= nu(A^eps) + eps`` for
  every subset ``A``, where ``A^eps`` is the closed ``eps``-neighbourhood;
- Hausdorff distance of 1-Lipschitz sets at ``lam = 0`` (closed form):
  ``max |C1 - C2| / 2`` over support pairs, ``C`` the shortest-path closure
  of each matrix restricted to the support.
"""

from __future__ import annotations

from itertools import product

import numpy as np

#: slack for comparing masses and distances computed in floating point
TOL = 1e-9
#: slack for values read off the MILP, whose feasibility tolerance is ~1e-9
MILP_TOL = 1e-7


# ---------------------------------------------------------------------------
# box distance


def _lighter_marginals(wx, wy):
    """Marginals of the box coupling: the heavier measure is scaled down."""
    mx, my = float(wx.sum()), float(wy.sum())
    if mx <= my:
        return wx, wy * (mx / my), min(mx, my), my - mx
    return wx * (my / mx), wy, min(mx, my), mx - my


def _cell_defects(dx, dy, cells):
    ii = np.array([c[0] for c in cells], dtype=int)
    jj = np.array([c[1] for c in cells], dtype=int)
    return np.abs(dx[np.ix_(ii, ii)] - dy[np.ix_(jj, jj)])


def box_certificate_problems(wx, dx, wy, dy, lam, value, pair_value, mass_gap,
                             cells, retained_mass, coupling) -> list[str]:
    """Check a box certificate against the definition of the box value."""
    wx, wy = np.asarray(wx, float), np.asarray(wy, float)
    dx, dy = np.asarray(dx, float), np.asarray(dy, float)
    rows, cols, m, gap = _lighter_marginals(wx, wy)
    out = []
    if abs(mass_gap - gap) > TOL:
        out.append(f"mass gap {mass_gap!r} differs from |mX - mY| = {gap!r}")
    if abs(value - (pair_value + gap)) > TOL:
        out.append(f"value {value!r} is not pair value {pair_value!r} plus the gap")
    if coupling is None:
        return out + ["no coupling in the certificate"]
    pi = np.asarray(coupling, float)
    if pi.shape != (len(wx), len(wy)):
        return out + [f"coupling shape {pi.shape} does not match the spaces"]
    if pi.min(initial=0.0) < -TOL:
        out.append("coupling has negative entries")
    if np.abs(pi.sum(axis=1) - rows).max(initial=0.0) > TOL:
        out.append("coupling row marginals are broken")
    if np.abs(pi.sum(axis=0) - cols).max(initial=0.0) > TOL:
        out.append("coupling column marginals are broken")
    cells = [tuple(int(v) for v in c) for c in cells]
    if len(set(cells)) != len(cells):
        out.append("certificate repeats a cell")
    if any(not (0 <= i < len(wx) and 0 <= j < len(wy)) for i, j in cells):
        return out + ["certificate cell out of range"]
    kept = float(sum(pi[i, j] for i, j in cells))
    if abs(kept - retained_mass) > TOL:
        out.append(f"retained mass {retained_mass!r} is not the coupling mass {kept!r} of the cells")
    if kept < m - lam * pair_value - TOL:
        out.append(f"cells keep {kept!r}, below m - lam * value = {m - lam * pair_value!r}")
    if cells:
        worst = float(_cell_defects(dx, dy, cells).max())
        if worst > pair_value + TOL:
            out.append(f"retained cells have defect {worst!r} above the value {pair_value!r}")
    return out


def milp_retained(rows, cols, dx, dy, t: float) -> float:
    """Largest mass a sub-coupling can keep on pairwise ``t``-compatible cells.

    Binary ``z_c`` selects cell ``c``, continuous ``r_c <= cap_c * z_c`` is the
    mass kept on it, rows and columns of ``r`` stay within the marginals (a
    sub-coupling always extends to a full coupling), and ``z_a + z_b <= 1``
    for every pair of cells whose defect exceeds ``t``.
    """
    from scipy.optimize import Bounds, LinearConstraint, milp
    from scipy.sparse import coo_matrix

    sx = np.flatnonzero(rows > 0.0)
    sy = np.flatnonzero(cols > 0.0)
    cells = [(int(i), int(j)) for i in sx for j in sy]
    k = len(cells)
    if k == 0:
        return 0.0
    cap = np.array([min(rows[i], cols[j]) for i, j in cells])
    defect = _cell_defects(dx, dy, cells)
    a_idx, b_idx = np.nonzero(np.triu(defect > t + TOL, k=1))
    r_i, c_i, vals = [], [], []
    n_rows = 0
    for i in sx:  # row marginals on r
        for c, (ci, _) in enumerate(cells):
            if ci == i:
                r_i.append(n_rows); c_i.append(c); vals.append(1.0)
        n_rows += 1
    for j in sy:  # column marginals on r
        for c, (_, cj) in enumerate(cells):
            if cj == j:
                r_i.append(n_rows); c_i.append(c); vals.append(1.0)
        n_rows += 1
    for c in range(k):  # r_c <= cap_c z_c
        r_i += [n_rows, n_rows]; c_i += [c, k + c]; vals += [1.0, -cap[c]]
        n_rows += 1
    for a, b in zip(a_idx.tolist(), b_idx.tolist()):  # conflicts
        r_i += [n_rows, n_rows]; c_i += [k + a, k + b]; vals += [1.0, 1.0]
        n_rows += 1
    A = coo_matrix((vals, (r_i, c_i)), shape=(n_rows, 2 * k)).tocsr()
    ub = np.concatenate((rows[sx], cols[sy], np.zeros(k), np.ones(len(a_idx))))
    res = milp(
        c=np.concatenate((-np.ones(k), np.zeros(k))),
        constraints=LinearConstraint(A, -np.inf, ub),
        integrality=np.concatenate((np.zeros(k), np.ones(k))),
        bounds=Bounds(np.zeros(2 * k), np.concatenate((cap, np.ones(k)))),
        options={"mip_rel_gap": 0.0},
    )
    if res.status != 0:
        raise RuntimeError(f"MILP failed: {res.message}")
    return float(-res.fun)


def _thresholds(dx, dy, rows, cols):
    sx = np.flatnonzero(rows > 0.0)
    sy = np.flatnonzero(cols > 0.0)
    cells = [(int(i), int(j)) for i in sx for j in sy]
    d = _cell_defects(dx, dy, cells)
    return np.unique(np.concatenate(([0.0], np.round(d.ravel(), 12))))


def box_optimality_problems(wx, dx, wy, dy, lam, pair_value) -> list[str]:
    """MILP proof that ``pair_value`` is feasible and nothing below it is.

    Retained mass is piecewise constant between consecutive defect
    thresholds, so below ``pair_value`` it suffices to show infeasibility on
    the last threshold interval ``[t_lo, pair_value)``: there ``W(t_lo)``
    must stay below ``m - lam * pair_value``.
    """
    wx, wy = np.asarray(wx, float), np.asarray(wy, float)
    dx, dy = np.asarray(dx, float), np.asarray(dy, float)
    rows, cols, m, _ = _lighter_marginals(wx, wy)
    out = []
    if milp_retained(rows, cols, dx, dy, pair_value) < m - lam * pair_value - MILP_TOL:
        out.append(f"MILP: tolerance {pair_value!r} is infeasible")
    below = _thresholds(dx, dy, rows, cols)
    below = below[below < pair_value - TOL]
    if below.size:
        # feasible somewhere in [t_lo, pair_value) iff W(t_lo) >= m - lam * t
        # for some t there: at lam = 0 iff W(t_lo) >= m, else iff W(t_lo)
        # exceeds the breakpoint mass m - lam * pair_value
        w_lo = milp_retained(rows, cols, dx, dy, float(below[-1]))
        if (w_lo >= m - MILP_TOL) if lam == 0.0 else (w_lo > m - lam * pair_value + MILP_TOL):
            out.append(f"MILP: a tolerance below {pair_value!r} is feasible")
    return out


def milp_box_value(wx, dx, wy, dy, lam) -> float:
    """Exact box value from the MILP: ``min_k max(t_k, (m - W_k) / lam)``.

    ``W_k`` is nondecreasing in ``k``, so a binary search finds the first
    threshold that is feasible on its own and the optimum sits there or on
    the breakpoint of the interval before it.
    """
    wx, wy = np.asarray(wx, float), np.asarray(wy, float)
    dx, dy = np.asarray(dx, float), np.asarray(dy, float)
    rows, cols, m, gap = _lighter_marginals(wx, wy)
    t = _thresholds(dx, dy, rows, cols)
    cache = {}

    def W(k):
        if k not in cache:
            cache[k] = milp_retained(rows, cols, dx, dy, float(t[k]))
        return cache[k]

    def ok(k):
        return W(k) >= m - lam * t[k] - MILP_TOL

    lo, hi = -1, len(t) - 1  # ok(hi) holds: every cell is compatible at the top
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if ok(mid):
            hi = mid
        else:
            lo = mid
    best = float(t[hi])
    if lo >= 0 and lam > 0.0:
        best = min(best, max(float(t[lo]), (m - W(lo)) / lam))
    return best + gap


# ---------------------------------------------------------------------------
# Lipschitz sets, Prokhorov, witnesses, reconstruction


def closure(d) -> np.ndarray:
    """Shortest-path closure by Floyd-Warshall, written out entry by entry."""
    c = [list(map(float, row)) for row in np.asarray(d, float)]
    n = len(c)
    for k in range(n):
        for i in range(n):
            for j in range(n):
                via = c[i][k] + c[k][j]
                if via < c[i][j]:
                    c[i][j] = via
    return np.array(c)


def hli_exact0_closed_form(weights, d1, d2) -> float:
    s = np.flatnonzero(np.asarray(weights, float) > 0.0)
    c1 = closure(np.asarray(d1, float)[np.ix_(s, s)])
    c2 = closure(np.asarray(d2, float)[np.ix_(s, s)])
    return float(np.abs(c1 - c2).max(initial=0.0)) / 2.0


def prokhorov_by_subsets(dist, mu, nu) -> float:
    """Prokhorov distance from the neighbourhood inequality over all subsets."""
    d = np.asarray(dist, float)
    mu, nu = np.asarray(mu, float), np.asarray(nu, float)
    n = len(mu)
    subsets = np.array(list(product((False, True), repeat=n)))
    mu_a = subsets @ mu
    best = np.inf
    for t in np.unique(np.concatenate(([0.0], d.ravel()))):
        reach = (subsets.astype(int) @ (d <= t + 1e-12).astype(int)) > 0
        excess = float(np.max(mu_a - reach @ nu))
        best = min(best, max(float(t), excess))
    return best


def witness_objective(wn, dn, wx, dx, p, subset) -> float:
    """max(distortion on the subset, dropped mass, Prokhorov gap of p_* wn)."""
    wn, wx = np.asarray(wn, float), np.asarray(wx, float)
    p = np.asarray(p, int)
    s = np.asarray(subset, int)
    keep = np.zeros(len(wn), bool)
    keep[s] = True
    dropped = float(wn[~keep].sum())
    distortion = 0.0
    if len(s) >= 2:
        distortion = float(np.abs(np.asarray(dn)[np.ix_(s, s)] - np.asarray(dx)[np.ix_(p[s], p[s])]).max())
    pushed = np.zeros(len(wx))
    np.add.at(pushed, p, wn)
    return max(distortion, dropped, prokhorov_by_subsets(dx, pushed, wx))


def bijection_problems(wx, dx, wy, dy, bijection) -> list[str]:
    """A measure-preserving isometry of supports, checked entry by entry."""
    if bijection is None:
        return ["no bijection returned for an isomorphic pair"]
    b = np.asarray(bijection, int)
    wx, wy = np.asarray(wx, float), np.asarray(wy, float)
    sx = np.flatnonzero(wx > 0.0)
    img = b[sx]
    if len(set(img.tolist())) != len(sx) or np.any(img < 0) or np.any(img >= len(wy)):
        return ["bijection is not injective on the support"]
    out = []
    if np.abs(wx[sx] / wx.sum() - wy[img] / wy.sum()).max() > TOL:
        out.append("bijection does not preserve weights")
    if np.abs(np.asarray(dx)[np.ix_(sx, sx)] - np.asarray(dy)[np.ix_(img, img)]).max() > TOL:
        out.append("bijection does not preserve distances")
    return out
