"""Independent brute-force oracles used to freeze expected values.

Everything here is computed straight from definitions (subset enumeration,
dense parameter grids, LP formulations, min-cut formulas) and shares no code
path with the solvers under test.  The exceptions check only what a
search skips or how it is organised: :func:`brute_witness` scores every map
with the solver's own Prokhorov and defect-clique routines,
:func:`reference_best_flow_at` runs the exact box solver's clique sweep with
no branch-and-bound cut, :func:`reference_isomorphisms` and
:func:`reference_domination_search` are the two hand-written backtracking
loops that the one point-map search of ``mmdist.matrixdist`` replaced,
:func:`reference_box_exact` is the exact box solve with every probe a full
sweep and the heaviest, lexicographically smallest certificate,
:func:`reference_box_heuristic` is the heuristic box local search scoring
every coupling with a full pair solve, :func:`reference_hli_sampled` is
the sampled Hausdorff loop measuring every probe with a full search, and
:func:`reference_threshold_solve` is the threshold search that bisects from
zero after a passed cap instead of stepping down from it,
:func:`reference_first_witness` is the defect-threshold solve that kept its
probes' outcomes per graph and drew its certificate from them, and
:func:`reference_me1_chains` runs one unbounded clique search per tolerance.
"""

from itertools import combinations, permutations, product

import numpy as np


def brute_box_pair(weights, d1, d2, lam):
    """Box value of a pair by enumerating every subset of support cells."""
    w = np.asarray(weights, dtype=float)
    delta = np.abs(np.asarray(d1, float) - np.asarray(d2, float))
    support = [int(i) for i in np.flatnonzero(w > 0.0)]
    m = float(w.sum())
    best = np.inf
    for k in range(len(support) + 1):
        for sub in combinations(support, k):
            mass = float(w[list(sub)].sum())
            worst = max((delta[a, b] for a in sub for b in sub), default=0.0)
            if lam == 0.0:
                if m - mass <= 1e-12:
                    best = min(best, worst)
            else:
                best = min(best, max(worst, (m - mass) / lam))
    return float(best)


def brute_box_two_point_uniform(dx, dy, mass, lam, grid=501):
    """Box distance between two 2-point uniform spaces of equal total mass.

    Couplings form a one-parameter family; each is scored by subset
    enumeration over its support cells.
    """
    w = mass / 2.0
    best = np.inf
    for t in np.linspace(0.0, w, grid):
        pi = np.array([[t, w - t], [w - t, t]])
        cells = [(i, j) for i in range(2) for j in range(2) if pi[i, j] > 0.0]
        cw = np.array([pi[i, j] for i, j in cells])
        k = len(cells)
        delta = np.zeros((k, k))
        for a, (i, j) in enumerate(cells):
            for b, (i2, j2) in enumerate(cells):
                ddx = dx if i != i2 else 0.0
                ddy = dy if j != j2 else 0.0
                delta[a, b] = abs(ddx - ddy)
        best = min(best, brute_box_pair(cw, delta, np.zeros_like(delta), lam))
    return float(best)


def me_infimum_grid(f, g, weights, lam, resolution=20001):
    """Infimum of the me condition over a dense tolerance grid.

    Overestimates the true infimum by at most one grid step, since the
    feasible tolerances form a ray.
    """
    v = np.abs(np.asarray(f, float) - np.asarray(g, float))
    w = np.asarray(weights, dtype=float)
    hi = float(v.max(initial=0.0)) + 1.0
    grid = np.linspace(0.0, hi, resolution)
    mass_at = np.array([float(w[v >= eps].sum()) for eps in grid])
    feasible = mass_at <= lam * grid
    return float(grid[feasible][0]) if feasible.any() else np.inf


def prokhorov_subsets(dist, mu, nu):
    """Prokhorov distance via the neighborhood inequality over all subsets."""
    d = np.asarray(dist, dtype=float)
    mu = np.asarray(mu, dtype=float)
    nu = np.asarray(nu, dtype=float)
    n = len(mu)
    points = list(range(n))
    best = 0.0
    for k in range(1, n + 1):
        for A in combinations(points, k):
            mu_a = float(mu[list(A)].sum())
            d_to_a = d[:, list(A)].min(axis=1)
            thresholds = np.unique(np.concatenate(([0.0], d_to_a)))
            eps_a = np.inf
            for t in thresholds:
                nu_neigh = float(nu[d_to_a <= t + 1e-12].sum())
                eps_a = min(eps_a, max(float(t), mu_a - nu_neigh))
            best = max(best, max(eps_a, 0.0))
    return float(best)


def min_cut_value(row_caps, col_caps, allowed):
    """Transportation max-flow value via explicit cut enumeration."""
    r = np.asarray(row_caps, dtype=float)
    c = np.asarray(col_caps, dtype=float)
    mask = np.asarray(allowed, dtype=bool)
    nr = mask.shape[0]
    best = float(r.sum())
    for bits in range(1 << nr):
        kept = [i for i in range(nr) if bits >> i & 1]
        dropped = [i for i in range(nr) if not bits >> i & 1]
        reach = sorted({j for i in kept for j in np.flatnonzero(mask[i])})
        best = min(best, float(r[dropped].sum() + c[reach].sum()))
    return best


def brute_best_flow(adj, rows_of, cols_of, row_caps, col_caps):
    """Heaviest transportation flow over the cliques of a cell graph, by enumeration.

    Cell ``c`` of the graph ``adj`` is the grid cell ``(rows_of[c],
    cols_of[c])``.  Every clique is scored by :func:`min_cut_value` on its
    mask.  Returns ``(mass, cells)``: the largest score, and the
    lexicographically smallest maximal clique that reaches it.
    """
    n = len(adj)
    cliques = [
        c
        for k in range(1, n + 1)
        for c in combinations(range(n), k)
        if all(adj[a, b] for a, b in combinations(c, 2))
    ]

    def flow(clique):
        mask = np.zeros((len(row_caps), len(col_caps)), dtype=bool)
        mask[rows_of[list(clique)], cols_of[list(clique)]] = True
        return min_cut_value(row_caps, col_caps, mask)

    best = max(flow(c) for c in cliques)
    maximal = [
        c for c in cliques if not any(all(adj[v, u] for u in c) for v in range(n) if v not in c)
    ]
    return best, min(c for c in maximal if flow(c) >= best - 1e-12)


def reference_flow_bound(cells, rows, cols, r_cap, c_cap):
    """Upper bound on the flow through ``cells``, summed cell by cell.

    Row ``i`` routes at most ``min(r_i, sum of c_j over the columns the cells
    admit in row i)``, and column ``j`` likewise; the bound is the smaller of
    the row sum and the column sum of these.  The reference for the bound
    that ``mmdist.box._best_flow_at`` reads from subset-sum tables.
    """
    row_reach = [0.0] * len(r_cap)
    col_reach = [0.0] * len(c_cap)
    for c in cells:
        row_reach[rows[c]] += c_cap[cols[c]]
        col_reach[cols[c]] += r_cap[rows[c]]
    return min(sum(map(min, r_cap, row_reach)), sum(map(min, c_cap, col_reach)))


def reference_best_flow_at(adj, rows_of, cols_of, row_caps, col_caps, *, target=None):
    """The clique sweep of ``mmdist.box._best_flow_at`` without its subtree cut.

    Every maximal clique is enumerated; a clique is skipped only when its
    row or column capacities cannot beat the best flow so far.  It takes the
    solver's arguments; without ``target``, or with a reached one, the solver
    must return what it returns.
    """
    from mmdist.box import _TIE_TOL, _maximal_cliques
    from mmdist.transport import max_flow_value

    best = (0.0, ())
    for clique in _maximal_cliques(adj, lambda r, p, r_twin, p_twin: True, range(len(adj))):
        rows = sorted({int(rows_of[c]) for c in clique})
        cols = sorted({int(cols_of[c]) for c in clique})
        ub = min(float(row_caps[rows].sum()), float(col_caps[cols].sum()))
        if ub < best[0] - _TIE_TOL:
            continue
        value = max_flow_value(row_caps, col_caps, (rows_of[list(clique)], cols_of[list(clique)]))
        if value > best[0] + _TIE_TOL or (
            value >= best[0] - _TIE_TOL and (best[1] == () or clique < best[1])
        ):
            best = (max(best[0], value), clique)
        if target is not None and best[0] >= target:
            break
    return best


def brute_max_weight_clique(adj, weights, tie_tol=1e-12):
    """Heaviest clique of the graph of a boolean matrix, by enumeration.

    Returns ``(mass, cells)``: the largest clique mass, and among the
    nonempty cliques whose mass is within ``tie_tol`` of it the
    lexicographically smallest vertex tuple.
    """
    n = len(adj)
    cliques = [
        c
        for k in range(1, n + 1)
        for c in combinations(range(n), k)
        if all(adj[a][b] for a, b in combinations(c, 2))
    ]
    mass = {c: float(sum(weights[v] for v in c)) for c in cliques}
    best = max(mass.values())
    return best, min(c for c in cliques if mass[c] >= best - tie_tol)


#: the residual tolerance of ``transport.max_flow``
_RESIDUAL_TOL = 1e-15


def numpy_max_flow(row_caps, col_caps, allowed):
    """Edmonds-Karp on numpy arrays, recomputing slacks from the plan each round.

    The reference for the list-based ``transport.max_flow``: the same
    breadth-first order (ascending indices) and the same augmenting paths,
    with the row and column slacks summed from the plan at every round.
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


def lip_vertices_active_sets(d, tol=1e-9):
    """Vertex enumeration by solving all (k-1)-subsets of tight constraints.

    Constraints are f_i - f_j = s * d_ij together with the pin f_0 = 0;
    solutions of full-rank systems that satisfy every inequality are the
    extreme points.
    """
    d = np.asarray(d, dtype=float)
    k = d.shape[0]
    if k == 1:
        return {(0.0,)}
    cons = [(i, j) for i, j in combinations(range(k), 2)]
    verts = set()
    for rows in combinations(cons, k - 1):
        for signs in product((1.0, -1.0), repeat=k - 1):
            A = np.zeros((k, k))
            b = np.zeros(k)
            A[0, 0] = 1.0
            for row, ((i, j), s) in enumerate(zip(rows, signs), start=1):
                A[row, i] = 1.0
                A[row, j] = -1.0
                b[row] = s * d[i, j]
            try:
                f = np.linalg.solve(A, b)
            except np.linalg.LinAlgError:
                continue
            if float(np.max(np.abs(A @ f - b))) > 1e-8:
                continue
            if float(np.max(np.abs(f[:, None] - f[None, :]) - d)) > tol:
                continue
            verts.add(tuple(np.round(f / 1e-9).astype(np.int64).tolist()))
    return {tuple(x * 1e-9 for x in v) for v in verts}


def sup_distance_to_lip_lp(v, d_other):
    """Nearest sup-distance from a function to a 1-Lipschitz set, by LP.

    Variables are the approximating function (translation included) and the
    sup gap t; scipy's HiGHS solves it to high accuracy.
    """
    from scipy.optimize import linprog

    v = np.asarray(v, dtype=float)
    d = np.asarray(d_other, dtype=float)
    k = len(v)
    # variables: g_0..g_{k-1}, t
    c = np.zeros(k + 1)
    c[-1] = 1.0
    rows = []
    rhs = []
    for i in range(k):
        for j in range(k):
            if i == j:
                continue
            row = np.zeros(k + 1)
            row[i] = 1.0
            row[j] = -1.0
            rows.append(row)
            rhs.append(d[i, j])
    for i in range(k):
        up = np.zeros(k + 1)
        up[i] = 1.0
        up[-1] = -1.0
        rows.append(up)
        rhs.append(v[i])
        lo = np.zeros(k + 1)
        lo[i] = -1.0
        lo[-1] = -1.0
        rows.append(lo)
        rhs.append(-v[i])
    res = linprog(
        c,
        A_ub=np.array(rows),
        b_ub=np.array(rhs),
        bounds=[(None, None)] * k + [(0, None)],
        method="highs",
    )
    assert res.success
    return float(res.fun)


def brute_isomorphisms(wx, dx, wy, dy, tol=1e-9):
    """Every weight- and distance-preserving bijection between the supports.

    Tries all permutations of the target support; returns full-length maps
    as lists (-1 off the support), sorted.
    """
    wx, wy = np.asarray(wx, dtype=float), np.asarray(wy, dtype=float)
    dx, dy = np.asarray(dx, dtype=float), np.asarray(dy, dtype=float)
    sx, sy = np.flatnonzero(wx > 0.0), np.flatnonzero(wy > 0.0)
    if len(sx) != len(sy):
        return []
    out = []
    for perm in permutations(sy.tolist()):
        p = np.array(perm, dtype=int)
        if np.all(np.abs(wx[sx] - wy[p]) <= tol) and np.all(
            np.abs(dx[np.ix_(sx, sx)] - dy[np.ix_(p, p)]) <= tol
        ):
            g = np.full(len(wx), -1, dtype=int)
            g[sx] = p
            out.append(g.tolist())
    return sorted(out)


def brute_mu_r(weights, dist, r):
    """Matrix distribution of order ``r``, one ``r``-tuple at a time.

    Enumerates the tuples of support points in ``itertools.product`` order;
    returns ``(key, mass)`` pairs sorted by key, where a key is the tuple's
    distance matrix, rounded at 1e-12 and flattened row-major.
    """
    w = np.asarray(weights, dtype=float)
    d = np.asarray(dist, dtype=float)
    acc = {}
    for tup in product(np.flatnonzero(w > 0.0).tolist(), repeat=r):
        mass = 1.0
        for i in tup:
            mass *= w[i]
        key = tuple(np.round(d[np.ix_(tup, tup)].ravel(), 12).tolist())
        acc[key] = acc.get(key, 0.0) + mass
    return sorted(acc.items())


def brute_witness(Xn, X, seed=0):
    """Witness search that scores every map it visits in full.

    The same map order, acceptance rule and hill-climbing schedule as
    ``mmdist.limits.witness_search``, without skipping the defect-clique
    search for any map.  Returns ``(p, subset, eps)`` with ``p`` and
    ``subset`` as lists.
    """
    from mmdist.box import box_pair
    from mmdist.core import SemiDistancePair
    from mmdist.limits import ANNEAL_RESTARTS, ANNEAL_STEPS, WITNESS_ENUM_SUPPORT
    from mmdist.transport import prokhorov_distance

    sn, sx = Xn.support, X.support

    def evaluate(cand):
        p = np.array(cand, dtype=int)
        nu = np.zeros(X.n)
        np.add.at(nu, p, Xn.weights[sn])
        prok = prokhorov_distance(X.dist, nu, X.weights)
        pair = SemiDistancePair(Xn.weights[sn], Xn.dist[np.ix_(sn, sn)], X.dist[np.ix_(p, p)])
        res = box_pair(pair, 1.0, max_cells=len(sn))
        return max(res.value, prok), res.cells

    best_obj, best_p, best_cells = np.inf, (), ()
    if len(sn) <= WITNESS_ENUM_SUPPORT and len(sx) <= WITNESS_ENUM_SUPPORT:
        for cand in product(sx.tolist(), repeat=len(sn)):
            obj, cells = evaluate(cand)
            if obj < best_obj - 1e-15 or (obj <= best_obj + 1e-15 and cand < best_p):
                best_obj, best_p, best_cells = obj, cand, cells
    else:
        rng = np.random.default_rng(seed)
        for _ in range(ANNEAL_RESTARTS):
            cand = tuple(rng.choice(sx, size=len(sn)).tolist())
            obj, cells = evaluate(cand)
            if obj < best_obj:
                best_obj, best_p, best_cells = obj, cand, cells
            for _ in range(ANNEAL_STEPS):
                trial = list(best_p)
                trial[int(rng.integers(len(sn)))] = int(rng.choice(sx))
                trial = tuple(trial)
                obj, cells = evaluate(trial)
                if obj < best_obj:
                    best_obj, best_p, best_cells = obj, trial, cells
    p_full = np.full(Xn.n, int(sx[0]), dtype=int)
    p_full[sn] = best_p
    return p_full.tolist(), [int(sn[c]) for c in best_cells], float(best_obj)


def brute_domination(X, Y):
    """Every 1-Lipschitz map of supports pushing ``X``'s measure onto ``c``
    times ``Y``'s, ``c = m_X / m_Y``, at the tolerances of
    ``mmdist.limits.domination_search`` (1e-12 on distances, 1e-9 on mass).

    Enumerates all maps from a support of at most 5 points; returns
    ``(maps, c)`` with full-length maps as lists (-1 off the support), in
    lexicographic order, and no maps when ``c < 1``.
    """
    sx, sy = X.support, Y.support
    assert len(sx) <= 5 and len(sy) <= 5
    c = X.total_mass / Y.total_mass
    if c < 1.0 - 1e-12:
        return [], c
    # one row per map, in lexicographic order
    q = np.array(list(product(sy.tolist(), repeat=len(sx))), dtype=int).reshape(-1, len(sx))
    rows = np.arange(len(q))
    pushed = np.zeros((len(q), Y.n))
    for col, i in enumerate(sx):
        pushed[rows, q[:, col]] += X.weights[i]
    lipschitz = (Y.dist[q[:, :, None], q[:, None, :]] <= X.dist[np.ix_(sx, sx)] + 1e-12).all(axis=(1, 2))
    fills = (np.abs(pushed - c * Y.weights) <= 1e-9).all(axis=1)
    maps = np.full((len(q), X.n), -1, dtype=int)
    maps[:, sx] = q
    return maps[lipschitz & fills].tolist(), c


def reference_isomorphisms(X, Y):
    """The isomorphism backtracking of ``mmdist.matrixdist`` before it ran on
    the shared point-map search; yields the same maps in the same order."""
    from mmdist.matrixdist import _TOL

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


def reference_domination_search(X, Y):
    """The domination backtracking of ``mmdist.limits`` before it ran on the
    shared point-map search; returns the same certificate or ``None``."""
    from mmdist.errors import SizeLimitError
    from mmdist.limits import DOMINATION_MAX_SUPPORT, DominationCertificate

    sx, sy = X.support, Y.support
    if len(sx) > DOMINATION_MAX_SUPPORT or len(sy) > DOMINATION_MAX_SUPPORT:
        raise SizeLimitError(
            f"domination_search refuses supports {len(sx)}x{len(sy)} "
            f"(limit {DOMINATION_MAX_SUPPORT})"
        )
    c = X.total_mass / Y.total_mass
    if c < 1.0 - 1e-12:
        return None
    budget = c * Y.weights
    dX = X.dist
    dY = Y.dist
    assign = np.full(X.n, -1, dtype=int)
    pushed = np.zeros(Y.n)

    def backtrack(k: int) -> bool:
        if k == len(sx):
            return bool(np.max(np.abs(pushed - budget)) <= 1e-9)
        i = sx[k]
        for j in sy:
            if pushed[j] + X.weights[i] > budget[j] + 1e-9:
                continue
            ok = True
            for prev in sx[:k]:
                if dY[j, assign[prev]] > dX[i, prev] + 1e-12:
                    ok = False
                    break
            if not ok:
                continue
            assign[i] = j
            pushed[j] += X.weights[i]
            if backtrack(k + 1):
                return True
            pushed[j] -= X.weights[i]
            assign[i] = -1
        return False

    if not backtrack(0):
        return None
    return DominationCertificate(assign, c)


def reference_box_exact(X, Y, lam):
    """Exact ``box_distance`` with the lexicographic certificate.

    Every probe of the threshold search is a full sweep of
    ``mmdist.box._best_flow_at``, and the certificate is the heaviest clique
    at the answer, lexicographically smallest among ties, completed to a
    coupling as the solver completes its own.  The solver, which keeps the
    first witness its search finds, must return the same value bits.
    """
    from mmdist.box import EDGE_TOL, BoxResult, _best_flow_at
    from mmdist.core import lighter_first
    from mmdist.transport import completion, max_flow

    A, B, gap, swapped = lighter_first(X, Y)
    sx, sy = A.support, B.support
    rows_of, cols_of = np.divmod(np.arange(len(sx) * len(sy)), len(sy))
    xs, ys = sx[rows_of], sy[cols_of]
    delta = np.abs(A.dist[np.ix_(xs, xs)] - B.dist[np.ix_(ys, ys)])
    r, c = A.weights[sx], B.weights[sy]

    def heaviest(t):
        return _best_flow_at(delta <= t + EDGE_TOL, rows_of, cols_of, r, c)

    eps = reference_threshold_solve(np.triu(delta, 1), A.total_mass, lam, lambda t, target: heaviest(t))
    kept = list(heaviest(eps)[1])
    pi = np.zeros((A.n, B.n))
    pi[np.ix_(sx, sy)] = completion(max_flow(r, c, (rows_of[kept], cols_of[kept]))[1], r, c)
    cells = tuple((int(xs[k]), int(ys[k])) for k in kept)
    retained = float(sum(pi[i, j] for i, j in cells))
    if swapped:
        cells, pi = tuple((j, i) for i, j in cells), pi.T.copy()
    return BoxResult(eps + gap, "exact", cells, retained, eps, gap, pi)


def reference_box_heuristic(X, Y, lam, seed):
    """The local search of ``mmdist.box._box_equal_mass_heuristic`` with every
    coupling scored by a full threshold search, no probe at the incumbent
    first; it takes the solver's arguments and must return what it returns."""
    from mmdist.box import HEURISTIC_RESTARTS, HEURISTIC_STEPS, BoxResult, box_pair
    from mmdist.core import pullback_pair
    from mmdist.transport import northwest_plan

    rng = np.random.default_rng(seed)
    best_eps = np.inf
    best_cells: tuple = ()
    best_pi = None

    def score(pi):
        """Pair value of the pullback along ``pi`` and its kept coupling cells."""
        pair = pullback_pair(X, Y, pi)
        res = box_pair(pair, lam, max_cells=pair.n)
        return res.value, tuple(pair.cells[k] for k in res.cells)

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
    retained = float(sum(best_pi[i, j] for i, j in best_cells))
    return BoxResult(
        best_eps, "heuristic-upper-bound", best_cells, retained, best_eps, coupling=best_pi
    )


def reference_hli_sampled(pair, lam, samples=48, seed=0):
    """The sampled loop of ``mmdist.lipschitz.hli_lambda`` with every probe
    measured by a full threshold search, no floor at the running maximum;
    returns the value ``hli_lambda(pair, lam, "sampled", ...)`` must return.

    ``lip_point_distance`` is looked up on its module at each call, so a
    tracer that replaces it there counts these calls too.
    """
    from mmdist import lipschitz

    rng = np.random.default_rng(seed)
    sets = (lipschitz.Lip1Set(pair.d1, pair.weights), lipschitz.Lip1Set(pair.d2, pair.weights))
    value = 0.0
    for source, target in (sets, sets[::-1]):
        probes = [source._extend(cone) for cone in source.closure.T]
        probes += [source.sample(rng) for _ in range(samples)]
        for f in probes:
            value = max(value, lipschitz.lip_point_distance(f, target, lam))
    return value


def reference_threshold_solve(values, m, lam, best_at, cap=np.inf, floor=0.0):
    """The value of ``mmdist.transport._threshold_solve`` as it bisected between
    zero (or the floor's threshold) and the first threshold at or above a
    passed ``cap``; ``best_at(t, target)`` returns ``(mass, witness)`` as
    there.  The search that steps down from the cap must return the same bits."""
    from mmdist.errors import InternalInvariantError

    def feasible(t: float) -> bool:
        need = m - lam * t - 1e-12
        if need <= 0.0:
            return True
        return best_at(t, need)[0] >= need

    if cap < np.inf and cap <= np.max(values, initial=0.0) and not feasible(cap):
        return np.inf
    thresholds = np.unique(np.concatenate(([0.0], np.ravel(values))))
    top = len(thresholds) - 1
    hi = int(np.searchsorted(thresholds, cap))  # first threshold at or above cap
    lo = max(int(np.searchsorted(thresholds, floor, side="right")) - 1, 0)  # last at or below floor
    if lo > 0 and feasible(float(thresholds[lo])):
        return floor
    if hi > top:  # no gate probe has shown the largest threshold feasible
        hi = top
        if not feasible(float(thresholds[hi])):
            raise InternalInvariantError("threshold search infeasible at the largest defect")
    if lo == 0 and (hi == 0 or feasible(float(thresholds[0]))):
        return max(float(thresholds[0]), floor)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if feasible(float(thresholds[mid])):
            hi = mid
        else:
            lo = mid
    if lam == 0.0:
        return float(thresholds[hi])
    w_prev = best_at(float(thresholds[lo]), None)[0]
    cand = (m - w_prev) / lam
    return max(float(min(thresholds[hi], max(thresholds[lo], cand))), floor)


def reference_first_witness(delta, m, lam, best_at):
    """The defect-threshold solve as it kept its probes' outcomes per graph,
    with the certificate it drew from them; returns ``(eps, cells)``.

    Cells ``a != b`` are compatible at ``t`` when ``delta[a, b] <= t +
    EDGE_TOL``, and ``best_at(mask, target)`` searches that boolean matrix.
    Compatible pairs only join as ``t`` grows, so their count names the
    graph.  A targeted probe on a graph probed before returns an earlier
    outcome that decides it, and each graph's heaviest clique is searched
    once.  The cells are those of the first targeted search on the graph at
    ``eps`` that keeps ``m - lam * eps`` (to 1e-12), and otherwise the
    heaviest clique there.  Where no two of the thresholds and ``eps`` lie
    within ``EDGE_TOL``, the witness that an ungated ``_threshold_solve``
    hands back (or, with none, the heaviest clique at ``eps``) must be these
    cells.
    """
    from mmdist.box import EDGE_TOL
    from mmdist.transport import _threshold_solve

    heaviest: dict = {}  # count of compatible pairs -> best_at(mask, None)
    probed: dict = {}  # count of compatible pairs -> [(target, best_at(mask, target)), ...]

    def graph(t):
        mask = delta <= t + EDGE_TOL
        return mask, int(np.count_nonzero(mask))

    def best_at_t(t, target):
        mask, key = graph(t)
        if target is not None:
            for earlier, (mass, cells) in probed.setdefault(key, []):
                if mass >= target or mass < earlier <= target:
                    return mass, cells
            probed[key].append((target, best_at(mask, target)))
            return probed[key][-1][1]
        if key not in heaviest:
            heaviest[key] = best_at(mask, None)
        return heaviest[key]

    eps = _threshold_solve(np.triu(delta, 1), m, lam, lambda t, target: (best_at_t(t, target)[0], None))[0]

    tried = probed.get(graph(eps)[1], [])
    hit = next((hit for _, hit in tried if hit[0] >= m - lam * eps - 1e-12), None) or best_at_t(eps, None)
    return eps, hit[1]


def reference_me1_chains(matrix):
    """The chains of ``mmdist.limits.me1_subsequence_diagnostic`` from its matrix,
    one plain clique search per distinct pairwise value."""
    from mmdist.box import _max_weight_clique

    k = len(matrix)
    grid = np.unique(matrix[np.triu_indices(k, k=1)]) if k > 1 else np.array([0.0])
    return tuple(
        (float(eps), _max_weight_clique(matrix <= eps + 1e-12, np.ones(k))[1]) for eps in grid
    )
