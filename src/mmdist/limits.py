"""Convergence and stability machinery for finite mm-spaces.

This module quantifies weak convergence through the exact Prokhorov distance
on a fixed finite space, searches for almost-isometry witnesses (a point map,
a retained subset and one tolerance bounding discarded mass, distortion and
the pushforward's Prokhorov gap simultaneously), runs empirical-measure
convergence experiments against the box distance, and probes Lipschitz
domination and homogeneity, which are stable under box convergence.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .box import _max_weight_clique, box_distance, box_upper_from_witness, smallest_eps_for_defects
from .core import FiniteMMSpace, Witness
from .errors import SizeLimitError
from .lipschitz import me_lambda_maps
from .matrixdist import _isomorphisms
from .transport import prokhorov_distance

__all__ = [
    "prokhorov",
    "lipschitz_up_to_check",
    "witness_search",
    "empirical_convergence_experiment",
    "ConvergenceReport",
    "DominationCertificate",
    "domination_search",
    "compose_domination",
    "isometry_group",
    "is_homogeneous",
    "me1_subsequence_diagnostic",
    "Me1Diagnostic",
]

#: :func:`lipschitz_up_to_check` solves the clique exactly up to this support
EXACT_CLIQUE_SUPPORT = 20
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
    mu = np.asarray(mu, dtype=float)
    nu = np.asarray(nu, dtype=float)
    if mu.shape != (space.n,) or nu.shape != (space.n,):
        raise ValueError("mu and nu must be weight vectors on the space")
    if np.any(mu < 0.0) or np.any(nu < 0.0):
        raise ValueError("weightings must be nonnegative")
    if abs(float(mu.sum()) - float(nu.sum())) > 1e-9:
        raise ValueError("prokhorov requires equal total masses")
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

    Returns the maximal-mass subset on which the inequality holds pairwise
    (an exact clique search at desk scale, greedy peeling beyond
    :data:`EXACT_CLIQUE_SUPPORT`), or ``None`` when its complement is too heavy.
    """
    fmap = np.asarray(fmap, dtype=int)
    s = X.support
    dY = Y.dist[np.ix_(fmap[s], fmap[s])]
    dX = X.dist[np.ix_(s, s)]
    ok = dY <= lam * dX + eps + 1e-12
    np.fill_diagonal(ok, False)
    # maximum-mass subset that is pairwise admissible = max-weight clique
    if len(s) <= EXACT_CLIQUE_SUPPORT:
        _, clique = _max_weight_clique(ok, X.weights[s])
    else:  # greedy peel: drop the endpoint with most violations
        alive = list(range(len(s)))
        while True:
            viol = (~ok[np.ix_(alive, alive)]).sum(axis=1) - 1  # self always bad
            if not (viol > 0).any():
                break
            drop = alive[int(np.argmax(viol))]
            alive.remove(drop)
        clique = tuple(alive)
    kept = s[list(clique)]
    dropped = X.total_mass - float(X.weights[kept].sum())
    if dropped > eps + 1e-9:
        return None
    return kept


# ---------------------------------------------------------------------------
# witness search


def _distortion_matrix(Xn, X, p, sn):
    dn = Xn.dist[np.ix_(sn, sn)]
    dx = X.dist[np.ix_(p, p)]
    return np.abs(dn - dx)


def witness_search(Xn: FiniteMMSpace, X: FiniteMMSpace, *, seed: int = 0) -> Witness:
    """Best almost-isometry witness from ``Xn`` to ``X``.

    Minimizes ``max(distortion on the retained set, dropped mass,
    prokhorov(pushforward, target measure))`` over all point maps and
    retained subsets.  For a fixed map the inner subset optimization is the
    defect-clique search at unit mass-tradeoff; maps are enumerated when both
    supports fit in :data:`WITNESS_ENUM_SUPPORT` and hill-climbed with
    restarts otherwise.
    """
    if abs(Xn.total_mass - X.total_mass) > 1e-9:
        raise ValueError("witness_search requires equal total masses")
    sn, sx = Xn.support, X.support
    m = Xn.total_mass

    def evaluate(p_support: tuple) -> tuple[float, tuple]:
        p = np.array(p_support, dtype=int)
        nu = np.zeros(X.n)
        np.add.at(nu, p, Xn.weights[sn])
        prok = prokhorov_distance(X.dist, nu, X.weights)
        delta = _distortion_matrix(Xn, X, p, sn)
        eps_pair, cells = smallest_eps_for_defects(delta, Xn.weights[sn], 1.0)
        return max(eps_pair, prok), cells

    best_obj = np.inf
    best_p: tuple = ()
    best_cells: tuple = ()
    if len(sn) <= WITNESS_ENUM_SUPPORT and len(sx) <= WITNESS_ENUM_SUPPORT:
        for cand in product(sx.tolist(), repeat=len(sn)):
            obj, cells = evaluate(cand)
            if obj < best_obj - 1e-15 or (
                obj <= best_obj + 1e-15 and cand < best_p
            ):
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
    for k, i in enumerate(sn):
        p_full[i] = best_p[k]
    subset = tuple(int(sn[c]) for c in best_cells)
    return Witness(p_full, np.array(subset, dtype=int), float(best_obj))


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
    """The empirical mm-space of sampled multiplicities (atoms merge)."""
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
    if abs(X.total_mass - 1.0) > 1e-9:
        raise ValueError("empirical experiments require a normalized space")
    rows = []
    s = X.support
    probs = X.weights[s]
    for N in sizes:
        if int(N) < 1:
            raise ValueError(f"sample sizes must be positive, got {N}")
        rng = np.random.default_rng([seed, int(N)])
        counts_s = rng.multinomial(int(N), probs / probs.sum())
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
        rows.append((int(N), float(value), mode))
    decreased = bool(rows) and rows[-1][1] < rows[0][1]
    spans = bool(rows) and max(n for n, _, _ in rows) >= 100 * min(n for n, _, _ in rows)
    return ConvergenceReport(tuple(rows), decreased, spans)


# ---------------------------------------------------------------------------
# Lipschitz domination


@dataclass(frozen=True, eq=False)
class DominationCertificate:
    """A 1-Lipschitz map of supports pushing the first measure to ``c`` times
    the second, ``c >= 1``."""

    p: np.ndarray
    c: float

    def __post_init__(self):
        object.__setattr__(self, "p", np.array(self.p, dtype=int))
        object.__setattr__(self, "c", float(self.c))

    def violations(self, X: FiniteMMSpace, Y: FiniteMMSpace) -> list[str]:
        """Ways the certificate fails for ``X`` onto ``Y``; mass is checked to 1e-9."""
        v = []
        sx = X.support
        p = self.p
        if np.any(p[sx] < 0) or np.any(p[sx] >= Y.n):
            return ["map undefined on part of the support"]
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

    The mass ratio is forced to ``c = m_X / m_Y``; backtracking assigns
    support points of ``X`` with 1-Lipschitz pruning and pushforward mass
    accounting.  Returns ``None`` after exhaustion.
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


def compose_domination(
    first: DominationCertificate, second: DominationCertificate
) -> DominationCertificate:
    """Compose X > Y and Y > Z certificates into an X > Z certificate."""
    p = np.full(len(first.p), -1, dtype=int)
    defined = first.p >= 0
    p[defined] = second.p[first.p[defined]]
    return DominationCertificate(p, first.c * second.c)


# ---------------------------------------------------------------------------
# isometries and homogeneity


def isometry_group(X: FiniteMMSpace) -> list[np.ndarray]:
    """All distance- and measure-preserving bijections of the support.

    The isomorphisms of ``X`` onto itself, as full-length maps (non-support
    entries -1) in lexicographic order, so the identity comes first.
    """
    k = len(X.support)
    if k > ISOMETRY_MAX_SUPPORT:
        raise SizeLimitError(
            f"isometry_group refuses support size {k} (limit {ISOMETRY_MAX_SUPPORT})"
        )
    return sorted(_isomorphisms(X, X), key=lambda g: g.tolist())


def _is_transitive(X: FiniteMMSpace, group: list[np.ndarray]) -> bool:
    """Whether ``group`` (which holds the identity) moves the first support
    point onto every support point."""
    s = X.support
    return {int(g[s[0]]) for g in group} == set(s.tolist())


def is_homogeneous(X: FiniteMMSpace) -> bool:
    """Whether the measure-preserving isometry group acts transitively."""
    return _is_transitive(X, isometry_group(X))


# ---------------------------------------------------------------------------
# me_1 sequence diagnostic


@dataclass(frozen=True)
class Me1Diagnostic:
    """Pairwise me distances of a map sequence with greedy cluster chains.

    ``chains`` holds ``(eps, indices)`` for each grid tolerance: the longest
    subsequence whose members stay pairwise within ``eps``.  Diagnostic only.
    """

    matrix: np.ndarray
    chains: tuple

    @property
    def empty(self) -> bool:
        return self.matrix.size == 0


def me1_subsequence_diagnostic(maps, weights, dY, *, eps_grid=None) -> Me1Diagnostic:
    """Pairwise me_1 structure of a sequence of maps into a common target.

    For each tolerance in the grid (defaults to the distinct pairwise
    values), a greedy forward pass extracts the longest chain that stays
    pairwise within the tolerance; a chain covering the whole sequence means
    the sequence is uniformly clustered at that scale.
    """
    maps = [np.asarray(f, dtype=int) for f in maps]
    k = len(maps)
    if k == 0:
        return Me1Diagnostic(np.zeros((0, 0)), ())
    M = np.zeros((k, k))
    for i in range(k):
        for j in range(i + 1, k):
            M[i, j] = M[j, i] = me_lambda_maps(maps[i], maps[j], weights, dY, 1.0)
    if eps_grid is None:
        eps_grid = np.unique(M[np.triu_indices(k, k=1)]) if k > 1 else np.array([0.0])
    chains = []
    for eps in np.asarray(eps_grid, dtype=float):
        best: tuple = ()
        for start in range(k):
            chain = [start]
            for j in range(start + 1, k):
                if all(M[j, c] <= eps + 1e-12 for c in chain):
                    chain.append(j)
            if len(chain) > len(best):
                best = tuple(chain)
        chains.append((float(eps), best))
    return Me1Diagnostic(M, tuple(chains))
