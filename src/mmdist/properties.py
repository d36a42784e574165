"""Named property checks over seeded random instances.

Each property draws its instances from a dedicated generator, which
:func:`run_suite` seeds from the suite seed and the property's registry name,
runs a mathematical check, and reports a machine-readable outcome.  The CLI
``suite`` subcommand and the acceptance tests run the registry through
:func:`run_suite`.

Counts scale with the ``samples`` argument; checks themselves are exact and
deterministic, so a suite run is reproducible byte for byte given one seed.
"""

from __future__ import annotations

import hashlib

import numpy as np

from . import instances as gen
from .box import box_distance, box_pair, box_upper_from_witness
from .core import (
    diagonal_coupling,
    metric_closure,
    mm_space,
    nonnegative,
    normalized,
    pullback_pair,
    random_coupling,
    scale_measure,
    validate,
    whole_number,
)
from .limits import (
    compose_domination,
    domination_search,
    is_homogeneous,
    prokhorov,
    witness_search,
)
from .lipschitz import Lip1Set, hli_lambda, me_lambda, observable_distance, project_to_lip1
from .matrixdist import (
    exact_mu_r,
    isomorphism_search,
    parameter_invariance_check,
    reconstruction_check,
    sample_mu_r,
    total_variation,
)

TOL = 1e-9


def _rng(seed: int, name: str) -> np.random.Generator:
    digest = hashlib.sha256(name.encode()).digest()
    return np.random.default_rng([seed, int.from_bytes(digest[:4], "big")])


def _result(passed: bool, **details) -> dict:
    return {"passed": bool(passed), "details": details}


def _mass_pattern(rng, pattern: str) -> tuple[float, float, float]:
    totals = np.round(rng.uniform(0.5, 2.0, size=3), 2)
    a, b, c = (float(x) for x in totals)
    if pattern == "equal":
        return a, a, a
    if pattern == "xy":
        return a, a, c
    if pattern == "xz":
        return a, b, a
    if pattern == "yz":
        return a, b, b
    return a, b, c


# ---------------------------------------------------------------------------
# core


def prop_pullback_diagonal_identity(rng: np.random.Generator, seed: int, trials: int) -> dict:
    worst = 0.0
    for _ in range(trials):
        X = gen.random_space(rng, max_points=4)
        pair = pullback_pair(X, X, diagonal_coupling(X))
        worst = max(worst, float(np.max(np.abs(pair.d1 - pair.d2), initial=0.0)))
    return _result(worst == 0.0, worst=worst)


def prop_coupling_marginals(rng: np.random.Generator, seed: int, trials: int) -> dict:
    worst = 0.0
    for _ in range(trials):
        total = float(np.round(rng.uniform(0.5, 2.0), 2))
        X = gen.random_space_total(rng, total, max_points=4)
        Y = gen.random_space_total(rng, total, max_points=4)
        c = random_coupling(X, Y, rng)
        worst = max(
            worst,
            float(np.max(np.abs(c.sum(axis=1) - X.weights), initial=0.0)),
            float(np.max(np.abs(c.sum(axis=0) - Y.weights), initial=0.0)),
        )
    return _result(worst <= 1e-12, worst=worst)


def prop_scale_roundtrip(rng: np.random.Generator, seed: int, trials: int) -> dict:
    worst = 0.0
    for _ in range(trials):
        X = gen.random_space(rng, max_points=5)
        a = float(rng.uniform(0.1, 4.0))
        back = scale_measure(scale_measure(X, a), 1.0 / a)
        worst = max(worst, float(np.max(np.abs(back.weights - X.weights))))
    return _result(worst <= 1e-12, worst=worst)


def prop_validation_detects_asymmetry(rng: np.random.Generator, seed: int, trials: int) -> dict:
    ok = True
    for _ in range(trials):
        X = gen.random_space(rng, min_points=2, max_points=4)
        d = np.array(X.dist)
        d[0, 1] += 0.5  # break symmetry only one way
        report = validate(X.labels, X.weights, d)
        ok = ok and any("asymmetric" in v for v in report.violations)
    return _result(ok)


# ---------------------------------------------------------------------------
# box distance


def prop_box_symmetry(rng: np.random.Generator, seed: int, trials: int) -> dict:
    worst = 0.0
    for k in range(trials):
        lam = float(rng.choice([0.0, 0.5, 1.0, 2.0]))
        X = gen.random_space(rng, max_points=4)
        Y = gen.random_space(rng, max_points=4)
        d1 = box_distance(X, Y, lam).value
        d2 = box_distance(Y, X, lam).value
        worst = max(worst, abs(d1 - d2))
    return _result(worst <= TOL, worst=worst)


def prop_box_triangle(rng: np.random.Generator, seed: int, trials: int) -> dict:
    patterns = ["equal", "xy", "xz", "yz", "distinct"]
    worst = -np.inf
    for k in range(trials):
        lam = float(rng.choice([0.0, 1.0]))
        ma, mb, mc = _mass_pattern(rng, patterns[k % len(patterns)])
        X = gen.random_space_total(rng, ma, max_points=3)
        Y = gen.random_space_total(rng, mb, max_points=3)
        Z = gen.random_space_total(rng, mc, max_points=3)
        xz = box_distance(X, Z, lam).value
        xy = box_distance(X, Y, lam).value
        yz = box_distance(Y, Z, lam).value
        worst = max(worst, xz - xy - yz)
    return _result(worst <= TOL, worst_excess=worst)


def prop_box_identity_on_isomorphic(rng: np.random.Generator, seed: int, trials: int) -> dict:
    worst = 0.0
    for _ in range(trials):
        lam = float(rng.choice([0.0, 1.0]))
        X = gen.random_space(rng, max_points=3)
        Y, _ = gen.shuffled_copy(rng, X)
        worst = max(worst, box_distance(X, Y, lam).value)
    return _result(worst <= TOL, worst=worst)


def prop_box_lambda_monotone(rng: np.random.Generator, seed: int, trials: int) -> dict:
    worst = -np.inf
    for _ in range(trials):
        X = gen.random_space(rng, max_points=3)
        Y = gen.random_space(rng, max_points=3)
        lams = np.sort(rng.uniform(0.0, 3.0, size=2))
        lo = box_distance(X, Y, float(lams[1])).value
        hi = box_distance(X, Y, float(lams[0])).value
        worst = max(worst, lo - hi)
    return _result(worst <= TOL, worst_excess=worst)


def prop_box_scaling_sandwich(rng: np.random.Generator, seed: int, trials: int) -> dict:
    worst = -np.inf
    for _ in range(trials):
        lam = float(rng.choice([0.0, 1.0]))
        total = float(np.round(rng.uniform(0.5, 2.0), 2))
        X = gen.random_space_total(rng, total, max_points=3)
        Y = gen.random_space_total(rng, total, max_points=3)
        alpha = float(np.round(rng.uniform(0.05, 1.0), 3))
        b = box_distance(X, Y, lam).value
        ba = box_distance(scale_measure(X, alpha), scale_measure(Y, alpha), lam).value
        worst = max(worst, alpha * b - ba, ba - b)
    return _result(worst <= TOL, worst_excess=worst)


def prop_box_coupling_upper(rng: np.random.Generator, seed: int, trials: int) -> dict:
    worst = -np.inf
    for _ in range(trials):
        lam = float(rng.choice([0.0, 0.5, 1.0]))
        total = float(np.round(rng.uniform(0.5, 2.0), 2))
        X = gen.random_space_total(rng, total, max_points=3)
        Y = gen.random_space_total(rng, total, max_points=3)
        exact = box_distance(X, Y, lam).value
        pi = random_coupling(X, Y, rng)
        upper = box_pair(pullback_pair(X, Y, pi), lam).value
        worst = max(worst, exact - upper)
    return _result(worst <= TOL, worst_excess=worst)


def prop_box_heuristic_upper(rng: np.random.Generator, seed: int, trials: int) -> dict:
    worst = -np.inf
    for k in range(trials):
        lam = float(rng.choice([0.0, 1.0]))
        X = gen.random_space(rng, max_points=4)
        Y = gen.random_space(rng, max_points=4)
        exact = box_distance(X, Y, lam).value
        heur = box_distance(X, Y, lam, "heuristic", seed=seed + k).value
        worst = max(worst, exact - heur)
    return _result(worst <= TOL, worst_excess=worst)


def prop_box_zero_iff_isomorphic(rng: np.random.Generator, seed: int, trials: int) -> dict:
    ok = True
    for k in range(trials):
        X = gen.random_space(rng, max_points=5)
        if k % 2 == 0:
            Y, _ = gen.shuffled_copy(rng, X)
        else:
            Y = gen.random_space(rng, max_points=5)
        value = box_distance(X, Y, 1.0).value
        bijection = isomorphism_search(X, Y)
        ok = ok and ((value <= TOL) == (bijection is not None))
    return _result(ok)


# ---------------------------------------------------------------------------
# me and Lipschitz sets


def prop_me_metric(rng: np.random.Generator, seed: int, trials: int) -> dict:
    ok = True
    worst_tri = -np.inf
    for _ in range(trials):
        n = int(rng.integers(1, 6))
        w = rng.integers(1, 11, size=n).astype(float) * 0.1
        lam = float(rng.choice([0.0, 0.5, 1.0, 2.0]))
        f, g, h = (gen.random_function(rng, n) for _ in range(3))
        ok = ok and me_lambda(f, g, w, lam) == me_lambda(g, f, w, lam)
        ok = ok and me_lambda(f, f, w, lam) == 0.0
        d_fg = me_lambda(f, g, w, lam)
        if d_fg == 0.0:
            ok = ok and bool(np.all(np.abs(f - g)[w > 0] == 0.0))
        worst_tri = max(
            worst_tri,
            me_lambda(f, h, w, lam) - d_fg - me_lambda(g, h, w, lam),
        )
    return _result(ok and worst_tri <= TOL, worst_triangle_excess=worst_tri)


def prop_me_lambda_monotone(rng: np.random.Generator, seed: int, trials: int) -> dict:
    worst = -np.inf
    for _ in range(trials):
        n = int(rng.integers(1, 6))
        w = rng.integers(1, 11, size=n).astype(float) * 0.1
        f, g = gen.random_function(rng, n), gen.random_function(rng, n)
        lams = np.sort(rng.uniform(0.0, 3.0, size=2))
        worst = max(
            worst,
            me_lambda(f, g, w, float(lams[1])) - me_lambda(f, g, w, float(lams[0])),
        )
    return _result(worst <= TOL, worst_excess=worst)


def prop_mcshane_projection(rng: np.random.Generator, seed: int, trials: int) -> dict:
    ok = True
    for _ in range(trials):
        X = gen.random_space(rng, min_points=2, max_points=5)
        lset = Lip1Set(X.dist, X.weights)
        f = gen.random_function(rng, X.n, scale=4.0)
        proj = project_to_lip1(f, X.dist, np.arange(X.n))
        ok = ok and lset.contains(proj)
        member = lset.sample(rng)
        again = project_to_lip1(member, X.dist, np.arange(X.n))
        ok = ok and float(np.max(np.abs(again - member))) <= 1e-9
    return _result(ok)


def prop_hausdorff_pair_bounded_by_box(rng: np.random.Generator, seed: int, trials: int) -> dict:
    worst = -np.inf
    for k in range(trials):
        pair = gen.random_semidist_pair(rng)
        h0 = hli_lambda(pair, 0.0, "exact0").value
        b0 = box_pair(pair, 0.0).value
        worst = max(worst, h0 - b0)
        lam = float(rng.uniform(0.25, 2.0))
        hs = hli_lambda(pair, lam, "sampled", samples=12, seed=seed + k).value
        worst = max(worst, hs - box_pair(pair, lam).value)
    return _result(worst <= TOL, worst_excess=worst)


def prop_pullback_lip_factorization(rng: np.random.Generator, seed: int, trials: int) -> dict:
    """1-Lipschitz functions on the pulled-back cells descend to the first space.

    Over the Lipschitz set of ``pair.d1``, with support closure ``C``, the
    largest ``|f_c - f_c'|`` is ``C[c, c']``, attained by the distance cone
    ``f = C[c, .]``.  So every such ``f`` is constant on the cells over one
    point of ``X`` and 1-Lipschitz for the closure ``C_X`` of ``X.dist`` on
    the cells' first points exactly when ``C[c, c'] <= C_X[i(c), i(c')]``
    for every pair of cells; ``C_X`` is 0 between cells over one point.
    """
    ok = True
    for _ in range(trials):
        total = float(np.round(rng.uniform(0.5, 2.0), 2))
        X = gen.random_space_total(rng, total, min_points=2, max_points=3)
        Y = gen.random_space_total(rng, total, min_points=2, max_points=3)
        pair = pullback_pair(X, Y, random_coupling(X, Y, rng))
        lset = Lip1Set(pair.d1, pair.weights)
        first = [pair.cells[c][0] for c in lset.support]
        ok = ok and bool(np.all(lset.closure <= metric_closure(X.dist[np.ix_(first, first)]) + 1e-9))
    return _result(ok)


def prop_observable_sandwich(rng: np.random.Generator, seed: int, trials: int) -> dict:
    worst = -np.inf
    for _ in range(trials):
        X = gen.random_space(rng, max_points=3)
        Y = gen.random_space(rng, max_points=3)
        h0 = observable_distance(X, Y, 0.0, "exact0").value
        b0 = box_distance(X, Y, 0.0).value
        worst = max(worst, h0 - b0, b0 - 2.0 * h0)
    return _result(worst <= TOL, worst_excess=worst)


# ---------------------------------------------------------------------------
# matrix distributions


def prop_mu_mass_total(rng: np.random.Generator, seed: int, trials: int) -> dict:
    worst = 0.0
    for _ in range(trials):
        X = gen.random_space(rng, max_points=4)
        r = int(rng.integers(1, 4))
        mu = exact_mu_r(X, r)
        worst = max(worst, abs(mu.total_mass - X.total_mass**r))
    return _result(worst <= TOL, worst=worst)


def prop_mu_invariance_splitting(rng: np.random.Generator, seed: int, trials: int) -> dict:
    ok = True
    for _ in range(trials):
        X = gen.random_space(rng, min_points=2, max_points=4)
        cell_points: list[int] = []
        cell_masses: list[float] = []
        for i in range(X.n):
            if rng.random() < 0.5 and X.weights[i] > 0.0:
                frac = float(np.round(rng.uniform(0.1, 0.9), 2))
                cell_points += [i, i]
                cell_masses += [frac * X.weights[i], (1 - frac) * X.weights[i]]
            else:
                cell_points.append(i)
                cell_masses.append(float(X.weights[i]))
        ok = ok and parameter_invariance_check(X, cell_points, cell_masses)
    return _result(ok)


def prop_reconstruction_agreement(rng: np.random.Generator, seed: int, trials: int) -> dict:
    ok = True
    disagreements = 0
    for k in range(trials):
        X = gen.random_space(rng, max_points=4)
        if k % 2 == 0:
            Y, _ = gen.shuffled_copy(rng, X)
        else:
            Y = gen.random_space(rng, max_points=4)
        rep = reconstruction_check(X, Y, 4)
        if not rep.agreement:
            disagreements += 1
            ok = False
    return _result(ok, disagreements=disagreements)


def prop_sampling_convergence(rng: np.random.Generator, seed: int, trials: int) -> dict:
    count = 10**5
    worst = 0.0
    for _ in range(max(1, trials // 10)):
        X = gen.random_space(rng, min_points=2, max_points=3)
        Xn = normalized(X)
        exact = exact_mu_r(Xn, 2)
        tv = float(
            np.mean(
                [
                    total_variation(exact, sample_mu_r(Xn, 2, count, seed=seed + s))
                    for s in range(5)
                ]
            )
        )
        worst = max(worst, tv)
    return _result(worst < 0.02, worst_tv=worst, count=count)


# ---------------------------------------------------------------------------
# limits


def prop_prokhorov_metric(rng: np.random.Generator, seed: int, trials: int) -> dict:
    ok = True
    worst_tri = -np.inf
    for _ in range(trials):
        X = gen.random_space(rng, min_points=2, max_points=4)

        def weighting():
            w = rng.integers(1, 11, size=X.n).astype(float)
            return w / w.sum()

        a, b, c = weighting(), weighting(), weighting()
        dab, dba = prokhorov(X, a, b), prokhorov(X, b, a)
        ok = ok and abs(dab - dba) <= TOL
        ok = ok and prokhorov(X, a, a) == 0.0
        worst_tri = max(worst_tri, prokhorov(X, a, c) - dab - prokhorov(X, b, c))
    return _result(ok and worst_tri <= TOL, worst_triangle_excess=worst_tri)


def prop_witness_bound_direction(rng: np.random.Generator, seed: int, trials: int) -> dict:
    worst = -np.inf
    for _ in range(trials):
        X = normalized(gen.random_space(rng, max_points=3))
        Y = normalized(gen.random_space(rng, max_points=3))
        w = witness_search(Y, X)
        bound = box_upper_from_witness(Y, X, w)
        exact = box_distance(Y, X, 1.0).value
        worst = max(worst, exact - bound)
    return _result(worst <= TOL, worst_excess=worst)


def prop_domination_transitivity(rng: np.random.Generator, seed: int, trials: int) -> dict:
    ok = True
    for _ in range(trials):
        X = gen.random_space(rng, min_points=2, max_points=4)
        beta1, beta2 = rng.uniform(0.3, 1.0, size=2)
        c1 = float(rng.choice([1.0, 1.25, 2.0]))
        c2 = float(rng.choice([1.0, 1.5]))
        Y = mm_space(X.weights / c1, X.dist * float(beta1), labels=X.labels)
        Z = mm_space(Y.weights / c2, Y.dist * float(beta2), labels=X.labels)
        cxy = domination_search(X, Y)
        cyz = domination_search(Y, Z)
        if cxy is None or cyz is None:
            ok = False
            continue
        cxz = compose_domination(cxy, cyz)
        ok = ok and not cxz.violations(X, Z)
    return _result(ok)


def prop_domination_stability(rng: np.random.Generator, seed: int, trials: int) -> dict:
    """Perturbation families with certified domination along the sequence
    end in domination of the limits."""
    ok = True
    for _ in range(max(1, trials // 10)):
        X = gen.random_space(rng, min_points=2, max_points=3)
        beta = float(rng.uniform(0.3, 0.9))
        Y = mm_space(X.weights, X.dist * beta, labels=X.labels)
        diam = float(X.dist.max())
        for n in range(1, 17):
            factor = 1.0 + 1.0 / (2.0 * n * diam)
            Xn = mm_space(X.weights, X.dist * factor, labels=X.labels)
            Yn = mm_space(Y.weights, Y.dist * factor, labels=Y.labels)
            ok = ok and box_distance(Xn, X, 1.0).value <= 1.0 / n + TOL
            ok = ok and box_distance(Yn, Y, 1.0).value <= 1.0 / n + TOL
            ok = ok and domination_search(Xn, Yn) is not None
        ok = ok and domination_search(X, Y) is not None
    return _result(ok)


def prop_homogeneity_stability(rng: np.random.Generator, seed: int, trials: int) -> dict:
    ok = True
    for _ in range(trials):
        kind = int(rng.integers(0, 3))
        if kind == 0:  # all pairwise distances equal
            k = int(rng.integers(2, 5))
            d = np.full((k, k), float(np.round(rng.uniform(1.0, 2.0), 2)))
            np.fill_diagonal(d, 0.0)
            w = np.full(k, 1.0 / k)
        elif kind == 1:  # four-cycle with two distance levels
            a = float(np.round(rng.uniform(1.0, 1.5), 2))
            d = np.array(
                [
                    [0, a, 2 * a, a],
                    [a, 0, a, 2 * a],
                    [2 * a, a, 0, a],
                    [a, 2 * a, a, 0],
                ],
                dtype=float,
            )
            w = np.full(4, 0.25)
        else:  # one point
            d = np.zeros((1, 1))
            w = np.ones(1)
        X = mm_space(w, d)
        ok = ok and is_homogeneous(X)
        diam = max(float(X.dist.max()), 1.0)
        for n in range(1, 9):
            Xn = mm_space(w, d * (1.0 + 1.0 / (2.0 * n * diam)))
            ok = ok and is_homogeneous(Xn)
            ok = ok and box_distance(Xn, X, 1.0).value <= 1.0 / n + TOL
    return _result(ok)


# ---------------------------------------------------------------------------
# registry


PROPERTIES = {
    "pullback-diagonal-identity": (prop_pullback_diagonal_identity, 20),
    "coupling-marginals": (prop_coupling_marginals, 20),
    "scale-roundtrip": (prop_scale_roundtrip, 20),
    "validation-detects-asymmetry": (prop_validation_detects_asymmetry, 5),
    "box-symmetry": (prop_box_symmetry, 15),
    "box-triangle": (prop_box_triangle, 20),
    "box-identity-on-isomorphic": (prop_box_identity_on_isomorphic, 10),
    "box-lambda-monotone": (prop_box_lambda_monotone, 15),
    "box-scaling-sandwich": (prop_box_scaling_sandwich, 15),
    "box-coupling-upper": (prop_box_coupling_upper, 15),
    "box-heuristic-upper": (prop_box_heuristic_upper, 6),
    "box-zero-iff-isomorphic": (prop_box_zero_iff_isomorphic, 12),
    "me-metric": (prop_me_metric, 40),
    "me-lambda-monotone": (prop_me_lambda_monotone, 40),
    "mcshane-projection": (prop_mcshane_projection, 20),
    "hausdorff-pair-bounded-by-box": (prop_hausdorff_pair_bounded_by_box, 10),
    "pullback-lip-factorization": (prop_pullback_lip_factorization, 5),
    "observable-sandwich": (prop_observable_sandwich, 10),
    "mu-mass-total": (prop_mu_mass_total, 15),
    "mu-invariance-splitting": (prop_mu_invariance_splitting, 10),
    "reconstruction-agreement": (prop_reconstruction_agreement, 20),
    "sampling-convergence": (prop_sampling_convergence, 10),
    "prokhorov-metric": (prop_prokhorov_metric, 15),
    "witness-bound-direction": (prop_witness_bound_direction, 10),
    "domination-transitivity": (prop_domination_transitivity, 15),
    "domination-stability": (prop_domination_stability, 10),
    "homogeneity-stability": (prop_homogeneity_stability, 6),
}


def run_suite(seed: int = 0, samples: float = 1.0, names=None) -> dict:
    """Run the property battery; returns a deterministic JSON-ready report.

    ``samples`` scales every property's trial count and must be finite and
    nonnegative; each property runs at least one trial.  ``names`` selects
    the properties (all by default) and must name at least one.
    """
    seed = whole_number(seed, "seed", 0)
    names = list(PROPERTIES if names is None else names)  # a one-pass iterable is read once
    if not names:
        raise ValueError("the property selection names no property")
    unknown = [n for n in names if n not in PROPERTIES]
    if unknown:
        raise ValueError(f"unknown properties: {unknown}")
    nonnegative(samples, "samples scale")
    results = []
    for name in sorted(names):
        fn, base_trials = PROPERTIES[name]
        trials = max(1, int(round(base_trials * samples)))
        out = fn(_rng(seed, name), seed, trials)
        results.append({"name": name, "trials": trials, **out})
    return {
        "seed": seed,
        "samples": samples,
        "passed": all(r["passed"] for r in results),
        "properties": results,
    }
