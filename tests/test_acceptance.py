"""Acceptance criteria, one test per criterion at its stated tolerance.

Each test prints a single pass/fail line; run with ``pytest -v -s`` to see
them inline.  Expected values marked as derived in the module tests were
computed by the independent oracles in ``oracles.py`` first.
"""

import functools
import json
import time

import numpy as np
import pytest

from mmdist import (
    box_distance,
    box_pair,
    box_upper_from_witness,
    compose_domination,
    domination_search,
    hli_lambda,
    is_homogeneous,
    mm_space,
    normalized,
    observable_distance,
    parameter_invariance_check,
    reconstruction_check,
    scale_measure,
    witness_search,
)
from mmdist.instances import (
    random_semidist_pair,
    random_space,
    random_space_total,
    shuffled_copy,
)
from mmdist.limits import empirical_convergence_experiment
from mmdist.properties import run_suite

from oracles import brute_box_two_point_uniform

TOL = 1e-9


def criterion(label):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[acceptance] {label}: FAIL", flush=True)
                raise
            print(f"[acceptance] {label}: PASS", flush=True)

        return wrapper

    return deco


def golden_pair():
    X = mm_space([0.5, 0.5], [[0, 1], [1, 0]])
    Y = mm_space([0.5, 0.5], [[0, 2], [2, 0]])
    return X, Y


@criterion("criterion 1: box metric axioms on 200 random triples")
def test_box_metric_axioms():
    rng = np.random.default_rng(1001)
    patterns = ["equal", "xy", "xz", "yz", "distinct"]
    t0 = time.perf_counter()
    for k in range(200):
        lam = float(rng.choice([0.0, 0.5, 1.0]))
        totals = np.round(rng.uniform(0.5, 2.0, size=3), 2)
        pattern = patterns[k % len(patterns)]
        if pattern == "equal":
            totals[1] = totals[2] = totals[0]
        elif pattern == "xy":
            totals[1] = totals[0]
        elif pattern == "xz":
            totals[2] = totals[0]
        elif pattern == "yz":
            totals[2] = totals[1]
        X = random_space_total(rng, float(totals[0]), max_points=3)
        Y = random_space_total(rng, float(totals[1]), max_points=3)
        Z = random_space_total(rng, float(totals[2]), max_points=3)
        xy = box_distance(X, Y, lam).value
        yz = box_distance(Y, Z, lam).value
        xz = box_distance(X, Z, lam).value
        # symmetry
        assert abs(xy - box_distance(Y, X, lam).value) <= TOL
        # identity on isomorphic relabelings
        Xs, _ = shuffled_copy(rng, X)
        assert box_distance(X, Xs, lam).value <= TOL
        # triangle inequality
        assert xz <= xy + yz + TOL
    assert time.perf_counter() - t0 < 60.0


@criterion("criterion 2: two-point golden values (oracle then solver)")
def test_two_point_golden_values():
    # oracle first: couplings form a one-parameter family, each scored by
    # subset enumeration straight from the definition
    assert brute_box_two_point_uniform(1.0, 2.0, 1.0, 0.0) == 1.0
    assert brute_box_two_point_uniform(1.0, 2.0, 1.0, 1.0) == 0.5
    X, Y = golden_pair()
    assert box_distance(X, Y, 0.0).value == 1.0
    assert box_distance(X, Y, 1.0).value == 0.5


@criterion("criterion 3: scaling sandwich and lambda monotonicity, 200 instances")
def test_scaling_sandwich_and_monotonicity():
    rng = np.random.default_rng(1003)
    for _ in range(200):
        total = float(np.round(rng.uniform(0.5, 2.0), 2))
        X = random_space_total(rng, total, max_points=3)
        Y = random_space_total(rng, total, max_points=3)
        lam = float(rng.choice([0.0, 0.5, 1.0]))
        alpha = float(np.round(rng.uniform(0.05, 1.0), 3))
        b = box_distance(X, Y, lam).value
        ba = box_distance(scale_measure(X, alpha), scale_measure(Y, alpha), lam).value
        assert alpha * b <= ba + TOL
        assert ba <= b + TOL
        lam2 = lam + float(rng.uniform(0.1, 2.0))
        assert box_distance(X, Y, lam2).value <= b + TOL


@criterion("criterion 4: Hausdorff below box, and the factor-two sandwich")
def test_hausdorff_box_sandwich():
    rng = np.random.default_rng(1004)
    # pair level at lambda = 0, up to 4 cells
    for _ in range(100):
        pair = random_semidist_pair(rng)
        assert hli_lambda(pair, 0.0).value <= box_pair(pair, 0.0).value + TOL
    # space level sandwich on up to 3 support points
    for _ in range(100):
        X = random_space(rng, max_points=3)
        Y = random_space(rng, max_points=3)
        h0 = observable_distance(X, Y, 0.0).value
        b0 = box_distance(X, Y, 0.0).value
        assert h0 <= b0 + TOL
        assert b0 <= 2.0 * h0 + TOL
    # the tight pair: H0 = 0.5 and box0 = 1 = 2 * H0
    X, Y = golden_pair()
    h0 = observable_distance(X, Y, 0.0).value
    b0 = box_distance(X, Y, 0.0).value
    assert h0 == pytest.approx(0.5, abs=1e-12)
    assert b0 == pytest.approx(1.0, abs=1e-12)
    assert b0 == pytest.approx(2.0 * h0, abs=1e-12)


@criterion("criterion 5: cell-splitting invariance and reconstruction agreement")
def test_invariance_and_reconstruction():
    rng = np.random.default_rng(1005)
    for _ in range(100):
        X = random_space(rng, min_points=2, max_points=4)
        points, masses = [], []
        for i in range(X.n):
            if rng.random() < 0.5:
                frac = float(rng.uniform(0.2, 0.8))
                points += [i, i]
                masses += [frac * X.weights[i], (1 - frac) * X.weights[i]]
            else:
                points.append(i)
                masses.append(float(X.weights[i]))
        assert parameter_invariance_check(X, points, masses)
    anomalies = 0
    for k in range(200):
        X = random_space(rng, max_points=4)
        Y, _ = shuffled_copy(rng, X) if k % 2 == 0 else (random_space(rng, max_points=4), None)
        rep = reconstruction_check(X, Y, 4)
        if not rep.agreement:
            anomalies += 1
    assert anomalies == 0


@criterion("criterion 6: empirical-measure box trend over two decades")
def test_empirical_trend():
    spaces = [
        mm_space([0.5, 0.5], [[0, 1], [1, 0]]),
        mm_space(
            np.ones(3) / 3, [[0, 1.0, 1.2], [1.0, 0, 1.8], [1.2, 1.8, 0]]
        ),
        mm_space(
            np.ones(4) / 4,
            [
                [0, 1.0, 1.5, 1.3],
                [1.0, 0, 1.1, 1.9],
                [1.5, 1.1, 0, 1.4],
                [1.3, 1.9, 1.4, 0],
            ],
        ),
    ]
    for idx, X in enumerate(spaces):
        first, last = [], []
        for seed in range(5):
            rep = empirical_convergence_experiment(X, [10, 100, 1000], seed=seed)
            values = {n: v for n, v, _ in rep.rows}
            first.append(values[10])
            last.append(values[1000])
        assert np.mean(last) < np.mean(first)
        if idx == 0:
            assert np.mean(last) < 0.1


@criterion("criterion 7: witness-based bound never undercuts the exact value")
def test_witness_bound_direction():
    rng = np.random.default_rng(1007)
    for _ in range(100):
        X = normalized(random_space(rng, max_points=3))
        Y = normalized(random_space(rng, max_points=3))
        w = witness_search(Y, X)
        bound = box_upper_from_witness(Y, X, w)
        assert bound >= box_distance(Y, X, 1.0).value - TOL


@criterion("criterion 8: domination transitivity, stability and homogeneity probes")
def test_stability_probes():
    rng = np.random.default_rng(1008)
    # fifty certified chains compose
    for _ in range(50):
        X = random_space(rng, min_points=2, max_points=4)
        beta1, beta2 = rng.uniform(0.3, 1.0, size=2)
        c1 = float(rng.choice([1.0, 1.5, 2.0]))
        c2 = float(rng.choice([1.0, 1.25]))
        Y = mm_space(X.weights / c1, X.dist * float(beta1), labels=X.labels)
        Z = mm_space(Y.weights / c2, Y.dist * float(beta2), labels=X.labels)
        cxy = domination_search(X, Y)
        cyz = domination_search(Y, Z)
        assert cxy is not None and cyz is not None
        assert not compose_domination(cxy, cyz).violations(X, Z)
    # perturbation families: certified domination along the sequence plus
    # exact box convergence at rate 1/n force domination of the limits
    for _ in range(5):
        X = random_space(rng, min_points=2, max_points=3)
        beta = float(rng.uniform(0.3, 0.9))
        Y = mm_space(X.weights, X.dist * beta, labels=X.labels)
        diam = float(X.dist.max())
        for n in range(1, 17):
            factor = 1.0 + 1.0 / (2.0 * n * diam)
            Xn = mm_space(X.weights, X.dist * factor, labels=X.labels)
            Yn = mm_space(Y.weights, Y.dist * factor, labels=Y.labels)
            assert box_distance(Xn, X, 1.0).value <= 1.0 / n + TOL
            assert box_distance(Yn, Y, 1.0).value <= 1.0 / n + TOL
            assert domination_search(Xn, Yn) is not None
        assert domination_search(X, Y) is not None
    # twenty homogeneous perturbation families stay homogeneous in the limit
    families = 0
    while families < 20:
        kind = families % 3
        if kind == 0:
            k = 2 + families % 3
            d = np.full((k, k), 1.0 + 0.1 * (families % 5))
            np.fill_diagonal(d, 0.0)
            w = np.full(k, 1.0 / k)
        elif kind == 1:
            a = 1.0 + 0.05 * families
            d = np.array(
                [[0, a, 2 * a, a], [a, 0, a, 2 * a], [2 * a, a, 0, a], [a, 2 * a, a, 0]],
                dtype=float,
            )
            w = np.full(4, 0.25)
        else:
            d = np.zeros((1, 1))
            w = np.ones(1)
        X = mm_space(w, d)
        assert is_homogeneous(X)
        diam = max(float(X.dist.max()), 1.0)
        for n in range(1, 9):
            Xn = mm_space(w, d * (1.0 + 1.0 / (2.0 * n * diam)))
            assert is_homogeneous(Xn)
            assert box_distance(Xn, X, 1.0).value <= 1.0 / n + TOL
        families += 1


@criterion("criterion 9: identical seeds reproduce identical suite reports")
def test_suite_determinism():
    a = run_suite(seed=7, samples=0.3)
    b = run_suite(seed=7, samples=0.3)
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
