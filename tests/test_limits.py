import numpy as np
import pytest

from mmdist import (
    SizeLimitError,
    box_distance,
    box_upper_from_witness,
    compose_domination,
    domination_search,
    empirical_convergence_experiment,
    is_homogeneous,
    isometry_group,
    isomorphism_search,
    lipschitz_up_to_check,
    me1_subsequence_diagnostic,
    mm_space,
    normalized,
    prokhorov,
    witness_search,
)
from mmdist.instances import random_space
from mmdist.limits import EXACT_CLIQUE_SUPPORT

from oracles import brute_isomorphisms, prokhorov_subsets


def two_point(w=(0.5, 0.5), d=1.0):
    return mm_space(list(w), [[0.0, d], [d, 0.0]])


class TestProkhorov:
    def test_equal_weightings(self):
        X = two_point()
        assert prokhorov(X, [0.5, 0.5], [0.5, 0.5]) == 0.0

    def test_mass_shift(self):
        X = two_point((0.7, 0.3))
        assert prokhorov(X, [0.7, 0.3], [0.5, 0.5]) == pytest.approx(0.2, abs=1e-12)

    def test_full_swap(self):
        X = two_point()
        assert prokhorov(X, [1.0, 0.0], [0.0, 1.0]) == pytest.approx(1.0)

    def test_unequal_totals_rejected(self):
        with pytest.raises(ValueError):
            prokhorov(two_point(), [1.0, 0.0], [1.0, 1.0])

    def test_metric_axioms_against_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(40):
            X = random_space(rng, min_points=2, max_points=4)
            a = rng.integers(1, 9, size=X.n).astype(float)
            b = rng.integers(1, 9, size=X.n).astype(float)
            a, b = a / a.sum(), b / b.sum()
            d = prokhorov(X, a, b)
            assert d == pytest.approx(prokhorov(X, b, a), abs=1e-9)
            assert d == pytest.approx(prokhorov_subsets(X.dist, a, b), abs=1e-9)


class TestLipschitzUpTo:
    def test_isometry_keeps_everything(self):
        X = two_point()
        kept = lipschitz_up_to_check(X, X, [0, 1], 1.0, 0.0)
        assert kept is not None and list(kept) == [0, 1]

    def test_distance_doubling_fails_tight_budget(self):
        X = two_point()
        Y = two_point(d=2.0)
        assert lipschitz_up_to_check(X, Y, [0, 1], 1.0, 0.2) is None

    def test_constant_map_is_zero_lipschitz(self):
        X = two_point()
        kept = lipschitz_up_to_check(X, X, [0, 0], 0.0, 0.0)
        assert kept is not None and list(kept) == [0, 1]

    def test_dropping_light_point_suffices(self):
        X = mm_space([0.45, 0.45, 0.1], [[0, 1, 1], [1, 0, 1], [1, 1, 0]])
        Y = mm_space([1.0, 1.0], [[0, 3], [3, 0]])
        fmap = [0, 0, 1]  # third point is stretched away
        kept = lipschitz_up_to_check(X, Y, fmap, 1.0, 0.1)
        assert kept is not None and list(kept) == [0, 1]

    def test_greedy_peel_above_exact_support(self):
        # 21 support points is past EXACT_CLIQUE_SUPPORT, so the greedy peel runs
        X = normalized(random_space(np.random.default_rng(0), min_points=21, max_points=21))
        assert len(X.support) > EXACT_CLIQUE_SUPPORT
        fmap = np.arange(21)
        fmap[[3, 11]] = 7  # two points land on a third
        lam, eps = 1.0, 0.2
        kept = lipschitz_up_to_check(X, X, fmap, lam, eps)
        assert kept is not None
        dY = X.dist[np.ix_(fmap[kept], fmap[kept])]
        assert np.all(dY <= lam * X.dist[np.ix_(kept, kept)] + eps + 1e-12)
        assert X.total_mass - float(X.weights[kept].sum()) <= eps + 1e-9
        assert lipschitz_up_to_check(X, X, fmap, lam, 0.1) is None


class TestWitnessSearch:
    def test_identity_witness_on_equal_spaces(self):
        X = two_point()
        w = witness_search(X, X)
        assert w.eps == 0.0
        assert list(w.subset) == [0, 1]
        assert not w.violations(X, X)

    def test_metric_perturbation_costs_its_size(self):
        X = two_point()
        Xn = two_point(d=1.1)
        w = witness_search(Xn, X)
        assert w.eps == pytest.approx(0.1, abs=1e-12)
        assert list(w.p) == [0, 1] and list(w.subset) == [0, 1]

    def test_duplicate_atom_maps_home(self):
        X = mm_space([0.5, 0.5], [[0, 1], [1, 0]])
        Xn = mm_space([0.49, 0.5, 0.01], [[0, 1, 0], [1, 0, 1], [0, 1, 0]])
        w = witness_search(Xn, X)
        assert w.p[2] == 0  # the duplicate of the first point goes home
        assert w.eps <= 0.011
        assert not w.violations(Xn, X)

    def test_unequal_masses_rejected(self):
        with pytest.raises(ValueError):
            witness_search(two_point(), two_point((1.0, 1.0)))

    def test_returned_eps_feeds_valid_upper_bound(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            X = normalized(random_space(rng, max_points=3))
            Y = normalized(random_space(rng, max_points=3))
            w = witness_search(Y, X)
            assert not w.violations(Y, X)
            bound = box_upper_from_witness(Y, X, w)
            assert bound >= box_distance(Y, X, 1.0).value - 1e-9


class TestEmpiricalConvergence:
    def test_empty_sizes(self):
        X = two_point()
        rep = empirical_convergence_experiment(X, [])
        assert rep.rows == ()
        assert not rep.decreased

    def test_requires_normalized_space(self):
        with pytest.raises(ValueError):
            empirical_convergence_experiment(two_point((1.0, 1.0)), [10])

    def test_exact_resample_is_distance_zero(self):
        # empirical multiplicities that reproduce the weights exactly give
        # an identical space, so the distance vanishes
        X = two_point()
        from mmdist.limits import empirical_space

        emp = empirical_space(X, np.array([5, 5]))
        assert box_distance(emp, X, 1.0).value == 0.0

    def test_two_point_trend(self):
        # seed chosen so the first draw is imperfect; a perfect small draw
        # (distance zero) makes a strict decrease impossible by definition
        X = two_point()
        rep = empirical_convergence_experiment(X, [10, 100, 1000], seed=2)
        assert rep.spans_two_decades
        assert rep.decreased
        assert rep.rows[-1][1] < 0.1

    def test_modes_are_exact_at_desk_scale(self):
        X = two_point()
        rep = empirical_convergence_experiment(X, [10, 100], seed=1)
        assert all(mode == "exact" for _, _, mode in rep.rows)


class TestDomination:
    def test_self_domination_identity(self):
        X = two_point((0.3, 0.7))
        cert = domination_search(X, X)
        assert cert is not None and cert.c == 1.0
        assert not cert.violations(X, X)

    def test_wider_space_dominates_narrower(self):
        X = two_point(d=2.0)
        Y = two_point(d=1.0)
        cert = domination_search(X, Y)
        assert cert is not None
        assert not cert.violations(X, Y)

    def test_narrower_space_cannot_dominate(self):
        assert domination_search(two_point(d=1.0), two_point(d=2.0)) is None

    def test_lighter_space_cannot_dominate(self):
        assert domination_search(two_point(), two_point((1.0, 1.0))) is None

    def test_mass_scaling_dominates_with_c(self):
        X = two_point((1.0, 1.0))
        Y = two_point()
        cert = domination_search(X, Y)
        assert cert is not None and cert.c == pytest.approx(2.0)
        assert not cert.violations(X, Y)

    def test_composition(self):
        X = two_point(d=2.0, w=(1.0, 1.0))
        Y = two_point(d=1.0, w=(0.5, 0.5))
        Z = mm_space([0.5, 0.5], [[0, 0.5], [0.5, 0]])
        cxy = domination_search(X, Y)
        cyz = domination_search(Y, Z)
        cxz = compose_domination(cxy, cyz)
        assert not cxz.violations(X, Z)

    def test_size_limit(self):
        n = 8
        X = mm_space(np.ones(n), np.ones((n, n)) - np.eye(n))
        with pytest.raises(SizeLimitError):
            domination_search(X, X)


class TestIsometryGroup:
    def test_single_point(self):
        g = isometry_group(mm_space([1.0], [[0.0]]))
        assert len(g) == 1

    def test_uniform_pair_has_swap(self):
        g = isometry_group(two_point())
        assert len(g) == 2

    def test_weighted_pair_is_rigid(self):
        g = isometry_group(two_point((0.3, 0.7)))
        assert len(g) == 1

    def test_equilateral_triangle_full_symmetric_group(self):
        X = mm_space(np.ones(3) / 3, np.ones((3, 3)) - np.eye(3))
        assert len(isometry_group(X)) == 6

    def test_size_limit_refusal(self):
        n = 9
        X = mm_space(np.ones(n) / n, np.ones((n, n)) - np.eye(n))
        with pytest.raises(SizeLimitError):
            isometry_group(X)


def coarse_space(rng, n):
    """Distances in {1, 2} and weights in {0, 0.5, 1}: symmetries are common."""
    d = np.triu(rng.integers(1, 3, size=(n, n)).astype(float), k=1)
    w = rng.integers(0, 3, size=n) * 0.5
    w[int(rng.integers(n))] = 1.0  # keep the total mass positive
    return mm_space(w, d + d.T)


class TestIsometrySearchOracle:
    def test_group_matches_permutation_oracle(self):
        rng = np.random.default_rng(41)
        orders = set()
        for _ in range(150):
            X = coarse_space(rng, int(rng.integers(1, 6)))
            group = [g.tolist() for g in isometry_group(X)]
            # the same maps in the same (lexicographic) order
            assert group == brute_isomorphisms(X.weights, X.dist, X.weights, X.dist)
            identity = np.full(X.n, -1)
            identity[X.support] = X.support
            assert group[0] == identity.tolist()
            orders.add(len(group))
        assert len(orders) >= 4  # the instances exercise nontrivial groups

    def test_isomorphism_search_matches_permutation_oracle(self):
        rng = np.random.default_rng(43)
        found = 0
        for _ in range(150):
            X = coarse_space(rng, int(rng.integers(1, 6)))
            Y = coarse_space(rng, X.n) if rng.random() < 0.5 else mm_space(
                rng.permutation(X.weights), X.dist
            )
            maps = brute_isomorphisms(X.weights, X.dist, Y.weights, Y.dist)
            p = isomorphism_search(X, Y)
            assert (p is not None) == bool(maps)
            if p is not None:
                assert p.tolist() in maps
                found += 1
        assert 20 <= found <= 130  # both outcomes occur


class TestHomogeneity:
    def test_single_point(self):
        assert is_homogeneous(mm_space([1.0], [[0.0]]))

    def test_uniform_pair(self):
        assert is_homogeneous(two_point())

    def test_path_metric_middle_point_is_fixed(self):
        X = mm_space([1, 1, 1], [[0, 1, 2], [1, 0, 1], [2, 1, 0]])
        assert not is_homogeneous(X)

    def test_weighted_pair_not_homogeneous(self):
        assert not is_homogeneous(two_point((0.3, 0.7)))


class TestMe1Diagnostic:
    def test_empty_sequence(self):
        rep = me1_subsequence_diagnostic([], [0.5, 0.5], np.zeros((2, 2)))
        assert rep.empty
        assert rep.chains == ()

    def test_constant_sequence_is_one_cluster(self):
        d = np.array([[0.0, 1.0], [1.0, 0.0]])
        maps = [[0, 1]] * 4
        rep = me1_subsequence_diagnostic(maps, [0.5, 0.5], d)
        assert np.all(rep.matrix == 0.0)
        for _, chain in rep.chains:
            assert chain == (0, 1, 2, 3)

    def test_alternating_pair_extracts_one_parity(self):
        d = np.array([[0.0, 0.4], [0.4, 0.0]])
        maps = [[0, 0], [1, 1], [0, 0], [1, 1]]
        rep = me1_subsequence_diagnostic(
            maps, [0.5, 0.5], d, eps_grid=[0.0, 0.2]
        )
        for _, chain in rep.chains:
            assert chain == (0, 2)
