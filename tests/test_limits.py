import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmdist import (
    DominationCertificate,
    FiniteMMSpace,
    InvalidSpaceError,
    SizeLimitError,
    Witness,
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
    scale_measure,
    witness_search,
)
from mmdist import limits, lipschitz, matrixdist
from mmdist.box import _max_weight_clique
from mmdist.instances import random_space, shuffled_copy
from mmdist.matrixdist import _isomorphisms
from mmdist.matrixdist import _point_maps as point_maps
from mmdist.transport import max_flow_value

from oracles import (
    brute_domination,
    brute_isomorphisms,
    brute_witness,
    prokhorov_subsets,
    reference_domination_search,
    reference_isomorphisms,
    reference_me1_chains,
)


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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("first", [True, False])
    def test_non_finite_weightings_rejected(self, bad, first):
        # NaN reached the threshold search; inf was reported as unequal totals
        X = mm_space([1.0, 1.0, 1.0], [[0, 1, 2], [1, 0, 1], [2, 1, 0]])
        mu, nu = [0.5, bad, 0.5], [0.25, 0.5, 0.25]
        if not first:
            mu, nu = nu, mu
        with pytest.raises(ValueError, match="finite"):
            prokhorov(X, mu, nu)

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

    @pytest.mark.parametrize("lam", [-1.0, np.nan, np.inf])
    def test_bad_lambda_rejected(self, lam):
        # lam = -1 returned None as if the map failed the check
        X = two_point()
        with pytest.raises(ValueError, match="lambda"):
            lipschitz_up_to_check(X, X, [0, 1], lam, 0.0)

    @pytest.mark.parametrize("eps", [-0.1, np.nan, np.inf])
    def test_bad_eps_rejected(self, eps):
        # eps = nan kept every point as if a certificate held
        X = two_point()
        with pytest.raises(ValueError, match="eps"):
            lipschitz_up_to_check(X, X, [0, 1], 1.0, eps)

    def test_short_map_rejected(self):
        # raised IndexError
        X = two_point()
        with pytest.raises(ValueError, match=r"map has shape \(1,\), expected \(2,\)"):
            lipschitz_up_to_check(X, X, [0], 1.0, 0.0)

    def test_heaviest_subset_above_twenty_points(self):
        # past 20 support points a greedy peel ran in place of the clique search
        X = normalized(random_space(np.random.default_rng(0), min_points=21, max_points=21))
        assert len(X.support) > 20
        fmap = np.arange(21)
        fmap[[3, 11]] = 7  # two points land on a third
        lam, eps = 1.0, 0.2
        kept = lipschitz_up_to_check(X, X, fmap, lam, eps)
        assert kept is not None
        dY = X.dist[np.ix_(fmap[kept], fmap[kept])]
        assert np.all(dY <= lam * X.dist[np.ix_(kept, kept)] + eps + 1e-12)
        assert X.total_mass - float(X.weights[kept].sum()) <= eps + 1e-9
        assert lipschitz_up_to_check(X, X, fmap, lam, 0.1) is None
        ok = X.dist[np.ix_(fmap, fmap)] <= lam * X.dist + eps + 1e-12
        assert kept.tolist() == list(_max_weight_clique(ok, X.weights)[1])

    def test_light_exceptional_set_found_above_twenty_points(self):
        # the greedy peel dropped the heavy point 0, which breaks three
        # pairs, and answered None; dropping points 1-3 (mass 0.03) passes
        n = 21
        dX = np.ones((n, n))
        np.fill_diagonal(dX, 0.0)
        dY = dX.copy()
        dY[0, 1:4] = dY[1:4, 0] = 2.0
        w = np.full(n, 0.47 / 17)
        w[0], w[1:4] = 0.5, 0.01
        kept = lipschitz_up_to_check(mm_space(w, dX), mm_space(w, dY), np.arange(n), 1.0, 0.1)
        assert kept is not None and kept.tolist() == [0, *range(4, n)]


class TestCertificateViolations:
    """A valid certificate, corrupted one way at a time, reports exactly that way."""

    @pytest.mark.parametrize(
        "subset, eps, want",
        [
            ([0, 1], 0.25, []),
            ([0], 0.25, ["dropped mass 0.5 exceeds eps 0.25"]),
            ([0, 1], 0.125, ["distortion 0.25 exceeds eps 0.125"]),
        ],
    )
    def test_witness(self, subset, eps, want):
        assert Witness([0, 1], subset, eps).violations(two_point(d=1.25), two_point()) == want

    @pytest.mark.parametrize(
        "p, c, scale, want",
        [
            ([0, 1, 2], 1.0, 1.0, []),
            ([0, 1, 2], 0.5, 2.0, ["mass ratio c = 0.5 is below 1"]),  # onto twice the weights
            ([0, 2, 1], 1.0, 1.0, ["map expands some distance by 1"]),
            ([0, 0, 2], 1.0, 1.0, ["pushforward misses c * weights by 1"]),
        ],
    )
    def test_domination(self, p, c, scale, want):
        # the identity with c = 1 certifies this space onto itself
        X = mm_space([1.0, 1.0, 1.0], [[0, 1, 2], [1, 0, 2], [2, 2, 0]])
        assert DominationCertificate(p, c).violations(X, scale_measure(X, scale)) == want


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

    def test_zero_mass_rejected(self):
        # witness_search raised IndexError from the empty support of the
        # target; such a space is now refused when it is built
        with pytest.raises(InvalidSpaceError, match="total mass must be positive"):
            FiniteMMSpace(("a", "b"), [0.0, 0.0], [[0.0, 1.0], [1.0, 0.0]])

    @staticmethod
    def assert_matches_oracle(Xn, X):
        w = witness_search(Xn, X)
        assert (w.p.tolist(), w.subset.tolist(), w.eps) == brute_witness(Xn, X)

    @staticmethod
    def space(rng, n):
        """A normalized ``n``-point space, sometimes with a zero-weight point."""
        X = random_space(rng, min_points=n, max_points=n)
        w = X.weights.copy()
        if n > 1 and rng.random() < 0.3:
            w[rng.integers(n)] = 0.0
        return normalized(mm_space(w, X.dist))

    def test_enumeration_matches_unpruned_oracle(self):
        rng = np.random.default_rng(41)
        sizes = [tuple(rng.integers(1, 5, size=2)) for _ in range(38)] + [(4, 5), (5, 3)]
        for a, b in sizes:
            self.assert_matches_oracle(self.space(rng, a), self.space(rng, b))

    def test_hill_climb_matches_unpruned_oracle(self, monkeypatch):
        # a short schedule: the prune acts per map, not per schedule length
        monkeypatch.setattr(limits, "ANNEAL_RESTARTS", 2)
        monkeypatch.setattr(limits, "ANNEAL_STEPS", 40)
        rng = np.random.default_rng(43)
        for a, b in [(7, 7), (8, 7), (7, 8)]:
            self.assert_matches_oracle(self.space(rng, a), self.space(rng, b))

    def test_hill_climb_builds_one_gate_per_incumbent(self, monkeypatch):
        # a trial's pushforward is bounded through the cells within the best
        # objective, which changes only when a map is accepted: each value of
        # the objective builds one admissible matrix, and the witness is the
        # unpruned oracle's
        monkeypatch.setattr(limits, "ANNEAL_RESTARTS", 2)
        monkeypatch.setattr(limits, "ANNEAL_STEPS", 40)
        rng = np.random.default_rng(47)
        Xn, X = self.space(rng, 7), self.space(rng, 7)
        assert len(Xn.support) > limits.WITNESS_ENUM_SUPPORT  # the hill-climb
        bounds, solve = limits._flow_bounds, limits._clique_solve
        events = []  # the matrix of every bound, held so ids stay apart, and the cap of every clique solve

        def traced_bounds(nus, admissible, *args):
            events.append(admissible)
            return bounds(nus, admissible, *args)

        def traced_solve(d, w, m, lam, cap):
            events.append(cap)
            return solve(d, w, m, lam, cap)

        monkeypatch.setattr(limits, "_flow_bounds", traced_bounds)
        monkeypatch.setattr(limits, "_clique_solve", traced_solve)
        self.assert_matches_oracle(Xn, X)
        # a map is accepted only after its clique solve, so the bounds before
        # a solve read the gate of its cap, the best objective then
        runs, caps, pending = [], [], []
        for event in events:
            if isinstance(event, float):
                if caps and caps[-1] == event:
                    runs[-1] += pending
                else:
                    runs.append(pending)
                    caps.append(event)
                pending = []
            else:
                pending.append(event)
        runs = [run for run in runs if run]
        assert len(runs) > 2 and sum(map(len, runs)) > 4 * len(runs)
        assert all(matrix is run[0] for run in runs for matrix in run)
        assert all(a[0] is not b[0] for a, b in zip(runs, runs[1:]))

    def test_flow_gate_corpus_matches_unpruned_oracle(self, monkeypatch):
        # the cases where the flow bound on pushforwards decides at an edge:
        # many tied maps, an incumbent of 0 (a relabelled copy), distinct
        # points at distance 0, zero weights on both sides, one-point and
        # unequal supports; the last two pairs take the hill-climb
        monkeypatch.setattr(limits, "ANNEAL_RESTARTS", 2)
        monkeypatch.setattr(limits, "ANNEAL_STEPS", 30)
        rng = np.random.default_rng(53)

        def full(n):
            return normalized(random_space(rng, min_points=n, max_points=n))

        def uniform(n):
            return mm_space(np.full(n, 1.0 / n), random_space(rng, min_points=n, max_points=n).dist)

        def zero_weights(n, zeros):
            w = random_space(rng, min_points=n, max_points=n)
            weights = w.weights.copy()
            weights[list(zeros)] = 0.0
            return normalized(mm_space(weights, w.dist))

        Z = mm_space([0.25, 0.25, 0.5], [[0, 0, 1], [0, 0, 1], [1, 1, 0]])  # two points at distance 0
        X4 = full(4)
        X7 = full(7)
        cases = [
            (uniform(3), uniform(4)),
            (uniform(4), uniform(3)),
            (X4, shuffled_copy(rng, X4)[0]),
            (Z, two_point()),
            (two_point(), Z),
            (Z, shuffled_copy(rng, Z)[0]),
            (zero_weights(4, [1]), zero_weights(4, [0, 3])),
            (zero_weights(5, [4]), zero_weights(3, [2])),
            (mm_space([1.0], [[0.0]]), self.space(rng, 4)),
            (self.space(rng, 4), mm_space([1.0], [[0.0]])),
            (mm_space([1.0], [[0.0]]), mm_space([1.0], [[0.0]])),
            (full(2), self.space(rng, 6)),
            (full(5), full(2)),
            (X7, shuffled_copy(rng, X7)[0]),
            (zero_weights(9, [2, 5]), zero_weights(7, [0])),
        ]
        for Xn, X in cases:
            self.assert_matches_oracle(Xn, X)

    def test_most_maps_skip_the_prokhorov_search(self, monkeypatch):
        # a seeded 6 -> 5 enumeration of 5**6 maps: the flow bound at the
        # incumbent turns most of them away before any Prokhorov search, and
        # the witness is the one scoring every map gave
        rng = np.random.default_rng(17)
        Xn = normalized(random_space(rng, min_points=6, max_points=6))
        X = normalized(random_space(rng, min_points=5, max_points=5))
        searched = []
        search = limits.prokhorov_distance
        monkeypatch.setattr(limits, "prokhorov_distance", lambda *a: searched.append(1) or search(*a))
        w = witness_search(Xn, X)
        assert (w.p.tolist(), w.subset.tolist(), w.eps) == ([0, 0, 4, 2, 2, 1], [0, 2, 4, 5], 0.1499999999999999)
        assert len(searched) < 0.2 * 5**6

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_flow_bound_is_above_the_max_flow_hypothesis(self, data):
        # every row's bound is at least the max flow through the same cells,
        # and the same whether the row is bounded alone or in a batch; the
        # rows are pushforwards, summed as np.add.at sums a single one
        n = data.draw(st.integers(1, 10))  # 8 and more: numpy sums long rows pairwise
        mass = st.one_of(st.just(0.0), st.sampled_from([0.1, 0.25, 1 / 3]), st.floats(1e-3, 1.0))
        w = np.array(data.draw(st.lists(mass, min_size=n, max_size=n)))
        source = np.array(data.draw(st.lists(mass, min_size=1, max_size=7)))
        k = data.draw(st.integers(1, 6))
        maps = np.array(data.draw(st.lists(
            st.lists(st.integers(0, n - 1), min_size=len(source), max_size=len(source)), min_size=k, max_size=k)))
        admissible = np.array(data.draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n))).reshape(n, n)
        nus = limits._pushforwards(maps, source, n)
        bounds = limits._flow_bounds(nus, admissible, w, admissible @ w)
        for row in range(k):
            alone = np.zeros(n)
            np.add.at(alone, maps[row], source)
            assert np.array_equal(nus[row], alone)
            assert bounds[row] >= max_flow_value(alone, w, np.nonzero(admissible)) - 1e-12
            assert bounds[row] == limits._flow_bounds(nus[row : row + 1], admissible, w, admissible @ w)[0]

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

    def test_max_cells_below_one_rejected(self):
        # the witness bound silently replaced every exact solve
        with pytest.raises(ValueError, match="max_cells"):
            empirical_convergence_experiment(two_point(), [10], max_cells=0)

    def test_exact_resample_is_distance_zero(self):
        # empirical multiplicities that reproduce the weights exactly give
        # an identical space, so the distance vanishes
        X = two_point()
        from mmdist.limits import empirical_space

        emp = empirical_space(X, np.array([5, 5]))
        assert box_distance(emp, X, 1.0).value == 0.0

    @pytest.mark.parametrize(
        "counts",
        [
            [0, 0],  # NaN weights and a RuntimeWarning
            [0.5, 0.4],  # inf weights: the total truncated to zero
            [3, -1],  # a negative weight
            [1, 2, 3],  # a weight vector of the wrong length
            [4],
            [1, np.nan],
        ],
    )
    def test_bad_counts_rejected(self, counts):
        from mmdist.limits import empirical_space

        with pytest.raises(ValueError, match="counts"):
            empirical_space(two_point(), np.array(counts, dtype=float))

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

    def test_witness_bound_above_cell_limit(self):
        # each sample size seeds its own draw, so both runs see the same
        # empirical space; the exact run solves box_distance(emp, X, 1.0)
        X = normalized(random_space(np.random.default_rng(9), min_points=3, max_points=3))
        exact = empirical_convergence_experiment(X, [7, 40], seed=4).rows
        bound = empirical_convergence_experiment(X, [7, 40], seed=4, max_cells=2).rows
        for (n, v_exact, m_exact), (n2, v_bound, m_bound) in zip(exact, bound):
            assert n == n2
            assert (m_exact, m_bound) == ("exact", "witness-upper-bound")
            assert v_bound >= v_exact - 1e-12


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

    @pytest.mark.parametrize("p", [[0], [0, 1, 2, 0]])
    def test_map_length_is_a_violation(self, p):
        # a map shorter or longer than the first space is reported, as
        # Witness.violations does, not an IndexError or a pass
        X = mm_space([1.0, 1.0, 1.0], np.ones((3, 3)) - np.eye(3))
        assert DominationCertificate(p, 1.0).violations(X, X) == [
            f"domination map has shape ({len(p)},), expected (3,)"
        ]

    def test_maps_that_do_not_compose_are_rejected(self):
        # the first map sends a point to index 3 of a 2-point middle space
        first = DominationCertificate([0, 3], 1.0)
        second = DominationCertificate([0, 1], 1.0)
        with pytest.raises(ValueError, match=r"first domination map has indices outside 0\.\.1"):
            compose_domination(first, second)


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


def derived_space(rng, X):
    """A space built from ``X``: relabelled, with permuted weights, or with
    weights divided by ``c`` and distances scaled down, so that ``X``
    dominates it."""
    kind = int(rng.integers(3))
    if kind == 0:
        return shuffled_copy(rng, X)[0]
    if kind == 1:
        return FiniteMMSpace(X.labels, rng.permutation(X.weights), X.dist)
    c, scale = rng.choice([1.0, 1.25, 2.0]), rng.choice([0.5, 0.8, 1.0])
    Y = FiniteMMSpace(X.labels, X.weights / c, X.dist * scale)
    return shuffled_copy(rng, Y)[0] if rng.random() < 0.5 else Y


def identity_corpus(rng, count, max_points=6):
    """``count`` seeded pairs of 1 to ``max_points`` points: coarse spaces
    (half-grid weights with zeros) and ``random_space`` draws, each paired
    with an independent draw or with a space derived from it."""

    def draw(coarse):
        n = int(rng.integers(1, max_points + 1))
        return coarse_space(rng, n) if coarse else random_space(rng, min_points=n, max_points=n)

    pairs = []
    for _ in range(count):
        coarse = rng.random() < 0.5
        X = draw(coarse)
        pairs.append((X, draw(coarse) if rng.random() < 0.25 else derived_space(rng, X)))
    return pairs


def as_lists(maps):
    return [g.tolist() for g in maps]


class TestPointMapSearch:
    def test_same_maps_as_the_reference_loops(self):
        rng = np.random.default_rng(47)
        isomorphic = dominated = symmetric = 0
        for X, Y in identity_corpus(rng, 1000):
            maps = as_lists(_isomorphisms(X, Y))
            assert maps == as_lists(reference_isomorphisms(X, Y))
            group = as_lists(reference_isomorphisms(X, X))
            assert as_lists(_isomorphisms(X, X)) == group
            assert as_lists(isometry_group(X)) == sorted(group)
            cert, ref = domination_search(X, Y), reference_domination_search(X, Y)
            assert (cert is None) == (ref is None)
            if cert is not None:
                assert (cert.p.tolist(), cert.c) == (ref.p.tolist(), ref.c)
            isomorphic += bool(maps)
            dominated += cert is not None
            symmetric += len(group) > 1
        # every search both succeeds and fails on the corpus
        assert 100 <= isomorphic <= 900 and 100 <= dominated <= 900 and symmetric >= 100

    def test_domination_matches_brute_force(self):
        rng = np.random.default_rng(53)
        found = heavier = 0
        for X, Y in identity_corpus(rng, 150, max_points=5):
            maps, c = brute_domination(X, Y)
            cert = domination_search(X, Y)
            assert (cert is None) == (not maps)
            if cert is not None:
                # the search meets the lexicographically first map
                assert cert.p.tolist() == maps[0] and cert.c == c
                assert not cert.violations(X, Y)
                found += 1
                heavier += c > 1.0
        assert 20 <= found <= 130 and heavier >= 5


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

    def test_matches_the_group_orbit(self):
        # coarse spaces (zero weights, distances in {1, 2}) and relabelled
        # cycles, with one weight zeroed or doubled in half of those
        rng = np.random.default_rng(59)
        verdicts = []
        for _ in range(200):
            n = int(rng.integers(1, 7))
            if rng.random() < 0.5:
                X = coarse_space(rng, n)
            else:
                k = np.arange(n)
                gap = np.abs(k[:, None] - k[None, :])
                d = np.minimum(gap, n - gap).astype(float)
                w = np.full(n, 0.5)
                if n > 2 and rng.random() < 0.5:
                    w[int(rng.integers(n))] = 0.0 if rng.random() < 0.5 else 1.0
                X = shuffled_copy(rng, mm_space(w, d))[0]
            want = limits._is_transitive(X, isometry_group(X))
            assert is_homogeneous(X) == want
            verdicts.append(want)
        assert 40 <= sum(verdicts) <= 160  # both outcomes occur

    def test_equilateral_space_stops_at_one_map_per_point(self, monkeypatch):
        # the group has 8! = 40,320 maps; one search per target of the first
        # point, each stopping at its first map, yields 8
        yielded = []

        def counted(*args):
            for p in point_maps(*args):
                yielded.append(p)
                yield p

        monkeypatch.setattr(matrixdist, "_point_maps", counted)
        n = limits.ISOMETRY_MAX_SUPPORT
        assert is_homogeneous(mm_space(np.ones(n) / n, np.ones((n, n)) - np.eye(n)))
        assert len(yielded) == n

    def test_size_limit_refusal(self):
        n = limits.ISOMETRY_MAX_SUPPORT + 1
        with pytest.raises(SizeLimitError, match="is_homogeneous refuses support size 9"):
            is_homogeneous(mm_space(np.ones(n) / n, np.ones((n, n)) - np.eye(n)))


class TestMe1Diagnostic:
    def test_empty_sequence(self):
        rep = me1_subsequence_diagnostic([], [0.5, 0.5], np.zeros((2, 2)))
        assert rep.empty
        assert rep.chains == ()

    def test_one_map_is_checked_against_the_weights(self):
        # a map over three points with no weights gave a 1x1 zero matrix:
        # with fewer than two maps nothing was checked
        d = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]])
        with pytest.raises(ValueError, match=r"maps\[0\] has shape \(3,\), expected \(0,\)"):
            me1_subsequence_diagnostic([[0, 1, 2]], [], d)
        with pytest.raises(ValueError, match="negative weight at index 1"):
            me1_subsequence_diagnostic([[0, 1, 2]], [0.5, -0.5, 1.0], d)

    def test_target_matrix_is_checked_once(self, monkeypatch):
        # every pair of maps re-checked dY through me_lambda_maps
        calls = []
        for module in (limits, lipschitz):
            def counted(*args, rule=module._semimetric_violations):
                calls.append(args[-1])
                return rule(*args)

            monkeypatch.setattr(module, "_semimetric_violations", counted)
        d = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]])
        me1_subsequence_diagnostic([[0, 1], [1, 2], [2, 0], [0, 0]], [0.5, 0.5], d)
        assert calls == ["dY"]

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
        rep = me1_subsequence_diagnostic(maps, [0.5, 0.5], d)
        assert rep.chains == ((0.0, (0, 2)), (0.4, (0, 1, 2, 3)))

    def test_longest_chain_beats_the_greedy_ones(self):
        # pairs 0-1, 0-2, 0-3 and 2-3 are within 0.25, 1-2 and 1-3 are not;
        # the greedy forward passes returned (0, 1)
        d = np.array([[0.0, 1.0, 0.25], [1.0, 0.0, 1.0], [0.25, 1.0, 0.0]])
        maps = [[0, 2, 0], [2, 1, 2], [0, 2, 1], [2, 2, 1]]
        rep = me1_subsequence_diagnostic(maps, [1.0, 0.25, 0.25], d)
        assert rep.chains == ((0.25, (0, 2, 3)), (0.5, (0, 1, 2, 3)))

    def test_chains_are_the_longest(self):
        # every chain is the lexicographically first among the longest
        # subsequences that stay pairwise within its tolerance
        def longest(M, eps):
            for size in range(len(M), 0, -1):
                for c in itertools.combinations(range(len(M)), size):
                    if all(M[a, b] <= eps + 1e-12 for a, b in itertools.combinations(c, 2)):
                        return c

        rng = np.random.default_rng(31)
        for _ in range(60):
            d = np.triu(rng.integers(1, 5, size=(3, 3)), 1) * 0.25
            maps = rng.integers(0, 3, size=(int(rng.integers(4, 8)), 3))
            rep = me1_subsequence_diagnostic(maps, rng.integers(1, 5, size=3) / 4.0, d + d.T)
            for eps, chain in rep.chains:
                assert chain == longest(rep.matrix, eps)

    def test_chains_match_one_search_per_value(self):
        # each chain is one clique search with no lower bound at its value,
        # on up to 15 maps; the chains, ties between equally long ones
        # included, are those of the matrix read on its own
        rng = np.random.default_rng(47)
        for _ in range(12):
            d = np.triu(rng.integers(1, 4, size=(4, 4)), 1) * 0.5
            maps = rng.integers(0, 4, size=(int(rng.integers(2, 16)), 5))
            rep = me1_subsequence_diagnostic(maps, rng.integers(1, 3, size=5) / 4.0, d + d.T)
            assert rep.chains == reference_me1_chains(rep.matrix)
