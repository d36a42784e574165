import json

import numpy as np
import pytest

from mmdist import (
    SizeLimitError,
    distributions_equal,
    exact_mu_r,
    isomorphism_search,
    mm_space,
    normalized,
    parameter_invariance_check,
    reconstruction_check,
    sample_mu_r,
    scale_measure,
    total_variation,
)
from mmdist import matrixdist
from mmdist.instances import random_space, shuffled_copy

from oracles import brute_mu_r


def two_point(w=(0.5, 0.5), d=1.0):
    return mm_space(list(w), [[0.0, d], [d, 0.0]])


class TestExactMuR:
    def test_single_point(self):
        mu = exact_mu_r(mm_space([1.0], [[0.0]]), 3)
        assert len(mu.entries) == 1
        assert mu.total_mass == pytest.approx(1.0)

    def test_two_point_uniform_order_two(self):
        mu = exact_mu_r(two_point(), 2)
        entries = dict(mu.entries)
        zero = (0.0, 0.0, 0.0, 0.0)
        cross = (0.0, 1.0, 1.0, 0.0)
        assert entries == {zero: pytest.approx(0.5), cross: pytest.approx(0.5)}

    def test_order_one_is_total_mass_at_zero(self):
        X = two_point((0.6, 0.9))
        mu = exact_mu_r(X, 1)
        assert dict(mu.entries) == {(0.0,): pytest.approx(1.5)}

    def test_total_mass_power(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            X = random_space(rng, max_points=4)
            r = int(rng.integers(1, 4))
            assert exact_mu_r(X, r).total_mass == pytest.approx(
                X.total_mass**r, abs=1e-9
            )

    @staticmethod
    def assert_matches_oracle(X, r):
        mu = exact_mu_r(X, r)
        oracle = brute_mu_r(X.weights, X.dist, r)
        assert [key for key, _ in mu.entries] == [key for key, _ in oracle]
        tol = 1e-15 * X.total_mass**r
        for (_, mass), (_, expected) in zip(mu.entries, oracle):
            assert abs(mass - expected) <= tol

    @staticmethod
    def tied_spaces(seed):
        """Spaces of 1-5 points, zero weights included, distances on {1, 2}."""
        rng = np.random.default_rng(seed)
        for n in range(1, 6):
            for _ in range(4):
                w = rng.choice([0.0, 0.25, 0.5, 1.0], size=n)
                w[rng.integers(n)] = 0.5
                d = np.triu(rng.choice([1.0, 2.0], size=(n, n)), k=1)
                yield mm_space(w, d + d.T)

    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    def test_matches_tuple_oracle(self, r):
        for X in self.tied_spaces(r):
            self.assert_matches_oracle(X, r)

    @pytest.mark.parametrize("r", [2, 3, 4])
    def test_matches_tuple_oracle_across_chunks(self, monkeypatch, r):
        monkeypatch.setattr(matrixdist, "_CHUNK", 7)
        for X in self.tied_spaces(10 + r):
            self.assert_matches_oracle(X, r)

    @pytest.mark.parametrize("n", [17, 24])
    def test_many_distinct_distances_keep_order(self, n):
        # more than 128 (17 points) and more than 256 (24 points) distinct
        # distances: multi-byte and high-bit codes must still sort as values
        rng = np.random.default_rng(n)
        d = np.triu(1.0 + rng.random((n, n)), k=1)
        X = mm_space(rng.integers(1, 5, size=n) * 0.25, d + d.T)
        self.assert_matches_oracle(X, 2)

    def test_size_limit(self):
        # 4 ** 12 tuples exceed the fixed limit of 10 ** 7
        X = random_space(np.random.default_rng(0), min_points=4, max_points=4)
        with pytest.raises(SizeLimitError):
            exact_mu_r(X, 12)

    @pytest.mark.parametrize("r", [15, 10_000, 3 * 10**7])
    def test_large_order_refused_at_once(self, r):
        # 3 ** r was computed in full and then formatted into the message,
        # which raised ValueError past 4300 digits (and took 28 s at 3e7)
        X = random_space(np.random.default_rng(0), min_points=3, max_points=3)
        with pytest.raises(SizeLimitError, match=rf"order r = {r} on 3 support points: over 10000000 tuples"):
            exact_mu_r(X, r)

    def test_one_point_order_past_the_limit_bit_length(self):
        # one support point has one tuple at any order, 30 among them
        mu = exact_mu_r(mm_space([1.0], [[0.0]]), 30)
        assert mu.entries == (((0.0,) * 900, 1.0),)


class TestSampleMuR:
    def test_zero_count_is_empty(self):
        assert sample_mu_r(two_point(), 2, 0).entries == ()

    @pytest.mark.parametrize("r", [0, -1])
    def test_r_below_one_rejected(self, r):
        with pytest.raises(ValueError, match="r must be at least 1"):
            sample_mu_r(two_point(), r, 5)

    def test_single_point_all_zero_matrices(self):
        mu = sample_mu_r(mm_space([1.0], [[0.0]]), 2, 50, seed=1)
        assert len(mu.entries) == 1
        assert mu.total_mass == pytest.approx(1.0)

    def test_masses_sum_to_one(self):
        mu = sample_mu_r(two_point((0.2, 0.8)), 2, 1000, seed=3)
        assert mu.total_mass == pytest.approx(1.0, abs=1e-12)

    def test_keys_read_as_exact_keys_at_tiny_negative_distance(self):
        # the matrix rule accepts -1e-13, which rounding turned into -0.0
        # in the sampled keys but not in the exact ones
        X = mm_space([0.5, 0.5], [[0.0, -1e-13], [-1e-13, 0.0]])
        sampled = sample_mu_r(X, 2, 10)
        assert "-0.0" not in json.dumps(sampled.to_jsonable())
        assert np.array_equal(sampled.keys, exact_mu_r(X, 2).keys)

    def test_converges_to_exact_split(self):
        X = two_point()
        exact = exact_mu_r(X, 2)
        emp = sample_mu_r(X, 2, 10**5, seed=5)
        assert total_variation(exact, emp) < 0.01


class TestIsomorphismSearch:
    def test_relabeled_copy_found(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            X = random_space(rng, max_points=5)
            Y, perm = shuffled_copy(rng, X)
            p = isomorphism_search(X, Y)
            assert p is not None
            s = X.support
            assert np.max(np.abs(X.weights[s] - Y.weights[p[s]])) <= 1e-9
            assert np.max(np.abs(X.dist[np.ix_(s, s)] - Y.dist[np.ix_(p[s], p[s])])) <= 1e-9

    def test_different_cross_distance_has_none(self):
        assert isomorphism_search(two_point(), two_point(d=2.0)) is None

    def test_swapped_weights_need_the_swap(self):
        X = two_point((0.3, 0.7))
        Y = two_point((0.7, 0.3))
        p = isomorphism_search(X, Y)
        assert p is not None and p[0] == 1 and p[1] == 0

    def test_zero_weight_points_ignored(self):
        X = mm_space([0.5, 0.5, 0.0], [[0, 1, 3], [1, 0, 3], [3, 3, 0]])
        assert isomorphism_search(X, two_point()) is not None


class TestReconstruction:
    def test_isomorphic_pair_indistinguishable(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            X = random_space(rng, max_points=4)
            Y, _ = shuffled_copy(rng, X)
            rep = reconstruction_check(X, Y)
            assert rep.verdict == "indistinguishable-up-to-R"
            assert rep.agreement

    def test_cross_distance_distinguished_at_two(self):
        rep = reconstruction_check(two_point(), two_point(d=2.0))
        assert rep.verdict == "distinguished"
        assert rep.distinguishing_r == 2
        assert rep.agreement

    def test_same_metric_different_weights_distinguished(self):
        X = two_point((0.3, 0.7))
        Y = two_point((0.5, 0.5))
        rep = reconstruction_check(X, Y)
        assert rep.verdict == "distinguished"
        assert rep.distinguishing_r is not None and rep.distinguishing_r <= 2
        assert rep.agreement

    @pytest.mark.parametrize("R", [0, -2])
    def test_nonpositive_order_rejected(self, R):
        # no order is compared, so no verdict can be given
        with pytest.raises(ValueError):
            reconstruction_check(two_point(), two_point(d=2.0), R)

    def test_measure_scale_is_shape_blind(self):
        # comparisons run after normalization, so a pure mass rescaling is
        # indistinguishable and the search on normalized spaces agrees
        X = two_point()
        rep = reconstruction_check(X, scale_measure(X, 3.0))
        assert rep.verdict == "indistinguishable-up-to-R"
        assert rep.agreement


class TestParameterInvariance:
    def test_trivial_partition(self):
        X = two_point((0.3, 0.7))
        assert parameter_invariance_check(X, [0, 1], [0.3, 0.7])

    def test_atom_split_is_invisible(self):
        X = two_point((0.3, 0.7))
        assert parameter_invariance_check(X, [0, 0, 1], [0.1, 0.2, 0.7])

    def test_random_splits(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
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

    def test_merging_distinct_points_detected(self):
        X = mm_space([0.5, 0.5], [[0, 1], [1, 0]])
        # all mass lands on point 0: order two sees the missing cross pair
        assert not parameter_invariance_check(X, [0, 0], [0.5, 0.5])

    @pytest.mark.parametrize(
        "points, masses", [([0, 1, 1], [0.5, 0.5]), ([0, 1], [0.3, 0.3, 0.4])]
    )
    def test_length_mismatch_rejected(self, points, masses):
        # the first returned True, the second raised IndexError
        X = mm_space([0.5, 0.5], [[0, 1], [1, 0]])
        with pytest.raises(ValueError, match=r"cell weights has shape \(\d,\), expected"):
            parameter_invariance_check(X, points, masses)

    def test_massless_cells_detected(self):
        # the cell space has no support, so its distributions are empty
        X = mm_space([0.5, 0.5], [[0, 1], [1, 0]])
        assert not parameter_invariance_check(X, [0, 1], [0.0, 0.0])


class TestDistributionHelpers:
    def test_equality_is_key_exact(self):
        a = exact_mu_r(two_point(), 2)
        b = exact_mu_r(two_point(d=1.0 + 2e-12), 2)
        # beyond the rounding grid the matrices differ and so do the keys
        assert not distributions_equal(a, b)

    def test_normalization(self):
        mu = exact_mu_r(scale_measure(two_point(), 2.0), 2)
        assert mu.normalized().total_mass == pytest.approx(1.0)

    def test_tv_of_disjoint_supports_is_one(self):
        a = exact_mu_r(two_point(), 2).normalized()
        b = exact_mu_r(mm_space([1.0], [[0.0]]), 2)
        assert 0.0 < total_variation(a, b) <= 1.0

    def test_tv_of_unnormalized_distributions_rejected(self):
        # returned 49.5 for the scaled space and 0.5 for the empty sample
        X = mm_space([0.25, 0.25, 0.25, 0.25], np.ones((4, 4)) - np.eye(4))
        exact = exact_mu_r(X, 2)
        with pytest.raises(ValueError, match="needs normalized distributions, a has mass 100$"):
            total_variation(exact_mu_r(scale_measure(X, 10.0), 2), exact)
        with pytest.raises(ValueError, match="needs normalized distributions, a has mass 0$"):
            total_variation(sample_mu_r(X, 2, 0), exact)
        with pytest.raises(ValueError, match="b has mass 0.81$"):
            total_variation(exact, exact_mu_r(scale_measure(X, 0.9), 2))

    def test_tv_of_different_orders_rejected(self):
        # returned 1.0: no matrix of order 2 is a matrix of order 3
        X = two_point()
        with pytest.raises(ValueError, match="r = 2 and r = 3"):
            total_variation(exact_mu_r(X, 2), exact_mu_r(X, 3))
