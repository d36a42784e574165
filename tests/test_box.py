import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmdist import (
    SemiDistancePair,
    SizeLimitError,
    Witness,
    box_distance,
    box_pair,
    box_upper_from_witness,
    mm_space,
    pullback_pair,
    random_coupling,
    scale_measure,
    semidist_pair,
)
from mmdist import box as box_module
from mmdist.box import (
    _TIE_TOL,
    EDGE_TOL,
    _best_flow_at,
    _certificate_violations,
    _clique_cells,
    _clique_solve,
    _line_parts,
    _max_weight_clique,
    _maximal_cliques,
    _next_pivot,
    _reach_bound,
)
from mmdist.core import coupling_from_matrix, lighter_first
from mmdist.instances import random_space, random_space_total, shuffled_copy
from mmdist.transport import _threshold_solve

from oracles import (
    brute_best_flow,
    brute_box_pair,
    brute_box_two_point_uniform,
    brute_max_weight_clique,
    min_cut_value,
    reference_best_flow_at,
    reference_box_exact,
    reference_box_heuristic,
    reference_first_witness,
    reference_flow_bound,
)


def test_clique_searches_ignore_the_diagonal():
    # a probe's mask has a true diagonal (each cell's zero self-defect) and a
    # test graph a false one; both searches read the same graph from either
    rng = np.random.default_rng(4)
    for n in range(1, 9):
        for _ in range(4):
            mask = rng.random((n, n)) < 0.5
            mask = mask | mask.T
            on, off = mask.copy(), mask.copy()
            np.fill_diagonal(on, True)
            np.fill_diagonal(off, False)
            w = rng.integers(0, 17, size=n) / 16.0
            assert _max_weight_clique(on, w) == _max_weight_clique(off, w)
            twin = rng.permutation(n).tolist()
            sweeps = [list(_maximal_cliques(a, lambda r, p, rt, pt: True, twin)) for a in (on, off)]
            assert sweeps[0] == sweeps[1] and sweeps[0]


def cross_pair(w, a, b):
    """Two-cell pair with cross distances a and b."""
    return semidist_pair(w, [[0.0, a], [a, 0.0]], [[0.0, b], [b, 0.0]])


class TestBoxPair:
    def test_equal_metrics_certify_zero(self):
        pair = cross_pair([0.5, 0.5], 1.2, 1.2)
        res = box_pair(pair, 1.0)
        assert res.value == 0.0
        assert res.cells == (0, 1)
        assert res.retained_mass == 1.0

    def test_no_positive_weight_gives_zero(self):
        pair = semidist_pair([0.0, 0.0], [[0, 1], [1, 0]], [[0, 2], [2, 0]])
        assert box_pair(pair, 1.0).value == 0.0

    def test_cross_defect_lambda_zero(self):
        # frozen from the subset-enumeration oracle
        pair = cross_pair([0.5, 0.5], 1.0, 2.0)
        assert brute_box_pair(pair.weights, pair.d1, pair.d2, 0.0) == 1.0
        assert box_pair(pair, 0.0).value == 1.0

    def test_cross_defect_lambda_one(self):
        # keep one cell of mass 0.5 and trade the rest against eps
        pair = cross_pair([0.5, 0.5], 1.0, 2.0)
        assert brute_box_pair(pair.weights, pair.d1, pair.d2, 1.0) == 0.5
        res = box_pair(pair, 1.0)
        assert res.value == 0.5
        assert res.cells == (0,)

    def test_matches_subset_enumeration(self):
        rng = np.random.default_rng(21)
        for _ in range(120):
            n = int(rng.integers(1, 5))
            w = rng.integers(0, 9, size=n).astype(float) * 0.1
            if not w.any():
                w[0] = 0.3
            steps = rng.integers(0, 200, size=(n, n)).astype(float) / 100.0
            d1 = np.triu(steps, 1)
            d1 = d1 + d1.T
            steps = rng.integers(0, 200, size=(n, n)).astype(float) / 100.0
            d2 = np.triu(steps, 1)
            d2 = d2 + d2.T
            lam = float(rng.choice([0.0, 0.5, 1.0, 2.0]))
            pair = SemiDistancePair(w, d1, d2)
            got = box_pair(pair, lam)
            want = brute_box_pair(w, d1, d2, lam)
            assert got.value == pytest.approx(want, abs=1e-12)
            # certificate invariants at the certified tolerance
            kept = list(got.cells)
            assert float(w[kept].sum()) >= w.sum() - lam * got.value - 1e-9
            if len(kept) > 1:
                sub = np.abs(d1 - d2)[np.ix_(kept, kept)]
                assert float(sub.max()) <= got.value + 1e-9

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_exact_matches_brute_force_hypothesis(self, data):
        # zero weights, and defects that tie within EDGE_TOL of one another
        n = data.draw(st.integers(1, 6))
        k = n * (n - 1) // 2
        weights = st.lists(st.sampled_from([0.0, 0.1, 0.25, 0.5]), min_size=n, max_size=n)
        w = np.array(data.draw(weights))
        base = data.draw(st.lists(st.sampled_from([0.0, 0.5, 1.0, 1.5]), min_size=k, max_size=k))
        defect = data.draw(st.lists(
            st.sampled_from([0.0, 0.25, 0.5, 0.5 - EDGE_TOL / 2, 0.5 + EDGE_TOL / 2, 1.0]),
            min_size=k, max_size=k,
        ))
        lam = data.draw(st.sampled_from([0.0, 0.5, 1.0, 2.0]))
        d1, d2 = np.zeros((n, n)), np.zeros((n, n))
        iu = np.triu_indices(n, 1)
        d1[iu], d2[iu] = base, np.add(base, defect)
        d1, d2 = d1 + d1.T, d2 + d2.T
        got = box_pair(semidist_pair(w, d1, d2), lam).value
        assert got == pytest.approx(brute_box_pair(w, d1, d2, lam), abs=1e-9)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_threshold_witness_contract_hypothesis(self, data):
        # the search hands back a clique that certifies its value, None for
        # an answer a gate decided; a cap or floor changes the value only as
        # a gate may (a cap within the probes' slack, 1e-12 of mass and
        # EDGE_TOL of defect, below the answer may pass), and an ungated
        # witness is the first witness of the solve that kept its probes'
        # outcomes per graph, wherever no two of the thresholds and the answer
        # lie within EDGE_TOL
        n = data.draw(st.integers(1, 6))
        k = n * (n - 1) // 2
        w = np.array(data.draw(st.lists(st.sampled_from([0.0, 0.125, 0.25, 0.5]), min_size=n, max_size=n)))
        ties = [0.0, 0.25, 0.5, 0.5 - EDGE_TOL / 2, 0.5 + EDGE_TOL / 2, 0.5 + EDGE_TOL, 1.0]
        delta = np.zeros((n, n))
        delta[np.triu_indices(n, 1)] = data.draw(st.lists(st.sampled_from(ties), min_size=k, max_size=k))
        delta = delta + delta.T
        lam = data.draw(st.sampled_from([0.25, 1.0, 3.0]))
        m = float(w.sum())
        best_at = lambda t, target: _max_weight_clique(delta <= t + EDGE_TOL, w, target=target)  # noqa: E731

        def solve(cap=np.inf, floor=0.0):
            eps, witness = _threshold_solve(np.triu(delta, 1), m, lam, best_at, cap, floor)
            if witness is not None:
                cells = list(witness)
                assert len(set(cells)) == len(cells) and (delta[np.ix_(cells, cells)] <= eps + EDGE_TOL).all()
                assert float(w[cells].sum()) >= m - lam * eps - 1e-12
            return eps, witness

        eps, witness = solve()
        assert eps == _clique_solve(delta, w, m, lam)
        want_eps, want_cells = reference_first_witness(
            delta, m, lam, lambda mask, target: _max_weight_clique(mask, w, target=target)
        )
        assert repr(eps) == repr(want_eps)
        spots = np.unique(np.concatenate(([0.0, eps], np.triu(delta, 1).ravel())))
        if (np.diff(spots) > EDGE_TOL).all():
            assert (best_at(eps, None)[1] if witness is None else witness) == want_cells
        nudges = (0.0, -EDGE_TOL, EDGE_TOL, -1e-15, 1e-15, -1e-11, 1e-11, -1e-3, 1e-3)
        capped = set()  # the values of the passed caps
        for gate in sorted({max(x + nudge, 0.0) for x in spots.tolist() for nudge in nudges}):
            got, got_witness = solve(cap=gate)
            if got == np.inf:
                assert eps > gate and got_witness is None
            else:
                assert repr(got) == repr(eps)
                capped.add(got)
            if eps > gate + 4e-12:  # beyond the slack at lam >= 0.25
                assert got == np.inf
            got, got_witness = solve(floor=gate)
            assert repr(got) == repr(max(eps, gate))
            if gate > eps:
                assert got_witness is None
        assert all(_clique_cells(delta, w, lam, got) == _clique_cells(delta, w, lam, eps) for got in capped)

    def test_negative_lambda_rejected(self):
        with pytest.raises(ValueError):
            box_pair(cross_pair([0.5, 0.5], 1.0, 2.0), -0.5)

    @pytest.mark.parametrize("lam", [np.nan, np.inf])
    def test_non_finite_lambda_rejected(self, lam):
        pair = cross_pair([0.5, 0.5], 1.0, 2.0)
        with pytest.raises(ValueError):
            box_pair(pair, lam)

    @pytest.mark.parametrize("lam", [0.0, 0.5, 1.0, 2.0])
    def test_one_positive_weight_keeps_that_index(self, lam):
        # the other indices weigh nothing, so one point is kept at tolerance zero
        delta = np.array([[0.0, 3.0, 1.0], [3.0, 0.0, 2.0], [1.0, 2.0, 0.0]])
        for i in range(3):
            w = np.zeros(3)
            w[i] = 0.75
            res = box_pair(SemiDistancePair(w, delta, np.zeros_like(delta)), lam)
            assert (res.value, res.cells, res.retained_mass) == (0.0, (i,), 0.75)

    def test_size_limit_refusal(self):
        pair = cross_pair([0.5, 0.5], 1.0, 2.0)
        with pytest.raises(SizeLimitError):
            box_pair(pair, 1.0, max_cells=1)

    def test_max_cells_below_one_rejected(self):
        pair = cross_pair([0.5, 0.5], 1.0, 2.0)
        with pytest.raises(ValueError, match="max_cells"):
            box_pair(pair, 1.0, max_cells=0)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(2, 4),
        st.floats(0.1, 3.0),
        st.floats(0.0, 2.0),
        st.integers(0, 10_000),
    )
    def test_lambda_monotone_hypothesis(self, n, lam, bump, key):
        rng = np.random.default_rng(key)
        w = rng.integers(1, 9, size=n).astype(float) * 0.1
        a = np.triu(rng.random((n, n)), 1)
        b = np.triu(rng.random((n, n)), 1)
        pair = SemiDistancePair(w, a + a.T, b + b.T)
        assert box_pair(pair, lam + bump).value <= box_pair(pair, lam).value + 1e-12


class TestBoxDistance:
    def test_isomorphic_relabeling_is_zero(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            X = random_space(rng, max_points=4)
            Y, _ = shuffled_copy(rng, X)
            assert box_distance(X, Y, 1.0).value <= 1e-12

    def test_two_point_golden_values(self):
        X = mm_space([0.5, 0.5], [[0, 1], [1, 0]])
        Y = mm_space([0.5, 0.5], [[0, 2], [2, 0]])
        # oracle first: coupling family plus subset enumeration
        assert brute_box_two_point_uniform(1.0, 2.0, 1.0, 0.0) == 1.0
        assert brute_box_two_point_uniform(1.0, 2.0, 1.0, 1.0) == 0.5
        assert box_distance(X, Y, 0.0).value == 1.0
        assert box_distance(X, Y, 1.0).value == 0.5

    def test_one_point_mass_gap(self):
        X = mm_space([1.0], [[0.0]])
        Y = mm_space([2.0], [[0.0]])
        for lam in (0.0, 1.0, 3.0):
            assert box_distance(X, Y, lam).value == 1.0
            assert box_distance(Y, X, lam).value == 1.0

    def test_certificate_coupling_is_valid(self):
        rng = np.random.default_rng(17)
        for _ in range(30):
            total = float(np.round(rng.uniform(0.5, 2.0), 2))
            X = random_space_total(rng, total, max_points=3)
            Y = random_space_total(rng, total, max_points=3)
            lam = float(rng.choice([0.0, 1.0]))
            res = box_distance(X, Y, lam)
            pi = res.coupling
            assert np.all(pi >= -1e-12)
            assert np.allclose(pi.sum(axis=1), X.weights, atol=1e-9)
            assert np.allclose(pi.sum(axis=0), Y.weights, atol=1e-9)
            kept_mass = float(sum(pi[i, j] for i, j in res.cells))
            assert kept_mass >= total - lam * res.pair_value - 1e-9
            for a, (i1, j1) in enumerate(res.cells):
                for i2, j2 in res.cells[a + 1 :]:
                    assert abs(X.dist[i1, i2] - Y.dist[j1, j2]) <= res.pair_value + 1e-9

    def test_any_coupling_gives_an_upper_bound(self):
        rng = np.random.default_rng(23)
        for _ in range(40):
            total = float(np.round(rng.uniform(0.5, 2.0), 2))
            X = random_space_total(rng, total, max_points=3)
            Y = random_space_total(rng, total, max_points=3)
            lam = float(rng.choice([0.0, 0.7, 1.0]))
            exact = box_distance(X, Y, lam).value
            pi = random_coupling(X, Y, rng)
            assert box_pair(pullback_pair(X, Y, pi), lam).value >= exact - 1e-9

    def test_unequal_mass_rule_and_symmetry(self):
        rng = np.random.default_rng(29)
        for _ in range(40):
            X = random_space(rng, max_points=3)
            Y = random_space(rng, max_points=3)
            lam = float(rng.choice([0.0, 1.0]))
            d_xy = box_distance(X, Y, lam).value
            d_yx = box_distance(Y, X, lam).value
            assert d_xy == pytest.approx(d_yx, abs=1e-9)
            mX, mY = X.total_mass, Y.total_mass
            if mX < mY - 1e-12:
                inner = box_distance(X, scale_measure(Y, mX / mY), lam).value
                assert d_xy == pytest.approx(inner + (mY - mX), abs=1e-12)

    def test_scaling_sandwich(self):
        rng = np.random.default_rng(37)
        for _ in range(40):
            total = float(np.round(rng.uniform(0.5, 2.0), 2))
            X = random_space_total(rng, total, max_points=3)
            Y = random_space_total(rng, total, max_points=3)
            lam = float(rng.choice([0.0, 1.0]))
            alpha = float(np.round(rng.uniform(0.05, 1.0), 3))
            b = box_distance(X, Y, lam).value
            ba = box_distance(scale_measure(X, alpha), scale_measure(Y, alpha), lam).value
            assert alpha * b <= ba + 1e-9
            assert ba <= b + 1e-9

    def test_exact_size_limit_refusal(self):
        X = mm_space(np.full(9, 1.0 / 9), np.ones((9, 9)) - np.eye(9))
        with pytest.raises(SizeLimitError):
            box_distance(X, X, 1.0, max_cells=64)

    @pytest.mark.parametrize("mode", ["exact", "heuristic"])
    def test_max_cells_below_one_rejected(self, mode):
        # exact mode raised SizeLimitError ("refuses 4 cells (limit 0)"),
        # heuristic mode ignored the value
        X = mm_space([0.5, 0.5], [[0, 1], [1, 0]])
        with pytest.raises(ValueError, match="max_cells"):
            box_distance(X, X, 1.0, mode, max_cells=0)

    @pytest.mark.parametrize("mode", ["exact", "heuristic"])
    def test_non_finite_lambda_rejected(self, mode):
        # an infinite mass price would let every coupling certify zero
        X = mm_space([0.5, 0.5], [[0, 1], [1, 0]])
        Y = mm_space([0.5, 0.5], [[0, 2], [2, 0]])
        for lam in (np.inf, np.nan):
            with pytest.raises(ValueError):
                box_distance(X, Y, lam, mode)

    def test_heuristic_upper_bound_on_spaces(self):
        rng = np.random.default_rng(41)
        for k in range(15):
            X = random_space(rng, max_points=4)
            Y = random_space(rng, max_points=4)
            lam = float(rng.choice([0.0, 1.0]))
            exact = box_distance(X, Y, lam).value
            heur = box_distance(X, Y, lam, "heuristic", seed=k)
            assert heur.mode == "heuristic-upper-bound"
            assert heur.value >= exact - 1e-9


class TestWitnessBound:
    def test_identity_witness_gives_zero(self):
        X = mm_space([0.5, 0.5], [[0, 1], [1, 0]])
        w = Witness(np.arange(2), np.arange(2), 0.0)
        assert box_upper_from_witness(X, X, w) == 0.0

    def test_small_perturbation_bound(self):
        X = mm_space([0.5, 0.5], [[0, 1], [1, 0]])
        Xn = mm_space([0.5, 0.5], [[0, 1.1], [1.1, 0]])
        w = Witness(np.arange(2), np.arange(2), 0.1)
        bound = box_upper_from_witness(Xn, X, w)
        exact = box_distance(Xn, X, 1.0).value
        assert bound <= 0.1 + 1e-12
        assert bound >= exact - 1e-12

    def test_empty_subset_witness_stays_below_total_mass(self):
        X = mm_space([0.5, 0.5], [[0, 1], [1, 0]])
        Y = mm_space([0.5, 0.5], [[0, 2], [2, 0]])
        w = Witness(np.zeros(2, dtype=int), np.array([], dtype=int), X.total_mass)
        assert box_upper_from_witness(X, Y, w) <= X.total_mass + 1e-12

    def test_out_of_range_map_rejected(self):
        X = mm_space([0.5, 0.5], [[0, 1], [1, 0]])
        w = Witness(np.array([0, 5]), np.arange(2), 0.0)
        with pytest.raises(ValueError):
            box_upper_from_witness(X, X, w)

    def test_map_length_mismatch_rejected(self):
        X = mm_space([0.5, 0.5], [[0, 1], [1, 0]])
        w = Witness(np.array([0, 1, 0]), np.arange(2), 0.0)
        with pytest.raises(ValueError, match=r"witness map has shape \(3,\), expected \(2,\)"):
            box_upper_from_witness(X, X, w)

    def test_bound_dominates_exact_on_random_pairs(self):
        rng = np.random.default_rng(43)
        from mmdist import normalized
        from mmdist.limits import witness_search

        for _ in range(25):
            X = normalized(random_space(rng, max_points=3))
            Y = normalized(random_space(rng, max_points=3))
            w = witness_search(Y, X)
            assert box_upper_from_witness(Y, X, w) >= box_distance(Y, X, 1.0).value - 1e-9

    @staticmethod
    def reweighted(rng, X):
        """``X`` with random weights, some of them zero, at one of three totals."""
        w = rng.uniform(0.0, 1.0, X.n) * (rng.random(X.n) < 0.8)
        w[rng.integers(X.n)] += 0.5
        return mm_space(w * rng.choice([1.0 / w.sum(), 1.0, 3.7]), X.dist)

    def test_glued_couplings_pass_the_one_coupling_check(self, monkeypatch):
        # the glued coupling goes through pullback_pair's 1e-9 check; record
        # how far its signs and marginals are off, on random maps between
        # spaces of 1-6 and 8-24 points (equal totals and unequal ones in
        # both orders, zero weights) and on the identity maps of empirical
        # measures that empirical_convergence_experiment builds
        from mmdist.limits import empirical_space

        errors = []

        def recorded(X, Y, pi):
            row = np.abs(pi.sum(axis=1) - X.weights).max()
            col = np.abs(pi.sum(axis=0) - Y.weights).max()
            errors.append(max(row, col, -pi.min()))
            return pullback_pair(X, Y, pi)

        monkeypatch.setattr(box_module, "pullback_pair", recorded)
        rng = np.random.default_rng(2024)
        for lo, hi, count in ((1, 6, 150), (8, 24, 12)):
            for _ in range(count):
                n, m = rng.integers(lo, hi + 1, size=2)
                Xn = self.reweighted(rng, random_space(rng, min_points=n, max_points=n))
                X = self.reweighted(rng, random_space(rng, min_points=m, max_points=m))
                w = Witness(rng.integers(0, m, size=n), np.arange(n), 0.0)
                assert box_upper_from_witness(Xn, X, w) >= abs(Xn.total_mass - X.total_mass)
        for _ in range(6):
            m = int(rng.integers(8, 25))
            X = self.reweighted(rng, random_space(rng, min_points=m, max_points=m))
            X = scale_measure(X, 1.0 / X.total_mass)
            for N in (5, 50, 500):
                emp = empirical_space(X, rng.multinomial(N, X.weights / X.weights.sum()))
                box_upper_from_witness(emp, X, Witness(np.arange(m), emp.support, 0.0))
        assert len(errors) == 150 + 12 + 18
        assert max(errors) <= 1e-12


class TestMaxWeightClique:
    """The branch-and-bound clique search against clique enumeration."""

    @staticmethod
    def instances():
        # weights on a 1/16 grid (zeros included) so that ties are exact and common
        rng = np.random.default_rng(44)
        for n in range(1, 8):
            for density in (0.2, 0.5, 0.8):
                for _ in range(6):
                    adj = np.triu(rng.random((n, n)) < density, k=1)
                    yield adj | adj.T, rng.integers(0, 17, size=n) / 16.0

    def test_matches_clique_enumeration(self):
        for adj, weights in self.instances():
            mass, cells = _max_weight_clique(adj, weights)
            want_mass, want_cells = brute_max_weight_clique(adj, weights, _TIE_TOL)
            assert mass == pytest.approx(want_mass, abs=1e-12)
            assert cells == want_cells

    def test_target_stops_at_a_witness(self):
        # a search with a target reaches it exactly when the heaviest clique
        # does; either way it returns a clique and its mass, which below the
        # target may be lighter than the heaviest (pruned against the target)
        rng = np.random.default_rng(45)
        for adj, weights in self.instances():
            full = _max_weight_clique(adj, weights)
            grid = float(rng.integers(1, 33)) / 16.0
            for target in (grid, full[0], full[0] - _TIE_TOL / 2, full[0] + _TIE_TOL / 2):
                mass, cells = _max_weight_clique(adj, weights, target=target)
                assert (mass >= target) == (full[0] >= target), (target, full)
                assert all(adj[a][b] for a in cells for b in cells if a != b)
                assert mass == pytest.approx(float(weights[list(cells)].sum()), abs=1e-12)

    def test_least_keeps_the_heaviest_it_reaches(self):
        # a search with a lower bound it can reach goes on to the heaviest
        # clique and its tie-break; one it cannot reach returns a lighter clique
        rng = np.random.default_rng(46)
        for adj, weights in self.instances():
            full = _max_weight_clique(adj, weights)
            grid = float(rng.integers(0, 33)) / 16.0
            for least in (grid, full[0], full[0] - _TIE_TOL / 2, full[0] + 2 * _TIE_TOL):
                mass, cells = _max_weight_clique(adj, weights, least=least)
                if least <= full[0]:
                    assert (mass, cells) == full, (least, full)
                else:
                    assert mass < least and all(adj[a][b] for a in cells for b in cells if a != b)


class TestBestFlowAt:
    """The clique sweep of the exact space solver against clique enumeration."""

    @staticmethod
    def instances():
        # grids up to 3x3 with cells numbered row-major; capacities on a 1/16
        # grid (zeros included) so that flows are exact and ties common
        rng = np.random.default_rng(41)
        for nr in range(1, 4):
            for nc in range(1, 4):
                for density in (0.2, 0.5, 0.8):
                    for _ in range(4):
                        rows_of, cols_of = np.divmod(np.arange(nr * nc), nc)
                        adj = np.triu(rng.random((nr * nc, nr * nc)) < density, k=1)
                        adj = adj | adj.T
                        row_caps = rng.integers(0, 17, size=nr) / 16.0
                        col_caps = rng.integers(0, 17, size=nc) / 16.0
                        yield adj, rows_of, cols_of, row_caps, col_caps

    def test_matches_clique_enumeration(self):
        for adj, rows_of, cols_of, row_caps, col_caps in self.instances():
            mass, cells = _best_flow_at(adj, rows_of, cols_of, row_caps, col_caps)
            want_mass, want_cells = brute_best_flow(adj, rows_of, cols_of, row_caps, col_caps)
            assert mass == pytest.approx(want_mass, abs=1e-12)
            assert cells == want_cells

    def test_target_stops_at_a_witness(self):
        # the pruned sweep decides "some clique reaches target" as the full
        # sweep does; a reached target gives the full sweep's witness, an
        # unreached one a clique and its flow, maybe below the full mass
        rng = np.random.default_rng(42)
        for adj, rows_of, cols_of, row_caps, col_caps in self.instances():
            args = (adj, rows_of, cols_of, row_caps, col_caps)
            full = reference_best_flow_at(*args)
            target = float(rng.integers(1, 17)) / 16.0
            mass, cells = _best_flow_at(*args, target=target)
            assert (mass >= target) == (full[0] >= target)
            if mass >= target:
                assert (mass, cells) == reference_best_flow_at(*args, target=target)
                continue
            assert mass <= full[0]
            assert all(adj[a][b] for a in cells for b in cells if a != b)
            mask = np.zeros((len(row_caps), len(col_caps)), dtype=bool)
            mask[rows_of[list(cells)], cols_of[list(cells)]] = True
            assert mass == pytest.approx(min_cut_value(row_caps, col_caps, mask), abs=1e-12)

    def test_flow_bound_is_monotone_and_above_the_flow(self):
        # the sweep's bound read from subset-sum tables, on the row-major
        # bitset and its column-major twin, against the per-cell reference;
        # the first 300 cell sets, on grids up to 4x4, have one table a side,
        # the 60 after them have a side above 8 cells (up to 1x64 and 2x32)
        rng = np.random.default_rng(43)
        wide = [(1, 64), (2, 32), (9, 1), (1, 9), (3, 10), (10, 3), (2, 12), (9, 7)]
        for k in range(360):
            nr, nc = (int(v) for v in rng.integers(1, 5, size=2)) if k < 300 else wide[k % len(wide)]
            rows, cols = (a.tolist() for a in np.divmod(np.arange(nr * nc), nc))
            r_cap = (rng.integers(0, 5, size=nr) / 4.0).tolist()  # zeros included
            c_cap = (rng.integers(0, 5, size=nc) / 4.0).tolist()
            by_row, by_col = _line_parts(tuple(r_cap), tuple(c_cap)), _line_parts(tuple(c_cap), tuple(r_cap))

            def bound(cells):
                bits = sum(1 << c for c in cells)
                twin = sum(1 << (cols[c] * nr + rows[c]) for c in cells)
                return min(_reach_bound(bits, by_row), _reach_bound(twin, by_col))

            cells = [c for c in range(nr * nc) if rng.random() < 0.5]
            mask = np.zeros((nr, nc), dtype=bool)
            mask[[rows[c] for c in cells], [cols[c] for c in cells]] = True
            got = bound(cells)
            assert got == pytest.approx(reference_flow_bound(cells, rows, cols, r_cap, c_cap), abs=1e-12)
            flow = min_cut_value(r_cap, c_cap, mask) if nr <= nc else min_cut_value(c_cap, r_cap, mask.T)
            assert got >= flow - 1e-12
            assert bound(cells[1:]) <= got


def exact_corpus():
    """46 seeded exact-box instances: n x n for n = 3..6 at lam = 0, 0.5, 1.

    Weights lie on a 1/16 grid and distances on a 1/4 grid in [1, 2], so
    flows, defects and ties are exact.  Each (n, lam) has a pair with a
    zero-weight point and a space against a relabelled copy, and all but
    (6, 0), whose unpruned sweeps take about a second, a pair with equal
    totals and one with unequal totals.
    """
    rng = np.random.default_rng(2016)

    def space(weights):
        n = len(weights)
        d = np.triu(rng.integers(4, 9, size=(n, n)) / 4.0, 1)
        return mm_space(weights, d + d.T)

    for n in range(3, 7):
        for lam in (0.0, 0.5, 1.0):
            w = rng.integers(1, 17, size=n) / 16.0
            X = space(w)
            Y_equal = space(rng.permutation(w))
            Y_unequal = space(rng.integers(1, 17, size=n) / 16.0)
            if n < 6 or lam > 0.0:
                yield X, Y_equal, lam
                yield X, Y_unequal, lam
            w0 = w.copy()
            w0[rng.integers(n)] = 0.0
            yield space(w0), space(rng.permutation(w)), lam
            yield X, shuffled_copy(rng, X)[0], lam


def odd_shape_corpus():
    """17 seeded exact-box pairs: 1x9, 9x1, 2x12 and 3x10 at lam = 0 and 1,
    and 2x32 at lam = 1.

    The first four shapes have, at each lam, a pair with equal totals and one
    with unequal totals and a zero-weight point on each side.  A line of more
    than 8 cells runs the sweep's flow bound on more than one byte of it.
    Weights and distances lie on the grids of :func:`exact_corpus`.
    """
    rng = np.random.default_rng(2030)

    def space(weights):
        n = len(weights)
        d = np.triu(rng.integers(4, 9, size=(n, n)) / 4.0, 1)
        return mm_space(weights, d + d.T)

    def with_zero(n):
        w = rng.integers(1, 17, size=n + 1) / 16.0
        w[rng.integers(n + 1)] = 0.0
        return space(w)

    for nx, ny in ((1, 9), (9, 1), (2, 12), (3, 10)):
        for lam in (0.0, 1.0):
            units = rng.integers(1, 17, size=max(nx, ny))
            cuts = np.sort(rng.choice(np.arange(1, units.sum()), size=min(nx, ny) - 1, replace=False))
            narrow = space(np.diff(np.concatenate(([0], cuts, [units.sum()]))) / 16.0)
            wide = space(units / 16.0)
            yield (narrow, wide, lam) if nx < ny else (wide, narrow, lam)
            yield with_zero(nx), with_zero(ny), lam
    # 64 cells, the default limit: rows of 32 cells, four bytes each; the
    # lighter space gives the rows
    yield space(rng.integers(1, 3, size=2) / 16.0), space(rng.integers(1, 17, size=32) / 16.0), 1.0


def test_exact_reports_match_the_unpruned_sweep(monkeypatch):
    cases = list(exact_corpus()) + list(odd_shape_corpus())
    got = [json.dumps(box_distance(X, Y, lam).to_jsonable()) for X, Y, lam in cases]
    monkeypatch.setattr(box_module, "_best_flow_at", reference_best_flow_at)
    want = [json.dumps(box_distance(X, Y, lam).to_jsonable()) for X, Y, lam in cases]
    assert got == want


#: distances of the spaces drawn below: a 1/4 grid in [1, 2] and two
#: values within EDGE_TOL of a grid point, so defects tie at +-EDGE_TOL
TIED_DISTANCES = [1.0, 1.25, 1.5, 1.75, 1.25 - EDGE_TOL, 1.25 + EDGE_TOL]


def draw_space(data, max_points):
    """A space of 1 to ``max_points`` points drawn by hypothesis: weights on
    a 1/8 grid, some zero, and distances from :data:`TIED_DISTANCES`."""
    w = data.draw(st.lists(st.sampled_from([0.0, 0.125, 0.25, 0.5]), min_size=1, max_size=max_points).filter(any))
    k = len(w) * (len(w) - 1) // 2
    d = np.zeros((len(w), len(w)))
    d[np.triu_indices(len(w), 1)] = data.draw(st.lists(st.sampled_from(TIED_DISTANCES), min_size=k, max_size=k))
    return mm_space(w, d + d.T)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_exact_certificates_are_first_witnesses_with_the_lexicographic_values_hypothesis(data):
    # the exact solve keeps the first witness its sweep finds; the value,
    # pair value and mass gap are those of the heaviest, lexicographically
    # smallest certificate, bit for bit, and the witness meets the rule
    X, Y = draw_space(data, 5), draw_space(data, 5)
    lam = data.draw(st.sampled_from([0.0, 0.25, 1.0, 3.0]))
    got, want = box_distance(X, Y, lam), reference_box_exact(X, Y, lam)
    assert (got.value, got.pair_value, got.mass_gap) == (want.value, want.pair_value, want.mass_gap)
    assert _certificate_violations(X, Y, lam, got) == []


def test_corpus_certificates_meet_the_rule(monkeypatch):
    monkeypatch.setattr(box_module, "HEURISTIC_RESTARTS", 3)
    monkeypatch.setattr(box_module, "HEURISTIC_STEPS", 40)
    cases = [(X, Y, lam, "exact", 0) for X, Y, lam in [*exact_corpus(), *odd_shape_corpus()]]
    cases += [(X, Y, lam, "heuristic", k) for k, (X, Y, lam) in enumerate(heuristic_corpus())]
    cases += [(X, Y, lam, "heuristic", seed) for X, Y, lam, seed in non_square_heuristic_corpus()]
    for X, Y, lam, mode, seed in cases:
        assert _certificate_violations(X, Y, lam, box_distance(X, Y, lam, mode, seed=seed)) == []


def heuristic_corpus():
    """32 seeded heuristic-box instances: 2 to 12 points at lam = 0, 0.25, 1, 3.

    Weights lie on a 1/16 grid and distances on a 1/4 grid in [1, 2], so
    pair values tie often and the local search accepts equal-value moves.
    Each (n, lam) has two of: equal totals, unequal totals (the lighter space
    first or second), a zero-weight point, and a space against a relabelled
    copy; the four kinds rotate over lam from one n to the next.
    """
    rng = np.random.default_rng(2018)

    def space(weights):
        n = len(weights)
        d = np.triu(rng.integers(4, 9, size=(n, n)) / 4.0, 1)
        return mm_space(weights, d + d.T)

    kind = 0
    for n in (2, 4, 7, 12):
        for lam in (0.0, 0.25, 1.0, 3.0):
            for _ in range(2):
                w = rng.integers(1, 17, size=n) / 16.0
                X = space(w)
                if kind % 4 == 0:
                    yield X, space(rng.permutation(w)), lam
                elif kind % 4 == 1:
                    Y = space(rng.integers(1, 17, size=n) / 16.0)
                    yield (X, Y, lam) if kind % 8 == 1 else (Y, X, lam)
                elif kind % 4 == 2:
                    w0 = w.copy()
                    w0[rng.integers(n)] = 0.0
                    yield space(w0), space(rng.permutation(w)), lam
                else:
                    yield X, shuffled_copy(rng, X)[0], lam
                kind += 1
        kind += 1


def test_scalar_draws_continue_the_pair_draw_stream():
    # the full-scoring reference draws a pivot's corners as two pairs, and
    # the heuristic's block draws give the stream of four scalars (next
    # test); the reports match only while numpy gives the same stream both
    # ways, with other draws in between
    for n in range(2, 31):
        pairs, scalars = np.random.default_rng(n), np.random.default_rng(n)
        for _ in range(40):
            want = [*pairs.integers(0, n, size=2), *pairs.integers(0, n + 1, size=2), pairs.random()]
            got = [scalars.integers(n), scalars.integers(n), scalars.integers(n + 1), scalars.integers(n + 1)]
            assert got + [scalars.random()] == want, n


def test_block_pivot_draws_continue_the_scalar_stream():
    # _next_pivot draws all remaining proposals at once, then rewinds and
    # redraws up to its hit; proposing one pivot at a time from four scalar
    # draws must give the same pivots and shifts, and leave the generator
    # where it leaves it.  Each hit moves the plan, and a double is drawn
    # after it, as the next restart's permutations draw after a pass
    def move(pi, i1, i2, j1, j2, shift):
        pi[i1, j1] += shift
        pi[i2, j2] += shift
        pi[i1, j2] -= shift
        pi[i2, j1] -= shift

    for nx, ny in ((1, 1), (1, 5), (5, 1), (2, 2), (3, 8), (8, 3), (12, 12), (24, 24)):
        plan_rng = np.random.default_rng(100 * nx + ny)
        # few positive cells: a matching, as a northwest plan of equal weights gives, and some more
        start = np.where(plan_rng.random((nx, ny)) < 0.1, plan_rng.random((nx, ny)), 0.0)
        m = min(nx, ny)
        start[plan_rng.permutation(nx)[:m], plan_rng.permutation(ny)[:m]] = 0.1 + plan_rng.random(m)
        hits = 0
        for seed in range(3):
            blocks, scalars = np.random.default_rng(seed), np.random.default_rng(seed)
            got, pi, left = [], start.copy(), 200
            while (pivot := _next_pivot(blocks, pi, left)) is not None:
                k, *corners, shift = pivot
                got.append((200 - left + k, *corners, shift, blocks.random()))
                left -= k + 1
                move(pi, *corners, shift)
            want, pi = [], start.copy()
            for step in range(200):
                corners = scalars.integers(nx), scalars.integers(nx), scalars.integers(ny), scalars.integers(ny)
                i1, i2, j1, j2 = corners
                room = min(pi[i1, j2], pi[i2, j1])
                if i1 == i2 or j1 == j2 or room <= 0.0:
                    continue
                shift = room if scalars.random() < 0.5 else room * scalars.random()
                want.append((step, *corners, shift, scalars.random()))
                move(pi, *corners, shift)
            assert got == want, (nx, ny, seed)
            assert blocks.bit_generator.state == scalars.bit_generator.state, (nx, ny, seed)
            hits += len(want)
        assert hits > 0 or min(nx, ny) == 1, (nx, ny)  # a pivot needs two rows and two columns


def non_square_heuristic_corpus():
    """Heuristic-box pairs of unequal sizes, 1x4 to 3x9, at lam = 0, 1 and 3.

    Totals differ and each pair has a zero-weight point, so the scaled
    space, the swapped report and the pivots' two highs all come in.
    """
    rng = np.random.default_rng(2019)

    def space(n):
        w = rng.integers(1, 17, size=n) / 16.0
        if n > 1:
            w[rng.integers(n)] = 0.0
        d = np.triu(rng.integers(4, 9, size=(n, n)) / 4.0, 1)
        return mm_space(w, d + d.T)

    for k, (nx, ny) in enumerate(((1, 4), (4, 1), (2, 7), (7, 2), (3, 9))):
        for lam in (0.0, 1.0, 3.0):
            yield space(nx), space(ny), lam, 3 * k + int(lam)


def test_non_square_heuristic_reports_match_full_scoring(monkeypatch):
    # the two corner highs of a pivot differ here, so a block draw with one
    # high for all four corners would draw other pivots; the returned
    # coupling couples the spaces the solve ran on
    monkeypatch.setattr(box_module, "HEURISTIC_RESTARTS", 3)
    monkeypatch.setattr(box_module, "HEURISTIC_STEPS", 40)
    cases = list(non_square_heuristic_corpus())
    results = [box_distance(X, Y, lam, "heuristic", seed=seed) for X, Y, lam, seed in cases]
    for (X, Y, _, _), res in zip(cases, results):
        A, B, gap, swapped = lighter_first(X, Y)
        assert gap > 0.0
        coupling_from_matrix(*((B, A) if swapped else (A, B)), res.coupling)
    monkeypatch.setattr(box_module, "_box_equal_mass_heuristic", reference_box_heuristic)
    want = [box_distance(X, Y, lam, "heuristic", seed=seed) for X, Y, lam, seed in cases]
    assert [json.dumps(r.to_jsonable()) for r in results] == [json.dumps(r.to_jsonable()) for r in want]


def test_heuristic_refuses_a_start_plan_off_its_marginals(monkeypatch):
    # trials are pulled back unchecked, so the start plans are checked: one
    # off by 1e-6 raises the coupling rule's error, as a checked pullback did
    plan = box_module.northwest_plan

    def off_plan(*args):
        pi = plan(*args)
        pi[0, 0] += 1e-6
        return pi

    monkeypatch.setattr(box_module, "northwest_plan", off_plan)
    X = mm_space([0.25, 0.25, 0.5], [[0, 1, 1.5], [1, 0, 1.25], [1.5, 1.25, 0]])
    with pytest.raises(ValueError, match="coupling marginals do not match"):
        box_distance(X, X, 1.0, "heuristic")


def test_heuristic_reports_match_full_scoring(monkeypatch):
    # the heuristic rejects a coupling by one probe at the incumbent; scoring
    # every coupling in full must give the same reports, byte for byte.  Both
    # loops read the schedule from the module; a shorter one keeps the corpus
    # within about a second
    monkeypatch.setattr(box_module, "HEURISTIC_RESTARTS", 3)
    monkeypatch.setattr(box_module, "HEURISTIC_STEPS", 40)
    cases = list(heuristic_corpus())

    def reports():
        return [
            json.dumps(box_distance(X, Y, lam, "heuristic", seed=k).to_jsonable())
            for k, (X, Y, lam) in enumerate(cases)
        ]

    got = reports()
    monkeypatch.setattr(box_module, "_box_equal_mass_heuristic", reference_box_heuristic)
    assert got == reports()
