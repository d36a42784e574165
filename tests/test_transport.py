import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmdist.box import EDGE_TOL, _max_weight_clique
from mmdist.errors import InternalInvariantError
from mmdist.transport import (
    _threshold_solve,
    completion,
    max_flow,
    max_flow_value,
    northwest_plan,
    prokhorov_distance,
)

from oracles import min_cut_value, numpy_max_flow, prokhorov_subsets, reference_threshold_solve


def random_instance(rng, nr=None, nc=None):
    nr = nr or int(rng.integers(1, 5))
    nc = nc or int(rng.integers(1, 5))
    r = rng.integers(1, 10, size=nr).astype(float) * 0.1
    c = rng.integers(1, 10, size=nc).astype(float) * 0.1
    mask = rng.random((nr, nc)) < 0.55
    return r, c, mask


class TestMaxFlow:
    def test_full_mask_routes_everything(self):
        r = np.array([0.3, 0.7])
        c = np.array([0.5, 0.5])
        value, plan = max_flow(r, c, np.nonzero(np.ones((2, 2), bool)))
        assert value == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(plan.sum(axis=1), r)

    def test_empty_mask_routes_nothing(self):
        value, plan = max_flow([1.0], [1.0], np.nonzero(np.zeros((1, 1), bool)))
        assert value == 0.0

    def test_matches_cut_enumeration(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            r, c, mask = random_instance(rng)
            ek, plan = max_flow(r, c, np.nonzero(mask))
            assert ek == pytest.approx(min_cut_value(r, c, mask), abs=1e-9)
            # plans respect capacities and the mask
            assert np.all(plan[~mask] == 0.0)
            assert np.all(plan.sum(axis=1) <= r + 1e-12)
            assert np.all(plan.sum(axis=0) <= c + 1e-12)

    def test_value_shortcut_matches_flow(self):
        rng = np.random.default_rng(4)
        for nr in range(1, 7):
            for nc in range(1, 7):  # rows > cols as well as rows <= cols
                for _ in range(6):
                    r, c, mask = random_instance(rng, nr, nc)
                    r[rng.random(nr) < 0.2] = 0.0  # zero capacities
                    c[rng.random(nc) < 0.2] = 0.0
                    assert max_flow_value(r, c, np.nonzero(mask)) == pytest.approx(
                        min_cut_value(r, c, mask), abs=1e-9
                    )
        # 21 rows: the oracle enumerates cuts over the 3 columns instead
        r, c, mask = random_instance(rng, 21, 3)
        assert max_flow_value(r, c, np.nonzero(mask)) == pytest.approx(
            min_cut_value(c, r, mask.T), abs=1e-9
        )

    def test_matches_numpy_reference(self):
        # the list-based routine against the numpy Edmonds-Karp it replaced:
        # same breadth-first order, same paths, so the same plan.  Capacities
        # on a 1/16 grid (zeros included) make ties common
        rng = np.random.default_rng(13)
        for nr in range(1, 9):
            for nc in range(1, 9):
                for density in (0.25, 0.75, 1.0, 0.0):
                    for _ in range(3):
                        r = rng.integers(0, 17, size=nr) / 16.0
                        c = rng.integers(0, 17, size=nc) / 16.0
                        mask = rng.random((nr, nc)) < density
                        value, plan = max_flow(r, c, np.nonzero(mask))
                        want_value, want_plan = numpy_max_flow(r, c, mask)
                        assert abs(value - want_value) <= 1e-15
                        assert plan.shape == want_plan.shape
                        assert np.all(np.abs(plan - want_plan) <= 1e-15)

    def test_plan_is_feasible(self):
        rng = np.random.default_rng(14)
        for _ in range(400):
            r, c, mask = random_instance(rng, int(rng.integers(1, 9)), int(rng.integers(1, 9)))
            r = r * rng.random(len(r))  # off-grid capacities
            c = c * rng.random(len(c))
            value, plan = max_flow(r, c, np.nonzero(mask))
            assert np.all(plan >= 0.0)
            assert np.all(plan[~mask] == 0.0)
            assert np.all(plan.sum(axis=1) <= r + 1e-15)
            assert np.all(plan.sum(axis=0) <= c + 1e-15)
            assert value == float(plan.sum())

    @pytest.mark.parametrize("nr,nc", [(0, 3), (3, 0), (0, 0)])
    def test_empty_side_routes_nothing(self, nr, nc):
        value, plan = max_flow(np.ones(nr), np.ones(nc), np.nonzero(np.ones((nr, nc), bool)))
        assert value == 0.0
        assert np.array_equal(plan, np.zeros((nr, nc)))


class TestPlans:
    def test_northwest_is_a_coupling(self):
        r = np.array([0.2, 0.8])
        c = np.array([0.5, 0.4, 0.1])
        plan = northwest_plan(r, c)
        assert np.allclose(plan.sum(axis=1), r)
        assert np.allclose(plan.sum(axis=0), c)

    def test_completion_extends_subplans(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            r, c, mask = random_instance(rng)
            total = min(r.sum(), c.sum())
            # equalize totals so a full coupling exists
            if r.sum() > total:
                r = r * total / r.sum()
            else:
                c = c * total / c.sum()
            _, plan = max_flow(r, c, np.nonzero(mask))
            full = completion(plan, r, c)
            assert np.allclose(full.sum(axis=1), r, atol=1e-9)
            assert np.allclose(full.sum(axis=0), c, atol=1e-9)
            assert np.all(full >= plan - 1e-12)


class TestProkhorov:
    def test_identical_weightings(self):
        d = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert prokhorov_distance(d, [0.5, 0.5], [0.5, 0.5]) == 0.0

    def test_two_point_mass_shift(self):
        d = np.array([[0.0, 1.0], [1.0, 0.0]])
        mu, nu = np.array([0.7, 0.3]), np.array([0.5, 0.5])
        eps = prokhorov_distance(d, mu, nu)
        assert eps == pytest.approx(0.2, abs=1e-12)
        # an optimal coupling: the flow on the eps-near pairs, completed
        plan = completion(max_flow(mu, nu, np.nonzero(d <= eps + 1e-12))[1], mu, nu)
        assert np.allclose(plan.sum(axis=1), mu)
        assert np.allclose(plan.sum(axis=0), nu)
        assert plan[d > eps + 1e-12].sum() <= eps + 1e-12

    def test_two_point_full_swap(self):
        d = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert prokhorov_distance(d, [1.0, 0.0], [0.0, 1.0]) == pytest.approx(1.0)

    def test_matches_subset_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(120):
            n = int(rng.integers(1, 5))
            steps = rng.integers(100, 201, size=(n, n)).astype(float) / 100.0
            d = np.triu(steps, 1)
            d = d + d.T
            mu = rng.integers(1, 10, size=n).astype(float)
            nu = rng.integers(1, 10, size=n).astype(float)
            mu, nu = mu / mu.sum(), nu / nu.sum()
            got = prokhorov_distance(d, mu, nu)
            want = prokhorov_subsets(d, mu, nu)
            assert got == pytest.approx(want, abs=1e-9)

    def test_unequal_totals_rejected(self):
        with pytest.raises(ValueError):
            prokhorov_distance(np.zeros((1, 1)), [1.0], [2.0])


class TestThresholdFloor:
    """``_threshold_solve(..., floor=x)`` is ``max(x, answer)`` bit for bit, for
    each kind of retained mass the solvers plug in, with no witness when the
    floor decides it."""

    @staticmethod
    def assert_floor_is_max(values, m, lam, best_at):
        answer = _threshold_solve(values, m, lam, best_at)[0]
        th = np.unique(np.concatenate(([0.0], np.ravel(values))))
        floors = np.unique(np.concatenate((th, [answer, np.nextafter(answer, np.inf)])))
        floors = np.concatenate((floors, (floors[1:] + floors[:-1]) / 2.0, [floors[-1] + 1.0]))
        for x in floors.tolist():
            got, witness = _threshold_solve(values, m, lam, best_at, floor=x)
            assert repr(got) == repr(max(x, answer)), (x, answer)
            assert witness is None or x <= answer, (x, answer)

    def test_clique_mass(self):
        rng = np.random.default_rng(3)
        for _ in range(40):
            n = int(rng.integers(1, 6))
            w = rng.integers(1, 9, size=n).astype(float) * 0.1
            delta = np.triu(np.round(rng.random((n, n)), 2), 1)
            delta = delta + delta.T
            lam = float(rng.choice([0.5, 1.0, 2.0]))

            def clique(t, target):
                return _max_weight_clique(delta <= t + EDGE_TOL, w, target=target)

            self.assert_floor_is_max(delta[np.triu_indices(n, k=1)], float(w.sum()), lam, clique)

    def test_flow_value(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            n = int(rng.integers(1, 5))
            d = np.triu(rng.integers(100, 201, size=(n, n)).astype(float) / 100.0, 1)
            d = d + d.T
            mu, nu = rng.integers(1, 10, size=n).astype(float), rng.integers(1, 10, size=n).astype(float)
            mu, nu = mu / mu.sum(), nu / nu.sum()

            def flow(t, target):
                return max_flow_value(mu, nu, np.nonzero(d <= t + 1e-12)), None

            self.assert_floor_is_max(d, float(mu.sum()), 1.0, flow)

    def test_me_lambda_sum(self):
        rng = np.random.default_rng(7)
        for _ in range(40):
            n = int(rng.integers(1, 6))
            w = rng.integers(1, 9, size=n).astype(float) * 0.1
            v = np.round(rng.uniform(0.0, 2.0, size=n), 2)
            lam = float(rng.choice([0.25, 1.0, 3.0]))
            self.assert_floor_is_max(v, float(w.sum()), lam, lambda t, _: (float(w[v <= t].sum()), None))

    def test_floor_on_infeasible_largest_threshold_raises(self):
        # nothing is ever retained, so even the largest threshold is infeasible
        with pytest.raises(InternalInvariantError):
            _threshold_solve(np.array([0.5, 1.0]), 10.0, 1.0, lambda t, _: (0.0, None), floor=2.0)


class TestThresholdSearchOrder:
    """Past a passed cap the search steps down from it; it must end where the
    bisection from zero ends, and return the same bits."""

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_step_down_matches_the_bisection_hypothesis(self, data):
        # a monotone step function over repeated thresholds; a targeted probe
        # that misses its target reports half the mass, as a pruned search may
        values = np.array(data.draw(st.lists(st.integers(0, 12), min_size=1, max_size=9)), dtype=float) / 8.0
        thresholds = np.unique(np.concatenate(([0.0], values)))
        steps = data.draw(st.lists(st.integers(0, 8), min_size=len(thresholds), max_size=len(thresholds)))
        m = 1.0
        masses = np.minimum(np.cumsum(steps) / 8.0, m)
        masses[-1] = m  # every cell retained at the largest threshold
        lam = data.draw(st.sampled_from([0.25, 1.0, 3.0]))
        calls = []

        def retained_max(t, target):
            calls.append(t)
            mass = float(masses[np.searchsorted(thresholds, t + EDGE_TOL, side="right") - 1])
            return (mass / 2.0 if target is not None and mass < target else mass), None

        answer = reference_threshold_solve(values, m, lam, retained_max)
        nudges = (0.0, 1e-15, -1e-15, EDGE_TOL, -EDGE_TOL, 1e-3, -1e-3)
        spots = np.concatenate(([0.0, answer], thresholds))
        gates = sorted({max(float(x + e), 0.0) for x in spots for e in nudges})
        floor = data.draw(st.sampled_from([0.0] + gates))
        for cap in gates + [np.inf]:
            want = reference_threshold_solve(values, m, lam, retained_max, cap, floor)
            got = _threshold_solve(values, m, lam, retained_max, cap, floor)[0]
            assert repr(got) == repr(want), (cap, floor)
        for cap in (answer, answer + 1e-15) if answer in thresholds else ():
            # a tie at a threshold: the cap (or largest threshold) probe, two
            # probes below it, and the breakpoint's mass
            calls.clear()
            assert repr(_threshold_solve(values, m, lam, retained_max, cap)[0]) == repr(answer)
            assert len(calls) <= 4, (cap, calls)
