import numpy as np
import pytest

from mmdist.transport import (
    completion,
    max_flow,
    max_flow_value,
    northwest_plan,
    prokhorov_distance,
)

from oracles import min_cut_value, prokhorov_subsets


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
        value, plan = max_flow(r, c, np.ones((2, 2), bool))
        assert value == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(plan.sum(axis=1), r)

    def test_empty_mask_routes_nothing(self):
        value, plan = max_flow([1.0], [1.0], np.zeros((1, 1), bool))
        assert value == 0.0

    def test_matches_cut_enumeration(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            r, c, mask = random_instance(rng)
            ek, plan = max_flow(r, c, mask)
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
                    assert max_flow_value(r, c, mask) == pytest.approx(
                        min_cut_value(r, c, mask), abs=1e-9
                    )
        # 21 rows: the oracle enumerates cuts over the 3 columns instead
        r, c, mask = random_instance(rng, 21, 3)
        assert max_flow_value(r, c, mask) == pytest.approx(
            min_cut_value(c, r, mask.T), abs=1e-9
        )


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
            _, plan = max_flow(r, c, mask)
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
        plan = completion(max_flow(mu, nu, d <= eps + 1e-12)[1], mu, nu)
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
