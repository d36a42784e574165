import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmdist import (
    Lip1Set,
    SemiDistancePair,
    SizeLimitError,
    box_distance,
    box_pair,
    hli_lambda,
    lip_point_distance,
    me_lambda,
    me_lambda_maps,
    metric_closure,
    mm_space,
    observable_distance,
    project_to_lip1,
    pullback_pair,
    random_coupling,
    semidist_pair,
)
from mmdist import lipschitz
from mmdist.instances import (
    random_pair_matrices,
    random_semidist_pair,
    random_space,
    random_space_total,
)

from oracles import (
    lip_vertices_active_sets,
    me_infimum_grid,
    reference_hli_sampled,
    reference_lip1_contains,
    reference_lip1_sample,
    sup_distance_to_lip_lp,
)


class TestMeLambda:
    def test_identical_functions(self):
        assert me_lambda([1.0, 2.0], [1.0, 2.0], [0.5, 0.5], 1.0) == 0.0

    def test_point_three_gap_at_unit_lambda(self):
        # mass 0.5 above the candidate 0.3, and 0.5 > 0.3, so the infimum
        # sits at the gap itself (and is not attained in the weak form)
        assert me_lambda([0.3, 0.0], [0.0, 0.0], [0.5, 0.5], 1.0) == 0.3

    def test_point_three_gap_at_lambda_two(self):
        assert me_lambda([0.3, 0.0], [0.0, 0.0], [0.5, 0.5], 2.0) == 0.25

    def test_lambda_zero_is_support_sup(self):
        assert me_lambda([5.0, 1.0], [0.0, 1.0], [0.0, 0.7], 0.0) == 0.0 + 0.0
        assert me_lambda([5.0, 1.0], [0.0, 0.4], [0.0, 0.7], 0.0) == 0.6

    @pytest.mark.parametrize("lam", [0.0, 1.0])
    def test_no_positive_weight_gives_zero(self, lam):
        assert me_lambda([5.0, 1.0], [0.0, 0.0], [0.0, 0.0], lam) == 0.0

    def test_matches_grid_infimum(self):
        rng = np.random.default_rng(61)
        cases = []
        for _ in range(40):
            n = int(rng.integers(1, 6))
            w = rng.integers(0, 9, size=n).astype(float) * 0.1
            if not w.any():
                w[0] = 0.5
            f = np.round(rng.uniform(-2, 2, size=n), 3)
            g = np.round(rng.uniform(-2, 2, size=n), 3)
            lam = float(rng.choice([0.25, 0.5, 1.0, 2.0]))
            cases.append((f, g, w, lam))
        # tied |f - g| values and zero weights: a coarse grid makes both common
        for _ in range(40):
            n = int(rng.integers(2, 8))
            w = rng.integers(0, 4, size=n).astype(float) * 0.25
            w[0] = 0.0
            if not w[1:].any():
                w[1] = 0.5
            f = rng.integers(-2, 3, size=n) * 0.25
            g = rng.integers(-2, 3, size=n) * 0.25
            lam = float(rng.choice([0.25, 0.5, 1.0, 2.0]))
            cases.append((f, g, w, lam))
        # every defect ties at 0.5, which is also the breakpoint 1.0 / 2
        cases.append(([0.5, 0.5, 0.5, 9.0], [0.0, 0.0, 0.0, 0.0], [0.25, 0.25, 0.5, 0.0], 2.0))
        for f, g, w, lam in cases:
            got = me_lambda(f, g, w, lam)
            want = me_infimum_grid(f, g, w, lam)
            # the grid oracle overshoots the infimum by at most one step
            step = (float(np.abs(np.subtract(f, g)).max(initial=0.0)) + 1.0) / 20000
            assert want - step - 1e-12 <= got <= want + 1e-12

    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 5), st.floats(0.0, 3.0), st.integers(0, 10_000))
    def test_metric_axioms_hypothesis(self, n, lam, key):
        rng = np.random.default_rng(key)
        w = rng.integers(1, 9, size=n).astype(float) * 0.1
        f, g, h = (np.round(rng.uniform(-2, 2, size=n), 3) for _ in range(3))
        assert me_lambda(f, g, w, lam) == me_lambda(g, f, w, lam)
        assert me_lambda(f, f, w, lam) == 0.0
        assert me_lambda(f, h, w, lam) <= me_lambda(f, g, w, lam) + me_lambda(
            g, h, w, lam
        ) + 1e-12

    @pytest.mark.parametrize("lam", [np.nan, np.inf, -np.inf])
    def test_non_finite_lambda_rejected(self, lam):
        with pytest.raises(ValueError):
            me_lambda([0.3, 0.0], [0.0, 0.0], [0.5, 0.5], lam)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("lam", [0.0, 1.0])
    @pytest.mark.parametrize("where", ["f", "g", "weights"])
    def test_non_finite_vectors_rejected(self, bad, lam, where):
        # [0, inf, 1] gave 0.8 at lambda 1 and inf at lambda 0
        args = {"f": [0.0, 1.0, 1.0], "g": [0.0, 0.0, 0.0], "weights": [0.2, 0.3, 0.5]}
        args[where] = list(args[where])
        args[where][1] = bad
        with pytest.raises(ValueError, match="finite"):
            me_lambda(args["f"], args["g"], args["weights"], lam)

    def test_maps_variant_examples(self):
        d = np.array([[0.0, 1.0], [1.0, 0.0]])
        w = np.array([0.5, 0.5])
        assert me_lambda_maps([0, 1], [0, 1], w, d, 1.0) == 0.0
        # two constant maps at distance one, full mass at the gap
        assert me_lambda_maps([0, 0], [1, 1], w, d, 1.0) == 1.0
        # disagreement on mass 0.2 at distance 5
        d5 = np.array([[0.0, 5.0], [5.0, 0.0]])
        assert me_lambda_maps([0, 0], [1, 0], [0.2, 0.8], d5, 1.0) == pytest.approx(0.2)

    def test_maps_of_different_lengths_rejected(self):
        # the one-entry map was broadcast against the other and gave 0.5
        d = np.array([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(ValueError, match=r"gmap has shape \(1,\), expected \(2,\)"):
            me_lambda_maps([0, 1], [1], [0.5, 0.5], d, 1.0)

    def test_maps_shorter_than_the_weights_rejected_by_name(self):
        # the message spoke of f and g, which the caller never passed
        d = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]])
        with pytest.raises(ValueError, match=r"^fmap has shape \(2,\), expected \(3,\); gmap has shape"):
            me_lambda_maps([0, 1], [1, 0], [1.0, 1.0, 1.0], d, 1.0)


class TestProjection:
    def test_lipschitz_input_is_fixed(self):
        d = np.array([[0.0, 1.0], [1.0, 0.0]])
        f = np.array([0.0, 0.8])
        assert np.allclose(project_to_lip1(f, d, [0, 1]), f)

    def test_projection_of_steep_function(self):
        d = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert np.allclose(project_to_lip1([0.0, 5.0], d, [0, 1]), [0.0, 1.0])

    def test_single_anchor_gives_cone(self):
        X = random_space(np.random.default_rng(2), min_points=3, max_points=5)
        f = np.zeros(X.n)
        out = project_to_lip1(f, X.dist, [0])
        assert np.allclose(out, X.dist[:, 0])

    def test_empty_anchor_rejected(self):
        with pytest.raises(ValueError):
            project_to_lip1([0.0], np.zeros((1, 1)), [])

    @pytest.mark.parametrize("f", [0.5, [[0.5]]])
    def test_non_vector_function_rejected(self, f):
        # the scalar raised TypeError ("len() of unsized object")
        with pytest.raises(ValueError, match="f has shape"):
            project_to_lip1(f, [[0.0]], [0])

    def test_output_always_lipschitz_for_metrics(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            X = random_space(rng, min_points=2, max_points=5)
            f = np.round(rng.uniform(-3, 3, size=X.n), 3)
            k = int(rng.integers(1, X.n + 1))
            anchor = rng.choice(X.n, size=k, replace=False)
            out = project_to_lip1(f, X.dist, anchor)
            assert Lip1Set(X.dist, X.weights).contains(out)


class TestVertices:
    def test_single_point(self):
        assert np.array_equal(Lip1Set(np.zeros((1, 1)), [1.0]).vertices(), np.zeros((1, 1)))

    def test_empty_support_holds_the_zero_function(self):
        # no positive weight: the set is the pinned zero function alone,
        # which sample returns and contains accepts
        lset = Lip1Set([[0.0, 1.0], [1.0, 0.0]], [0.0, 0.0])
        v = lset.vertices()
        assert np.array_equal(v, np.zeros((1, 2)))
        assert np.array_equal(v[0], lset.sample(np.random.default_rng(0)))
        assert lset.contains(v[0])

    def test_two_point_interval_endpoints(self):
        v = Lip1Set([[0.0, 1.0], [1.0, 0.0]], [0.5, 0.5]).vertices()
        assert sorted(map(tuple, v)) == [(0.0, -1.0), (0.0, 1.0)]

    def test_matches_active_set_enumeration(self):
        rng = np.random.default_rng(71)
        cases = []
        for _ in range(25):
            n = int(rng.integers(2, 5))
            cases.append(rng.integers(50, 201, size=(n, n)).astype(float) / 100.0)
        for n in (5, 5, 4, 5):
            # raw semimetrics: wide entries break the triangle inequality
            cases.append(rng.uniform(0.1, 3.0, size=(n, n)))
        for n in (3, 4, 5, 5):
            # pseudometrics pulled back from fewer points: zero distances
            X = random_space(rng, min_points=2, max_points=3)
            cells = rng.integers(0, X.n, size=n)
            cases.append(X.dist[np.ix_(cells, cells)])
        for steps in cases:
            d = np.triu(steps, 1)
            d = d + d.T
            n = len(d)
            got = {
                tuple(np.round(v, 6)) for v in Lip1Set(d, np.ones(n)).vertices()
            }
            want = {tuple(np.round(v, 6)) for v in lip_vertices_active_sets(d)}
            assert got == want

    def test_pullback_vertices_are_first_space_vertices(self):
        # pairs drawn as the pullback-lip-factorization property draws them;
        # supports 7 to 9 are beyond the active-set oracle.  Cells over one
        # first-space point are at distance zero, so each vertex of the
        # pulled-back set is a vertex of the first space read on the cells
        rng = np.random.default_rng(12)
        supports = set()
        for _ in range(8):
            total = float(np.round(rng.uniform(0.5, 2.0), 2))
            X = random_space_total(rng, total, min_points=2, max_points=3)
            Y = random_space_total(rng, total, min_points=2, max_points=3)
            pair = pullback_pair(X, Y, random_coupling(X, Y, rng))
            got = Lip1Set(pair.d1, pair.weights).vertices(max_support=9)
            want = Lip1Set(X.dist, X.weights).vertices()[:, [i for i, _ in pair.cells]]
            assert np.array_equal(got, want)
            supports.add(len(pair.support))
        assert {7, 8, 9} <= supports

    def test_equilateral_triangle_hexagon(self):
        d = np.ones((3, 3)) - np.eye(3)
        assert len(Lip1Set(d, np.ones(3)).vertices()) == 6

    def test_size_limit(self):
        n = 7
        d = np.ones((n, n)) - np.eye(n)
        with pytest.raises(SizeLimitError):
            Lip1Set(d, np.ones(n)).vertices()

    def test_vertices_are_members(self):
        rng = np.random.default_rng(73)
        for _ in range(20):
            X = random_space(rng, min_points=2, max_points=4)
            lset = Lip1Set(X.dist, X.weights)
            for v in lset.vertices():
                assert lset.contains(v)

    def test_samples_are_members(self):
        rng = np.random.default_rng(74)
        for _ in range(40):
            X = random_space(rng, min_points=1, max_points=5)
            lset = Lip1Set(X.dist, X.weights)
            assert lset.contains(lset.sample(rng))

    @pytest.mark.parametrize("seed", range(6))
    def test_sample_matches_the_per_member_oracle(self, seed):
        # the batched sampler draws what the member-by-member one drew, bit for
        # bit, and leaves the generator where it left it: alone, in a batch,
        # on zero weights and on an empty support
        rng = np.random.default_rng([seed, 115])
        for n in range(1, 8):
            w = rng.integers(0, 3, size=n).astype(float) * 0.25
            if seed == 0:
                w[:] = 0.0
            lset = Lip1Set(random_pair_matrices(rng, n), w)
            draws, batch, oracle = (np.random.default_rng([seed, n]) for _ in range(3))
            want = [reference_lip1_sample(lset, oracle) for _ in range(5)]
            got = [lset.sample(draws) for _ in range(5)]
            assert [f.tobytes() for f in got] == [f.tobytes() for f in want]
            assert lset._samples(batch, 5).tobytes() == np.array(want).tobytes()
            assert draws.bit_generator.state == batch.bit_generator.state == oracle.bit_generator.state


class TestPointDistance:
    def test_matches_lp_at_lambda_zero(self):
        rng = np.random.default_rng(77)
        for _ in range(40):
            n = int(rng.integers(1, 5))
            steps = rng.integers(50, 201, size=(n, n)).astype(float) / 100.0
            d = np.triu(steps, 1)
            d = d + d.T
            f = np.round(rng.uniform(-2, 2, size=n), 3)
            got = lip_point_distance(f, Lip1Set(d, np.ones(n)), 0.0)
            want = sup_distance_to_lip_lp(f, metric_closure(d))
            assert got == pytest.approx(want, abs=1e-7)

    def test_members_are_at_distance_zero(self):
        rng = np.random.default_rng(79)
        X = random_space(rng, min_points=2, max_points=5)
        lset = Lip1Set(X.dist, X.weights)
        for _ in range(10):
            f = lset.sample(rng)
            assert lip_point_distance(f, lset, 0.7) <= 1e-9

    @pytest.mark.parametrize(
        "f,match",
        [
            pytest.param([0.0, 1.0], r"f has shape \(2,\), expected \(3,\)", id="f0-length"),  # raised IndexError
            pytest.param([0.0, 1.0, 2.0, 3.0], r"f has shape \(4,\), expected \(3,\)", id="f1-length"),
            ([0.0, np.nan, 1.0], "finite"),  # raised InternalInvariantError
            ([0.0, np.inf, 1.0], "finite"),
        ],
    )
    def test_bad_function_rejected(self, f, match):
        d = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]])
        with pytest.raises(ValueError, match=match):
            lip_point_distance(f, Lip1Set(d, np.ones(3)), 1.0)


    @pytest.mark.parametrize(
        "dist,weights,match",
        [
            ([[0.0, 1.0]], [1.0, 1.0], "shape"),  # raised IndexError
            (np.zeros((3, 3)), [1.0, 1.0], "shape"),  # answered 1.0
            ([[0.0, 1.0], [1.0, 0.0]], [-1.0, 1.0], "weights"),  # answered 0.0
            ([[0.0, 1.0], [1.0, 0.0]], [np.nan, 1.0], "weights"),  # answered 0.0
            ([[0.0, np.nan], [np.nan, 0.0]], [1.0, 1.0], "NaN"),
            ([[0.0]], 1.0, "vector"),  # raised TypeError
        ],
    )
    def test_bad_set_rejected(self, dist, weights, match):
        # fault named by a case -> the message, worded as validate words it
        match = {
            "weights": "weight",
            "NaN": "dist contains non-finite entries",
            "vector": r"weights has shape \(\), expected \(1,\)",
        }.get(match, match)
        with pytest.raises(ValueError, match=match):
            lip_point_distance([0.0, 5.0], Lip1Set(dist, weights), 1.0)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 5), st.sampled_from([0.0, 0.25, 1.0, 2.0]), st.integers(0, 10_000))
    def test_floor_is_a_max_hypothesis(self, n, lam, key):
        # floors on each threshold (a halved excess), on each mass breakpoint
        # (m - W) / lam of a subset of mass W, on the distance itself and a
        # bit either side of it, and between consecutive candidates
        rng = np.random.default_rng(key)
        w = rng.integers(0, 5, size=n).astype(float) * 0.25
        w[int(rng.integers(n))] += 0.25
        target = Lip1Set(random_pair_matrices(rng, n), w)
        f = np.round(rng.uniform(-3.0, 3.0, size=n), 2)
        dist = lip_point_distance(f, target, lam)
        fs, C = f[target.support], target.closure
        excess = np.clip((np.abs(fs[:, None] - fs[None, :]) - C) / 2.0, 0.0, None)
        floors = [0.0, dist, np.nextafter(dist, -np.inf), np.nextafter(dist, np.inf)]
        floors += excess.ravel().tolist()
        if lam > 0.0:
            ws, m = w[target.support], float(w.sum())
            floors += [(m - float(ws[list(sub)].sum())) / lam
                       for k in range(len(ws) + 1) for sub in itertools.combinations(range(len(ws)), k)]
        floors = np.unique([x for x in floors if x >= 0.0])
        floors = np.concatenate((floors, (floors[1:] + floors[:-1]) / 2.0, [floors[-1] + 1.0]))
        for x in floors.tolist():
            assert lip_point_distance(f, target, lam, floor=x) == max(x, dist)

    def test_nan_floor_rejected(self):
        with pytest.raises(ValueError, match="floor"):
            lip_point_distance([0.0, 5.0], Lip1Set([[0.0, 1.0], [1.0, 0.0]], [1.0, 1.0]), 1.0, floor=np.nan)


class TestDefectRule:
    # membership, the point distance and the sampled screen all read one
    # halved excess, Lip1Set._defects

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_contains_matches_reference_hypothesis(self, data):
        # supports of 0 to 7 points among up to 9, zero weights, no triangle
        # inequality; members (samples and closure cones, which are tight),
        # members nudged on one point by +-LIP_TOL and +-2 LIP_TOL, and
        # random functions
        n = data.draw(st.integers(1, 9))
        k = data.draw(st.integers(0, min(n, 7)))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
        w = np.zeros(n)
        w[rng.choice(n, size=k, replace=False)] = rng.integers(1, 5, size=k) * 0.25
        lset = Lip1Set(random_pair_matrices(rng, n), w)
        kind = data.draw(st.sampled_from(["sample", "cone", "nudged sample", "nudged cone", "random"]))
        if kind == "random":
            f = np.round(rng.uniform(-3.0, 3.0, size=n), 2)
        elif kind.endswith("cone") and k > 0:
            f = lset._extend(lset.closure[:, int(rng.integers(k))])
        else:
            f = lset.sample(rng)
        if kind.startswith("nudged"):
            f[data.draw(st.integers(0, n - 1))] += data.draw(st.sampled_from([-2, -1, 1, 2])) * lipschitz.LIP_TOL
        assert lset.contains(f) == reference_lip1_contains(lset, f)

    def test_batch_defects_match_rows_bit_for_bit(self):
        # the screen of sampled hli_lambda reads a batch; lip_point_distance
        # reads one probe, and the two must agree on every bit
        rng = np.random.default_rng(113)
        for _ in range(40):
            n = int(rng.integers(1, 8))
            lset = Lip1Set(random_pair_matrices(rng, n), rng.integers(0, 3, size=n) * 0.5)
            probes = np.vstack((lset._samples(rng, 4), rng.uniform(-3.0, 3.0, size=(3, n))))
            on = probes[:, lset.support]
            rows = np.stack([lset._defects(row) for row in on])
            assert lset._defects(on).tobytes() == rows.tobytes()

    def test_every_measured_probe_can_raise_the_bound(self, monkeypatch):
        # a probe's distance is at most its largest defect, so a probe whose
        # largest defect is at most the running maximum is never measured.
        # On identical semimetrics no probe has a positive defect, and every
        # probe was measured there at the bound 0; rounding leaves some samples
        # a defect of a few ulps, and those are measured
        measured, measure = [], lipschitz.lip_point_distance

        def recorded(f, target, lam, *, floor=0.0):
            on = np.asarray(f)[target.support]
            excess = np.abs(on[:, None] - on[None, :]) - target.closure
            measured.append((floor, max(float(np.max(excess, initial=0.0)) / 2.0, 0.0)))
            return measure(f, target, lam, floor=floor)

        monkeypatch.setattr(lipschitz, "lip_point_distance", recorded)
        rng = np.random.default_rng(127)
        d = random_pair_matrices(rng, 5)
        pair = SemiDistancePair(np.full(5, 0.2), d, d)
        assert hli_lambda(pair, 1.0, "sampled", samples=12).value == 0.0
        pair = SemiDistancePair(np.full(5, 0.2), d, random_pair_matrices(rng, 5))
        hli_lambda(pair, 1.0, "sampled", samples=12, seed=3)
        X, Y = (random_space(rng, min_points=4, max_points=4) for _ in range(2))
        observable_distance(X, Y, 0.5, "sampled", samples=6, seed=5)
        assert measured and all(floor < top for floor, top in measured)


class TestHliPair:
    def test_identical_semimetrics(self):
        pair = semidist_pair([0.5, 0.5], [[0, 1], [1, 0]], [[0, 1], [1, 0]])
        assert hli_lambda(pair, 0.0).value == 0.0

    def test_cross_pair_golden_half(self):
        # the vertex (0, 2) of the wider set sits at sup-distance 0.5 from
        # the narrower set after the optimal translation
        pair = semidist_pair([0.5, 0.5], [[0, 1], [1, 0]], [[0, 2], [2, 0]])
        assert sup_distance_to_lip_lp([0.0, 2.0], [[0.0, 1.0], [1.0, 0.0]]) == pytest.approx(0.5)
        res = hli_lambda(pair, 0.0)
        assert res.value == pytest.approx(0.5, abs=1e-12)
        assert res.tag == "exact"

    def test_smaller_semimetric_has_zero_directed_part(self):
        # d1 <= d2 entrywise nests the Lipschitz sets, so functions for d1
        # are already at distance zero from the d2 set
        rng = np.random.default_rng(83)
        for _ in range(20):
            pair = random_semidist_pair(rng)
            d_small = np.minimum(pair.d1, pair.d2)
            for v in Lip1Set(d_small, pair.weights).vertices():
                assert lip_point_distance(v, Lip1Set(pair.d2, pair.weights), 0.0) <= 1e-9

    def test_exact0_requires_lambda_zero(self):
        pair = semidist_pair([1.0], [[0.0]], [[0.0]])
        with pytest.raises(ValueError):
            hli_lambda(pair, 1.0, "exact0")

    @pytest.mark.parametrize("lam", [0.0, 0.5, 1.0])
    def test_default_mode_follows_lambda(self, lam):
        # the default was exact0, so every lambda > 0 raised "exact0 mode requires lambda = 0"
        pair = semidist_pair([0.5, 0.5], [[0, 1], [1, 0]], [[0, 2], [2, 0]])
        mode = "exact0" if lam == 0.0 else "sampled"
        res = hli_lambda(pair, lam)
        assert res.mode == mode and res == hli_lambda(pair, lam, mode)
        X, Y = (mm_space([0.5, 0.5], [[0, d], [d, 0]]) for d in (1.0, 2.0))
        res = observable_distance(X, Y, lam)
        assert res.mode == mode and res.value == observable_distance(X, Y, lam, mode).value

    def test_exact0_answers_on_support_nine(self):
        # no size limit: the closed form is cubic in the support size.  The
        # long side 0-1 of d2 closes to 2 through any third point, so the
        # value is |1 - 2| / 2, not |1 - 3| / 2
        n = 9
        d1 = np.ones((n, n)) - np.eye(n)
        d2 = d1.copy()
        d2[0, 1] = d2[1, 0] = 3.0
        res = hli_lambda(SemiDistancePair(np.ones(n), d1, d2), 0.0, "exact0")
        assert res.value == 0.5
        assert res.tag == "exact"

    def test_zero_weight_point_does_not_shortcut(self):
        # identical semimetrics; the zero-weight point 2 would close the
        # side 0-1 from 2 down to 1 if it were not dropped first
        w = [1.0, 1.0, 0.0]
        d = [[0.0, 2.0, 0.5], [2.0, 0.0, 0.5], [0.5, 0.5, 0.0]]
        pair = semidist_pair(w, d, d)
        assert hli_lambda(pair, 0.0, "exact0").value == 0.0
        assert hli_lambda(pair, 1.0, "sampled", samples=8).value == 0.0
        # 1-Lipschitz on the support {0, 1}
        assert lip_point_distance([0.0, 2.0, 0.0], Lip1Set(d, w), 0.0) == 0.0
        assert box_pair(pair, 0.0).value == 0.0

    @pytest.mark.parametrize("lam,mode", [(0.0, "exact0"), (0.0, "sampled"), (1.0, "sampled")])
    def test_no_positive_weight_gives_zero(self, lam, mode):
        # sampled mode raised numpy's "low >= high" from Lip1Set.sample
        pair = semidist_pair([0.0, 0.0], [[0, 1], [1, 0]], [[0, 2], [2, 0]])
        assert hli_lambda(pair, lam, mode).value == 0.0

    def test_exact0_matches_vertex_oracle(self):
        # directed parts are maxima of a convex function over the polytope,
        # so they are attained at vertices; the vertices are enumerated on
        # the support, with zero weights and no triangle inequality
        rng = np.random.default_rng(107)
        for _ in range(30):
            n = int(rng.integers(1, 7))
            w = rng.integers(0, 4, size=n).astype(float) * 0.25
            w[int(rng.integers(n))] += 0.25
            if np.count_nonzero(w) > 5:
                w[int(np.argmax(w))] = 0.0
            pair = SemiDistancePair(w, random_pair_matrices(rng, n), random_pair_matrices(rng, n))
            s = pair.support
            want = 0.0
            for da, db in ((pair.d1, pair.d2), (pair.d2, pair.d1)):
                da_s, db_s = da[np.ix_(s, s)], db[np.ix_(s, s)]
                for v in Lip1Set(da_s, w[s]).vertices():
                    want = max(want, lip_point_distance(v, Lip1Set(db_s, w[s]), 0.0))
            assert hli_lambda(pair, 0.0, "exact0").value == pytest.approx(want, abs=1e-12)

    def test_exact0_matches_vertex_oracle_at_near_equal_masses(self):
        # weights that differ by about 1e-13, and sometimes one weight of
        # 1e-13 next to a zero: the support, and so the value, must come out
        # the same for the closed form and for the vertices
        rng = np.random.default_rng(109)
        for _ in range(12):
            n = int(rng.integers(2, 7))
            w = 0.25 + rng.integers(-2, 3, size=n) * 1e-13
            if rng.random() < 0.5:
                tiny, zero = rng.choice(n, size=2, replace=False)
                w[tiny], w[zero] = 1e-13, 0.0
            pair = SemiDistancePair(w, random_pair_matrices(rng, n), random_pair_matrices(rng, n))
            s = pair.support
            want = 0.0
            for da, db in ((pair.d1, pair.d2), (pair.d2, pair.d1)):
                da_s, db_s = da[np.ix_(s, s)], db[np.ix_(s, s)]
                for v in Lip1Set(da_s, w[s]).vertices():
                    want = max(want, lip_point_distance(v, Lip1Set(db_s, w[s]), 0.0))
            assert hli_lambda(pair, 0.0, "exact0").value == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("lam", [np.nan, np.inf, -1.0])
    def test_invalid_lambda_rejected(self, lam):
        pair = semidist_pair([0.5, 0.5], [[0, 1], [1, 0]], [[0, 2], [2, 0]])
        X = mm_space([0.5, 0.5], [[0, 1], [1, 0]])
        for mode in ("exact0", "sampled"):
            with pytest.raises(ValueError):
                hli_lambda(pair, lam, mode)
            with pytest.raises(ValueError):
                observable_distance(X, X, lam, mode)

    def test_negative_samples_rejected(self):
        pair = semidist_pair([0.5, 0.5], [[0, 1], [1, 0]], [[0, 2], [2, 0]])
        X = mm_space([0.5, 0.5], [[0, 1], [1, 0]])
        Y = mm_space([0.5, 0.5], [[0, 2], [2, 0]])
        with pytest.raises(ValueError, match="samples must be nonnegative"):
            hli_lambda(pair, 1.0, "sampled", samples=-1)
        with pytest.raises(ValueError, match="samples must be nonnegative"):
            observable_distance(X, Y, 1.0, "sampled", samples=-3)
        # zero samples is allowed: only the distance cones are probed
        assert hli_lambda(pair, 1.0, "sampled", samples=0).value >= 0.0

    def test_pair_hausdorff_below_box(self):
        rng = np.random.default_rng(89)
        for k in range(40):
            pair = random_semidist_pair(rng)
            h0 = hli_lambda(pair, 0.0).value
            assert h0 <= box_pair(pair, 0.0).value + 1e-9
            lam = float(rng.uniform(0.3, 2.0))
            res = hli_lambda(pair, lam, "sampled", samples=16, seed=k)
            assert res.tag == "lower-bound"
            assert res.value <= box_pair(pair, lam).value + 1e-9

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_sampled_matches_unfloored_reference(self, data):
        # each direction screens its probes by their largest defect, a batch
        # at a time, and each probe left takes the running maximum as its
        # floor; the value must be the loop's that draws one probe at a time
        # and measures every probe in full, bit for bit.  Supports of 0 to 8
        # points, in one batch or in batches of one and of three probes
        n = data.draw(st.integers(1, 8))
        grid = st.sampled_from([0.0, 0.25, 0.5, 0.75])
        w = np.array(data.draw(st.one_of(st.just([0.0] * n), st.lists(grid, min_size=n, max_size=n))))
        seed = data.draw(st.integers(0, 2**16))
        rng = np.random.default_rng(seed)
        pair = SemiDistancePair(w, random_pair_matrices(rng, n), random_pair_matrices(rng, n))
        lam = data.draw(st.sampled_from([0.25, 1.0, 3.0]))
        samples = data.draw(st.sampled_from([0, 1, 10]))
        entries = data.draw(st.sampled_from([lipschitz.PROBE_BATCH_ENTRIES, 1, 3 * n * n]))  # batches of 1 and 3 probes
        with mock.patch.object(lipschitz, "PROBE_BATCH_ENTRIES", entries):
            got = hli_lambda(pair, lam, "sampled", samples=samples, seed=seed).value
        assert repr(got) == repr(reference_hli_sampled(pair, lam, samples=samples, seed=seed))

    def test_sampled_lower_bound_below_exact_at_lambda_zero(self):
        rng = np.random.default_rng(97)
        for k in range(20):
            pair = random_semidist_pair(rng)
            exact = hli_lambda(pair, 0.0).value
            sampled = hli_lambda(pair, 0.0, "sampled", samples=24, seed=k).value
            assert sampled <= exact + 1e-9


class TestObservableDistance:
    def test_isomorphic_spaces(self):
        X = mm_space([0.5, 0.5], [[0, 1], [1, 0]])
        assert observable_distance(X, X, 0.0).value == 0.0

    def test_two_point_golden_value(self):
        X = mm_space([0.5, 0.5], [[0, 1], [1, 0]])
        Y = mm_space([0.5, 0.5], [[0, 2], [2, 0]])
        # oracle: enumerate the coupling family, score by the vertex method
        best = np.inf
        for t in np.linspace(0.0, 0.5, 41):
            pi = np.array([[t, 0.5 - t], [0.5 - t, t]])
            ii, jj = np.nonzero(pi > 0)
            w = pi[ii, jj]
            d1 = X.dist[np.ix_(ii, ii)]
            d2 = Y.dist[np.ix_(jj, jj)]
            value = 0.0
            for da, db in ((d1, d2), (d2, d1)):
                for v in Lip1Set(da, w).vertices():
                    value = max(value, sup_distance_to_lip_lp(v, metric_closure(db)))
            best = min(best, value)
        assert best == pytest.approx(0.5, abs=1e-7)
        res = observable_distance(X, Y, 0.0)
        assert res.value == pytest.approx(0.5, abs=1e-12)
        # the factor-two sandwich is tight on this pair
        b0 = box_distance(X, Y, 0.0).value
        assert res.value <= b0 <= 2 * res.value

    def test_sandwich_on_random_pairs(self):
        rng = np.random.default_rng(101)
        for _ in range(25):
            X = random_space(rng, max_points=3)
            Y = random_space(rng, max_points=3)
            h0 = observable_distance(X, Y, 0.0).value
            b0 = box_distance(X, Y, 0.0).value
            assert h0 <= b0 + 1e-9
            assert b0 <= 2 * h0 + 1e-9

    def test_space_level_matches_pair_on_best_coupling(self):
        # the certified coupling's vertex-based Hausdorff value must agree
        # with the space-level result computed through the box search
        rng = np.random.default_rng(103)
        for _ in range(40):
            total = float(np.round(rng.uniform(0.5, 2.0), 2))
            X = random_space_total(rng, total, min_points=2, max_points=2)
            Y = random_space_total(rng, total, min_points=2, max_points=3)
            res = observable_distance(X, Y, 0.0)
            pair = pullback_pair(X, Y, res.coupling)
            assert hli_lambda(pair, 0.0).value == pytest.approx(res.value, abs=1e-9)

    @pytest.mark.parametrize("lam", [0.25, 1.0, 3.0])
    def test_sampled_matches_the_candidate_loop_on_the_oracle(self, lam, monkeypatch):
        # the same couplings scored by the unscreened, member-by-member hli
        # loop: the value and the coupling kept come out the same
        rng = np.random.default_rng(117)
        spaces = [(random_space(rng, max_points=4), random_space(rng, max_points=4)) for _ in range(4)]
        got = [observable_distance(X, Y, lam, "sampled", samples=6, seed=k) for k, (X, Y) in enumerate(spaces)]

        def oracle_hli(pair, lam, mode, *, samples, seed):
            return lipschitz.HliResult(reference_hli_sampled(pair, lam, samples, seed), "lower-bound", lam, mode)

        monkeypatch.setattr(lipschitz, "hli_lambda", oracle_hli)
        for k, (X, Y) in enumerate(spaces):
            want = observable_distance(X, Y, lam, "sampled", samples=6, seed=k)
            assert repr(got[k].value) == repr(want.value)
            assert np.array_equal(got[k].coupling, want.coupling)

    def test_sampled_mode_is_tagged_heuristic(self):
        X = mm_space([0.5, 0.5], [[0, 1], [1, 0]])
        Y = mm_space([0.5, 0.5], [[0, 2], [2, 0]])
        res = observable_distance(X, Y, 1.0, "sampled", samples=8, seed=0)
        assert res.tag == "heuristic"
        assert res.value >= 0.0

    def test_mass_gap_rule(self):
        X = mm_space([1.0], [[0.0]])
        Y = mm_space([2.0], [[0.0]])
        assert observable_distance(X, Y, 0.0).value == 1.0

    def test_exact0_refuses_above_max_cells(self):
        X = mm_space([0.5, 0.5], [[0, 1], [1, 0]])
        Y = mm_space([0.25, 0.25, 0.5], [[0, 1, 2], [1, 0, 1], [2, 1, 0]])
        with pytest.raises(SizeLimitError, match="exact box solve refuses 6 coupling cells"):
            observable_distance(X, Y, 0.0, max_cells=5)
        assert observable_distance(X, Y, 0.0, max_cells=6).tag == "exact"

    @pytest.mark.parametrize("mode,lam", [("exact0", 0.0), ("sampled", 1.0)])
    def test_max_cells_below_one_rejected(self, mode, lam):
        X = mm_space([0.5, 0.5], [[0, 1], [1, 0]])
        with pytest.raises(ValueError, match="max_cells"):
            observable_distance(X, X, lam, mode, max_cells=0)
