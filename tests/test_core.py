import json
import re
import tracemalloc

import numpy as np
import pytest

from mmdist import (
    DominationCertificate,
    FiniteMMSpace,
    InvalidSpaceError,
    SemiDistancePair,
    SpaceFormatError,
    Witness,
    box_pair,
    box_upper_from_witness,
    coupling_from_matrix,
    diagonal_coupling,
    hli_lambda,
    lipschitz_up_to_check,
    me1_subsequence_diagnostic,
    me_lambda_maps,
    metric_closure,
    mm_space,
    parameter_invariance_check,
    product_coupling,
    project_to_lip1,
    pullback_pair,
    random_coupling,
    read_space,
    scale_measure,
    semidist_pair,
    validate,
    write_space,
)


def two_point(w=(0.5, 0.5), d=1.0):
    return mm_space(list(w), [[0.0, d], [d, 0.0]])


def assert_couples(c, X, Y):
    """``c`` is a nonnegative matrix with the weights of ``X`` and ``Y`` as marginals."""
    assert c.min() >= 0.0
    assert np.max(np.abs(c.sum(axis=1) - X.weights)) <= 1e-12
    assert np.max(np.abs(c.sum(axis=0) - Y.weights)) <= 1e-12


class TestValidate:
    def test_single_point_valid(self):
        assert validate(("p0",), [1.0], [[0.0]]).ok

    def test_two_point_valid(self):
        X = two_point()
        assert validate(X.labels, X.weights, X.dist).ok

    def test_asymmetry_reported(self):
        report = validate(("a", "b"), [0.5, 0.5], [[0, 1], [2, 0]])
        assert not report.ok
        assert any("asymmetric" in v for v in report.violations)

    def test_negative_weight_reported(self):
        report = validate(("a", "b"), [-0.5, 0.5], [[0, 1], [1, 0]])
        assert any("negative weight" in v for v in report.violations)

    def test_triangle_violation_reported(self):
        d = [[0, 1, 5], [1, 0, 1], [5, 1, 0]]
        assert any("triangle" in v for v in validate(("a", "b", "c"), [1, 1, 1], d).violations)

    def test_triangle_excess_matches_triple_loop(self):
        rng = np.random.default_rng(21)
        for _ in range(60):
            n = int(rng.integers(3, 7))
            d = np.triu(np.round(rng.uniform(0.1, 3.0, size=(n, n)), 3), k=1)
            d = d + d.T
            worst = max(
                d[i, j] - (d[i, k] + d[k, j]) for i in range(n) for j in range(n) for k in range(n)
            )
            report = validate(tuple(map(str, range(n))), np.ones(n), d)
            tri = [v for v in report.violations if "triangle" in v]
            if worst > 1e-12:  # METRIC_TOL
                assert tri == [f"triangle inequality violated by {worst:.3g}"]
            else:
                assert tri == []

    def test_triangle_check_memory_is_quadratic(self):
        # two n x n x n arrays peaked at 122 MB for 200 points
        rng = np.random.default_rng(22)
        n = 300
        d = np.triu(rng.uniform(1.0, 2.0, size=(n, n)), k=1)
        labels, weights, d = tuple(map(str, range(n))), np.ones(n), d + d.T
        tracemalloc.start()
        try:
            assert validate(labels, weights, d).ok
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20, peak

    def test_duplicate_labels_reported(self):
        assert any("unique" in v for v in validate(("a", "a"), [1, 1], [[0, 1], [1, 0]]).violations)

    def test_zero_total_mass_reported(self):
        assert any("mass" in v for v in validate(("a",), [0.0], [[0.0]]).violations)

    def test_zero_offdiagonal_distance_is_allowed(self):
        # semimetrics may glue distinct points
        X = mm_space([0.5, 0.5], [[0, 0], [0, 0]])
        assert validate(X.labels, X.weights, X.dist).ok

    @pytest.mark.parametrize(
        "labels, weights, dist, message",
        [
            ((), np.zeros(0), np.zeros((0, 0)), "at least one point"),
            (("a", "b"), [0.5, 0.5, 0.0], [[0, 1], [1, 0]], "weights has shape (3,)"),
            (("a", "b"), [0.5, 0.5], [[0, 1]], "dist has shape (1, 2)"),
            (("a", "b"), [np.nan, 0.5], [[0, 1], [1, 0]], "weights contain non-finite"),
            (("a", "b"), [0.5, 0.5], [[0, np.inf], [np.inf, 0]], "dist contains non-finite"),
            (("a", "b"), [0.5, 0.5], [[0, -1], [-1, 0]], "dist contains negative entries"),
            (("a", "b"), [0.5, 0.5], [[0.5, 1], [1, 0]], "diagonal is not zero"),
            # a raw FiniteMMSpace held each of these unchecked: box_distance
            # answered 0.0 against the asymmetric one and 0.5 with the negative
            # weight, witness_search raised IndexError on the NaN one and
            # reconstruction_check ZeroDivisionError at zero mass
            (("a", "b"), [0.5, 0.5], [[0, 1], [2, 0]], "dist is asymmetric at (0, 1)"),
            (("a", "b"), [0.5, 0.5], [[0, np.nan], [np.nan, 0]], "dist contains non-finite"),
            (("a", "b"), [-0.5, 0.5], [[0, 1], [1, 0]], "negative weight at index 0"),
            (("a", "b"), [0.0, 0.0], [[0, 1], [1, 0]], "total mass must be positive"),
            (("a", "b"), [1.0], [[0, 1], [1, 0]], "weights has shape (1,), expected (2,)"),
        ],
    )
    def test_malformed_space_reported(self, labels, weights, dist, message):
        report = validate(labels, weights, dist)
        assert any(message in v for v in report.violations), report.violations
        # the constructor is the one check of a space, with mm_space's message
        for build in (FiniteMMSpace, lambda labels, w, d: mm_space(w, d, labels)):
            with pytest.raises(InvalidSpaceError) as exc:
                build(labels, weights, dist)
            assert str(exc.value) == "; ".join(report.violations)


class TestScaleMeasure:
    def test_halving_one_atom(self):
        X = mm_space([1.0], [[0.0]])
        assert scale_measure(X, 0.5).weights[0] == 0.5

    def test_identity_scale(self):
        X = two_point()
        Y = scale_measure(X, 1.0)
        assert Y.labels == X.labels and np.array_equal(Y.weights, X.weights) and np.array_equal(Y.dist, X.dist)

    def test_doubling_uniform_pair(self):
        X = two_point()
        Y = scale_measure(X, 2.0)
        assert np.allclose(Y.weights, [1.0, 1.0])
        assert np.array_equal(Y.dist, X.dist)

    def test_roundtrip(self):
        X = two_point((0.3, 0.7), 1.5)
        back = scale_measure(scale_measure(X, 3.7), 1 / 3.7)
        assert np.max(np.abs(back.weights - X.weights)) <= 1e-12

    # alpha = inf gave infinite weights, which validate rejects
    @pytest.mark.parametrize("alpha", [0.0, -1.0, np.inf, np.nan])
    def test_nonpositive_alpha_rejected(self, alpha):
        with pytest.raises(ValueError):
            scale_measure(two_point(), alpha)


class TestCouplings:
    def test_diagonal_marginals(self):
        X = two_point((0.3, 0.7))
        c = diagonal_coupling(X)
        assert_couples(c, X, X)

    def test_product_coupling_cells(self):
        X, Y = two_point(), two_point(d=2.0)
        c = product_coupling(X, Y)
        assert np.allclose(c, 0.25)

    def test_random_coupling_marginals(self):
        rng = np.random.default_rng(7)
        X = mm_space([0.2, 0.3, 0.5], np.array([[0, 1, 1.5], [1, 0, 1.2], [1.5, 1.2, 0]]))
        Y = two_point()
        for _ in range(10):
            c = random_coupling(X, Y, rng)
            assert_couples(c, X, Y)

    def test_unequal_mass_rejected(self):
        with pytest.raises(ValueError):
            product_coupling(two_point(), two_point((1.0, 1.0)))

    @pytest.mark.parametrize("check", [pullback_pair, coupling_from_matrix])
    def test_negative_entries_rejected(self, check):
        # the marginals balance; pullback_pair used to drop the negative
        # cells and build a pair of mass 1.2, whose box value at 1 is 0.6
        X, Y = two_point(), two_point(d=2.0)
        with pytest.raises(ValueError, match="negative"):
            check(X, Y, np.array([[0.6, -0.1], [-0.1, 0.6]]))

    @pytest.mark.parametrize("check", [pullback_pair, coupling_from_matrix])
    def test_wrong_shape_rejected(self, check):
        X, Y = two_point(), two_point(d=2.0)
        with pytest.raises(ValueError, match="does not match"):
            check(X, Y, np.full((2, 3), 1.0 / 6.0))

    @pytest.mark.parametrize("check", [pullback_pair, coupling_from_matrix])
    def test_marginal_off_by_2e_9_rejected(self, check):
        X, Y = two_point(), two_point(d=2.0)
        with pytest.raises(ValueError, match=r"marginals do not match the spaces \(row off 2e-09"):
            check(X, Y, np.array([[0.5 + 2e-9, 0.0], [0.0, 0.5]]))

    @pytest.mark.parametrize("check", [pullback_pair, coupling_from_matrix])
    def test_marginal_off_by_5e_10_accepted(self, check):
        # the one coupling tolerance is 1e-9, for every caller
        X, Y = two_point(), two_point(d=2.0)
        assert check(X, Y, np.array([[0.5 + 5e-10, 0.0], [0.0, 0.5]])) is not None


class TestIndexMaps:
    """Caller-supplied maps and index lists must be integer vectors in range.

    Each call used to truncate a non-integer entry without a word:
    ``box_upper_from_witness(X, X, Witness([0.99, 0.0], [0, 1], 0.0))`` read
    the map as ``[0, 0]`` and returned 0.5.
    """

    X = mm_space([0.5, 0.5], [[0, 1], [1, 0]])
    CALLS = {
        "witness map": lambda X, m: box_upper_from_witness(X, X, Witness(m, [0, 1], 0.0)),
        "witness subset": lambda X, m: Witness([0, 1], m, 0.0).subset,
        "domination map": lambda X, m: DominationCertificate(m, 1.0).p,
        "lipschitz_up_to_check": lambda X, m: lipschitz_up_to_check(X, X, m, 1.0, 0.0),
        "me1_subsequence_diagnostic": lambda X, m: me1_subsequence_diagnostic(
            [[0, 1], m], X.weights, X.dist
        ).matrix,
        "me_lambda_maps": lambda X, m: me_lambda_maps([0, 1], m, X.weights, X.dist, 1.0),
        "project_to_lip1": lambda X, m: project_to_lip1([0.0, 0.0], X.dist, m),
        "parameter_invariance_check": lambda X, m: parameter_invariance_check(X, m, [0.5, 0.5]),
    }

    @pytest.mark.parametrize("bad", [[1.7, 0.2], [0.99, 0.0], [np.nan, 0.0], ["a", "b"]])
    @pytest.mark.parametrize("call", sorted(CALLS))
    def test_non_integer_entries_rejected(self, call, bad):
        with pytest.raises(ValueError, match="integer point indices"):
            self.CALLS[call](self.X, bad)

    @pytest.mark.parametrize("bad", [[-1, 0], [0, 2]])
    @pytest.mark.parametrize("call", sorted(set(CALLS) - {"witness subset", "domination map"}))
    def test_out_of_range_entries_rejected(self, call, bad):
        # -1 wrapped to the last point in all but the two coupling calls,
        # and 2 raised IndexError there
        with pytest.raises(ValueError, match=r"indices outside 0\.\.1"):
            self.CALLS[call](self.X, bad)

    @pytest.mark.parametrize("subset", [[0, 7], [-1, 0]])
    def test_witness_reports_out_of_range_subset(self, subset):
        # 7 raised IndexError and -1 wrapped to the last point
        w = Witness([0, 1], subset, 0.0)
        assert w.violations(self.X, self.X) == ["witness subset has indices outside 0..1"]

    @pytest.mark.parametrize("call", sorted(CALLS))
    def test_not_a_vector_rejected(self, call):
        # project_to_lip1 returned a 2x2 matrix, both certificates were built,
        # and parameter_invariance_check failed inside numpy's np.ix_
        with pytest.raises(ValueError, match=r"has shape \(1, 2\), expected \(2,\)"):
            self.CALLS[call](self.X, [[0, 1]])

    # a retained subset and an anchor take any number of points; the length
    # of a domination map is a violation of the certificate
    ANY_LENGTH = {"witness subset", "domination map", "project_to_lip1"}

    @pytest.mark.parametrize("call", sorted(CALLS))
    @pytest.mark.parametrize("m", [[1], [1, 0, 0]])
    def test_wrong_length_rejected(self, call, m):
        if call in self.ANY_LENGTH:
            self.CALLS[call](self.X, m)
        else:
            with pytest.raises(ValueError, match="has shape"):
                self.CALLS[call](self.X, m)

    @pytest.mark.parametrize("m", [[1], [1, 0, 0]])
    def test_certificates_report_wrong_length(self, m):
        want = f"map has shape ({len(m)},), expected (2,)"
        assert Witness(m, [0, 1], 0.0).violations(self.X, self.X) == ["witness " + want]
        assert DominationCertificate(m, 1.0).violations(self.X, self.X) == ["domination " + want]

    @pytest.mark.parametrize("call", sorted(CALLS))
    def test_whole_floats_read_as_integers(self, call):
        got = self.CALLS[call](self.X, np.array([1.0, 0.0]))
        want = self.CALLS[call](self.X, [1, 0])
        assert np.array_equal(got, want)


class TestPullback:
    def test_diagonal_pullback_identifies_metrics(self):
        X = mm_space([0.2, 0.8], [[0, 1.3], [1.3, 0]])
        pair = pullback_pair(X, X, diagonal_coupling(X))
        assert np.array_equal(pair.d1, pair.d2)

    def test_product_pullback_has_four_quarter_cells(self):
        X, Y = two_point(), two_point(d=2.0)
        pair = pullback_pair(X, Y, product_coupling(X, Y))
        assert pair.n == 4
        assert np.allclose(pair.weights, 0.25)
        # cross-cell rows read the source metrics
        assert pair.d1[0, 2] == 1.0 and pair.d2[0, 1] == 2.0

    def test_zero_cells_absent(self):
        X, Y = two_point(), two_point(d=2.0)
        pair = pullback_pair(X, Y, np.diag([0.5, 0.5]))
        assert pair.n == 2
        assert pair.cells == ((0, 0), (1, 1))

    def test_marginal_mismatch_rejected(self):
        X, Y = two_point(), two_point(d=2.0)
        bad = diagonal_coupling(two_point((0.4, 0.6)))
        with pytest.raises(ValueError):
            pullback_pair(X, Y, bad)


class TestSemidistPair:
    D = [[0.0, 1.0], [1.0, 0.0]]
    # fault named by a case -> the message, worded as validate words it
    WORDING = {
        "d2 is not symmetric": "d2 is asymmetric at (0, 1): |d_ij - d_ji| = 1",
        "d1 has nonzero diagonal": "d1 diagonal is not zero (max 0.3)",
        "d2 has negative entries": "d2 contains negative entries",
        "negative cell mass": "negative weight at index 0",
        "weights must be a vector": "weights has shape (",
    }

    @pytest.mark.parametrize(
        "weights, d1, d2, fault",
        [
            ([0.5, 0.5], [[0.0, 1.0]], D, "d1 has shape (1, 2)"),
            ([0.5, 0.5], D, [[0.0, 1.0], [2.0, 0.0]], "d2 is not symmetric"),
            ([0.5, 0.5], [[0.3, 1.0], [1.0, 0.0]], D, "d1 has nonzero diagonal"),
            ([0.5, 0.5], D, [[0.0, -1.0], [-1.0, 0.0]], "d2 has negative entries"),
            ([-0.5, 1.5], D, D, "negative cell mass"),
            (0.5, [[0.0]], [[0.0]], "weights must be a vector"),  # raised TypeError
            ([[0.5]], [[0.0]], [[0.0]], "weights must be a vector"),  # was accepted
        ],
    )
    def test_malformed_pair_reported(self, weights, d1, d2, fault):
        with pytest.raises(ValueError, match=re.escape(self.WORDING.get(fault, fault))):
            SemiDistancePair(weights, d1, d2)

    def test_directly_built_pair_is_checked(self):
        # box_pair answered 0.0, and hli_lambda exact0 answered inf tagged
        # exact, for these pairs built without semidist_pair
        with pytest.raises(ValueError, match="negative weight at index 1"):
            box_pair(SemiDistancePair([0.5, -0.5], self.D, self.D), 1.0)
        inf = [[0.0, np.inf], [np.inf, 0.0]]
        with pytest.raises(ValueError, match="d1 contains non-finite entries"):
            hli_lambda(SemiDistancePair([1.0, 1.0], inf, self.D), 0.0)
        assert SemiDistancePair([1.0, 1.0], self.D, self.D).n == 2

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_weights_rejected(self, bad):
        # [1, nan] was accepted and box_pair then returned 0.0
        with pytest.raises(ValueError, match="weights contain non-finite entries"):
            semidist_pair([1.0, bad], self.D, self.D)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", ["d1", "d2"])
    def test_non_finite_distances_rejected(self, bad, name):
        # a NaN off-diagonal made box_pair raise InternalInvariantError
        # and hli_lambda exact0 return nan
        d = [[0.0, bad], [bad, 0.0]]
        d1, d2 = (d, self.D) if name == "d1" else (self.D, d)
        with pytest.raises(ValueError, match=f"{name} contains non-finite entries"):
            semidist_pair([0.5, 0.5], d1, d2)


class TestMetricClosure:
    def test_closure_fixes_metrics(self):
        X = mm_space([1, 1, 1], [[0, 1, 2], [1, 0, 1], [2, 1, 0]])
        assert np.allclose(metric_closure(X.dist), X.dist)

    def test_closure_shortcuts_long_edges(self):
        d = np.array([[0.0, 1.0, 5.0], [1.0, 0.0, 1.0], [5.0, 1.0, 0.0]])
        out = metric_closure(d)
        assert out[0, 2] == 2.0


class TestIO:
    def test_roundtrip_identity(self, tmp_path):
        X = mm_space(
            [1 / 3, 2 / 7, 0.123456789012345678],
            np.array([[0, 1.1, 1.9], [1.1, 0, 1.3], [1.9, 1.3, 0]]) * np.pi / 3,
            labels=["a", "b", "c"],
        )
        p = tmp_path / "space.json"
        write_space(p, X)
        back = read_space(p)
        assert back.labels == X.labels
        assert np.array_equal(back.weights, X.weights) and np.array_equal(back.dist, X.dist)

    def test_negative_weight_fails_load(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"labels": ["a"], "weights": [-1.0], "dist": [[0.0]]}))
        with pytest.raises(InvalidSpaceError):
            read_space(p)

    def test_missing_dist_row_is_parse_error(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text(
            json.dumps({"labels": ["a", "b"], "weights": [1, 1], "dist": [[0, 1]]})
        )
        with pytest.raises(SpaceFormatError):
            read_space(p)

    def test_not_json_is_parse_error(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{nope")
        with pytest.raises(SpaceFormatError):
            read_space(p)

    def test_missing_key_is_parse_error(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"labels": ["a"], "weights": [1.0]}))
        with pytest.raises(SpaceFormatError):
            read_space(p)
