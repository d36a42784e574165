"""The input contract: one rule per kind of input at every entry point.

Every public callable of the ``mmdist`` namespace that takes a weight vector
(``weights``, ``mu``, ``nu``, ``cell_masses``), a matrix (``dist``, ``d1``,
``d2``, ``dY``), a function vector (``f``, ``g``), a point map or index
list (``p``, ``subset``, ``fmap``, ``gmap``, ``maps``, ``anchor``,
``cell_points``) or a nonnegative scalar (``lam``, ``eps``, ``floor``, ``c``)
is a row of ``CONTRACT``, and a completeness check keeps it so.  Each bad input of each row raises
``ValueError`` whose message names that input.  Whole-number parameters meet
one rule too.  The frozen corpus under ``data/validate_corpus`` pins the
report of ``mmdist validate`` on malformed space files.
"""

import contextlib
import inspect
import io
import json
import re
from functools import partial
from pathlib import Path

import numpy as np
import pytest

import mmdist
from mmdist import (
    DominationCertificate,
    FiniteMMSpace,
    HliResult,
    Lip1Set,
    SemiDistancePair,
    Witness,
    box_distance,
    box_pair,
    empirical_convergence_experiment,
    exact_mu_r,
    hli_lambda,
    lip_point_distance,
    lipschitz_up_to_check,
    me1_subsequence_diagnostic,
    me_lambda,
    me_lambda_maps,
    mm_space,
    observable_distance,
    parameter_invariance_check,
    project_to_lip1,
    prokhorov,
    reconstruction_check,
    sample_mu_r,
    semidist_pair,
    validate,
    witness_search,
)
from mmdist.cli import main
from mmdist.properties import run_suite

WEIGHT_NAMES = {"weights", "mu", "nu", "cell_masses"}
FUNCTION_NAMES = {"f", "g"}
SCALAR_NAMES = {"lam", "eps", "floor", "c"}
INDEX_NAMES = {"p", "subset", "fmap", "gmap", "maps", "anchor", "cell_points"}
MATRIX_NAMES = {"dist", "d1", "d2", "dY"}
INPUT_NAMES = WEIGHT_NAMES | FUNCTION_NAMES | SCALAR_NAMES | INDEX_NAMES | MATRIX_NAMES
#: records a solver returns, echoing a lambda that solver checked; not entry points
RECORDS = {HliResult}

D = [[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]]
W = [0.5, 0.25, 0.25]
X = mm_space(W, D)
P = semidist_pair(W, D, D)


def _reported(weights, dist):
    """``validate`` reports rather than raises; its report as a ValueError."""
    report = validate(("a", "b", "c"), weights, dist)
    if not report.ok:
        raise ValueError("; ".join(report.violations))


def _certified(cert, *spaces):
    """A certificate reports rather than raises; its violations for ``spaces`` as a ValueError."""
    v = cert.violations(*spaces)
    if v:
        raise ValueError("; ".join(v))


# entry point -> (call taking the inputs by name, valid inputs, what each
# input is called in messages, and where a too-short vector is not reported
# under its own name, the matrix, function or map whose shape it sets, or
# None for an index list of any length; for a target matrix, which maps
# index, the map a square matrix too small for them is reported under)
CONTRACT = {
    FiniteMMSpace: (partial(FiniteMMSpace, ("a", "b", "c")), {"weights": W, "dist": D}, {"weights": "weight", "dist": "dist"}, {}),
    validate: (_reported, {"weights": W, "dist": D}, {"weights": "weight", "dist": "dist"}, {}),
    mm_space: (mm_space, {"weights": W, "dist": D}, {"weights": "weight", "dist": "dist"}, {"weights": "dist"}),
    SemiDistancePair: (
        SemiDistancePair, {"weights": W, "d1": D, "d2": D}, {"weights": "weight", "d1": "d1", "d2": "d2"},
        {"weights": "d1"},
    ),
    semidist_pair: (
        semidist_pair, {"weights": W, "d1": D, "d2": D}, {"weights": "weight", "d1": "d1", "d2": "d2"},
        {"weights": "d1"},
    ),
    Lip1Set: (Lip1Set, {"dist": D, "weights": W}, {"dist": "dist", "weights": "weight"}, {"weights": "dist"}),
    Lip1Set.contains: (lambda f: Lip1Set(D, W).contains(f), {"f": [0.0, 1.0, 2.0]}, {"f": "f"}, {}),
    # a NaN entry of f made every entry NaN
    project_to_lip1: (
        project_to_lip1, {"f": [0.0, 1.0, 3.0], "dist": D, "anchor": [0, 1, 2]},
        {"f": "f", "dist": "dist", "anchor": "anchor"}, {"f": "dist", "anchor": None},
    ),
    me_lambda: (
        me_lambda, {"f": [0.0, 1.0, 3.0], "g": [0.0, 0.0, 0.0], "weights": W, "lam": 1.0},
        {"f": "f", "g": "g", "weights": "weight", "lam": "lambda"}, {"weights": "f has shape"},
    ),
    # dY was never checked: an asymmetric one was read, a non-square one was
    # read where the maps' indices fell, a NaN in it was called a NaN in f,
    # and a scalar raised TypeError
    me_lambda_maps: (
        me_lambda_maps, {"fmap": [0, 1, 2], "gmap": [2, 1, 0], "weights": W, "dY": D, "lam": 1.0},
        {"fmap": "fmap", "gmap": "gmap", "weights": "weight", "dY": "dY", "lam": "lambda"},
        {"weights": "fmap has shape", "dY": re.escape("fmap has indices outside 0..1")},
    ),
    # a map over three points with no weights gave a 1x1 zero matrix
    me1_subsequence_diagnostic: (
        me1_subsequence_diagnostic, {"maps": [[0, 1, 2], [2, 1, 0]], "weights": W, "dY": D},
        {"maps": "maps[0]", "weights": "weight", "dY": "dY"},
        {"weights": r"maps\[0\] has shape", "dY": re.escape("maps[0] has indices outside 0..1")},
    ),
    prokhorov: (
        lambda mu, nu: prokhorov(X, mu, nu), {"mu": W, "nu": W[::-1]}, {"mu": "mu weight", "nu": "nu weight"}, {},
    ),
    # a 2-D cell_points failed inside np.ix_ ("Cross index must be 1 dimensional")
    parameter_invariance_check: (
        partial(parameter_invariance_check, X), {"cell_points": [0, 1, 2], "cell_masses": W},
        {"cell_points": "cell_points", "cell_masses": "cell weight"}, {"cell_points": "cell weights"},
    ),
    box_pair: (partial(box_pair, P), {"lam": 1.0}, {"lam": "lambda"}, {}),
    box_distance: (partial(box_distance, X, X), {"lam": 1.0}, {"lam": "lambda"}, {}),
    hli_lambda: (partial(hli_lambda, P, samples=2), {"lam": 1.0}, {"lam": "lambda"}, {}),
    observable_distance: (partial(observable_distance, X, X, samples=2), {"lam": 1.0}, {"lam": "lambda"}, {}),
    lip_point_distance: (
        lambda f, lam, floor: lip_point_distance(f, Lip1Set(D, W), lam, floor=floor),
        {"f": [0.0, 1.0, 3.0], "lam": 1.0, "floor": 0.0}, {"f": "f", "lam": "lambda", "floor": "floor"}, {},
    ),
    lipschitz_up_to_check: (
        partial(lipschitz_up_to_check, X, X), {"fmap": [0, 1, 2], "lam": 1.0, "eps": 0.1},
        {"fmap": "fmap", "lam": "lambda", "eps": "eps"}, {},
    ),
    # a NaN eps or c passed the certificate's own check (violations returned []),
    # and a 2-D map was built, its violations saying "map length does not match"
    Witness: (
        lambda p, subset, eps: _certified(Witness(p, subset, eps), X, X),
        {"p": [0, 1, 2], "subset": [0, 1, 2], "eps": 0.0},
        {"p": "witness map", "subset": "witness subset", "eps": "eps"}, {"subset": None},
    ),
    DominationCertificate: (
        lambda p, c: _certified(DominationCertificate(p, c), X, X), {"p": [0, 1, 2], "c": 1.0},
        {"p": "domination map", "c": "c"}, {},
    ),
}

BAD_WEIGHTS = {
    "negative": [0.5, -0.25, 0.25],
    "nan": [0.5, np.nan, 0.25],
    "inf": [0.5, np.inf, 0.25],
    "short": [0.5, 0.5],
    "not a vector": [W],
}
BAD_MATRICES = {
    "negative": [[0.0, -1.0, 2.0], [-1.0, 0.0, 1.0], [2.0, 1.0, 0.0]],
    "nan": [[0.0, np.nan, 2.0], [np.nan, 0.0, 1.0], [2.0, 1.0, 0.0]],
    "inf": [[0.0, np.inf, 2.0], [np.inf, 0.0, 1.0], [2.0, 1.0, 0.0]],
    "wrong shape": [[0.0, 1.0], [1.0, 0.0]],
    "not square": [[0.0, 1.0, 2.0], [1.0, 0.0, 1.0]],
    "scalar": 0.0,
    "asymmetric": [[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.5, 1.0, 0.0]],
}
BAD_SCALARS = {"nan": np.nan, "inf": np.inf, "negative": -1.0}


def _bad_inputs(param, valid, name, short_name):
    """``(kind, bad value, regex its message must match)`` for one input."""
    if param in SCALAR_NAMES:
        for kind, bad in BAD_SCALARS.items():
            yield kind, bad, "^" + re.escape(f"{name} must be finite and nonnegative, got {bad}") + "$"
    elif param == "maps":  # a list of index vectors: each bad map in first place
        for kind, bad, named in _bad_inputs("p", valid[0], name, short_name):
            yield kind, [bad, *valid[1:]], named
    elif param in INDEX_NAMES:
        yield "non-integer", [valid[0] + 0.5, *valid[1:]], re.escape(f"{name} must hold integer point indices")
        yield "not a vector", [valid], re.escape(f"{name} has shape")
        yield "out of range", [-1, *valid[1:]], re.escape(f"{name} has indices outside 0..2")
        if short_name is not None:
            yield "short", valid[:-1], re.escape(f"{short_name} has shape")
    elif param in FUNCTION_NAMES:
        yield "short", valid[:-1], f"{short_name} has shape"
        yield "not a vector", [valid], f"{name} has shape"
        yield "nan", [valid[0], np.nan, *valid[2:]], f"{name} contains non-finite entries"
    else:
        for kind, bad in (BAD_WEIGHTS if param in WEIGHT_NAMES else BAD_MATRICES).items():
            yield kind, bad, short_name if kind in ("short", "wrong shape") else name


def _cases():
    for entry, (_, inputs, names, short) in CONTRACT.items():
        for param, valid in inputs.items():
            for kind, bad, named in _bad_inputs(param, valid, names[param], short.get(param, names[param])):
                yield pytest.param(entry, param, bad, named, id=f"{entry.__qualname__}-{param}-{kind}")


@pytest.mark.parametrize("entry, param, bad, named", list(_cases()))
def test_bad_input_raises_value_error_naming_it(entry, param, bad, named):
    call, inputs, _, _ = CONTRACT[entry]
    with pytest.raises(ValueError, match=named):
        call(**{**inputs, param: bad})


@pytest.mark.parametrize("entry", list(CONTRACT), ids=lambda e: e.__qualname__)
def test_valid_inputs_pass(entry):
    call, inputs, _, _ = CONTRACT[entry]
    call(**inputs)


def test_every_entry_point_taking_weights_or_a_matrix_is_in_the_table():
    missing = {}
    for name, obj in vars(mmdist).items():
        if name.startswith("_") or inspect.ismodule(obj) or not callable(obj) or obj in RECORDS:
            continue
        try:
            params = INPUT_NAMES & set(inspect.signature(obj).parameters)
        except ValueError:  # exception classes have no signature
            continue
        if params and (obj not in CONTRACT or params != set(CONTRACT[obj][1])):
            missing[name] = sorted(params)
    assert not missing, f"add these entry points and inputs to CONTRACT: {missing}"


# ---------------------------------------------------------------------------
# inputs that were accepted without a word


def test_me1_checks_target_matrix_without_maps():
    # returned an empty diagnostic (the table's rows pass two maps)
    with pytest.raises(ValueError, match=re.escape("dY has shape (), expected (1, 1)")):
        me1_subsequence_diagnostic([], [], 2.0)


def test_me_lambda_negative_weight_rejected():
    # returned 0.0
    with pytest.raises(ValueError, match="negative weight at index 1"):
        me_lambda([0.0, 5.0], [0.0, 0.0], [1.0, -1.0], 1.0)


@pytest.mark.parametrize("bad, message", [(-0.25, "negative cell weight"), (np.nan, "non-finite")])
def test_parameter_invariance_bad_cell_mass_rejected(bad, message):
    # returned False
    Y = mm_space([0.5, 0.5], [[0, 1], [1, 0]])
    with pytest.raises(ValueError, match=message):
        parameter_invariance_check(Y, [0, 1, 1], [0.5, 0.75, bad])


@pytest.mark.parametrize("f", [[0.0], [0.0, 1.0, 2.0, 3.0]])
def test_lip1set_contains_checks_the_length(f):
    # the short vector raised IndexError, the long one was called 1-Lipschitz
    with pytest.raises(ValueError, match=r"f has shape \(\d,\), expected \(3,\)"):
        Lip1Set(D, [1.0, 1.0, 1.0]).contains(f)


@pytest.mark.parametrize(
    "dist, weights, message",
    [
        ([[0.0, 1.0], [1.0, 0.0]], [1.0, np.inf], "weights contain non-finite entries"),
        ([[0.0, 1.0], [3.0, 0.0]], [1.0, 1.0], "dist is asymmetric at"),
        ([[0.0, np.inf], [np.inf, 0.0]], [1.0, 1.0], "dist contains non-finite entries"),
    ],
)
def test_lip1set_bad_input_rejected(dist, weights, message):
    # all three sets were built; from f = [0, 5] at lambda 1, lip_point_distance
    # then answered 1.0 on the asymmetric dist and 0.0 on the inf dist
    with pytest.raises(ValueError, match=message):
        Lip1Set(dist, weights)


# ---------------------------------------------------------------------------
# the whole-number rule


@pytest.mark.parametrize(
    "call, message",
    [
        # the first five raised TypeError
        pytest.param(lambda: exact_mu_r(X, 2.5), "r must be at least 1 and a whole number, got 2.5", id="exact_mu_r-r"),
        pytest.param(
            lambda: sample_mu_r(X, 2, 1.5), "count must be nonnegative and a whole number, got 1.5",
            id="sample_mu_r-count",
        ),
        pytest.param(
            lambda: reconstruction_check(X, X, 2.5), "R must be at least 1 and a whole number, got 2.5",
            id="reconstruction_check-R",
        ),
        pytest.param(
            lambda: hli_lambda(semidist_pair(W, D, D), 1.0, "sampled", samples=2.5),
            "samples must be nonnegative and a whole number, got 2.5", id="hli_lambda-samples",
        ),
        pytest.param(
            lambda: observable_distance(X, X, 1.0, "sampled", samples=2.5),
            "samples must be nonnegative and a whole number, got 2.5", id="observable_distance-samples",
        ),
        # a bool is an Integral: True drew one sample, computed order 1 and ran seed 1
        pytest.param(
            lambda: hli_lambda(semidist_pair(W, D, D), 1.0, samples=True),
            "samples must be nonnegative and a whole number, got True", id="hli_lambda-samples-bool",
        ),
        pytest.param(lambda: exact_mu_r(X, True), "r must be at least 1 and a whole number, got True",
                     id="exact_mu_r-r-bool"),
        pytest.param(lambda: sample_mu_r(X, 2, False), "count must be nonnegative and a whole number, got False",
                     id="sample_mu_r-count-bool"),
        # sampled 10 points
        pytest.param(
            lambda: empirical_convergence_experiment(X, [10.5]),
            "sample size must be at least 1 and a whole number, got 10.5", id="empirical_convergence_experiment-N",
        ),
        # refused above 2 cells
        pytest.param(
            lambda: box_distance(X, X, 1.0, max_cells=2.5), "max_cells must be at least 1 and a whole number, got 2.5",
            id="box_distance-max_cells",
        ),
        # every seed, whatever the mode: 1.5 raised TypeError, -1 numpy's
        # message without the name, in the modes that draw from the seed, and
        # True ran seed 1
        *(
            pytest.param(partial(call, seed), f"seed must be nonnegative and a whole number, got {seed}",
                         id=f"{name}-seed-{seed}")
            for name, call in {
                "box_distance-heuristic": lambda seed: box_distance(X, X, 1.0, "heuristic", seed=seed),
                "box_distance-exact": lambda seed: box_distance(X, X, 1.0, seed=seed),
                "hli_lambda": lambda seed: hli_lambda(semidist_pair(W, D, D), 0.0, seed=seed),
                "observable_distance": lambda seed: observable_distance(X, X, 1.0, samples=2, seed=seed),
                "sample_mu_r": lambda seed: sample_mu_r(X, 2, 4, seed=seed),
                "witness_search": lambda seed: witness_search(X, X, seed=seed),
                "empirical_convergence_experiment": lambda seed: empirical_convergence_experiment(X, [2], seed=seed),
                "run_suite": lambda seed: run_suite(seed=seed, names=["scale-roundtrip"]),
            }.items()
            for seed in (1.5, -1, True)
        ),
    ],
)
def test_non_whole_parameter_raises_value_error_naming_it(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda: box_distance(X, X, 1.0, "exakt"), id="box_distance"),
        pytest.param(lambda: hli_lambda(P, 1.0, "exakt"), id="hli_lambda"),
        pytest.param(lambda: observable_distance(X, X, 1.0, "exakt"), id="observable_distance"),
    ],
)
def test_unknown_mode_refused(call):
    with pytest.raises(ValueError, match="^" + re.escape("unknown mode 'exakt'") + "$"):
        call()


def test_empty_property_selection_rejected():
    # ran no property and reported a pass
    with pytest.raises(ValueError, match="property selection"):
        run_suite(names=[])


def test_overflowing_samples_scale_refused():
    # 1e308 is finite, but times a trial count it overflowed to inf, and
    # int(round(inf)) raised OverflowError after the properties before it ran
    with pytest.raises(ValueError, match="samples scale"):
        run_suite(samples=1e308)


def test_one_pass_property_selection_runs_its_properties():
    # the unknown-name check used up an iterator, so no property ran and the report passed
    report = run_suite(names=iter(["scale-roundtrip"]), samples=0)
    assert [p["name"] for p in report["properties"]] == ["scale-roundtrip"]


# ---------------------------------------------------------------------------
# the frozen validate corpus

CORPUS = Path(__file__).parent / "data" / "validate_corpus"
EXPECTED = json.loads((Path(__file__).parent / "data" / "validate_expected.json").read_text())


def test_corpus_is_complete():
    assert sorted(p.stem for p in CORPUS.glob("*.json")) == sorted(EXPECTED)


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_validate_report_is_frozen(name):
    path = CORPUS / f"{name}.json"
    want = EXPECTED[name]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["validate", str(path)])
    assert code == want["exit"]
    assert (json.loads(out.getvalue())["result"] if out.getvalue() else None) == want["result"]
    assert err.getvalue().replace(str(path), "<path>") == want["stderr"]
    doc = json.loads(path.read_text())
    try:
        weights, dist = np.array(doc["weights"], float), np.array(doc["dist"], float)
    except ValueError:  # ragged or non-numeric: only the file reader sees it
        assert want["validate"] is None
        return
    assert list(validate(doc["labels"], weights, dist).violations) == want["validate"]
