"""Frozen certificates of ``box_distance``: cells, retained mass and coupling.

The expected reports were produced by the solver before its certificate code
was reorganised; any change to the clique sweep, the flow plan or the
heuristic scoring that alters a certificate shows here, even when the value
stays the same.  An exact certificate is the first witness the sweep finds,
so ``exact lam=1`` and both ``unequal mass`` cases were frozen again when
the solve stopped taking the heaviest clique, lexicographically smallest
among ties; their values are those of the lexicographic certificates, and
they keep the same mass.  Every frozen certificate meets the box-certificate
rule (``box._certificate_violations``), and a corrupted copy breaks it in
exactly the way it was corrupted.  The unequal-mass cases, with either space heavier, freeze
the scale-and-gap rule of ``box_distance``, ``observable_distance`` and
``box_upper_from_witness`` in the same way.  Two of the seeded pairs at
scale were frozen before the clique sweep pruned by its flow bound, and the
8x8 pair at lam = 0 before the sweep ran on integer bitsets; their tests also
count the maximal cliques the sweeps yield.
"""

from dataclasses import replace

import numpy as np
import pytest

from mmdist import (
    InternalInvariantError,
    Witness,
    box,
    box_distance,
    box_upper_from_witness,
    mm_space,
    observable_distance,
)
from mmdist.box import BoxResult
from mmdist.instances import random_space

D3A = [[0, 1.0, 1.5], [1.0, 0, 1.25], [1.5, 1.25, 0]]
D3B = [[0, 1.75, 1.0], [1.75, 0, 1.5], [1.0, 1.5, 0]]
D4A = [[0, 1.0, 1.5, 1.25], [1.0, 0, 1.75, 1.5], [1.5, 1.75, 0, 1.0], [1.25, 1.5, 1.0, 0]]
D4B = [[0, 1.5, 1.0, 2.0], [1.5, 0, 1.25, 1.0], [1.0, 1.25, 0, 1.75], [2.0, 1.0, 1.75, 0]]

CASES = {
    "exact lam=0": (
        ([0.25, 0.25, 0.5], D3A), ([0.5, 0.25, 0.25], D3B), 0.0, "exact",
        {
            "value": 0.5,
            "mode": "exact",
            "certificate": {
                "cells": [[0, 1], [1, 2], [2, 0]],
                "retained_mass": 1.0,
                "pair_value": 0.5,
                "mass_gap": 0.0,
                "coupling": [[0.0, 0.25, 0.0], [0.0, 0.0, 0.25], [0.5, 0.0, 0.0]],
            },
        },
    ),
    "exact lam=1": (
        ([0.25, 0.25, 0.5], D3A), ([0.5, 0.25, 0.25], D3B), 1.0, "exact",
        {
            "value": 0.25,
            "mode": "exact",
            "certificate": {
                "cells": [[0, 1], [2, 0]],
                "retained_mass": 0.75,
                "pair_value": 0.25,
                "mass_gap": 0.0,
                "coupling": [[0.0, 0.25, 0.0], [0.0, 0.0, 0.25], [0.5, 0.0, 0.0]],
            },
        },
    ),
    "unequal mass": (
        ([0.25, 0.25, 0.5], D3A), ([0.75, 0.5, 0.25], D3B), 1.0, "exact",
        {
            "value": 0.75,
            "mode": "exact",
            "certificate": {
                "cells": [[0, 1], [2, 0]],
                "retained_mass": 0.75,
                "pair_value": 0.25,
                "mass_gap": 0.5,
                "coupling": [
                    [0.0, 0.25, 0.0],
                    [0.0, 0.08333333333333331, 0.16666666666666666],
                    [0.5, 0.0, 0.0],
                ],
            },
        },
    ),
    "unequal mass, first heavier": (
        ([0.75, 0.5, 0.25], D3B), ([0.25, 0.25, 0.5], D3A), 1.0, "exact",
        {
            "value": 0.75,
            "mode": "exact",
            "certificate": {
                "cells": [[1, 0], [0, 2]],
                "retained_mass": 0.75,
                "pair_value": 0.25,
                "mass_gap": 0.5,
                "coupling": [
                    [0.0, 0.0, 0.5],
                    [0.25, 0.08333333333333331, 0.0],
                    [0.0, 0.16666666666666666, 0.0],
                ],
            },
        },
    ),
    "zero-weight point": (
        ([0.5, 0.0, 0.5], D3A), ([0.5, 0.25, 0.25], D3B), 1.0, "exact",
        {
            "value": 0.25,
            "mode": "exact",
            "certificate": {
                "cells": [[0, 0], [2, 1]],
                "retained_mass": 0.75,
                "pair_value": 0.25,
                "mass_gap": 0.0,
                "coupling": [[0.5, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.25, 0.25]],
            },
        },
    ),
    "heuristic 4x4": (
        ([0.1, 0.2, 0.3, 0.4], D4A), ([0.25, 0.25, 0.25, 0.25], D4B), 1.0, "heuristic",
        {
            "value": 0.25,
            "mode": "heuristic-upper-bound",
            "certificate": {
                "cells": [[0, 1], [1, 3], [2, 0], [3, 2]],
                "retained_mass": 0.8,
                "pair_value": 0.25,
                "mass_gap": 0.0,
                "coupling": [
                    [0.0, 0.09999999999999998, 0.0, 0.0],
                    [0.0, 0.0, 0.0, 0.2],
                    [0.25, 0.0, 0.0, 0.04999999999999999],
                    [0.0, 0.15000000000000002, 0.25, 0.0],
                ],
            },
        },
    ),
    "heuristic unequal mass": (
        ([0.1, 0.2, 0.3, 0.4], D4A), ([0.3, 0.3, 0.3, 0.3], D4B), 1.0, "heuristic",
        {
            "value": 0.44999999999999996,
            "mode": "heuristic-upper-bound",
            "certificate": {
                "cells": [[0, 1], [1, 3], [2, 0], [3, 2]],
                "retained_mass": 0.8,
                "pair_value": 0.25,
                "mass_gap": 0.19999999999999996,
                "coupling": [
                    [0.0, 0.09999999999999998, 0.0, 0.0],
                    [0.0, 0.0, 0.0, 0.2],
                    [0.25, 0.0, 0.0, 0.04999999999999999],
                    [0.0, 0.15000000000000002, 0.25, 0.0],
                ],
            },
        },
    ),
    "heuristic unequal mass, first heavier": (
        ([0.3, 0.3, 0.3, 0.3], D4B), ([0.1, 0.2, 0.3, 0.4], D4A), 1.0, "heuristic",
        {
            "value": 0.44999999999999996,
            "mode": "heuristic-upper-bound",
            "certificate": {
                "cells": [[1, 0], [3, 1], [0, 2], [2, 3]],
                "retained_mass": 0.8,
                "pair_value": 0.25,
                "mass_gap": 0.19999999999999996,
                "coupling": [
                    [0.0, 0.0, 0.25, 0.0],
                    [0.09999999999999998, 0.0, 0.0, 0.15000000000000002],
                    [0.0, 0.0, 0.0, 0.25],
                    [0.0, 0.2, 0.04999999999999999, 0.0],
                ],
            },
        },
    ),
}


@pytest.mark.parametrize("name", list(CASES))
def test_certificate_is_frozen(name):
    x, y, lam, mode, expected = CASES[name]
    res = box_distance(mm_space(*x), mm_space(*y), lam, mode, seed=0)
    assert res.to_jsonable() == expected


#: seeded pairs ``random_space(default_rng(5), min_points=n, max_points=n)``,
#: drawn twice: (n, lam, report)
SCALE_CASES = {
    "7x7 lam=0": (
        7, 0.0,
        {
            "value": 2.3099999999999996,
            "mode": "exact",
            "certificate": {
                "cells": [
                    [0, 3], [0, 5], [1, 0], [1, 2], [2, 2], [2, 5], [2, 6], [3, 1], [3, 6],
                    [4, 0], [5, 1], [6, 2], [6, 4],
                ],
                "retained_mass": 3.8000000000000003,
                "pair_value": 1.41,
                "mass_gap": 0.8999999999999999,
                "coupling": [
                    [0.0, 0.0, 0.0, 0.5659574468085107, 0.0, 0.1340425531914894, 0.0],
                    [0.07340425531914896, 0.0, 0.07659574468085106, 0.0, 0.0, 0.0, 0.0],
                    [0.0, 0.0, 0.15531914893617027, 0.0, 0.0, 0.06808510638297871, 0.676595744680851],
                    [0.0, 0.25851063829787235, 0.0, 0.0, 0.0, 0.0, 0.09148936170212768],
                    [0.25, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
                    [0.0, 0.55, 0.0, 0.0, 0.0, 0.0, 0.0],
                    [0.0, 0.0, 0.5765957446808511, 0.0, 0.32340425531914896, 0.0, 0.0],
                ],
            },
        },
    ),
    "8x8 lam=0": (
        8, 0.0,
        {
            "value": 1.780000000000001,
            "mode": "exact",
            "certificate": {
                "cells": [
                    [3, 0], [1, 1], [6, 1], [3, 2], [4, 2], [0, 3], [2, 3], [5, 4], [1, 5], [2, 5],
                    [7, 5], [5, 6], [7, 6], [4, 7],
                ],
                "retained_mass": 3.0,
                "pair_value": 1.28,
                "mass_gap": 0.5000000000000009,
                "coupling": [
                    [0.0, 0.0, 0.0, 0.042857142857142844, 0.0, 0.0, 0.0, 0.0],
                    [0.0, 0.32857142857142874, 0.0, 0.0, 0.0, 0.14285714285714257, 0.0, 0.0],
                    [0.0, 0.0, 0.0, 0.15714285714285717, 0.0, 0.14285714285714277, 0.0, 0.0],
                    [0.35000000000000003, 0.0, 0.03571428571428559, 0.0, 0.0, 0.0, 0.0, 0.0],
                    [0.0, 0.0, 0.014285714285714415, 0.0, 0.0, 0.0, 0.0, 0.7999999999999996],
                    [0.0, 0.0, 0.0, 0.0, 0.2, 0.0, 0.014285714285714207, 0.0],
                    [0.0, 0.4714285714285713, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
                    [0.0, 0.0, 0.0, 0.0, 0.0, 0.11428571428571466, 0.18571428571428528, 0.0],
                ],
            },
        },
    ),
    "8x8 lam=1": (
        8, 1.0,
        {
            "value": 1.110000000000001,
            "mode": "exact",
            "certificate": {
                "cells": [[5, 0], [4, 1], [6, 3], [2, 4], [1, 5], [7, 6], [3, 7]],
                "retained_mass": 2.4,
                "pair_value": 0.6100000000000001,
                "mass_gap": 0.5000000000000009,
                "coupling": [
                    [0.042857142857142844, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
                    [0.07142857142857129, 0.0, 0.0, 0.0, 0.0, 0.4, 0.0, 0.0],
                    [0.021428571428571686, 0.0, 0.05, 0.0, 0.2, 0.0, 0.0, 0.028571428571428234],
                    [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.3857142857142856],
                    [0.0, 0.8, 0.0, 0.0, 0.0, 0.0, 0.0, 0.014285714285714013],
                    [0.21428571428571422, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
                    [0.0, 0.0, 0.0, 0.2, 0.0, 0.0, 0.0, 0.2714285714285713],
                    [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.2, 0.09999999999999992],
                ],
            },
        },
    ),
}


@pytest.mark.parametrize("name", list(SCALE_CASES))
def test_certificate_at_scale_is_frozen(name, monkeypatch):
    n, lam, expected = SCALE_CASES[name]
    swept = []
    sweep = box._maximal_cliques

    def counted(*args, **kwargs):
        for clique in sweep(*args, **kwargs):
            swept.append(clique)
            yield clique

    monkeypatch.setattr(box, "_maximal_cliques", counted)
    rng = np.random.default_rng(5)
    X = random_space(rng, min_points=n, max_points=n)
    Y = random_space(rng, min_points=n, max_points=n)
    assert box_distance(X, Y, lam).to_jsonable() == expected
    # without the flow-bound cut the sweeps yield 270,266 (7x7), 2,133,486 (8x8 at
    # lam=0) and 65,445 (8x8 at lam=1) cliques
    assert len(swept) < 10_000


def _frozen(report) -> BoxResult:
    """A frozen report as the result it was written from."""
    c = report["certificate"]
    cells = tuple(tuple(cell) for cell in c["cells"])
    return BoxResult(report["value"], report["mode"], cells, c["retained_mass"], c["pair_value"], c["mass_gap"],
                     np.array(c["coupling"]))


def _frozen_cases():
    for name, (x, y, lam, _, report) in CASES.items():
        yield name, mm_space(*x), mm_space(*y), lam, _frozen(report)
    for name, (n, lam, report) in SCALE_CASES.items():
        rng = np.random.default_rng(5)
        X = random_space(rng, min_points=n, max_points=n)
        yield name, X, random_space(rng, min_points=n, max_points=n), lam, _frozen(report)


def test_frozen_certificates_meet_the_rule():
    for name, X, Y, lam, res in _frozen_cases():
        assert box._certificate_violations(X, Y, lam, res) == [], name


def _corruptions():
    """(kind, X, Y, lam, corrupted copy, the one violation it must give) per violation kind.

    The copies come from ``unequal mass`` (lam = 1, mass gap 0.5, cells that
    keep exactly ``m - lam * pair_value``) and, for the defect, ``exact
    lam=0``, whose cells keep all the mass whatever its pair value.
    """
    _, X, Y, lam, res = next(c for c in _frozen_cases() if c[0] == "unequal mass")
    pi = res.coupling.copy()
    pi[1, 0] += 0.125  # (1, 0) holds no certificate cell
    first, first_mass = res.cells[:1], res.coupling[res.cells[0]]
    copies = {
        "value": (replace(res, value=res.value + 0.125), "is not pair value"),
        "mass gap": (replace(res, value=res.value + 0.125, mass_gap=0.625), "difference of the totals"),
        "marginals": (replace(res, coupling=pi), "coupling marginals do not match"),
        "repeated cell": (
            replace(res, cells=res.cells + first, retained_mass=res.retained_mass + first_mass), "repeats a cell"
        ),
        "cell out of range": (replace(res, cells=res.cells + ((3, 0),)), "certificate rows has indices outside"),
        "retained mass": (replace(res, retained_mass=res.retained_mass + 0.125), "is not the coupling mass"),
        "short of the need": (
            replace(res, cells=res.cells[1:], retained_mass=res.retained_mass - first_mass),
            "below m - lam * pair_value",
        ),
    }
    for kind, (copy, message) in copies.items():
        yield kind, X, Y, lam, copy, message
    _, X, Y, lam, res = next(c for c in _frozen_cases() if c[0] == "exact lam=0")
    yield "defect", X, Y, lam, replace(res, value=0.25, pair_value=0.25), "above pair value"


@pytest.mark.parametrize("kind", [c[0] for c in _corruptions()])
def test_corrupted_certificate_gives_its_one_violation(kind):
    _, X, Y, lam, res, message = next(c for c in _corruptions() if c[0] == kind)
    violations = box._certificate_violations(X, Y, lam, res)
    assert len(violations) == 1 and message in violations[0], violations


def test_a_sweep_short_of_the_need_is_an_internal_error(monkeypatch):
    # a flow sweep that hands back its mass with no cells: the threshold
    # search reads the mass and finds the same value, and only the
    # certificate rule sees that the cells keep nothing
    sweep = box._best_flow_at
    monkeypatch.setattr(box, "_best_flow_at", lambda *args, **kwargs: (sweep(*args, **kwargs)[0], ()))
    x, y, lam, _, _ = CASES["exact lam=1"]
    with pytest.raises(InternalInvariantError, match="below m - lam"):
        box_distance(mm_space(*x), mm_space(*y), lam)


LIGHT = ([0.25, 0.25, 0.5], D3A)
HEAVY = ([0.75, 0.5, 0.25], D3B)


@pytest.mark.parametrize(
    "first,second,coupling",
    [
        (LIGHT, HEAVY, [[0.25, 0.0, 0.0], [0.25, 0.0, 0.0], [0.0, 0.3333333333333333, 0.16666666666666666]]),
        (HEAVY, LIGHT, [[0.25, 0.25, 0.0], [0.0, 0.0, 0.3333333333333333], [0.0, 0.0, 0.16666666666666666]]),
    ],
)
def test_observable_exact0_unequal_mass_is_frozen(first, second, coupling):
    res = observable_distance(mm_space(*first), mm_space(*second), 0.0, "exact0")
    assert (res.value, res.tag) == (1.25, "exact")
    assert res.coupling.tolist() == coupling


@pytest.mark.parametrize(
    "p,light_first,heavy_first",
    [([0, 1, 2], 1.0, 1.0), ([2, 0, 1], 1.0, 0.75)],
)
def test_witness_bound_unequal_mass_is_frozen(p, light_first, heavy_first):
    light, heavy = mm_space(*LIGHT), mm_space(*HEAVY)
    w = Witness(p, [0, 1, 2], 0.0)
    assert box_upper_from_witness(light, heavy, w) == light_first
    assert box_upper_from_witness(heavy, light, w) == heavy_first
