"""The functions the benchmark tracer wraps must exist in ``mmdist``.

``perfbench/layers.py`` names every function it wraps by module and
attribute.  A rename in ``src/`` would otherwise surface only when the
benchmark runs with ``--trace 1``; this reads the tables without editing
that file and resolves each name.  It also installs the tracer once and
checks that the counters of wrapped items still fire.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

import mmdist
import mmdist.cli  # noqa: F401  (the tracer wraps cli.main, so it must be loaded)

LAYERS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def _layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS_PY)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    return layers


def _tables():
    layers = _layers()
    return [(module, attribute) for module, attribute, _ in layers.LAYERS + layers.ITEM_COUNTERS]


@pytest.mark.parametrize("module,attribute", _tables())
def test_wrapped_name_resolves(module, attribute):
    obj = importlib.import_module(module)
    for part in attribute.split("."):  # "Lip1Set.vertices" names a method
        assert hasattr(obj, part), f"{module}.{attribute} no longer exists"
        obj = getattr(obj, part)
    assert callable(obj)


def test_matrixdist_and_witness_counters_fire():
    X = mmdist.mm_space([0.2, 0.3, 0.5], [[0, 1, 2], [1, 0, 1.5], [2, 1.5, 0]])
    Y = mmdist.mm_space([0.5, 0.25, 0.25], [[0, 1, 1], [1, 0, 2], [1, 2, 0]])
    tracer = _layers().Tracer()
    tracer.install()
    try:
        mmdist.exact_mu_r(X, 2)
        mmdist.witness_search(X, Y)
    finally:
        tracer.remove()
    counts = tracer.layer_counts()
    assert counts["matrixdist.exact_mu_r.tuples"] > 0
    assert counts["limits.witness_search.maps"] > 0


def test_exact_box_layers_fire():
    X = mmdist.mm_space([0.25, 0.25, 0.5], [[0, 1, 1.5], [1, 0, 1.25], [1.5, 1.25, 0]])
    Y = mmdist.mm_space([0.5, 0.25, 0.25], [[0, 1.75, 1], [1.75, 0, 1.5], [1, 1.5, 0]])
    pair = mmdist.semidist_pair([0.2, 0.3, 0.5], X.dist, Y.dist)
    tracer = _layers().Tracer()
    tracer.install()
    try:
        mmdist.box_distance(X, Y, 1.0)
        mmdist.box_pair(pair, 1.0)
    finally:
        tracer.remove()
    counts = tracer.layer_counts()
    for layer in (
        "box.threshold_solve.calls",
        "box.best_flow_at.calls",
        "box.maximal_cliques.sweeps",
        "box.max_weight_clique.calls",
        "transport.max_flow_value.calls",
    ):
        assert counts[layer] > 0, layer


def test_hli_sampled_layers_fire():
    # each Lipschitz set closes its semimetric once; every probe and sample
    # reads that closure
    pair = mmdist.semidist_pair(
        [0.2, 0.3, 0.5],
        [[0, 1, 1.5], [1, 0, 1.25], [1.5, 1.25, 0]],
        [[0, 1.75, 1], [1.75, 0, 1.5], [1, 1.5, 0]],
    )
    tracer = _layers().Tracer()
    tracer.install()
    try:
        mmdist.hli_lambda(pair, 1.0, "sampled", samples=2)
    finally:
        tracer.remove()
    counts = tracer.layer_counts()
    assert counts["core.metric_closure.calls"] == 2
    assert counts["lipschitz.lip_point_distance.calls"] > 0


def test_heuristic_box_layers_fire():
    # every local-search step scores its coupling by a clique search, which
    # the tracer wraps by name.  No step calls pullback_pair: a trial is
    # pulled back straight from the spaces' checked matrices, and only the
    # start plans and the returned coupling meet the coupling rule
    X = mmdist.mm_space([0.25, 0.25, 0.5], [[0, 1, 1.5], [1, 0, 1.25], [1.5, 1.25, 0]])
    Y = mmdist.mm_space([0.5, 0.25, 0.25], [[0, 1.75, 1], [1.75, 0, 1.5], [1, 1.5, 0]])
    tracer = _layers().Tracer()
    tracer.install()
    try:
        mmdist.box_distance(X, Y, 1.0, "heuristic")
    finally:
        tracer.remove()
    counts = tracer.layer_counts()
    assert counts["core.pullback_pair.calls"] == 0
    assert counts["box.max_weight_clique.calls"] > 0


def test_heuristic_box_rejects_by_one_probe(monkeypatch):
    # a trial coupling whose probe at the incumbent fails costs one clique
    # search; here 70 of the 105 scored couplings do.  One that passes is
    # searched down from the incumbent, and the coupling returned gets one
    # certificate search after the loop.  Scoring every coupling with a full
    # threshold search and a certificate (the reference loop) costs 1055
    from mmdist import box as box_module
    from mmdist.instances import random_space
    from oracles import reference_box_heuristic

    rng = np.random.default_rng(18)
    X, Y = (random_space(rng, min_points=6, max_points=6) for _ in range(2))

    def traced():
        tracer = _layers().Tracer()
        tracer.install()
        try:
            mmdist.box_distance(X, Y, 1.0, "heuristic", seed=0)
        finally:
            tracer.remove()
        counts = tracer.layer_counts()
        return counts["box.threshold_solve.calls"], counts["box.max_weight_clique.calls"]

    assert traced() == (105, 195)
    monkeypatch.setattr(box_module, "_box_equal_mass_heuristic", reference_box_heuristic)
    assert traced() == (105, 1055)


def test_no_heuristic_trial_runs_a_certificate_search(monkeypatch):
    # a scored trial, tied, better or worse, runs no clique search after its
    # threshold search; the coupling returned gets one, after the loop
    from mmdist import box as box_module
    from mmdist.instances import random_space

    rng = np.random.default_rng(18)
    X, Y = (random_space(rng, min_points=6, max_points=6) for _ in range(2))
    solve, cells, search = box_module._clique_solve, box_module._clique_cells, box_module._max_weight_clique
    threshold_solve = box_module._threshold_solve
    scores = []  # [value, incumbent, clique searches after the threshold search] per scored coupling
    certificates = []  # clique searches of each certificate

    def counted_search(*args, **kwargs):
        (certificates if certificates else scores)[-1][-1] += 1
        return search(*args, **kwargs)

    def marked_threshold_solve(*args):
        answer = threshold_solve(*args)
        scores[-1][2] = 0  # count only the searches after it
        return answer

    def recorded_solve(d, w, m, lam, cap=np.inf, floor=0.0):
        # the incumbent is the least value scored so far
        scores.append([None, min((eps for eps, _, _ in scores), default=np.inf), 0])
        scores[-1][0] = solve(d, w, m, lam, cap, floor)
        return scores[-1][0]

    def recorded_cells(*args):
        certificates.append([0])
        return cells(*args)

    monkeypatch.setattr(box_module, "_max_weight_clique", counted_search)
    monkeypatch.setattr(box_module, "_threshold_solve", marked_threshold_solve)
    monkeypatch.setattr(box_module, "_clique_solve", recorded_solve)
    monkeypatch.setattr(box_module, "_clique_cells", recorded_cells)
    mmdist.box_distance(X, Y, 1.0, "heuristic", seed=0)
    ties = [n for eps, incumbent, n in scores if incumbent <= eps < np.inf]
    better = [n for eps, incumbent, n in scores if eps < incumbent]
    assert (len(scores), len(ties), len(better)) == (105, 19, 16)
    assert {n for _, _, n in scores} == {0}
    assert certificates == [[1]]


def test_value_only_solves_run_no_certificate_search(monkeypatch):
    # lip_point_distance and box_upper_from_witness keep only the value, so at
    # a floor of 0 their pair solve runs no clique search after its threshold
    # search.  Both answers here are thresholds, whose certificate would be a
    # search of its own
    from mmdist import box as box_module
    from mmdist.instances import random_pair_matrices, random_space
    from mmdist.lipschitz import Lip1Set, lip_point_distance

    search, threshold_solve = box_module._max_weight_clique, box_module._threshold_solve
    solves = []  # [answer is a threshold, clique searches after the threshold search] per pair solve

    def counted_search(*args, **kwargs):
        solves[-1][1] += 1
        return search(*args, **kwargs)

    def marked_threshold_solve(values, *args):
        solves.append([None, 0])
        eps, witness = threshold_solve(values, *args)
        solves[-1] = [bool(eps > 0.0 and np.isin(eps, values)), 0]  # count only from here on
        return eps, witness

    rng = np.random.default_rng(21)
    w = rng.integers(1, 5, size=5).astype(float) * 0.25
    source, target = Lip1Set(random_pair_matrices(rng, 5), w), Lip1Set(random_pair_matrices(rng, 5), w)
    rng = np.random.default_rng(0)
    X = mmdist.normalized(random_space(rng, min_points=4, max_points=4))
    bump = np.triu(rng.uniform(0.0, 0.3, size=(4, 4)), 1)
    Xn = mmdist.mm_space(X.weights, X.dist + bump + bump.T)
    witness = mmdist.witness_search(Xn, X)
    monkeypatch.setattr(box_module, "_max_weight_clique", counted_search)
    monkeypatch.setattr(box_module, "_threshold_solve", marked_threshold_solve)
    assert lip_point_distance(source._extend(source.closure[:, 0]), target, 1.0) == 0.44
    assert mmdist.box_upper_from_witness(Xn, X, witness) > 0.0
    assert solves == [[True, 0], [True, 0]]


def test_lipschitz_check_clique_layer_fires():
    # the one call of the clique search from outside the box module: the
    # tracer must replace the name that limits imported too
    X = mmdist.mm_space([0.25, 0.25, 0.5], [[0, 1, 1.5], [1, 0, 1.25], [1.5, 1.25, 0]])
    tracer = _layers().Tracer()
    tracer.install()
    try:
        mmdist.lipschitz_up_to_check(X, X, [0, 1, 1], 1.0, 0.5)
    finally:
        tracer.remove()
    assert tracer.layer_counts()["box.max_weight_clique.calls"] == 1


def test_prokhorov_flow_layers_fire():
    # each flow-value probe of the Prokhorov search runs max_flow through
    # the transport module's global name, so the tracer sees both layers
    X = mmdist.mm_space([0.25, 0.25, 0.5], [[0, 1, 1.5], [1, 0, 1.25], [1.5, 1.25, 0]])
    tracer = _layers().Tracer()
    tracer.install()
    try:
        mmdist.prokhorov(X, [0.5, 0.25, 0.25], [0.25, 0.25, 0.5])
    finally:
        tracer.remove()
    counts = tracer.layer_counts()
    assert counts["transport.prokhorov_distance.calls"] == 1
    assert counts["transport.max_flow_value.calls"] > 0
    assert counts["transport.max_flow.calls"] == counts["transport.max_flow_value.calls"]


def test_exact_box_flows_are_the_probes_and_one_certificate():
    # every clique probe of the sweep runs one flow value (through max_flow)
    # and the certificate runs one more max_flow, so the per-layer table
    # counts the same flows whatever form the admissible cells take
    X = mmdist.mm_space([0.25, 0.25, 0.5], [[0, 1, 1.5], [1, 0, 1.25], [1.5, 1.25, 0]])
    Y = mmdist.mm_space([0.5, 0.25, 0.25], [[0, 1.75, 1], [1.75, 0, 1.5], [1, 1.5, 0]])
    tracer = _layers().Tracer()
    tracer.install()
    try:
        mmdist.box_distance(X, Y, 1.0)
    finally:
        tracer.remove()
    counts = tracer.layer_counts()
    assert counts["box.best_flow_at.flow_ratio"] > 0
    assert counts["transport.max_flow.calls"] == counts["transport.max_flow_value.calls"] + 1


def test_sampled_hli_and_witness_settle_by_one_probe(monkeypatch):
    # a sampled hli probe passes the running max as its floor and a witness
    # map the best objective as its cap, so most of them cost one clique
    # search.  The reference loops (hli: every probe measured in full;
    # witness: no cap) pay for full searches.  The witness search runs one
    # flow per map: the Prokhorov search keeps the flow of each threshold.
    # An hli probe whose largest defect is at most a positive running max is
    # screened out before lip_point_distance, and the witness search runs
    # one Prokhorov search per distinct pushforward
    from mmdist import box as box_module
    from mmdist import limits
    from mmdist.instances import random_pair_matrices, random_space
    from oracles import reference_hli_sampled

    def traced(run):
        tracer = _layers().Tracer()
        tracer.install()
        try:
            run()
        finally:
            tracer.remove()
        counts = tracer.layer_counts()
        return (counts["box.max_weight_clique.calls"], counts["transport.max_flow.calls"],
                counts["lipschitz.lip_point_distance.calls"], counts["transport.prokhorov_distance.calls"])

    rng = np.random.default_rng(21)
    w = rng.integers(1, 5, size=5).astype(float) * 0.25
    pair = mmdist.semidist_pair(w, random_pair_matrices(rng, 5), random_pair_matrices(rng, 5))
    probes = 2 * (5 + 24)  # the cones and the samples of each direction
    assert traced(lambda: mmdist.hli_lambda(pair, 1.0, "sampled", samples=24)) == (36, 0, 12, 0)
    assert traced(lambda: reference_hli_sampled(pair, 1.0, samples=24)) == (237, 0, probes, 0)

    rng = np.random.default_rng(0)
    X = mmdist.normalized(random_space(rng, min_points=4, max_points=4))
    bump = np.triu(rng.uniform(0.0, 0.3, size=(4, 4)), 1)
    Xn = mmdist.mm_space(X.weights, X.dist + bump + bump.T)
    assert traced(lambda: mmdist.witness_search(Xn, X)) == (65, 53, 0, 53)
    searched, search = [], limits.prokhorov_distance  # the pushforwards searched, as bytes

    def recorded(d, mu, nu):
        searched.append(mu.tobytes())
        return search(d, mu, nu)

    monkeypatch.setattr(limits, "prokhorov_distance", recorded)
    mmdist.witness_search(Xn, X)
    assert len(set(searched)) == len(searched) == 53
    monkeypatch.setattr(limits, "prokhorov_distance", search)
    uncapped = box_module._clique_solve
    monkeypatch.setattr(limits, "_clique_solve", lambda d, w, m, lam, cap: uncapped(d, w, m, lam))
    assert traced(lambda: mmdist.witness_search(Xn, X)) == (212, 53, 0, 53)
