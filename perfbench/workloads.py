"""The benchmark's operations, built from the workload seed.

An operation is one library or CLI call with fixed inputs.  ``run`` is the
timed call; ``record`` turns its result into plain data outside the timed
region; ``check`` judges a record with the independent checkers.  Records of
later passes must equal the first pass's record, so every output of every
pass is checked.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import checkers as ck
import inputs as gen
import mmdist as md
import mmdist.cli

WORKLOAD_STREAM = {"box-exact": 1, "box-heuristic": 2, "diagnostics": 3}


@dataclass
class Op:
    name: str
    run: Callable[[], Any]
    record: Callable[[Any], dict]
    check: Callable[[dict], list[str]]
    #: a fault of the program that this operation shows on every seed
    known_fault: str | None = None
    #: name of the end-to-end quality metric this operation's record feeds
    quality: str | None = None


def _box_record(res) -> dict:
    return {
        "value": float(res.value),
        "pair_value": float(res.pair_value),
        "mass_gap": float(res.mass_gap),
        "cells": [list(map(int, c)) for c in res.cells],
        "retained_mass": float(res.retained_mass),
        "coupling": None if res.coupling is None else np.asarray(res.coupling).tolist(),
    }


def _box_op(name, X, Y, lam, mode="exact", expect=None, quality=None, exact_check=True):
    """A box_distance call; exact results are proven optimal with the MILP."""

    def check(rec):
        args = (X.weights, X.dist, Y.weights, Y.dist, lam)
        out = ck.box_certificate_problems(
            *args, rec["value"], rec["pair_value"], rec["mass_gap"], rec["cells"],
            rec["retained_mass"], rec["coupling"],
        )
        if mode == "exact":
            out += ck.box_optimality_problems(*args, rec["pair_value"])
        elif exact_check:
            exact = ck.milp_box_value(*args)
            if rec["value"] < exact - ck.MILP_TOL:
                out.append(f"heuristic value {rec['value']!r} is below the exact value {exact!r}")
        if expect is not None and abs(rec["value"] - expect) > ck.TOL:
            out.append(f"value {rec['value']!r}, expected {expect!r} by construction")
        return out

    return Op(name, lambda: md.box_distance(X, Y, lam, mode), _box_record, check,
              quality=quality)


def _pair(rng, nx, ny):
    (wx, dx), (wy, dy) = gen.equal_mass_pair(rng, nx, ny)
    return md.mm_space(wx, dx), md.mm_space(wy, dy)


# ---------------------------------------------------------------------------
# box-exact

#: (size, lambda, number of pairs, fixed) of the ladder.  The 5x5 lambda=0
#: and 7x7 lambda=1 rungs cost the most after the 6x6 pair, and their cost
#: moved by about half between seeds, so they are the same for every seed
EXACT_LADDER = ((4, 0.0, 4, False), (5, 0.0, 3, True), (4, 1.0, 2, False), (5, 1.0, 2, False),
                (6, 1.0, 2, False), (7, 1.0, 2, True))
#: stream of the fixed rungs
EXACT_FIXED_STREAM = (0, 10)
#: stream of the pairs that are the same for every seed: one exact 6x6
#: lambda=0 solve costs seconds and its cost varies several-fold between
#: random pairs, so a seeded pair would make solve_s a draw of that one pair
ANCHOR_STREAM = (0, 6)
#: the 6x6 pair is draw 7 of that stream: 9,239 flow values, an ordinary
#: cost among the first eight draws (6,453 to 40,396), about 2 s a solve
ANCHOR_DRAW = 7


def _anchor_pair(n: int, draw: int = 0):
    rng = np.random.default_rng(ANCHOR_STREAM)
    for _ in range(draw):
        _pair(rng, n, n)
    return _pair(rng, n, n)


def box_exact_ops(rng) -> list[Op]:
    X, Y = _anchor_pair(6, ANCHOR_DRAW)
    ops = [_box_op("box 6x6 lam=0 fixed pair", X, Y, 0.0)]
    fixed_rng = np.random.default_rng(EXACT_FIXED_STREAM)
    for n, lam, count, fixed in EXACT_LADDER:
        for k in range(count):
            X, Y = _pair(fixed_rng if fixed else rng, n, n)
            ops.append(_box_op(f"box {n}x{n} lam={lam:g}{' fixed' if fixed else ''} #{k}", X, Y, lam))
    # unequal totals: the mass-gap path
    (wx, dx), (wy, dy) = gen.space(rng, 4, 1.0), gen.space(rng, 5, 1.25)
    ops.append(_box_op("box 4x5 unequal mass lam=1", md.mm_space(wx, dx), md.mm_space(wy, dy), 1.0))
    # a zero-weight point on one side
    (wx, dx), (wy, dy) = gen.equal_mass_pair(rng, 5, 5)
    wx[int(rng.integers(5))] = 0.0
    wy = wy * (wx.sum() / wy.sum())
    ops.append(_box_op("box 5x5 zero-weight point lam=0", md.mm_space(wx, dx), md.mm_space(wy, dy), 0.0))
    # a space and a relabelled copy: distance 0
    wx, dx = gen.space(rng, 6)
    (wy, dy), _ = gen.relabelled(rng, wx, dx)
    ops.append(_box_op("box 6x6 relabelled copy lam=0", md.mm_space(wx, dx), md.mm_space(wy, dy), 0.0, expect=0.0))
    return ops


# ---------------------------------------------------------------------------
# box-heuristic

#: (size, number of pairs) beyond the exact size limit, the same for every
#: seed: they and the 24x24 pair of ``ANCHOR_STREAM`` give ``box_upper_mean``,
#: which is then identical from run to run and moves only with the heuristic
HEURISTIC_FIXED = ((12, 2), (16, 2), (20, 2))
#: stream of those pairs
HEURISTIC_FIXED_STREAM = (0, 7)
#: (size, number of pairs) of the seeded pairs beyond the exact size limit
HEURISTIC_LADDER = ((12, 1), (16, 1), (20, 1))
#: (size, number of pairs) small enough for the exact MILP value
HEURISTIC_SMALL = ((4, 2), (5, 2))


def box_heuristic_ops(rng) -> list[Op]:
    def heuristic(name, X, Y, **kw):
        return _box_op(name, X, Y, 1.0, "heuristic", **kw)

    X, Y = _anchor_pair(24)
    ops = [heuristic("heuristic 24x24 fixed pair", X, Y, quality="box_upper_mean", exact_check=False)]
    fixed = np.random.default_rng(HEURISTIC_FIXED_STREAM)
    for n, count in HEURISTIC_FIXED:
        for k in range(count):
            X, Y = _pair(fixed, n, n)
            ops.append(heuristic(f"heuristic {n}x{n} fixed #{k}", X, Y,
                                 quality="box_upper_mean", exact_check=False))
    for n, count in HEURISTIC_LADDER:
        for k in range(count):
            X, Y = _pair(rng, n, n)
            ops.append(heuristic(f"heuristic {n}x{n} #{k}", X, Y, exact_check=False))
    for n, count in HEURISTIC_SMALL:
        for k in range(count):
            X, Y = _pair(rng, n, n)
            ops.append(heuristic(f"heuristic {n}x{n} #{k} vs exact", X, Y))
    return ops


# ---------------------------------------------------------------------------
# diagnostics

#: ROADMAP defect 1: lip_point_distance closes the metric over a zero-weight
#: index while Lip1Set works on the support only, so exact0 reports 0.5 for
#: two identical semimetrics
ZERO_WEIGHT_HLI = (
    [1.0, 1.0, 0.0],
    [[0.0, 2.0, 0.5], [2.0, 0.0, 0.5], [0.5, 0.5, 0.0]],
)


def _hli_exact0_op(name, w, d1, d2, known_fault=None):
    pair = md.semidist_pair(w, d1, d2)

    def check(rec):
        want = ck.hli_exact0_closed_form(w, d1, d2)
        if abs(rec["value"] - want) > ck.TOL:
            return [f"hli exact0 {rec['value']!r}, closed form {want!r}"]
        return []

    return Op(name, lambda: md.hli_lambda(pair, 0.0, "exact0"),
              lambda r: {"value": float(r.value), "tag": r.tag}, check, known_fault=known_fault)


def _hli_sampled_op(name, w, d1, d2, quality=None):
    pair = md.semidist_pair(w, d1, d2)

    def check(rec):
        cap = ck.hli_exact0_closed_form(w, d1, d2)
        if rec["value"] > cap + ck.TOL:
            return [f"sampled lower bound {rec['value']!r} exceeds the exact0 value {cap!r}"]
        if rec["tag"] != "lower-bound":
            return [f"sampled result tagged {rec['tag']!r}"]
        return []

    return Op(name, lambda: md.hli_lambda(pair, 1.0, "sampled"),
              lambda r: {"value": float(r.value), "tag": r.tag}, check, quality=quality)


def _recon_record(rep) -> dict:
    return {
        "verdict": rep.verdict,
        "distinguishing_r": rep.distinguishing_r,
        "bijection": None if rep.bijection is None else [int(v) for v in rep.bijection],
        "agreement": bool(rep.agreement),
    }


def _recon_check(X, Y, isomorphic):
    def check(rec):
        if not rec["agreement"]:
            return ["distributions and isomorphism search disagree"]
        if isomorphic:
            if rec["verdict"] != "indistinguishable-up-to-R":
                return [f"isomorphic pair reported {rec['verdict']!r}"]
            return ck.bijection_problems(X.weights, X.dist, Y.weights, Y.dist, rec["bijection"])
        if rec["verdict"] != "distinguished" or rec["bijection"] is not None:
            return [f"perturbed pair reported {rec['verdict']!r}"]
        return []
    return check


def _witness_check(Xn, X):
    def check(rec):
        out = []
        obj = ck.witness_objective(Xn.weights, Xn.dist, X.weights, X.dist, rec["p"], rec["subset"])
        if abs(obj - rec["eps"]) > ck.TOL:
            out.append(f"witness eps {rec['eps']!r}, recomputed objective {obj!r}")
        exact = ck.milp_box_value(Xn.weights, Xn.dist, X.weights, X.dist, 1.0)
        if rec["box1_upper_bound"] < exact - ck.MILP_TOL:
            out.append(f"witness box bound {rec['box1_upper_bound']!r} is below box {exact!r}")
        return out
    return check


def _witness_op(name, Xn, X):
    def run():
        w = md.witness_search(Xn, X)
        return w, md.box_upper_from_witness(Xn, X, w)

    def record(out):
        w, bound = out
        return {"eps": float(w.eps), "p": [int(v) for v in w.p],
                "subset": [int(v) for v in w.subset], "box1_upper_bound": float(bound)}

    return Op(name, run, record, _witness_check(Xn, X))


def _cli_op(name, argv, out_path: Path, check_result):
    """One in-process CLI call; the record is the report without wall time."""

    def record(code):
        report = json.loads(out_path.read_text(encoding="utf-8"))
        report.pop("wall_time_s", None)
        return {"code": int(code), "report": report,
                "bytes": out_path.read_text(encoding="utf-8").split('"wall_time_s"')[0]}

    def check(rec):
        if rec["code"] != 0:
            return [f"exit code {rec['code']}"]
        return check_result(rec["report"]["result"])

    return Op(name, lambda: mmdist.cli.main(argv + ["--out", str(out_path)]), record, check)


def _prokhorov_op(name, d, mu, nu):
    S = md.mm_space(mu, d)

    def check(rec):
        want = ck.prokhorov_by_subsets(d, mu, nu)
        return [] if abs(rec["value"] - want) <= ck.TOL else [f"prokhorov {rec['value']!r}, subsets {want!r}"]

    return Op(name, lambda: md.prokhorov(S, mu, nu), lambda v: {"value": float(v)}, check)


def _recon_op(name, X, Y, isomorphic):
    return Op(name, lambda: md.reconstruction_check(X, Y), _recon_record, _recon_check(X, Y, isomorphic))


def _cli_isotest_op(workdir: Path, A, B):
    """``mmdist isotest`` on two isomorphic spaces written to files."""
    a, b = workdir / "iso_a.json", workdir / "iso_b.json"
    md.write_space(a, A)
    md.write_space(b, B)

    def check(result):
        lib = _recon_record(md.reconstruction_check(md.read_space(a), md.read_space(b)))
        if {k: result.get(k) for k in lib} != lib or result.get("r_max") != len(A.support):
            return [f"isotest report {result!r} differs from the library {lib!r}"]
        return _recon_check(A, B, True)(lib)

    return _cli_op(f"cli isotest {A.n}", ["isotest", str(a), str(b)], workdir / "isotest.out.json", check)


def _cli_witness_op(workdir: Path, Xn, X):
    """``mmdist witness`` between two spaces written to files."""
    a, b = workdir / "wit_n.json", workdir / "wit_x.json"
    md.write_space(a, Xn)
    md.write_space(b, X)

    def check(result):
        Rn, Rx = md.read_space(a), md.read_space(b)
        w = md.witness_search(Rn, Rx)
        lib = {"eps": w.eps, "p": [int(v) for v in w.p], "subset": [int(v) for v in w.subset],
               "box1_upper_bound": md.box_upper_from_witness(Rn, Rx, w)}
        if result != lib:
            return [f"witness report {result!r} differs from the library {lib!r}"]
        return _witness_check(Xn, X)(result)

    return _cli_op(f"cli witness {Xn.n} to {X.n}", ["witness", str(a), str(b)], workdir / "witness.out.json", check)


#: sampled hli_lambda pairs that are the same for every seed; they give
#: ``hlip_lower_mean``, identical from run to run
SAMPLED_FIXED = 8
SAMPLED_FIXED_STREAM = (0, 8)
#: sampled pairs drawn from the seed, timed and checked only
SAMPLED_PAIRS = 4
SAMPLED_SIZE = 8
PROKHOROV_PAIRS = 3


#: stream of the three inputs of ``diagnostics`` that are the same for every
#: seed: hli exact0 on support 6, the 6-point space of the reconstruction
#: pair and the witness pair take over four fifths of a pass, and their cost
#: moves by up to half between seeds, for the reason given at ``ANCHOR_STREAM``
DIAGNOSTICS_FIXED_STREAM = (0, 9)


def diagnostics_ops(rng, workdir: Path) -> list[Op]:
    fixed = np.random.default_rng(DIAGNOSTICS_FIXED_STREAM)
    ops = []
    w = gen.grid_weights(rng, 5)
    ops.append(_hli_exact0_op("hli exact0 support 5", w, gen.grid_dist(rng, 5), gen.grid_dist(rng, 5)))
    w = gen.grid_weights(fixed, 6)
    ops.append(_hli_exact0_op("hli exact0 support 6 fixed", w, gen.grid_dist(fixed, 6), gen.grid_dist(fixed, 6)))
    w, d = ZERO_WEIGHT_HLI
    ops.append(_hli_exact0_op("hli exact0 zero-weight point", w, d, d,
                              known_fault="lipschitz.lip_point_distance closes over zero-weight indices"))
    n = SAMPLED_SIZE
    fixed = np.random.default_rng(SAMPLED_FIXED_STREAM)
    for k in range(SAMPLED_FIXED):
        w = gen.grid_weights(fixed, n)
        ops.append(_hli_sampled_op(f"hli sampled lam=1 fixed #{k}", w, gen.grid_dist(fixed, n),
                                   gen.grid_dist(fixed, n), quality="hlip_lower_mean"))
    for k in range(SAMPLED_PAIRS):
        w = gen.grid_weights(rng, n)
        ops.append(_hli_sampled_op(f"hli sampled lam=1 #{k}", w, gen.grid_dist(rng, n), gen.grid_dist(rng, n)))

    wx, dx = gen.space(fixed, 6)
    X = md.mm_space(wx, dx)
    (wy, dy), _ = gen.relabelled(fixed, wx, dx)
    ops.append(_recon_op("reconstruction 6 isomorphic fixed", X, md.mm_space(wy, dy), True))
    ops.append(_recon_op("reconstruction 6 perturbed", X, md.mm_space(wx, gen.perturbed(rng, dx)), False))

    (wn, dn), (wt, dt) = gen.equal_mass_pair(fixed, 5, 5)
    ops.append(_witness_op("witness 5 to 5 fixed", md.mm_space(wn, dn), md.mm_space(wt, dt)))

    for k in range(PROKHOROV_PAIRS):
        d = gen.grid_dist(rng, 8)
        ops.append(_prokhorov_op(f"prokhorov 8 #{k}", d, gen.grid_weights(rng, 8), gen.grid_weights(rng, 8)))

    wa, da = gen.space(rng, 5)
    (wb, db), _ = gen.relabelled(rng, wa, da)
    ops.append(_cli_isotest_op(workdir, md.mm_space(wa, da), md.mm_space(wb, db)))
    (wn, dn), (wt, dt) = gen.equal_mass_pair(rng, 4, 4)
    ops.append(_cli_witness_op(workdir, md.mm_space(wn, dn), md.mm_space(wt, dt)))
    return ops


def build(workload: str, seed: int, workdir: Path) -> list[Op]:
    rng = np.random.default_rng([seed, WORKLOAD_STREAM[workload]])
    if workload == "box-exact":
        return box_exact_ops(rng)
    if workload == "box-heuristic":
        return box_heuristic_ops(rng)
    return diagnostics_ops(rng, workdir)


#: the end-to-end quality metric each workload measures on its own operations;
#: the others come from ``reference_quality``.  An exact value cannot get
#: worse without failing its check, so ``box-exact`` measures neither.
NATIVE_QUALITY = {"box-exact": None, "box-heuristic": "box_upper_mean",
                  "diagnostics": "hlip_lower_mean"}
#: stream of the fixed pairs behind ``reference_quality``
REFERENCE_STREAM = (0, 99)


def reference_quality(metric: str):
    """A quality metric a workload does not measure itself, on fixed pairs.

    Every run reports every end-to-end metric, so a workload whose own
    operations give no such figure reports it on pairs that are the same for
    every seed: ``box_upper_mean`` from heuristic ``box_distance`` at lambda
    1 on two 8x8 pairs, ``hlip_lower_mean`` from sampled ``hli_lambda`` at
    lambda 1 on four 8-point pairs.  Computed before the timed passes and
    checked like the workload's own operations.  Returns ``(ok, values)``.
    """
    rng = np.random.default_rng(REFERENCE_STREAM)
    values, problems = [], []
    if metric == "box_upper_mean":
        for k in range(2):
            X, Y = _pair(rng, 8, 8)
            op = _box_op("reference", X, Y, 1.0, "heuristic", quality="box_upper_mean", exact_check=False)
            rec = op.record(op.run())
            problems += op.check(rec)
            values.append(rec["value"])
    else:
        for k in range(4):
            n = SAMPLED_SIZE
            op = _hli_sampled_op("reference", gen.grid_weights(rng, n), gen.grid_dist(rng, n), gen.grid_dist(rng, n))
            rec = op.record(op.run())
            problems += op.check(rec)
            values.append(rec["value"])
    return not problems, values
