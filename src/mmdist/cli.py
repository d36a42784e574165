"""Command-line front end.

Loads spaces from JSON files, dispatches to the solvers and emits
deterministic reports: JSON with stable key ordering for every subcommand
except ``converge-report``, which emits CSV with columns ``N,value,mode``.
Reports echo the configuration and carry SHA-256 digests of the inputs, so
identical inputs and flags reproduce identical bytes except for the
``wall_time_s`` field.

Exit codes: 0 success, 1 usage, parse or validation failure, 2 size-limit
refusal, 3 internal invariant failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path

import numpy as np

from .box import box_distance, box_upper_from_witness
from .core import read_space, validate
from .errors import InternalInvariantError, InvalidSpaceError, SizeLimitError, SpaceFormatError
from .limits import (
    _is_transitive,
    domination_search,
    empirical_convergence_experiment,
    isometry_group,
    prokhorov,
    witness_search,
)
from .lipschitz import me_lambda, observable_distance
from .matrixdist import exact_mu_r, reconstruction_check, sample_mu_r
from .properties import PROPERTIES, run_suite


def _digest(path: str) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _load_vector(path: str, expected_len: int, what: str) -> np.ndarray:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise SpaceFormatError(f"{path}: not valid JSON ({exc})") from exc
    if isinstance(doc, dict) and "values" in doc:
        doc = doc["values"]
    if not isinstance(doc, list):
        raise SpaceFormatError(f"{path}: expected a JSON array of numbers for {what}")
    arr = np.asarray(doc, dtype=float)
    if arr.shape != (expected_len,):
        raise SpaceFormatError(
            f"{path}: {what} has length {arr.shape}, expected ({expected_len},)"
        )
    return arr


def _count(samples: float | None, default):
    """``--samples`` as a whole count; ``default`` only when the flag is absent."""
    if samples is None:
        return default
    if not samples.is_integer() or samples < 0:
        raise ValueError(f"--samples must be a whole number, got {samples!r}")
    return int(samples)


def _size_limit(text: str) -> int:
    """``--max-cells`` as a whole number of at least one."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"size limit must be at least 1, got {value}")
    return value


def _emit(report: dict, out: str | None) -> None:
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _common_flags(p: argparse.ArgumentParser, *names: str) -> None:
    flags = {
        "lambda": lambda: p.add_argument(
            "--lambda", dest="lam", type=float, default=1.0, help="mass-tradeoff parameter"
        ),
        "mode": lambda: p.add_argument("--mode", default=None),
        "seed": lambda: p.add_argument("--seed", type=int, default=0),
        "max-cells": lambda: p.add_argument("--max-cells", dest="max_cells", type=_size_limit, default=64),
        "max-r": lambda: p.add_argument("--max-r", dest="max_r", type=int, default=None),
        "samples": lambda: p.add_argument("--samples", type=float, default=None),
        "out": lambda: p.add_argument("--out", default=None, help="write the report here"),
    }
    for name in names:
        flags[name]()


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1 like any user error; exit 2 means a size-limit refusal."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    top = _Parser(
        prog="mmdist",
        description="distances and diagnostics for finite metric-measure spaces",
    )
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="report invariant violations of a space file")
    p.add_argument("space")
    _common_flags(p, "out")

    p = sub.add_parser("box", help="box distance between two spaces")
    p.add_argument("x")
    p.add_argument("y")
    _common_flags(p, "lambda", "mode", "seed", "max-cells", "out")

    p = sub.add_parser("me", help="me distance between two functions on a space")
    p.add_argument("space")
    p.add_argument("--f", required=True, help="JSON array of values")
    p.add_argument("--g", required=True, help="JSON array of values")
    _common_flags(p, "lambda", "out")

    p = sub.add_parser("hlip", help="observable distance between two spaces")
    p.add_argument("x")
    p.add_argument("y")
    _common_flags(p, "lambda", "mode", "seed", "samples", "max-cells", "out")

    p = sub.add_parser("matdist", help="matrix distribution of a space")
    p.add_argument("space")
    p.add_argument("--r", type=int, default=2)
    _common_flags(p, "samples", "seed", "out")

    p = sub.add_parser("isotest", help="reconstruction-based isomorphism test")
    p.add_argument("x")
    p.add_argument("y")
    _common_flags(p, "max-r", "out")

    p = sub.add_parser("prokhorov", help="Prokhorov distance between two weightings")
    p.add_argument("space")
    p.add_argument("--mu", required=True, help="JSON array of masses")
    p.add_argument("--nu", required=True, help="JSON array of masses")
    _common_flags(p, "out")

    p = sub.add_parser("witness", help="almost-isometry witness search")
    p.add_argument("xn")
    p.add_argument("x")
    _common_flags(p, "seed", "out")

    p = sub.add_parser("converge-report", help="empirical-measure box convergence (CSV)")
    p.add_argument("space")
    p.add_argument("--sizes", default="10,100,1000", help="comma-separated sample sizes")
    _common_flags(p, "seed", "max-cells", "out")

    p = sub.add_parser("dominate", help="Lipschitz domination certificate search")
    p.add_argument("x")
    p.add_argument("y")
    _common_flags(p, "out")

    p = sub.add_parser("homogeneous", help="transitivity of the isometry group")
    p.add_argument("space")
    _common_flags(p, "out")

    p = sub.add_parser("suite", help="run the seeded property battery")
    p.add_argument(
        "--properties",
        default=None,
        help="comma-separated subset of: " + ", ".join(sorted(PROPERTIES)),
    )
    _common_flags(p, "seed", "samples", "out")
    return top


def _dispatch(args: argparse.Namespace) -> tuple[dict | str, dict, int]:
    """Returns (result, inputs, exit_code); result may be CSV text."""
    cmd = args.command
    inputs: dict[str, dict] = {}

    def space_input(name: str, path: str, check: bool = True):
        inputs[name] = {"path": path, "sha256": _digest(path)}
        return read_space(path, check=check)

    if cmd == "validate":
        X = space_input("space", args.space, check=False)
        report = validate(X)
        return {"ok": report.ok, "violations": list(report.violations)}, inputs, 0

    if cmd == "box":
        X = space_input("x", args.x)
        Y = space_input("y", args.y)
        mode = args.mode or "exact"
        res = box_distance(X, Y, args.lam, mode, max_cells=args.max_cells, seed=args.seed)
        return res.to_jsonable(), inputs, 0

    if cmd == "me":
        X = space_input("space", args.space)
        f = _load_vector(args.f, X.n, "f")
        g = _load_vector(args.g, X.n, "g")
        inputs["f"] = {"path": args.f, "sha256": _digest(args.f)}
        inputs["g"] = {"path": args.g, "sha256": _digest(args.g)}
        return {"value": me_lambda(f, g, X.weights, args.lam)}, inputs, 0

    if cmd == "hlip":
        X = space_input("x", args.x)
        Y = space_input("y", args.y)
        mode = args.mode or ("exact0" if args.lam == 0.0 else "sampled")
        res = observable_distance(
            X, Y, args.lam, mode, samples=_count(args.samples, 48), seed=args.seed,
            max_cells=args.max_cells,
        )
        return res.to_jsonable(), inputs, 0

    if cmd == "matdist":
        X = space_input("space", args.space)
        count = _count(args.samples, None)
        if count is None:
            dist = exact_mu_r(X, args.r)
        else:
            dist = sample_mu_r(X, args.r, count, seed=args.seed)
        return dist.to_jsonable(), inputs, 0

    if cmd == "isotest":
        X = space_input("x", args.x)
        Y = space_input("y", args.y)
        return reconstruction_check(X, Y, args.max_r).to_jsonable(), inputs, 0

    if cmd == "prokhorov":
        X = space_input("space", args.space)
        mu = _load_vector(args.mu, X.n, "mu")
        nu = _load_vector(args.nu, X.n, "nu")
        inputs["mu"] = {"path": args.mu, "sha256": _digest(args.mu)}
        inputs["nu"] = {"path": args.nu, "sha256": _digest(args.nu)}
        return {"value": prokhorov(X, mu, nu)}, inputs, 0

    if cmd == "witness":
        Xn = space_input("xn", args.xn)
        X = space_input("x", args.x)
        w = witness_search(Xn, X, seed=args.seed)
        bound = box_upper_from_witness(Xn, X, w)
        return (
            {
                "eps": w.eps,
                "p": [int(v) for v in w.p],
                "subset": [int(v) for v in w.subset],
                "box1_upper_bound": bound,
            },
            inputs,
            0,
        )

    if cmd == "converge-report":
        X = space_input("space", args.space)
        sizes = [int(s) for s in str(args.sizes).split(",") if s.strip()]
        rep = empirical_convergence_experiment(X, sizes, seed=args.seed, max_cells=args.max_cells)
        lines = ["N,value,mode"] + [f"{n},{v!r},{mode}" for n, v, mode in rep.rows]
        return "\n".join(lines) + "\n", inputs, 0

    if cmd == "dominate":
        X = space_input("x", args.x)
        Y = space_input("y", args.y)
        cert = domination_search(X, Y)
        if cert is None:
            return {"dominates": False, "p": None, "c": None}, inputs, 0
        return (
            {"dominates": True, "p": [int(v) for v in cert.p], "c": cert.c},
            inputs,
            0,
        )

    if cmd == "homogeneous":
        X = space_input("space", args.space)
        group = isometry_group(X)
        return {"homogeneous": _is_transitive(X, group), "isometry_group_order": len(group)}, inputs, 0

    if cmd == "suite":
        names = None
        if args.properties:
            names = [s.strip() for s in str(args.properties).split(",") if s.strip()]
        scale = 1.0 if args.samples is None else args.samples
        rep = run_suite(seed=args.seed, samples=scale, names=names)
        return rep, inputs, 0 if rep["passed"] else 1

    raise InternalInvariantError(f"unhandled command {cmd!r}")  # pragma: no cover


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    t0 = time.perf_counter()
    try:
        result, inputs, code = _dispatch(args)
    except (SpaceFormatError, InvalidSpaceError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SizeLimitError as exc:
        print(f"size limit: {exc}", file=sys.stderr)
        return 2
    except (InternalInvariantError, AssertionError) as exc:
        print(f"internal invariant failure: {exc}", file=sys.stderr)
        return 3
    if isinstance(result, str):  # CSV report
        if args.out:
            Path(args.out).write_text(result, encoding="utf-8")
        else:
            sys.stdout.write(result)
        return code
    config = {
        k: v
        for k, v in sorted(vars(args).items())
        if k not in ("command", "out") and not callable(v)
    }
    report = {
        "command": args.command,
        "config": config,
        "inputs": inputs,
        "result": result,
        "wall_time_s": round(time.perf_counter() - t0, 6),
    }
    _emit(report, args.out)
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
