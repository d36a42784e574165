"""Command-line front end.

Loads spaces from JSON files, dispatches to the solvers and emits
deterministic reports: JSON with stable key ordering for every subcommand
except ``converge-report``, which emits CSV with columns ``N,value,mode``.
Reports echo the configuration and carry SHA-256 digests of the inputs, so
identical inputs and flags reproduce identical bytes except for the
``wall_time_s`` field.

Two tables state the interface once: ``_COMMANDS`` maps each subcommand to
its help, the space files it reads (its positionals) and its flags, and
``_FLAGS`` maps each flag to its ``add_argument`` keywords.  Every input file,
space or vector, goes through one reader that records its path and digest.

Exit codes: 0 success, 1 usage, parse or validation failure, 2 size-limit
refusal, 3 internal invariant failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from functools import partial
from pathlib import Path

import numpy as np

from .box import box_distance, box_upper_from_witness
from .core import FiniteMMSpace, _json_doc, _json_floats, _parse_space, validate, whole_number
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


def _parse_vector(data: bytes, path: str, what: str) -> np.ndarray:
    doc = _json_doc(data, path)
    if isinstance(doc, dict) and "values" in doc:
        doc = doc["values"]
    if not isinstance(doc, list):
        raise SpaceFormatError(f"{path}: expected a JSON array of numbers for {what}")
    return _json_floats(doc, path)


def _count(samples: float | None, default):
    """``--samples`` as a whole count; ``default`` only when the flag is absent."""
    return default if samples is None else whole_number(samples, "--samples", 0)


def _whole(text, flag: str) -> int:
    """A flag's count of at least one: ``text`` read as a number, then :func:`whole_number`."""
    try:
        value = float(text)
    except ValueError:
        raise ValueError(f"{flag} must be a number, got {text!r}") from None
    return whole_number(int(value) if value.is_integer() else value, flag, 1)


# flag name -> add_argument keywords of ``--<name>``
_FLAGS = {
    "f": {"required": True, "help": "JSON array of values"},
    "g": {"required": True, "help": "JSON array of values"},
    "mu": {"required": True, "help": "JSON array of masses"},
    "nu": {"required": True, "help": "JSON array of masses"},
    "r": {"default": 2},
    "sizes": {"default": "10,100,1000", "help": "comma-separated sample sizes"},
    "properties": {
        "default": None,
        "help": "comma-separated subset of: " + ", ".join(sorted(PROPERTIES)),
    },
    "lambda": {"dest": "lam", "type": float, "default": 1.0, "help": "mass-tradeoff parameter"},
    "mode": {"default": None},
    "seed": {"type": int, "default": 0},
    "max-cells": {"default": 64},
    "max-r": {"default": None},
    "samples": {"type": float, "default": None},
    "out": {"default": None, "help": "write the report here"},
}

# subcommand -> (help, space files it reads, flags in usage order)
_COMMANDS = {
    "validate": ("report invariant violations of a space file", ("space",), ("out",)),
    "box": (
        "box distance between two spaces",
        ("x", "y"),
        ("lambda", "mode", "seed", "max-cells", "out"),
    ),
    "me": ("me distance between two functions on a space", ("space",), ("f", "g", "lambda", "out")),
    "hlip": (
        "observable distance between two spaces",
        ("x", "y"),
        ("lambda", "mode", "seed", "samples", "max-cells", "out"),
    ),
    "matdist": ("matrix distribution of a space", ("space",), ("r", "samples", "seed", "out")),
    "isotest": ("reconstruction-based isomorphism test", ("x", "y"), ("max-r", "out")),
    "prokhorov": ("Prokhorov distance between two weightings", ("space",), ("mu", "nu", "out")),
    "witness": ("almost-isometry witness search", ("xn", "x"), ("seed", "out")),
    "converge-report": (
        "empirical-measure box convergence (CSV)",
        ("space",),
        ("sizes", "seed", "max-cells", "out"),
    ),
    "dominate": ("Lipschitz domination certificate search", ("x", "y"), ("out",)),
    "homogeneous": ("transitivity of the isometry group", ("space",), ("out",)),
    "suite": ("run the seeded property battery", (), ("properties", "seed", "samples", "out")),
}


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1 like any user error; exit 2 means a size-limit refusal."""

    def parse_known_args(self, args=None, namespace=None):
        # leftovers are an error of the parser holding them, so a subcommand prints its own usage
        args, extra = super().parse_known_args(args, namespace)
        if extra:
            self.error("unrecognized arguments: " + " ".join(extra))
        return args, extra

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    top = _Parser(
        prog="mmdist",
        description="distances and diagnostics for finite metric-measure spaces",
    )
    sub = top.add_subparsers(dest="command", required=True)
    for command, (help_text, files, flags) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        for name in files:
            p.add_argument(name)
        for name in flags:
            p.add_argument("--" + name, **_FLAGS[name])
    return top


def _dispatch(args: argparse.Namespace) -> tuple[dict | str, dict, int]:
    """Returns (result, inputs, exit_code); result may be CSV text."""
    cmd = args.command
    inputs: dict[str, dict] = {}
    for flag in ("max_cells", "r", "max_r"):  # checked before any file is read; the report echoes the int
        if getattr(args, flag, None) is not None:
            setattr(args, flag, _whole(getattr(args, flag), "--" + flag.replace("_", "-")))

    def load(name: str, parse):
        """``parse`` the file named by argument ``name``, read once; record its path and digest."""
        path = getattr(args, name)
        data = Path(path).read_bytes()
        inputs[name] = {"path": path, "sha256": hashlib.sha256(data).hexdigest()}
        return parse(data, path)

    # ``validate`` reports on the raw (labels, weights, dist); the others build a space
    parse = _parse_space if cmd == "validate" else lambda data, path: FiniteMMSpace(*_parse_space(data, path))
    spaces = [load(name, parse) for name in _COMMANDS[cmd][1]]
    X = spaces[0] if spaces else None

    def vectors(*names: str):
        return [load(name, partial(_parse_vector, what=name)) for name in names]

    if cmd == "validate":
        report = validate(*X)
        return {"ok": report.ok, "violations": list(report.violations)}, inputs, 0

    if cmd == "box":
        mode = args.mode or "exact"
        res = box_distance(*spaces, args.lam, mode, max_cells=args.max_cells, seed=args.seed)
        return res.to_jsonable(), inputs, 0

    if cmd == "me":
        f, g = vectors("f", "g")
        return {"value": me_lambda(f, g, X.weights, args.lam)}, inputs, 0

    if cmd == "hlip":
        res = observable_distance(
            *spaces, args.lam, args.mode, samples=_count(args.samples, 48), seed=args.seed,
            max_cells=args.max_cells,
        )
        return res.to_jsonable(), inputs, 0

    if cmd == "matdist":
        count = _count(args.samples, None)
        if count is None:
            dist = exact_mu_r(X, args.r)
        else:
            dist = sample_mu_r(X, args.r, count, seed=args.seed)
        return dist.to_jsonable(), inputs, 0

    if cmd == "isotest":
        return reconstruction_check(*spaces, args.max_r).to_jsonable(), inputs, 0

    if cmd == "prokhorov":
        mu, nu = vectors("mu", "nu")
        return {"value": prokhorov(X, mu, nu)}, inputs, 0

    if cmd == "witness":
        w = witness_search(*spaces, seed=args.seed)
        result = {
            "eps": w.eps,
            "p": [int(v) for v in w.p],
            "subset": [int(v) for v in w.subset],
            "box1_upper_bound": box_upper_from_witness(*spaces, w),
        }
        return result, inputs, 0

    if cmd == "converge-report":
        sizes = [_whole(s, "--sizes") for s in str(args.sizes).split(",") if s.strip()]
        rep = empirical_convergence_experiment(X, sizes, seed=args.seed, max_cells=args.max_cells)
        lines = ["N,value,mode"] + [f"{n},{v!r},{mode}" for n, v, mode in rep.rows]
        return "\n".join(lines) + "\n", inputs, 0

    if cmd == "dominate":
        cert = domination_search(*spaces)
        if cert is None:
            return {"dominates": False, "p": None, "c": None}, inputs, 0
        return {"dominates": True, "p": [int(v) for v in cert.p], "c": cert.c}, inputs, 0

    if cmd == "homogeneous":
        group = isometry_group(X)
        return {"homogeneous": _is_transitive(X, group), "isometry_group_order": len(group)}, inputs, 0

    if cmd == "suite":
        names = None
        if args.properties is not None:
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
    if not isinstance(result, str):  # every report but the CSV of converge-report
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
        result = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if args.out:
        Path(args.out).write_text(result, encoding="utf-8")
    else:
        sys.stdout.write(result)
    return code

if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
