"""What the benchmark measures: workloads, metrics and their bounds.

``BENCHMARK.json`` at the root of the repository is written from these
tables (``python3 perfbench/suite.py --write-spec``), so the runner and the
file cannot drift apart.
"""

from __future__ import annotations

import json
from pathlib import Path

from layers import SELF_TIME_LAYERS

COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]
RUN_SECONDS = 40

WORKLOADS = {
    "box-exact": "exact box_distance ladder 4x4 to 7x7 at lambda 0 and 1; stresses the "
                 "2^k min-cut flow value and the maximal-clique sweeps",
    "box-heuristic": "heuristic box_distance at lambda 1 on 12 to 24 points; scores couplings "
                     "through box_pair and max-weight cliques, never the flow or the sweeps",
    "diagnostics": "hli_lambda, reconstruction, witness, Prokhorov and the isotest/witness CLI; "
                   "thousands of tiny flows, Lipschitz vertices and r-tuple enumeration",
}

#: name -> (unit, better, bound as a share of the parent's median)
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "solve_s": ("s", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.1),
    "box_upper_mean": ("distance", "lower", 0.05),
    "hlip_lower_mean": ("distance", "higher", 0.05),
}


def per_layer() -> dict[str, tuple[str, str]]:
    """name -> (unit, better) of every per-layer metric."""
    out = {}
    for name in (
        "transport.max_flow_value.calls",
        "transport.max_flow.calls",
        "transport.prokhorov_distance.calls",
        "transport.northwest_plan.calls",
        "box.maximal_cliques.sweeps",
        "box.maximal_cliques.cliques",
        "box.best_flow_at.calls",
        "box.threshold_solve.calls",
        "box.max_weight_clique.calls",
        "box.box_pair.calls",
        "core.pullback_pair.calls",
        "core.metric_closure.calls",
        "lipschitz.vertices.calls",
        "lipschitz.vertices.count",
        "lipschitz.lip_point_distance.calls",
        "matrixdist.exact_mu_r.tuples",
        "limits.witness_search.maps",
    ):
        out[name] = ("count", "lower")
    out["box.best_flow_at.flow_ratio"] = ("ratio", "lower")
    for layer in SELF_TIME_LAYERS:
        out[layer + ".self_s"] = ("s", "lower")
    out["trace.overhead_ratio"] = ("ratio", "lower")
    return out


def benchmark_json() -> dict:
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": k, "why": v} for k, v in WORKLOADS.items()],
        "end_to_end": [
            {"name": k, "unit": u, "better": b, "bound": bound}
            for k, (u, b, bound) in END_TO_END.items()
        ],
        "per_layer": [{"name": k, "unit": u, "better": b} for k, (u, b) in per_layer().items()],
    }


def write_benchmark_json(root: Path) -> None:
    (root / "BENCHMARK.json").write_text(json.dumps(benchmark_json(), indent=2) + "\n", encoding="utf-8")
