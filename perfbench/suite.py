"""Run every workload on several seeds, each run in a fresh process.

    python3 perfbench/suite.py --runs 10 [--workloads box-exact,diagnostics]
                               [--first-seed 1] [--write-spec]

For each end-to-end metric it prints the median over the runs and the
spread, the distance between the first and third quartile as a share of the
median (``statistics.quantiles(values, n=4)``), next to the metric's bound.
All results go to ``perfbench/out/suite-<time>.json``.  ``--write-spec``
also rewrites ``BENCHMARK.json`` from ``spec.py``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spec

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_one(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(spec.RUN_SECONDS), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else 0.0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default=",".join(spec.WORKLOADS))
    ap.add_argument("--write-spec", action="store_true")
    args = ap.parse_args(argv)
    if args.write_spec:
        spec.write_benchmark_json(ROOT)

    results = {}
    for workload in args.workloads.split(","):
        rows = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            t0 = time.perf_counter()
            rows.append(dict(run_one(workload, seed), seed=seed, run_s=time.perf_counter() - t0))
            print(f"{workload} seed {seed}: {rows[-1]['run_s']:.1f} s, "
                  + ", ".join(f"{k}={v['value']:.6g}" for k, v in rows[-1]["metrics"].items()),
                  flush=True)
        results[workload] = rows
        if len(rows) < 2:
            continue
        print(f"{workload}: correct={all(r['correct'] for r in rows)} "
              f"failed share={sorted({r['failed'] / r['attempted'] for r in rows})}")
        for name, (unit, _, bound) in spec.END_TO_END.items():
            values = [r["metrics"][name]["value"] for r in rows]
            s = spread(values)
            print(f"  {name:16s} median {statistics.median(values):12.6g} {unit:8s} "
                  f"spread {s:7.4f}  bound {bound:5.3f}  {'ok' if s < bound / 3 else 'WIDE'}")
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    path = out / f"suite-{time.strftime('%Y%m%d-%H%M%S')}.json"
    path.write_text(json.dumps(results, indent=1) + "\n", encoding="utf-8")
    print(f"results in {path.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
