"""Steadiness check: run one workload several times, a fresh process and
a new seed each time, and print each metric's median, quartiles and
spread (interquartile distance over the median), with the failed share.

    python3 ruinbench/steady.py --workload ultimate-rows --runs 10 --seconds 25

Runs go one after another, never side by side. Bounds are read from
BENCHMARK.json at the checkout root when it is there.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--first-seed", type=int, default=1)
    ns = ap.parse_args(argv)

    bounds = {}
    bench = ROOT / "BENCHMARK.json"
    if bench.is_file():
        spec = json.loads(bench.read_text())
        bounds = {m["name"]: m["bound"] for m in spec.get("end_to_end", [])}

    results = []
    for seed in range(ns.first_seed, ns.first_seed + ns.runs):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", ns.workload, "--seed", str(seed),
             "--seconds", str(ns.seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=600,
        )
        if proc.returncode != 0:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        results.append(res)
        vals = " ".join(f"{k}={v['value']:.5g}" for k, v in res["metrics"].items())
        print(f"seed {seed}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']} {vals}", flush=True)

    shares = sorted({r["failed"] / r["attempted"] for r in results})
    print(f"failed share: {', '.join(f'{s:.6f}' for s in shares)}")
    worst = 0.0
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        bound = bounds.get(name)
        note = f" bound {bound} (spread/bound {spread / bound:.2f})" if bound else ""
        if bound and name != "setup_s":
            worst = max(worst, spread / bound)
        print(f"{name}: median {med:.6g} q1 {q1:.6g} q3 {q3:.6g} spread {spread:.4f}{note}")
    if bounds:
        print(f"largest spread/bound, setup_s aside: {worst:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
