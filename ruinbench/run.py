"""Run one workload of the ruinwalk benchmark and print its metrics.

    python3 ruinbench/run.py --workload paper-tables --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout: the program is imported from
``src/`` there and nowhere else. Each op is one in-process call of
``ruinwalk.cli.main(argv)`` with its output captured; one caller runs
the ops back to back (a closed loop, one client). Every output is
checked against the references in ``refs.py`` outside the timed part.

With ``--trace 0`` the last line carries the end-to-end metrics, with
``--trace 1`` the per-layer ones, taken from spans that ``tracing.py``
installs around ruinwalk's public functions. Details of the run go to
``.ruinbench-out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".ruinbench-out"

NPROC = len(os.sched_getaffinity(0))
THREAD_CAPS = {v: str(NPROC) for v in
               ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")}
# Set before numpy is first imported, here and in every child process.
os.environ.update(THREAD_CAPS)

import numpy as np  # noqa: E402

sys.path.insert(0, str(HERE))
import checks  # noqa: E402
import hostspeed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# Setup is sampled between rounds, about every 1/SETUP_SAMPLES of the run,
# so that its median spans the run like the op metrics do; runs with
# fewer rounds are topped up at the end.
SETUP_SAMPLES = 11
# Process start until the first op could run: interpreter start, the
# import of the CLI with everything it pulls in, and the warm-up calls.
_SETUP_CHILD = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
import ruinwalk.cli
with contextlib.redirect_stdout(io.StringIO()):
    for argv in json.loads(sys.argv[2]):
        ruinwalk.cli.main(argv)
sys.stdout.write("ready\\n")
"""
TAIL_BEYOND = 10  # ops beyond the reported tail percentile
WALL_CAP = 1.5  # a run stops after this many times --seconds of op wall time
MIX_SAMPLES = 3  # host-speed samples after each op (hostspeed.py)


def setup_probe() -> tuple[float, float]:
    """Wall time of a fresh process from spawn until it is ready, and the
    median mix time around it (three samples before, three after). This
    process and the child share one CPU for the while, so that the mix
    times the CPU the child runs on: the host's CPUs change speed apart."""
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(allowed)})
    try:
        mix = [hostspeed.mix_seconds() for _ in range(MIX_SAMPLES)]
        argv = [sys.executable, "-c", _SETUP_CHILD, str(SRC), json.dumps(workloads.WARMUP)]
        t0 = time.perf_counter()
        with subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            dt = time.perf_counter() - t0
            proc.stdout.read()
            proc.wait()
        mix += [hostspeed.mix_seconds() for _ in range(MIX_SAMPLES)]
    finally:
        os.sched_setaffinity(0, allowed)
    if line != "ready\n" or proc.returncode != 0:
        raise RuntimeError("setup probe could not import ruinwalk")
    return dt, statistics.median(mix)


def import_program():
    if not (SRC / "ruinwalk" / "__init__.py").is_file():
        raise RuntimeError(f"no ruinwalk sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import ruinwalk
    import ruinwalk.cli

    if not Path(ruinwalk.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"ruinwalk was imported from {ruinwalk.__file__}, not {SRC}")
    return ruinwalk


def environment() -> dict:
    import mpmath
    import mpmath.libmp

    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "nproc": NPROC,
        "thread_caps": THREAD_CAPS,
    }


def tail_value(times: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest nearest-rank percentile with at
    least TAIL_BEYOND ops above it; the maximum when there are too few ops."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return 100.0, ordered[-1]
    rank = n - TAIL_BEYOND  # 1-based rank of the reported op
    return 100.0 * rank / n, ordered[rank - 1]


def run_ops(cli, workload: str, seed: int, seconds: float, tracer, setup_times):
    """Whole rounds of ops until ``seconds`` of op time on the nominal host
    are spent, with setup probes between rounds when ``setup_times`` is a
    list. Counting nominal time keeps the number of rounds, and so the
    ranks at which the median and tail ops fall, from following the
    host's speed; wall time is capped at WALL_CAP times ``seconds``."""
    make_round = workloads.WORKLOADS[workload]
    records = []
    op_time = nominal_time = ref_time = 0.0
    next_probe = 0.0
    r = 0
    before = [hostspeed.mix_seconds() for _ in range(MIX_SAMPLES)]
    while True:
        for op in make_round(seed, r):
            if tracer is not None:
                tracer.op = len(records)
            out, err = io.StringIO(), io.StringIO()
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    rc = cli.main(op.argv)
                except Exception as exc:  # an uncaught error fails this op only
                    rc = f"{type(exc).__name__}: {exc}"
            dt = time.perf_counter() - t0
            t1 = time.perf_counter()
            verdict = checks.check(op, rc, out.getvalue())
            ref_time += time.perf_counter() - t1
            # The host's speed around the op: mix samples just before and after.
            after = [hostspeed.mix_seconds() for _ in range(MIX_SAMPLES)]
            factor = hostspeed.scale(before + after)
            before = after
            op_time += dt
            nominal_time += dt * factor
            records.append({"round": r, "label": op.label, "kind": op.kind, "seconds": dt * factor,
                            "wall_s": dt, "scale": factor, "ok": verdict.ok, "expect_fail": op.expect_fail,
                            "why": verdict.why, "err": verdict.err, "stderr": err.getvalue()[-300:],
                            **verdict.info})
        r += 1
        if setup_times is not None and nominal_time >= next_probe:
            setup_times.append(setup_probe())
            next_probe += seconds / SETUP_SAMPLES
            before = [hostspeed.mix_seconds() for _ in range(MIX_SAMPLES)]
        if nominal_time >= seconds or op_time >= WALL_CAP * seconds or r >= workloads.MAX_ROUNDS:
            break
    return records, op_time, nominal_time, ref_time


def nominal_setup(setup_times) -> list[float]:
    """Setup samples in nominal-host seconds."""
    return [dt * hostspeed.scale([mix]) for dt, mix in setup_times]


def end_to_end(records, setup_times) -> dict:
    """The end-to-end metrics, in nominal-host time (see hostspeed.py);
    setup_s only when setup was sampled."""
    times = [rec["seconds"] for rec in records]
    passed = sum(rec["ok"] for rec in records)
    _, tail = tail_value(times)
    m = {
        "setup_s": (statistics.median(nominal_setup(setup_times)), "s") if setup_times else None,
        "goodput_ops_s": (passed / sum(times), "ops/s"),
        "op_p50_s": (statistics.median(times), "s"),
        "op_tail_s": (tail, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return {k: {"value": v[0], "unit": v[1]} for k, v in m.items() if v is not None}


# Per-layer time metrics: self time of these spans, per op attempted.
LAYER_TIMES = {
    "pmf.parse_s": ("pmf.parse_pmf_spec", "pmf.make_displaced_poisson", "pmf.from_probs", "pmf.point_mass"),
    "pmf.convolve_s": ("pmf.convolve",),
    "model.classify_s": ("model.classify", "model.net_profit_margin"),
    "ultimate.sequences_s": ("ultimate.build_sequences",),
    "ultimate.solve_s": ("ultimate.solve_initials",),
    "ultimate.extend_s": ("ultimate.extend_ultimate",),
    "ultimate.residuals_s": ("ultimate.residuals",),
    "finite.grid_s": ("finite.survival_finite",),
    "finite.mc_s": ("finite.mc_estimate",),
    "cli.self_s": ("cli.main",),
    "reference_tables.verify_s": ("reference_tables.verify_table", "reference_tables.verify_all"),
    "conjectures.trace_s": ("conjectures.determinant_trace", "conjectures.difference_matrix",
                            "conjectures.coefficient_chain"),
}


def per_layer(tracer, records, ref_time, span_cost) -> dict:
    n_ops = len(records)
    self_t = tracer.self_times()
    by_name: dict[str, list[int]] = {}
    for span in tracer.spans:
        by_name.setdefault(span[2], []).append(span[0])

    def total(names):
        return sum(self_t[i] for n in names for i in by_name.get(n, ()))

    def infos(name, key):
        return [tracer.spans[i][6][key] for i in by_name.get(name, ())]

    def rate(work, seconds):
        return work / seconds if seconds > 0 else 0.0

    m = {name: (total(spans) / n_ops, "s/op") for name, spans in LAYER_TIMES.items()}
    seq_s = total(LAYER_TIMES["ultimate.sequences_s"])
    grid_s = total(LAYER_TIMES["finite.grid_s"])
    mc_s = total(LAYER_TIMES["finite.mc_s"])
    m["model.classify_calls"] = (len(by_name.get("model.classify", ())) / n_ops, "calls/op")
    m["ultimate.sequences_calls"] = (len(by_name.get("ultimate.build_sequences", ())) / n_ops, "calls/op")
    m["ultimate.sequence_terms_per_s"] = (rate(sum(infos("ultimate.build_sequences", "terms")), seq_s), "terms/s")
    m["ultimate.bits_max"] = (max(infos("ultimate.build_sequences", "bits")
                                  + infos("ultimate.solve_initials", "bits"), default=0), "bits")
    m["ultimate.n_solve_max"] = (max(infos("ultimate.solve_initials", "n_solve"), default=0), "index")
    m["finite.grid_cells_per_s"] = (rate(sum(infos("finite.survival_finite", "cells")), grid_s), "cells/s")
    m["finite.mc_trial_periods_per_s"] = (rate(sum(infos("finite.mc_estimate", "trial_periods")), mc_s),
                                          "trial-periods/s")
    m["finite.mc_alloc_peak_mb"] = (max(infos("finite.mc_estimate", "alloc_peak_bytes"), default=0) / 2**20, "MB")
    for kind in ("ultimate", "finite"):
        errs = [rec["err"] for rec in records if rec["kind"] == kind and rec["ok"]]
        m[f"{kind}.max_abs_err"] = (max(errs, default=0.0), "abs")
    m["bench.reference_s"] = (ref_time / n_ops, "s/op")
    m["bench.trace_overhead_s"] = (len(tracer.spans) * span_cost / n_ops, "s/op")
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def by_label(records) -> list[dict]:
    """Per-slot summary: op count, median seconds, bits, n_solve, error."""
    groups: dict[str, list[dict]] = {}
    for rec in records:
        groups.setdefault(rec["label"], []).append(rec)
    rows = []
    for label, recs in groups.items():
        errs = [r["err"] for r in recs if r["err"] is not None]
        rows.append({
            "label": label,
            "ops": len(recs),
            "failed": sum(not r["ok"] for r in recs),
            "median_s": statistics.median(r["seconds"] for r in recs),
            "median_wall_s": statistics.median(r["wall_s"] for r in recs),
            "bits": sorted({r["precision_bits"] for r in recs if "precision_bits" in r}),
            "n_solve": sorted({r["n_solve"] for r in recs if "n_solve" in r}),
            "max_err": max(errs) if errs else None,
        })
    return rows


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = ap.parse_args(argv)
    if ns.seed < 0:
        ap.error("--seed must be >= 0")

    try:
        ruinwalk = import_program()
        setup_times = None
        if not ns.trace:
            setup_probe()  # fills the file cache and writes bytecode; not kept
            setup_times = []
    except RuntimeError as exc:
        print(f"ruinbench: {exc}", file=sys.stderr)
        return 2
    with contextlib.redirect_stdout(io.StringIO()):
        for warm in workloads.WARMUP:
            ruinwalk.cli.main(warm)
    env = environment()
    print("env: " + json.dumps(env, sort_keys=True))

    tracer = span_cost = None
    if ns.trace:
        span_cost = tracing.wrapper_cost()
        tracer = tracing.Tracer()
        tracer.install(ruinwalk)
    records, op_time, nominal_time, ref_time = run_ops(ruinwalk.cli, ns.workload, ns.seed, ns.seconds, tracer, setup_times)
    while setup_times is not None and len(setup_times) < SETUP_SAMPLES:
        setup_times.append(setup_probe())

    failed = sum(not rec["ok"] for rec in records)
    unexpected = [rec for rec in records if not rec["ok"] and not rec["expect_fail"]]
    e2e = end_to_end(records, setup_times)
    scales = [rec["scale"] for rec in records]
    metrics = per_layer(tracer, records, ref_time, span_cost) if ns.trace else e2e
    pct, _ = tail_value([rec["seconds"] for rec in records])

    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"{ns.workload}-seed{ns.seed}-trace{ns.trace}"
    summary = by_label(records)
    with open(f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump({"workload": ns.workload, "seed": ns.seed, "seconds": ns.seconds, "env": env,
                   "setup_wall_s": [dt for dt, _ in setup_times or ()],
                   "setup_s": nominal_setup(setup_times or ()), "nominal_mix_s": hostspeed.NOMINAL_S,
                   "scale_min": min(scales), "scale_median": statistics.median(scales),
                   "scale_max": max(scales),
                   "op_time": op_time, "nominal_op_time": nominal_time, "reference_time": ref_time,
                   "tail_percentile": pct, "end_to_end": e2e, "metrics": metrics, "by_label": summary,
                   "records": records}, fh, indent=1)
    if tracer is not None:
        tracer.dump(f"{stem}.spans.jsonl")

    for row in summary:
        print("op: " + json.dumps(row))
    if ns.trace:
        # The same figures with spans on, to set against an untraced run.
        print("traced end-to-end: " + json.dumps({k: v["value"] for k, v in e2e.items()}))
    for rec in unexpected[:5]:
        print(f"unexpected failure: {rec['label']} round {rec['round']}: {rec['why']} {rec['stderr']}")
    print(f"ops: {len(records)} in {op_time:.2f} s of op wall time ({nominal_time:.2f} s nominal), "
          f"tail percentile {pct:.1f}, "
          f"reference checks {ref_time:.2f} s, host scale {min(scales):.3f} to {max(scales):.3f}, "
          f"median {statistics.median(scales):.3f}")
    print(json.dumps({"correct": not unexpected, "attempted": len(records), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
