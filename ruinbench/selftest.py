"""Self-test of the benchmark's references, run from a checkout root:

    python3 ruinbench/selftest.py             # the references alone, then once against ruinwalk
    python3 ruinbench/selftest.py --far-fail  # also: every far row kept as failing does fail

Checks that
* the forward DP reproduces phi(u, 1) = P(X <= u + 1) and
  phi(u, 2) = sum_k x_k P(Y <= u + 3 - k);
* the two references agree with each other: the first-step phi(u) lies
  below the DP's phi(u, T) for every T and comes within 1e-9 of it at a
  long horizon;
* moving the first-step wall twice as far changes nothing;
* the references agree once with ruinwalk's own oracles,
  ``boundary_oracle`` and ``dp_survival_curve``.
"""

from __future__ import annotations

import argparse
import io
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import checks  # noqa: E402
import refs  # noqa: E402
import workloads  # noqa: E402

LONG_T = 4000
ROUTES = ("A", "B", "C.s1", "C.s3", "D.v1", "D.v4")


def _models():
    rng = np.random.default_rng(7)
    models = [(route, *workloads.dyadic_model(rng, route)) for route in ROUTES]
    models.append(("dpois 1,0 / 2,0", refs.dpois_atoms(1.0, 0), refs.dpois_atoms(2.0, 0)))
    return models


def reference_checks() -> list[str]:
    failures = []
    for name, x, y in _models():
        X, Y = np.cumsum(x), np.cumsum(y)

        def cdf(c, k):
            return 0.0 if k < 0 else float(c[min(k, len(c) - 1)])

        phi = refs.first_step_phi(x, y, 20)
        far = refs.first_step_phi(x, y, 20, tail=1e-32)
        if np.max(np.abs(phi - far)) > 1e-14:
            failures.append(f"{name}: first-step values move with the wall")
        for u in range(0, 21, 4):
            dp = refs.forward_dp(x, y, u, LONG_T)
            one = cdf(X, u + 1)
            two = sum(x[k] * cdf(Y, u + 3 - k) for k in range(min(len(x), u + 2)))
            if abs(dp[0] - one) > 1e-15 or abs(dp[1] - two) > 1e-15:
                failures.append(f"{name}, u={u}: DP misses phi(u, 1) or phi(u, 2)")
            if np.min(dp - phi[u]) < -1e-12:
                failures.append(f"{name}, u={u}: first-step phi above the DP at some horizon")
            if abs(dp[-1] - phi[u]) > 1e-9:
                failures.append(f"{name}, u={u}: DP at T={LONG_T} is {abs(dp[-1] - phi[u]):.2e} off")
    return failures


def program_checks(ruinwalk) -> list[str]:
    failures = []
    for name, x, y in _models():
        model = ruinwalk.ModelSpec(x=ruinwalk.from_probs(x / x.sum()), y=ruinwalk.from_probs(y / y.sum()))
        gap = np.max(np.abs(ruinwalk.boundary_oracle(model, 40, u_big=800) - refs.first_step_phi(x, y, 40)))
        if gap > 1e-12:
            failures.append(f"{name}: boundary_oracle differs by {gap:.2e}")
        for u in (0, 5, 17):
            gap = np.max(np.abs(ruinwalk.dp_survival_curve(model, u, 300) - refs.forward_dp(x, y, u, 300)))
            if gap > 1e-12:
                failures.append(f"{name}, u={u}: dp_survival_curve differs by {gap:.2e}")
    return failures


def far_fail_checks(cli) -> list[str]:
    failures = []
    for r in range(workloads.MAX_ROUNDS):
        for op in workloads.ultimate_rows_round(0, r):
            if not op.expect_fail:
                continue
            with redirect_stdout(io.StringIO()) as out, redirect_stderr(io.StringIO()):
                rc = cli.main(op.argv)
            if checks.check(op, rc, out.getvalue()).ok:
                failures.append(f"{op.label} round {r} passes: it no longer fails")
    return failures


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--far-fail", action="store_true")
    ns = ap.parse_args(argv)

    failures = reference_checks()
    print(f"references: {'ok' if not failures else 'FAILED'}")
    sys.path.insert(0, str(HERE.parent / "src"))
    import ruinwalk
    import ruinwalk.cli

    more = program_checks(ruinwalk)
    print(f"against boundary_oracle and dp_survival_curve: {'ok' if not more else 'FAILED'}")
    failures += more
    if ns.far_fail:
        more = far_fail_checks(ruinwalk.cli)
        print(f"far rows kept as failing, {workloads.MAX_ROUNDS} rounds: {'fail' if not more else 'SOME PASS'}")
        failures += more
    for line in failures:
        print("  " + line)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
