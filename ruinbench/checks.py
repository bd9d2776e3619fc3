"""Output checks: each op's printed result against the references in
``refs.py`` or against a property the method must have.

``check(op, rc, out)`` returns a ``Verdict``; nothing here keeps a copy
of an earlier run's output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

import refs

ULTIMATE_TOL = 1e-10  # against the first-step solve
RANGE_SLACK = 1e-12  # phi in [0, 1] and non-decreasing in u, within this
FINITE_TOL = 1e-10  # against the forward DP
MC_SIGMAS = 5.0


@dataclass
class Verdict:
    ok: bool
    why: str = ""
    err: float | None = None  # max abs error against the reference
    info: dict = field(default_factory=dict)


def _csv_table(out: str):
    """Header, data rows and '# key: value' footer of a csv table."""
    header, rows, footer = None, [], {}
    for line in out.splitlines():
        if line.startswith("# "):
            key, _, val = line[2:].partition(": ")
            footer[key] = val
        elif header is None:
            header = line.split(",")
        elif line:
            rows.append(line.split(","))
    return header, rows, footer


def check_ultimate(op, out: str) -> Verdict:
    _, rows, footer = _csv_table(out)
    u_max = op.params["u_max"]
    info = {"case": footer.get("case")}
    for key in ("n_solve", "precision_bits"):
        if footer.get(key, "").isdigit():
            info[key] = int(footer[key])
    if len(rows) != 1 or rows[0][0] != "inf" or len(rows[0]) != u_max + 2:
        return Verdict(False, "malformed ultimate row", info=info)
    phi = np.array([float(v) for v in rows[0][1:]])
    ref = refs.first_step_phi(op.x, op.y, u_max)
    err = float(np.max(np.abs(phi - ref))) if np.all(np.isfinite(phi)) else math.inf
    if not err <= ULTIMATE_TOL:
        return Verdict(False, f"off the first-step solve by {err:.3e}", err, info)
    if phi.min() < -RANGE_SLACK or phi.max() > 1 + RANGE_SLACK:
        return Verdict(False, "phi outside [0, 1]", err, info)
    if len(phi) > 1 and np.diff(phi).min() < -RANGE_SLACK:
        return Verdict(False, "phi decreases in u", err, info)
    return Verdict(True, err=err, info=info)


def check_finite(op, out: str) -> Verdict:
    header, rows, _ = _csv_table(out)
    (u_lo, u_hi), (t_lo, t_hi) = op.params["u"], op.params["t"]
    if header is None or len(header) != u_hi - u_lo + 2 or len(rows) != t_hi - t_lo + 1:
        return Verdict(False, "malformed finite grid")
    if [int(r[0]) for r in rows] != list(range(t_lo, t_hi + 1)):
        return Verdict(False, "finite grid rows out of order")
    err = 0.0
    for u in op.params["sample_u"]:
        col = np.array([float(r[u - u_lo + 1]) for r in rows])
        dp = refs.forward_dp(op.x, op.y, u, t_hi)[t_lo - 1 :]
        err = max(err, float(np.max(np.abs(col - dp))))
    if not err <= FINITE_TOL:
        return Verdict(False, f"off the forward DP by {err:.3e}", err)
    return Verdict(True, err=err, info={"cells": (u_hi - u_lo + 1) * (t_hi - t_lo + 1)})


def check_simulate(op, out: str) -> Verdict:
    fields = dict(line.split(": ", 1) for line in out.splitlines() if ": " in line)
    try:
        est, se = float(fields["estimate"]), float(fields["stderr"])
    except (KeyError, ValueError):
        return Verdict(False, "malformed simulate output")
    truth = float(refs.forward_dp(op.x, op.y, op.params["u"], op.params["t"])[-1])
    z = abs(est - truth) / se if se > 0 else math.inf
    if not z <= MC_SIGMAS:
        return Verdict(False, f"estimate {z:.2f} standard errors off the DP value")
    return Verdict(True, info={"z": z})


def check_verify(op, out: str) -> Verdict:
    _, _, footer = _csv_table(out)
    counts = [v for k, v in footer.items() if k.startswith("table-")]
    if footer.get("result") != "ok" or not counts or any(not c.endswith(" 0 failed") for c in counts):
        return Verdict(False, "reference table mismatch")
    return Verdict(True)


def check_conjecture(op, out: str) -> Verdict:
    header, rows, footer = _csv_table(out)
    if header != ["n", "D_n"] or not rows:
        return Verdict(False, "malformed determinant trace")
    dets = np.array([float(r[1]) for r in rows])
    if not np.all(np.isfinite(dets)):
        return Verdict(False, "non-finite determinant")
    if np.any(dets == 0.0) or footer.get("zero_count") != "0":
        return Verdict(False, "zero determinant")
    return Verdict(True)


CHECKS = {
    "ultimate": check_ultimate,
    "finite": check_finite,
    "simulate": check_simulate,
    "verify": check_verify,
    "conjecture": check_conjecture,
}


def check(op, rc, out: str) -> Verdict:
    if rc != 0:
        return Verdict(False, f"exit code {rc}")
    return CHECKS[op.kind](op, out)
