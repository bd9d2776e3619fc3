"""The benchmark's workloads: seeded inputs, laid out in whole rounds.

A run repeats rounds until its time is spent; round r of every run of a
workload holds the same operations in the same order, drawn from
``(seed, r)``, so the share of failing operations is a fixed property
of the workload. No two operations in one run share their inputs.

Claim models are given to the program either as explicit atom lists in
multiples of 2^-16 (exact in float64, so no mass is lost to truncation
and the pair sum X + Y is exact too) or as displaced Poisson specs with
``--tail-tol 1e-15``, whose dropped mass moves phi by about 1e-12.
Both keep the program within 1e-10 of the float64 references in
``refs.py`` wherever it is correct.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

import refs

QUANTUM = 1 << 16
DPOIS_TAIL_TOL = "1e-15"

# Claim shifts (x, y) that put the smallest positive atom of s = X + Y at
# x_shift + y_shift and select each solver route.
ROUTES = {
    "A": (0, 0),
    "B": (1, 0),
    "C.s1": (1, 1),
    "C.s2": (0, 2),
    "C.s3": (2, 0),
    "D.v1": (2, 1),
    "D.v2": (1, 2),
    "D.v3": (3, 0),
    "D.v4": (0, 3),
}
# Poisson rate ranges per route. Margins 4 - E[s] stay at 0.3 or more,
# and every model of a route lands in the same precision mode: the
# sequence routes' pivots s_{m*} are small enough, like the bundled
# tables', that the first build at 256 bits overflows its headroom and
# is redone at about 370 to 430 bits. A range that straddled that
# threshold would make an op's cost jump with the seed.
RATES = {
    "A": ((0.9, 1.1), (1.8, 2.0)),
    "B": ((0.9, 1.0), (1.4, 1.6)),
    "C.s1": ((0.7, 0.8), (0.7, 0.8)),
    "C.s2": ((0.8, 0.9), (0.6, 0.7)),
    "C.s3": ((0.6, 0.7), (0.8, 0.9)),
    "D.v1": ((0.25, 0.35), (0.25, 0.35)),
    "D.v2": ((0.25, 0.35), (0.25, 0.35)),
    "D.v3": ((0.25, 0.35), (0.25, 0.35)),
    "D.v4": ((0.25, 0.35), (0.25, 0.35)),
}
SEQUENCE_ROUTES = ("A", "B", "C.s1", "C.s2", "C.s3")

# ultimate-rows: u_max per level. Far rows on the sequence routes fail
# today (D1); their models come from the round index alone, never from
# the seed, so they fail in every run whatever the seed.
U_NEAR, U_MID, U_FAR = 60, 120, 600
# Two more near rows on case-D routes, which skip the sequence kernel and
# cost a tenth of a C row. With them 10 of the 30 rows of a round cost
# less than the C rows, so the median op falls among the three C middle
# rows, not at the gap between the C and B rows, where it would jump
# between the two whenever the share of slowed ops moved. A second far
# row on route B (failing like the first) makes the two B far rows of
# every round the group that holds the 11th slowest op: in a run of 5 to
# 8 rounds it falls inside that group, not at its edge.
EXTRA_NEAR = ("D.v1", "D.v3")
# A run ends after this many rounds at the latest: the far failing inputs
# are checked (selftest.py --far-fail) to fail in every round below it.
MAX_ROUNDS = 64

# finite-mc: horizons are fixed per slot so that each run makes the same
# largest Monte Carlo chunk (65536 x t doubles) and the same grid sizes.
# The grid horizons differ, so that op costs spread evenly around the
# median op. Two simulations at the longest horizon make the slowest
# 2 x rounds ops of a run alike, so in a run of 7 rounds or more the 11th
# slowest falls inside that group, at least three ops from its lower
# edge. At the edge it would be the extreme of the next group down, which
# jumps from run to run.
FINITE_HORIZONS = (1000, 1300, 1600, 2000)
FINITE_ROUTES = ("A", "B", "C.s1", "C.s3")
FINITE_U_MAX = 30
MC_HORIZONS = (60, 180, 180)
MC_TRIALS = 100_000


@dataclass
class Op:
    """One CLI call and what its check needs."""

    kind: str  # ultimate | finite | simulate | verify | conjecture
    label: str  # slot name, the same in every round
    argv: list[str]
    x: np.ndarray | None = None
    y: np.ndarray | None = None
    expect_fail: bool = False
    params: dict = field(default_factory=dict)


def dyadic_poisson(lam: float, shift: int, size: int) -> np.ndarray:
    """Poisson(lam) atoms 0..size-1 shifted by ``shift``, floored to
    multiples of 2^-16 with the remainder put on the mode, so they sum to
    1 exactly. A fixed ``size`` per route keeps every loop over the
    support the same length whatever the seed."""
    terms = np.zeros(size)
    head = refs.dpois_atoms(lam, 0)[:size]
    terms[: len(head)] = head
    k = np.floor(terms * QUANTUM).astype(np.int64)
    k[int(np.argmax(k))] += QUANTUM - int(k.sum())
    if k[0] <= 0:
        raise ValueError(f"rate {lam} leaves no mass on the lowest atom")
    out = np.zeros(shift + size)
    out[shift:] = k / QUANTUM
    return out


def _size(lam_hi: float) -> int:
    """Atoms up to the last one above 1e-6 at the top rate of a range."""
    return len(refs.dpois_atoms(lam_hi, 0, floor=1e-6))


def pmf_spec(p: np.ndarray) -> str:
    return "pmf:" + ",".join(repr(float(v)) for v in p)


def _margin(x: np.ndarray, y: np.ndarray) -> float:
    return 4.0 - float(np.dot(np.arange(len(x)), x) + np.dot(np.arange(len(y)), y))


def _draw_rates(rng: np.random.Generator, route: str) -> tuple[float, float]:
    (xl, xh), (yl, yh) = RATES[route]
    return round(float(rng.uniform(xl, xh)), 4), round(float(rng.uniform(yl, yh)), 4)


def _far_rates(route: str, r: int, variant: int) -> tuple[float, float]:
    """Mid-range rates nudged by the round index, up for variant 0 and
    down for variant 1: distinct inputs in every round at nearly the same
    cost, so the slowest ops stay alike."""
    (xl, xh), (yl, yh) = RATES[route]
    step = 5e-4 * r if variant == 0 else -5e-4 * (r + 1)
    return round((xl + xh) / 2 + step, 4), round((yl + yh) / 2 + step, 4)


def dyadic_model(rng: np.random.Generator | None, route: str, far_round: int | None = None,
                 variant: int = 0):
    lx, ly = _draw_rates(rng, route) if far_round is None else _far_rates(route, far_round, variant)
    sx, sy = ROUTES[route]
    (_, xh), (_, yh) = RATES[route]
    x, y = dyadic_poisson(lx, sx, _size(xh)), dyadic_poisson(ly, sy, _size(yh))
    if _margin(x, y) < 0.3:
        raise ValueError(f"rates {lx}, {ly} leave too small a margin on route {route}")
    return x, y


def _ultimate(label, x, y, u_max, expect_fail=False):
    argv = ["ultimate", "--x", pmf_spec(x), "--y", pmf_spec(y), "--u-max", str(u_max),
            "--raw", "--format", "csv"]
    return Op("ultimate", label, argv, x, y, expect_fail, {"u_max": u_max})


def _dpois_pair(rng, route):
    lx, ly = _draw_rates(rng, route)
    sx, sy = ROUTES[route]
    specs = (f"dpois:{lx!r},{sx}", f"dpois:{ly!r},{sy}")
    return specs, refs.dpois_atoms(lx, sx), refs.dpois_atoms(ly, sy)


def paper_tables_round(seed: int, r: int) -> list[Op]:
    rng = np.random.default_rng([seed, r])
    ops = []
    if r == 0:
        # Each bundled table once per run: repeats would share inputs.
        for k in range(1, 6):
            ops.append(Op("verify", f"verify/{k}", ["verify-paper", "--table", str(k), "--format", "csv"]))
    for which, route in ((1, "A"), (2, "B")):
        (xs, ys), _, _ = _dpois_pair(rng, route)
        ops.append(Op("conjecture", f"conjecture/{which}",
                      ["conjecture", "--x", xs, "--y", ys, "--which", str(which), "--n-max", "100",
                       "--raw", "--format", "csv", "--tail-tol", DPOIS_TAIL_TOL]))
    # Eight ultimate rows to two grids and two traces, so that the median
    # op is an ultimate solve. Three C rows, three B rows and two A rows
    # put it where the C and B costs meet, so that it moves smoothly with
    # the share of ops the host slows; inside one tight cluster it jumps.
    for i, route in enumerate(("A", "B", "C.s1", "C.s2", "C.s3", "A", "B", "B")):
        (xs, ys), x, y = _dpois_pair(rng, route)
        common = ["--x", xs, "--y", ys, "--raw", "--format", "csv", "--tail-tol", DPOIS_TAIL_TOL]
        if i < 2:
            ops.append(Op("finite", f"finite/{route}", ["finite", *common, "--u", "0..50", "--t", "1..100"],
                          x, y, params={"u": (0, 50), "t": (1, 100), "sample_u": (0, 7, 50)}))
        ops.append(Op("ultimate", f"ultimate/{route}/50/{i}",
                      ["ultimate", *common, "--u-max", "50"], x, y, params={"u_max": 50}))
    return ops


def ultimate_rows_round(seed: int, r: int) -> list[Op]:
    rng = np.random.default_rng([seed, r])
    ops = []
    for route in ROUTES:
        for level, u in (("near", U_NEAR), ("mid", U_MID)):
            x, y = dyadic_model(rng, route)
            ops.append(_ultimate(f"ultimate/{route}/{level}", x, y, u))
    for route in EXTRA_NEAR:
        x, y = dyadic_model(rng, route)
        ops.append(_ultimate(f"ultimate/{route}/near2", x, y, U_NEAR))
    for route in ROUTES:
        if route in SEQUENCE_ROUTES:
            x, y = dyadic_model(None, route, far_round=r)
            ops.append(_ultimate(f"ultimate/{route}/far", x, y, U_FAR, expect_fail=True))
        else:
            x, y = dyadic_model(rng, route)
            ops.append(_ultimate(f"ultimate/{route}/far", x, y, U_FAR))
    x, y = dyadic_model(None, "B", far_round=r, variant=1)
    ops.append(_ultimate("ultimate/B/far2", x, y, U_FAR, expect_fail=True))
    return ops


def finite_mc_round(seed: int, r: int) -> list[Op]:
    rng = np.random.default_rng([seed, r])
    ops = []
    for route, t in zip(FINITE_ROUTES, FINITE_HORIZONS):
        x, y = dyadic_model(rng, route)
        sample = tuple(sorted({0, int(rng.integers(1, FINITE_U_MAX)), FINITE_U_MAX}))
        ops.append(Op("finite", f"finite/{route}/{t}",
                      ["finite", "--x", pmf_spec(x), "--y", pmf_spec(y), "--u", f"0..{FINITE_U_MAX}",
                       "--t", f"1..{t}", "--raw", "--format", "csv"],
                      x, y, params={"u": (0, FINITE_U_MAX), "t": (1, t), "sample_u": sample}))
    for i, t in enumerate(MC_HORIZONS):
        x, y = dyadic_model(rng, "A")
        # Capital 2..5 keeps phi(u, t) well inside (0, 1) for these
        # models, so the standard error is never zero.
        u = int(rng.integers(2, 6))
        mc_seed = int(rng.integers(0, 2**31))
        ops.append(Op("simulate", f"simulate/{t}/{i}",
                      ["simulate", "--x", pmf_spec(x), "--y", pmf_spec(y), "--u", str(u), "--t", str(t),
                       "--trials", str(MC_TRIALS), "--seed", str(mc_seed)],
                      x, y, params={"u": u, "t": t}))
    return ops


# Untimed calls made once before the first op (and by each setup probe),
# so that lazily imported code and first-call costs are paid up front.
_WARM_X, _WARM_Y = "pmf:0.5,0.5", "pmf:0.25,0.5,0.25"
WARMUP = (
    ["ultimate", "--x", _WARM_X, "--y", _WARM_Y, "--u-max", "12", "--raw", "--format", "csv"],
    ["finite", "--x", _WARM_X, "--y", _WARM_Y, "--u", "0..5", "--t", "1..20", "--raw", "--format", "csv"],
    ["simulate", "--x", _WARM_X, "--y", _WARM_Y, "--u", "2", "--t", "10", "--trials", "1000"],
    ["conjecture", "--x", _WARM_X, "--y", _WARM_Y, "--which", "1", "--n-max", "10", "--format", "csv"],
)

WORKLOADS = {
    "paper-tables": paper_tables_round,
    "ultimate-rows": ultimate_rows_round,
    "finite-mc": finite_mc_round,
}

