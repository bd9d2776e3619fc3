"""Numerical probes of the nonsingularity conjectures.

The initial-value solve inverts a small matrix of coefficient differences

    M_n = [ c(n + i) - c(n) ]_{i = 1..dim}

(3x3 over the phi(0..2) coefficients in case A, 2x2 over phi(0..1) in
case B). The method is only well posed if det M_n never vanishes, which
is conjectured but not proved; this module measures instead of assuming.

The conjectured chains, stated over the signed determinants:

  * trace 1 (case A):  1 <= D_{2n} <= D_{2n+2}  and  -1 >= D_{2n+1} >= D_{2n+3}
  * trace 2 (case B):  1 <= D_n <= D_{n+1}

``determinant_trace`` records the signed determinants and lists every
index where a chain inequality fails (sign-only failures included)
instead of raising, so unexpected behavior surfaces as data.
Measured, the case A chain as coded held on 0 of 20 random case A models
at n_max 60, and on all 20 with every D_n negated: its signs do not fit
this row ordering. The trace therefore also carries the magnitude-level
observations (no zero, |D| nondecreasing along the chain's stride,
min |D|) that hold regardless of convention.

Both probes read the integer sequences of ``ultimate._sequences``
directly, and M_n comes from ``ultimate._difference_rows``, the helper
the solve inverts: D_n is the exact integer determinant of those rows,
rounded once to ``precision_bits``, and every chain check compares exact
integers.

Case C has no matrix; its scalar analogue is a chain condition on the
single coefficient sequence, probed by ``coefficient_chain``.
"""

from __future__ import annotations

from dataclasses import dataclass

from mpmath import mp

from .errors import InvalidModelError
from .model import CaseKind, ModelSpec, classify
from .ultimate import N_SOLVE_CAP, _Atoms, _det, _difference_rows, _mpf_view, _sequences


@dataclass(frozen=True)
class DeterminantTrace:
    """Signed determinants det M_n for n = 0..n_max, with flags.

    ``values`` holds the determinants as mpf, each the exact integer
    determinant rounded once to ``precision_bits``: their exponents outrun
    float64 under steep coefficient growth. ``violations`` pairs each
    breached index with a description. ``abs_monotone`` reports whether
    |D_n| is nondecreasing along the chain stride (2 for trace 1's parity
    classes, 1 for trace 2), a convention-free summary.
    """

    which: int
    n_max: int
    values: list
    min_abs: float
    abs_monotone: bool
    zero_indices: list[int]
    violations: list[tuple[int, str]]
    precision_bits: int


def _suspicious(det: int, rows, bits: int) -> bool:
    """True when det is zero or sits so far below the entry scale that it
    could be pure cancellation noise at this precision. ``rows`` are
    integers scaled by 2^bits and det their determinant, so bit lengths
    stand in for magnitudes."""
    top = max((v.bit_length() for row in rows for v in row), default=0)
    return det == 0 or det.bit_length() < len(rows) * top - (bits - 48)


def determinant_trace(model: ModelSpec, which: int, n_max: int = 100) -> DeterminantTrace:
    """Compute det M_n for n = 0..n_max and check the conjectured chains.

    ``which`` selects the system: 1 for the case A 3x3 matrix, 2 for the
    case B 2x2 matrix; the model must classify accordingly. The trace runs
    once at the sequences' precision budget; if any determinant still looks
    like cancellation noise there, that is recorded as a violation. n_max
    stops at N_SOLVE_CAP: no solve inverts an M_n past that index.
    """
    if which not in (1, 2):
        raise InvalidModelError("which must be 1 (case A) or 2 (case B)")
    tag = classify(model)
    need = CaseKind.A if which == 1 else CaseKind.B
    if tag.kind != need:
        raise InvalidModelError(
            f"trace {which} applies to case {need.name} models; this model is {tag.kind.name}"
        )
    if not 1 <= n_max <= N_SOLVE_CAP:
        raise InvalidModelError(f"n_max must lie in 1..{N_SOLVE_CAP}, got {n_max}")

    seqs, bits = _sequences(model, tag, _Atoms(model), n_max + 3)
    cols = seqs[:-1]  # the free coefficients; the margin's comes last
    dim = len(cols)
    scale = dim * bits  # D_n carries 2^bits from each row
    stride = 2 if which == 1 else 1
    dets, shaky = [], False
    for n in range(n_max + 1):
        rows = _difference_rows(cols, n, dim)
        dets.append(_det(rows))
        shaky = shaky or _suspicious(dets[-1], rows, bits)
    values = [_mpf_view(d, scale, bits) for d in dets]

    # the conjectured sign of D_n: + in trace 2 and at even n in trace 1
    signs = [1 if which == 2 or n % 2 == 0 else -1 for n in range(n_max + 1)]
    violations: list[tuple[int, str]] = []
    zero_indices: list[int] = []
    for n, (d, sign) in enumerate(zip(dets, signs)):
        if d == 0:
            zero_indices.append(n)
            violations.append((n, f"det M_{n} = 0"))
        elif sign * d < 1 << scale:
            got = mp.nstr(_mpf_view(d, scale, 64), 8)  # nstr prints a wide mantissa whole
            bound = ">= 1" if sign > 0 else "<= -1"
            violations.append((n, f"chain start breached: expected det M_{n} {bound}, got {got}"))
    for n in range(len(dets) - stride):
        if signs[n] * dets[n] > signs[n] * dets[n + stride]:
            rel = "<=" if signs[n] > 0 else ">="
            violations.append((n + stride, f"expected det M_{n} {rel} det M_{n + stride}"))
    monotone = all(abs(dets[n]) <= abs(dets[n + stride]) for n in range(len(dets) - stride))
    if shaky:
        violations.append((-1, f"some determinants could not be certified nonzero at {bits} bits"))

    return DeterminantTrace(
        which=which,
        n_max=n_max,
        values=values,
        min_abs=float(min(map(abs, values))),
        abs_monotone=monotone,
        zero_indices=zero_indices,
        violations=violations,
        precision_bits=bits,
    )


@dataclass(frozen=True)
class ChainReport:
    """Case C analogue: conditions on the single coefficient sequence."""

    scenario: str
    n_max: int
    violations: list[tuple[int, str]]
    precision_bits: int


def coefficient_chain(model: ModelSpec, n_max: int = 100) -> ChainReport:
    """Probe the scalar solvability condition for case C models.

    Scenarios s.1/s.2: consecutive differences of the phi(0) coefficient
    must never vanish. Scenario s.3: the phi(1) coefficient interlaces,
    odd entries climbing from 1 and even entries descending from -1.
    """
    tag = classify(model)
    if tag.kind != CaseKind.C:
        raise InvalidModelError("coefficient chains apply to case C models")
    if not 3 <= n_max <= N_SOLVE_CAP:
        raise InvalidModelError(f"n_max must lie in 3..{N_SOLVE_CAP}, got {n_max}")

    seqs, bits = _sequences(model, tag, _Atoms(model), n_max + 1)
    # the one free coefficient: phi(0)'s in s.1/s.2, phi(1)'s in s.3
    c, one = seqs[0], 1 << bits
    violations: list[tuple[int, str]] = []
    if tag.scenario in ("s.1", "s.2"):
        for n in range(1, n_max):
            if c[n + 1] == c[n]:
                violations.append((n, f"coefficient difference at n={n} vanished"))
    else:
        if c[1] != one:
            violations.append((1, "odd chain does not start at 1"))
        for n in range(1, n_max - 1, 2):
            if not (one <= c[n] <= c[n + 2]):
                violations.append((n, f"odd chain breaks between n={n} and n={n + 2}"))
        for n in range(2, n_max - 1, 2):
            if not (c[n] <= -one and c[n] >= c[n + 2]):
                violations.append((n, f"even chain breaks between n={n} and n={n + 2}"))

    return ChainReport(
        scenario=tag.scenario,
        n_max=n_max,
        violations=violations,
        precision_bits=bits,
    )
