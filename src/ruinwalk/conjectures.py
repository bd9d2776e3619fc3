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
directly, the free coefficients only (the margin's sequence is not
built), and M_n comes from ``ultimate._difference_rows``, the helper
the solve inverts: D_n is the exact integer determinant of those rows
over the power of two their entries carry, and every chain check
compares exact integers.

Case C has no matrix; its scalar analogue is a chain condition on the
single coefficient sequence, probed by ``coefficient_chain``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain

from .errors import InvalidModelError
from .model import CaseKind, ModelSpec, classify
from .ultimate import N_SOLVE_CAP, _Atoms, _det, _difference_rows, _sequences

_LOG10_2 = math.log10(2)
_FLOAT_TINY = 2.0**-1022  # float64's least normal
# units of the 17th significant digit around an 8-digit tie that send
# ``_sig8`` to the exact route: 12 of float64 rounding, 4 to spare
_TIE_GUARD = 16


@dataclass(frozen=True)
class DeterminantTrace:
    """Signed determinants det M_n for n = 0..n_max, with flags.

    D_n is exactly ``numerators[n] / 2**scale``: the integers share one
    scale, since a fraction per D_n would cost a gcd each, and their
    exponents outrun float64 under steep coefficient growth. ``min_abs``
    is min |D_n| as a float (inf past its range). ``violations`` pairs each
    breached index with a description. ``abs_monotone`` reports whether
    |D_n| is nondecreasing along the chain stride (2 for trace 1's parity
    classes, 1 for trace 2), a convention-free summary.
    """

    which: int
    n_max: int
    numerators: list[int]
    scale: int
    min_abs: float
    abs_monotone: bool
    zero_indices: list[int]
    violations: list[tuple[int, str]]
    precision_bits: int


def _round_sig(num: int, den: int, places: int) -> tuple[str, int]:
    """|num| / den, den > 0, rounded half up to ``places`` significant
    digits: the digit string and the exponent k of its leading digit, so
    that the rounded value is int(digits) 10^(k + 1 - places)."""
    num = abs(num)
    # k = floor(log10(num / den)), from an estimate at most one short: the
    # ratio lies in (2^(b - 1), 2^(b + 1)), b the bit length difference
    k = math.floor((num.bit_length() - den.bit_length() - 1) * _LOG10_2)
    k += num * 10 ** max(-k - 1, 0) >= den * 10 ** max(k + 1, 0)
    up, down = 10 ** max(places - 1 - k, 0), 10 ** max(k + 1 - places, 0)
    digits = str((2 * num * up + den * down) // (2 * den * down))
    if len(digits) > places:  # the rounding carried to 10^places
        digits, k = digits[:places], k + 1
    return digits, k


def _sig8_exact(num: int, scale: int) -> tuple[str, int]:
    """``_round_sig``'s (digits, k) of num / 2^scale rounded to 64 bits
    (nearest, ties to even), then to 8 significant digits (half up)."""
    n = abs(num)
    drop = max(n.bit_length() - 64, 0)
    if drop:
        q, rest, half = n >> drop, n & ((1 << drop) - 1), 1 << drop - 1
        n = q + (rest > half or (rest == half and q & 1))
    return _round_sig(n << max(drop - scale, 0), 1 << max(scale - drop, 0), 8)


def _sig8(num: int, scale: int) -> tuple[str, int]:
    """``_sig8_exact``, read off the float64 text where that is safe.

    The float and the 64-bit value lie within 2^-53 of each other,
    relatively: under 12 units of the float's 17th significant digit. So
    in float64's normal range the two round to the same 8 digits unless
    the digits past the 8th lie within _TIE_GUARD units of a tie. Those,
    and values out of that range, take the exact route."""
    try:
        v = abs(num) / (1 << scale)
    except OverflowError:
        v = math.inf
    if _FLOAT_TINY <= v < math.inf:
        text = f"{v:.16e}"  # d.ddddddd|ddddddddde+kk
        past = int(text[9:18]) - 500_000_000
        if abs(past) > _TIE_GUARD:
            digits, k = text[0] + text[2:9], int(text[19:])
            if past > 0:
                digits = str(int(digits) + 1)
                if len(digits) > 8:  # the rounding carried to 10^8
                    digits, k = digits[:8], k + 1
            return digits, k
    return _sig8_exact(num, scale)


def _nstr(num: int, scale: int) -> str:
    """num / 2^scale as short text: the value rounded to 64 bits (nearest,
    ties to even), then to 8 significant digits (half up), in fixed point
    when the leading digit's exponent k has -5 < k < 8, else as d.ddde+k,
    trailing zeros trimmed down to one."""
    digits, k = _sig8(num, scale)
    if -5 < k < 8:
        text = f"0.{'0' * (-k - 1)}{digits}" if k < 0 else f"{digits[: k + 1]}.{digits[k + 1 :]}"
        exp = ""
    else:
        text, exp = f"{digits[0]}.{digits[1:]}", f"e{k:+d}"
    text = text.rstrip("0")
    if text.endswith("."):
        text += "0"
    return ("-" if num < 0 else "") + text + exp


def _suspicious(det: int, rows, bits: int) -> bool:
    """True when det is zero or sits so far below the entry scale that it
    could be pure cancellation noise at this precision. ``rows`` are
    integers scaled by 2^bits and det their determinant, so bit lengths
    stand in for magnitudes."""
    top = max(map(abs, chain.from_iterable(rows)), default=0).bit_length()
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

    cols, bits = _sequences(model, tag, _Atoms(model), n_max + 3, False)  # the free coefficients
    dim = len(cols)
    scale = dim * bits  # D_n carries 2^bits from each row
    stride = 2 if which == 1 else 1
    dets, shaky = [], False
    for n in range(n_max + 1):
        rows = _difference_rows(cols, n, dim)
        dets.append(_det(rows))
        shaky = shaky or _suspicious(dets[-1], rows, bits)

    # the conjectured sign of D_n: + in trace 2 and at even n in trace 1
    signs = [1 if which == 2 or n % 2 == 0 else -1 for n in range(n_max + 1)]
    violations: list[tuple[int, str]] = []
    zero_indices: list[int] = []
    for n, (d, sign) in enumerate(zip(dets, signs)):
        if d == 0:
            zero_indices.append(n)
            violations.append((n, f"det M_{n} = 0"))
        elif sign * d < 1 << scale:
            got = _nstr(d, scale)
            bound = ">= 1" if sign > 0 else "<= -1"
            violations.append((n, f"chain start breached: expected det M_{n} {bound}, got {got}"))
    for n in range(len(dets) - stride):
        if signs[n] * dets[n] > signs[n] * dets[n + stride]:
            rel = "<=" if signs[n] > 0 else ">="
            violations.append((n + stride, f"expected det M_{n} {rel} det M_{n + stride}"))
    monotone = all(abs(dets[n]) <= abs(dets[n + stride]) for n in range(len(dets) - stride))
    if shaky:
        violations.append((-1, f"some determinants could not be certified nonzero at {bits} bits"))
    try:
        min_abs = min(map(abs, dets)) / (1 << scale)
    except OverflowError:
        min_abs = math.inf

    return DeterminantTrace(
        which=which,
        n_max=n_max,
        numerators=dets,
        scale=scale,
        min_abs=min_abs,
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

    seqs, bits = _sequences(model, tag, _Atoms(model), n_max + 1, False)
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
