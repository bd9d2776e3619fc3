"""Numerical probes of the nonsingularity conjectures.

The initial-value solve inverts a small matrix of coefficient differences

    M_n = [ c(n + i) - c(n) ]_{i = 1..dim}

(3x3 over the phi(0..2) coefficients in case A, 2x2 over phi(0..1) in
case B). The method is only well posed if det M_n never vanishes, which
is conjectured but not proved; this module measures instead of assuming.

The conjectured chains, stated over the signed determinants:

  * trace 1 (case A):  1 <= D_{2n} <= D_{2n+2}  and  -1 >= D_{2n+1} >= D_{2n+3}
  * trace 2 (case B):  1 <= D_n <= D_{n+1}

``determinant_trace`` records the signed determinants exactly as
computed and lists every index where a chain inequality fails (sign-only
failures included) instead of raising, so unexpected behavior surfaces
as data. Hand-evaluation suggests the case A chain cannot hold with
these signs at n = 0 under this row ordering; the trace therefore also
carries the magnitude-level observations (no zero, |D| nondecreasing
along the chain's stride, min |D|) that hold regardless of convention.

Case C has no matrix; its scalar analogue is a chain condition on the
single coefficient sequence, probed by ``coefficient_chain``.
"""

from __future__ import annotations

from dataclasses import dataclass

from mpmath import mp

from .errors import InvalidModelError
from .model import CaseKind, ModelSpec, classify
from .ultimate import SequenceSet, _det, build_sequences


@dataclass(frozen=True)
class DeterminantTrace:
    """Signed determinants det M_n for n = 0..n_max, with flags.

    ``values`` holds the determinants as mpf, whose exponents outrun
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


def difference_matrix(seqs: SequenceSet, n: int) -> list[list]:
    """Rows (c(n+i) - c(n)) for i = 1..dim, as mpf, in solve order."""
    kind = seqs.tag.kind
    if kind == CaseKind.A:
        cols = (seqs.coeff_phi0, seqs.coeff_phi1, seqs.coeff_phi2)
        dim = 3
    elif kind == CaseKind.B:
        cols = (seqs.coeff_phi0, seqs.coeff_phi1)
        dim = 2
    else:
        raise InvalidModelError("difference matrices exist only for cases A and B")
    if n + dim > seqs.n_max:
        raise InvalidModelError(f"sequences reach n_max={seqs.n_max}, need index {n + dim}")
    return [[c[n + i] - c[n] for c in cols] for i in range(1, dim + 1)]


def _suspicious(det, rows, bits: int) -> bool:
    """True when det is zero or sits so far below the entry scale that it
    could be pure cancellation noise at this precision."""
    if det == 0:
        return True
    dim = len(rows)
    top = max((mp.mag(v) for row in rows for v in row if v != 0), default=0)
    return mp.mag(det) < dim * top - (bits - 48)


def determinant_trace(model: ModelSpec, which: int, n_max: int = 100) -> DeterminantTrace:
    """Compute det M_n for n = 0..n_max and check the conjectured chains.

    ``which`` selects the system: 1 for the case A 3x3 matrix, 2 for the
    case B 2x2 matrix; the model must classify accordingly. The trace runs
    once at the sequences' precision budget; if any determinant still looks
    like cancellation noise there, that is recorded as a violation.
    """
    if which not in (1, 2):
        raise InvalidModelError("which must be 1 (case A) or 2 (case B)")
    tag = classify(model)
    need = CaseKind.A if which == 1 else CaseKind.B
    if tag.kind != need:
        raise InvalidModelError(
            f"trace {which} applies to case {need.name} models; this model is {tag.kind.name}"
        )
    if n_max < 1:
        raise InvalidModelError("n_max must be at least 1")

    seqs = build_sequences(model, tag, n_max=n_max + 3)
    bits = seqs.precision_bits
    stride = 2 if which == 1 else 1
    violations: list[tuple[int, str]] = []
    zero_indices: list[int] = []
    with mp.workprec(bits):
        dets = []
        shaky = False
        for n in range(n_max + 1):
            rows = difference_matrix(seqs, n)
            dets.append(_det(rows))
            shaky = shaky or _suspicious(dets[-1], rows, bits)
        for n, d in enumerate(dets):
            if d == 0:
                zero_indices.append(n)
                violations.append((n, f"det M_{n} = 0"))
                continue
            if which == 2 or n % 2 == 0:
                if not d >= 1:
                    violations.append(
                        (n, f"chain start breached: expected det M_{n} >= 1, got {mp.nstr(d, 8)}")
                    )
            else:
                if not d <= -1:
                    violations.append(
                        (n, f"chain start breached: expected det M_{n} <= -1, got {mp.nstr(d, 8)}")
                    )
        for n in range(len(dets) - stride):
            a, b = dets[n], dets[n + stride]
            if which == 2 or n % 2 == 0:
                if not a <= b:
                    violations.append((n + stride, f"expected det M_{n} <= det M_{n + stride}"))
            else:
                if not a >= b:
                    violations.append((n + stride, f"expected det M_{n} >= det M_{n + stride}"))
        monotone = all(
            abs(dets[n]) <= abs(dets[n + stride]) for n in range(len(dets) - stride)
        )
        if shaky:
            violations.append(
                (-1, f"some determinants could not be certified nonzero at {bits} bits")
            )
        min_abs = float(min(abs(d) for d in dets)) if dets else float("inf")

    return DeterminantTrace(
        which=which,
        n_max=n_max,
        values=dets,
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
    if n_max < 3:
        raise InvalidModelError("n_max must be at least 3")

    seqs = build_sequences(model, tag, n_max=n_max + 1)
    violations: list[tuple[int, str]] = []
    with mp.workprec(seqs.precision_bits):
        if tag.scenario in ("s.1", "s.2"):
            c = seqs.coeff_phi0
            for n in range(1, n_max):
                if c[n + 1] - c[n] == 0:
                    violations.append((n, f"coefficient difference at n={n} vanished"))
        else:
            c = seqs.coeff_phi1
            if c[1] != 1:
                violations.append((1, "odd chain does not start at 1"))
            for n in range(1, n_max - 1, 2):
                if not (1 <= c[n] <= c[n + 2]):
                    violations.append((n, f"odd chain breaks between n={n} and n={n + 2}"))
            for n in range(2, n_max - 1, 2):
                if not (c[n] <= -1 and c[n] >= c[n + 2]):
                    violations.append((n, f"even chain breaks between n={n} and n={n + 2}"))

    return ChainReport(
        scenario=tag.scenario,
        n_max=n_max,
        violations=violations,
        precision_bits=seqs.precision_bits,
    )
