"""Ultimate-time (infinite-horizon) survival probabilities.

Method
------
Survival values obey one balance recurrence linking phi(u) to the values
one period pair earlier,

    phi(u) = sum_{k=1}^{u+4} phi(k) s_{u+4-k}
             - (x_{u+3} y_0 + x_{u+2} y_1) phi(1) - x_{u+2} y_0 phi(2),

plus one mass-balance constraint tying phi(0..3) to the net profit margin
4 - E[s]. Rearranged around the smallest positive s atom m*, the balance
recurrence computes phi(u) forward from phi(u - 4 + m*) and everything
below, so the whole function follows from a handful of initial values.

Those initial values are pinned down by a representation trick: every
phi(n) is a fixed linear combination

    phi(n) = c0_n phi(0) + c1_n phi(1) + c2_n phi(2) + d_n (4 - E[s])

whose coefficient sequences satisfy the same recurrence as phi, with head
entries from the same constraint. One forward recurrence (``_forward``)
therefore produces both: run from the head of a unit vector it yields a
coefficient sequence, run from the solved initial values it yields phi
itself. The coefficients blow up geometrically while phi stays bounded,
so differences phi(n + i) - phi(n) vanish at large n; the resulting small
linear system (3x3, 2x2, or scalar depending on the case) is solved by
Cramer's rule with the right-hand side set exactly to zero. Up to the
solve's index phi then needs no second recurrence: it is the
representation above, summed exactly over the sequences the solve built
and rounded once per value.
The index n follows from the Lundberg bound below and the growth of the
modes the free values excite (``_solve_index``).
The coefficient growth wipes out double precision long before n reaches
useful values, so the whole route runs on Python integers scaled by
2^bits. The float64 atoms are exact dyadic rationals, so the constraint
row and the margin are exact integers over one power of two (``_Atoms``).
The head, each step of the forward recurrence, each free value of the
solve (Cramer's rule on the exact difference system ``_difference_rows``)
and each case D closed form build their numerator and denominator exactly
and divide once: the floor of that division, at 2^-bits, is their only
rounding. ``_fixed`` floors caller-supplied initial values exactly, and
the public views are exact: ``InitialValues.determinant`` is the integer
det M_n over its power of two as a ``Fraction``, and
``conjectures.determinant_trace`` keeps its integers and their shared
scale. One bit budget (``_budget``) serves the
sequences, the solve and the extension: the growth rates of the
recurrence's characteristic roots times the index, plus the cancellation
Cramer's rule suffers between the dominant modes, plus 53 bits of
float64 accuracy and a 64-bit guard.

The route stops where ruin can no longer move a float64 value. With S =
X + Y one pair's claim and R > 0 the root of E[e^(R(S-4))] = 1, e^(-R U)
at pair boundaries is a martingale, and a ruin in mid-pair costs one
factor E[e^(R(Y-2))]^-1 = E[e^(R(X-2))]. So Lundberg's inequality reads

    psi(u) = 1 - phi(u) <= C e^(-R u),    C = max(1, E[e^(R(Y-2))]^-1)

(Gerber 1979, An Introduction to Mathematical Risk Theory; Damarackas and
Siaulys 2014 for the rate-one model this one extends). ``_lundberg_tail``
reads R off the balance recurrence's root z = e^-R in (0, 1) and checks
it in float64. ``survival_ultimate`` solves and extends only up to
reach = u* + 8, u* the least u where the bound is at most 2^-53, and
continues the row above reach along the recurrence's unit mode, so its
precision and solve index do not grow with u_max. ``solve_initials``
and ``extend_ultimate`` stay the untailed route.

Two independent cross-checks live here too: ``boundary_oracle`` solves
the balance equations as one banded float64 linear system with phi
pinned to 1 far out, and ``no_net_profit_values`` produces the collapsed
values used when the margin is nonpositive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate
from operator import mul

import numpy as np

from .errors import InvalidModelError, NumericalError, SingularSystemError
from .model import (
    INCOME_PER_PAIR,
    PREMIUM_PER_PERIOD,
    CaseKind,
    CaseTag,
    ModelSpec,
    _balance,
    classify,
    net_profit_margin,
)
from .pmf import Pmf

_MIN_BITS = 256
N_SOLVE_CAP = 2000


# ---- exact model views ----


def _dyadic(values) -> tuple[list[int], int]:
    """Float64 values as integers over one power of two: v_i = n_i / 2^a."""
    ratios = [float(v).as_integer_ratio() for v in values]
    a = max(d.bit_length() for _, d in ratios) - 1
    return [n << (a - d.bit_length() + 1) for n, d in ratios], a


def _fixed(v, scale: int) -> int:
    """floor(v 2^scale), exactly, for any real v that ``Fraction`` takes
    exactly: a float, int, numpy scalar, Decimal or Fraction."""
    try:
        v = Fraction(v)
    except (TypeError, ValueError, OverflowError):
        raise InvalidModelError(f"initial value {v!r} is not a finite real number") from None
    return (v.numerator << scale) // v.denominator


class _Atoms:
    """A model's float64 atoms held exactly, as integers over a power of two
    per family: x_i = x[i] / 2^ex, y_j = y[j] / 2^ey, s_k = s[k] / 2^es.

    ``row`` and ``margin`` are the constraint's coefficients of phi(0..3)
    and its right-hand side,

        phi(0) + (X~(2) y_0 + X~(1) y_1 + S(2)) phi(1)
               + (X~(1) y_0 + S(1)) phi(2) + S(0) phi(3) = 4 - E[s],

    X~ the tail of x and S the cdf of s, exactly, as integers over the one
    power 2^e, e = max(es, ex + ey).
    """

    def __init__(self, model: ModelSpec):
        self.x, self.ex = _dyadic(model.x.probs)
        self.y, self.ey = _dyadic(model.y.probs)
        self.s, self.es = _dyadic(model.s.probs)
        e = self.e = max(self.es, self.ex + self.ey)
        ds, dz = e - self.es, e - self.ex - self.ey
        x0, x1, x2 = (self.x + [0, 0])[:3]
        y0, y1 = (self.y + [0])[:2]
        xt1 = (1 << self.ex) - x0 - x1
        xt2 = xt1 - x2
        s0, s1, s2 = accumulate((self.s + [0, 0])[:3])
        self.row = [1 << e, (s2 << ds) + ((xt2 * y0 + xt1 * y1) << dz),
                    (s1 << ds) + ((xt1 * y0) << dz), s0 << ds]
        self.margin = ((INCOME_PER_PAIR << self.es) - sum(k * v for k, v in enumerate(self.s))) << ds


def _dominant_rates(model: ModelSpec, tag: CaseTag) -> np.ndarray:
    """Growth rates g_1 >= ... >= g_dim, g = log2|z|, of the dim modes the
    free values excite (dim as in ``_free_indices``): the largest roots z
    of ``ModelSpec.balance_roots``. A root 0, a mode that dies out, is left out."""
    z = np.abs(model.balance_roots)
    return np.sort(np.log2(z[z > 0]))[::-1][: len(_free_indices(tag))]


def _budget(model: ModelSpec, tag: CaseTag, n: int) -> int:
    """Working bits for coefficients and values up to index n.

    Each mode grows by g bits per index (``_dominant_rates``). The
    dominant one sets the magnitudes; Cramer's rule on the dim x dim
    difference system then cancels the sum of (g_1 - g_j) over the other
    dim - 1. On top: 53 bits of float64 accuracy and a 64-bit guard, and
    never fewer than _MIN_BITS in all.
    """
    g = _dominant_rates(model, tag)
    per_index = g[0] + sum(g[0] - g[1:])
    return max(_MIN_BITS, math.ceil(n * per_index) + 53 + 64)


def _mgf(p: Pmf, shift: int):
    """r -> E[e^(r (Z - shift))] in float64, with the mass defect on one
    atom just past the support, the nearest place a truncated tail can sit.
    The exponent grid and the weights are built once, so each r costs one
    ``np.dot``."""
    k = np.arange(-shift, len(p.probs) + 1 - shift)
    w = np.append(p.probs, p.mass_defect)
    return lambda r: float(np.dot(w, np.exp(r * k)))


def _lundberg_tail(model: ModelSpec) -> tuple[float, float, float]:
    """(R, C, u*) of the Lundberg bound psi(u) = 1 - phi(u) <= C e^(-R u),
    u* the least u where the bound is at most 2^-53.

    Any R > 0 with E[e^(R(S-4))] <= 1 makes e^(-R U) at pair boundaries a
    supermartingale, and a ruin in mid-pair costs one factor
    E[e^(R(Y-2))]^-1, so C = max(1, E[e^(R(Y-2))]^-1). At the root that
    factor is E[e^(R(X-2))]; below it the Y form is the one the argument
    gives, and a defect placed just past the support of y only lowers
    E[e^(R(Y-2))], which raises C. R starts at the least real root
    z = e^-R in (0, 1) of the balance polynomial (the unit mode z = 1 can
    come out just under 1) and is lowered until a float64 evaluation
    shows E[e^(R(S-4))] <= 1; any smaller R keeps the bound. Without such
    a root R = 0 and u* = inf: no tail.

    With no s atom above 4 the pair-boundary surplus never falls, so ruin
    needs one claim x >= u + 2 in mid-pair: psi(u) = 0 from
    u* = max(1, x_max - 1). R is then inf, and C is 1 if x_max <= 2
    (psi(u) = 0 for every u >= 1), else inf: psi(1) may be positive, and
    no finite C bounds it.
    """
    s, x = model.s, model.x
    if not s.probs[INCOME_PER_PAIR + 1 :].any():
        x_max = int(np.flatnonzero(x.probs)[-1])
        return math.inf, 1.0 if x_max <= PREMIUM_PER_PERIOD else math.inf, max(1, x_max - 1)
    try:
        z = model.balance_roots
    except NumericalError:
        # a subnormal first s atom has no float64 roots: no tail
        return 0.0, 1.0, math.inf
    z = z.real[(z.imag == 0) & (z.real > 0) & (z.real < 1)]
    r = -math.log(z.min()) if z.size else 0.0
    step = r * 2.0**-40
    mgf_s = _mgf(s, INCOME_PER_PAIR)
    while r > 0 and mgf_s(r) > 1:
        r, step = r - step, 2 * step
    if r <= 0:
        return 0.0, 1.0, math.inf
    c = max(1.0, 1 / _mgf(model.y, PREMIUM_PER_PERIOD)(r))
    return r, c, math.ceil((math.log(c) + 53 * math.log(2)) / r)


def _solve_index(model: ModelSpec, tag: CaseTag, tail, reach: int) -> int:
    """The least n with log2 C - R n log2(e) - gamma (n - reach) <= -61,
    and never less than reach + 8: at n the dropped C e^(-R n) leaves
    phi(0..reach) within float64's 53 bits and an 8-bit guard. (R, C, u*)
    is ``tail``, gamma the weakest of ``_dominant_rates``. With no tail
    (R = 0) C is 1, as psi <= 1; with R = inf psi vanishes from u* on, and
    n = max(reach, u*) + 8. An n past N_SOLVE_CAP raises NumericalError.
    """
    r, c, u_star = tail
    if r == math.inf:
        n = max(reach, u_star) + 8
    else:
        gamma = _dominant_rates(model, tag)[-1]
        n = max(reach + 8, math.ceil((math.log2(c) + gamma * reach + 61)
                                     / (r * math.log2(math.e) + gamma)))
    if n > N_SOLVE_CAP:
        raise NumericalError(
            f"phi up to u={reach} needs a solve index past {N_SOLVE_CAP} "
            f"(Lundberg exponent {r:.3g}); the margin is too small for this method"
        )
    return n


# ---- the forward-recurrence kernel ----


def _forward(at: _Atoms, min_atom: int, phi: list[int], stop: int) -> list[int]:
    """Extend ``phi`` in place to phi(0..stop) by the forward recurrence
    stated in ``extend_ultimate``.

    Values are integers, phi(k) scaled by 2^F for the caller's F; the
    recurrence is linear and homogeneous, so F never enters it, and the
    same loop extends phi itself and each coefficient sequence of its
    representation. Each step forms its numerator exactly over a power of
    two (the s tail over 2^es; the first len(x) + 2 - m* steps also read
    the x.y coefficients of phi(1) and phi(2), over 2^(es + k)) and
    divides once by the pivot s_{m*} at that scale: the floor of that
    division is the step's only rounding.
    """
    m = min_atom
    s, es = at.s, at.es
    smax = len(s) - 1
    s_rev = s[::-1]
    y0, y1 = (at.y + [0, 0])[:2]

    def x(i):
        return at.x[i] if 0 <= i < len(at.x) else 0

    # step u's x.y coefficients as (c1, c2): c1 / 2^(es + k) is
    # x_{u+m*-1} y_0 + x_{u+m*-2} y_1 and c2 / 2^(es + k) is x_{u+m*-2} y_0,
    # k = max(0, ex + ey - es) the one exponent these steps add; they
    # vanish once u + m* - 2 passes the support of x
    k = max(0, at.ex + at.ey - es)
    d = es + k - at.ex - at.ey
    forcing = [((x(u + m - 1) * y0 + x(u + m - 2) * y1) << d, (x(u + m - 2) * y0) << d)
               for u in range(len(at.x) + 2 - m)]

    # from u0 on no step has an x.y term, and each reads the full window
    # s_{smax}..s_{m*+1} against phi(u - width..u-1)
    width = smax - m
    u0 = max(len(forcing), width + 1)
    for u in range(len(phi), min(stop, u0 - 1) + 1):
        lo = max(1, u - width)
        # s_rev[smax - u - m* + i] = s_{u+m*-i} for i = lo..u-1
        tail = sum(map(mul, s_rev[smax - u - m + lo : width], phi[lo:u]))
        if u < len(forcing):
            c1, c2 = forcing[u]
            if u == 2 and c2:
                # scenarios that extend from u = 2 all have y_0 = 0
                raise NumericalError("phi(2) required as an initial value for this model")
            acc = (phi[u - 4 + m] << (es + k)) + c1 * phi[1] - (tail << k)
            if c2:
                acc += c2 * phi[2]
            phi.append(acc // (s[m] << k))
        else:
            phi.append(((phi[u - 4 + m] << es) - tail) // s[m])
    window, pivot, append = s_rev[:width], s[m], phi.append
    for u in range(max(len(phi), u0), stop + 1):
        append(((phi[u - 4 + m] << es) - sum(map(mul, window, phi[u - width : u]))) // pivot)
    return phi


def _free_indices(tag: CaseTag) -> tuple[int, ...]:
    """The phi indices each case solves for; the head fills in the rest."""
    if tag.kind == CaseKind.A:
        return (0, 1, 2)
    if tag.kind == CaseKind.B:
        return (0, 1)
    # case C: phi(0) = 0 identically in s.3 (the first claim is at least 2)
    return (1,) if tag.scenario == "s.3" else (0,)


def _head(tag: CaseTag, row: list[int], free: list[int], rhs: int) -> list[int]:
    """phi(0..j) scaled by 2^F from the free values scaled by 2^F, with
    phi(j) from the constraint ``_Atoms.row`` and ``rhs``, its right-hand
    side over 2^(e + F): floor((rhs - sum_{i<j} row_i phi(i)) / row_j).
    Here j is one past the last free index: 3 in case A, 2 in case B and C
    s.3, 1 in C s.1/s.2; the constraint's coefficients beyond j vanish in
    each case, and the pivot at j is positive: s_0 in A, s_1 + X~(1) y_0
    in B, s_2 + X~(1) y_1 in C s.1/s.2, y_0 in C s.3.
    """
    idx = _free_indices(tag)
    j = idx[-1] + 1
    phi = [0] * j
    for i, v in zip(idx, free):
        phi[i] = v
    phi.append((rhs - sum(map(mul, row, phi))) // row[j])
    return phi


# ---- coefficient sequences ----


def _sequences(model: ModelSpec, tag: CaseTag, at: _Atoms, n_max: int,
               margin: bool = True) -> tuple[list[list[int]], int]:
    """The coefficient sequences up to index n_max as integers scaled by
    2^bits, in the order of ``_free_indices`` with the margin's last, and
    bits. With ``margin`` false the margin's sequence is not built: the
    conjecture probes read only the free coefficients.

    Each is the forward recurrence run from the head of one unit vector
    over the free values (margin 0), or of the zero vector with margin 1,
    bits being the budget ``_budget`` sets for n_max. If the realized
    magnitudes of the sequences returned still get within 64 bits of that
    budget, NumericalError is raised.
    """
    free = _free_indices(tag)
    bits = _budget(model, tag, n_max)
    one = 1 << bits
    heads = [_head(tag, at.row, [one if i == k else 0 for k in free], 0) for i in free]
    if margin:
        heads.append(_head(tag, at.row, [0] * len(free), one << at.e))
    seqs = [_forward(at, tag.min_s_atom, h, n_max) for h in heads]
    top_mag = max(v.bit_length() for seq in seqs for v in seq) - bits
    if top_mag > bits - 64:
        raise NumericalError(
            f"coefficients reach 2^{top_mag}, within 64 bits of the {bits}-bit budget"
        )
    return seqs, bits


# ---- initial-value solve ----


@dataclass(frozen=True)
class _Route:
    """What a solve built: the model it solved, its case tag, exact atoms
    and the solved phi(0..j) floored at 2^bits, and in cases A-C the
    integer sequences of ``_sequences`` (same scale) with the solved
    weights, the free values and then the margin, each floored at that
    scale."""

    model: ModelSpec
    tag: CaseTag
    atoms: _Atoms
    head: list[int]
    seqs: list[list[int]] | None = None
    weights: list[int] | None = None


@dataclass(frozen=True)
class InitialValues:
    """Solved phi at the low indices each case needs to recurse forward.

    A solve runs on integers. ``values`` holds its phi(0..j), floored at
    2^-precision_bits, correctly rounded to float64, and ``determinant``
    is the integer det M_n over its 2^(dim precision_bits), exactly. A
    solve also carries what it built (``_route``, private):
    ``extend_ultimate`` recurses from its integer phi(0..j), and
    ``survival_ultimate`` reads its row off the sequences of cases A-C.
    Built by hand, without a ``_route``, it extends like its ``values``.
    """

    values: dict[int, float]
    n_solve: int
    determinant: Fraction | None
    precision_bits: int | None
    _route: _Route | None = field(repr=False, compare=False, default=None)


def _solved(route: _Route, bits: int, n_solve: int = 0, determinant=None) -> InitialValues:
    """The public views of a solve whose phi(0..j) is ``route.head``."""
    return InitialValues(
        values={k: v / (1 << bits) for k, v in enumerate(route.head)},  # int / int rounds once
        n_solve=n_solve,
        determinant=determinant,
        precision_bits=bits,
        _route=route,
    )


def _difference_rows(cols, n: int, dim: int) -> list[list]:
    """The difference system M_n: rows (c(n + i) - c(n)) over the sequences
    ``cols``, i = 1..dim, in the order the solve and the conjecture traces
    share. Exact on the integer sequences of ``_sequences``."""
    return [[c[n + i] - c[n] for c in cols] for i in range(1, dim + 1)]


def _det(rows):
    """Determinant of a 1x1, 2x2 or 3x3 matrix by cofactor expansion."""
    if len(rows) == 1:
        return rows[0][0]
    if len(rows) == 2:
        return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    return (
        rows[0][0] * (rows[1][1] * rows[2][2] - rows[1][2] * rows[2][1])
        - rows[0][1] * (rows[1][0] * rows[2][2] - rows[1][2] * rows[2][0])
        + rows[0][2] * (rows[1][0] * rows[2][1] - rows[1][1] * rows[2][0])
    )


def _solve_case_d(model: ModelSpec, tag: CaseTag) -> InitialValues:
    """Case D's closed forms, each one ratio of dyadic integers floored at
    2^-bits: phi(1) = m / y_1 in v.1 and phi(2) = m / y_0 in v.3, m the
    margin, and in v.2 and v.4 the two values below."""
    bits = _budget(model, tag, 0)
    at = _Atoms(model)  # shared with the extension through _route
    x, y = at.x + [0, 0], at.y + [0, 0, 0, 0]

    def ratio(num: int, den: int) -> int:
        """floor(m (num / den) 2^bits)."""
        return (at.margin * num << bits) // (den << at.e)

    scen = tag.scenario
    if scen == "v.1":
        head = [0, ratio(1 << at.ey, y[1])]
    elif scen in ("v.2", "v.4"):
        # The recurrence at u = 0 and u = 1 gives
        # phi(1) (s_3 - x_3 y_0 - x_2 y_1) = phi(0); with y_0 = y_1 = 0
        # in these scenarios the pivot reduces to x_1 y_2 + x_0 y_3, and the
        # constraint to phi(0) (1 + X~(1) y_1 / pivot) = m.
        pivot = x[1] * y[2] + x[0] * y[3]  # over 2^(ex + ey)
        den = pivot + ((1 << at.ex) - x[0] - x[1]) * y[1]
        head = [ratio(pivot, den), ratio(1 << at.ex + at.ey, den)]
    else:  # v.3: the first claim is at least 3, so phi(0) = phi(1) = 0
        head = [0, 0, ratio(1 << at.ey, y[0])]
    return _solved(_Route(model, tag, at, head), bits)


def solve_initials(model: ModelSpec, tag: CaseTag | None = None,
                   n_solve: int | None = None) -> InitialValues:
    """Solve for the low-index phi values at index n_solve: by default the
    one ``_solve_index`` derives for u* + 8, the longest reach of
    ``survival_ultimate``, so ``extend_ultimate`` holds up to there. An
    n_solve outside 8..N_SOLVE_CAP is rejected."""
    tag = tag or classify(model)
    if tag.kind == CaseKind.NO_NET_PROFIT:
        raise InvalidModelError("survival values with no net profit come from no_net_profit_values")
    if tag.kind == CaseKind.D:
        return _solve_case_d(model, tag)
    if n_solve is None:
        tail = _lundberg_tail(model)  # with no tail, u* = inf needs an index past the cap
        n_solve = _solve_index(model, tag, tail, min(tail[2] + 8, N_SOLVE_CAP))
    elif not 8 <= n_solve <= N_SOLVE_CAP:
        raise InvalidModelError(f"n_solve must lie in 8..{N_SOLVE_CAP}, got {n_solve}")

    at = _Atoms(model)
    seqs, bits = _sequences(model, tag, at, n_solve + 3)
    n, dim = n_solve, len(seqs) - 1
    # phi(n + i) - phi(n) = 0, i = 1..dim, by Cramer's rule on the exact
    # M_n with the margin times its differences on the right-hand side:
    # det carries 2^(dim bits) and each det_j 2^(dim bits + e) as well
    rows = _difference_rows(seqs, n, dim)
    mat = [row[:dim] for row in rows]
    rhs = [-row[dim] * at.margin for row in rows]
    det = _det(mat)
    if det == 0:
        raise SingularSystemError(f"difference system is singular at n={n}", n=n, determinant=0.0)
    free = [(_det([row[:j] + [r] + row[j + 1 :] for row, r in zip(mat, rhs)]) << bits) // (det << at.e)
            for j in range(dim)]
    top = at.margin << bits
    route = _Route(model, tag, at, _head(tag, at.row, free, top), seqs, free + [top >> at.e])
    return _solved(route, bits, n_solve, Fraction(det, 1 << dim * bits))


# ---- forward extension ----


def extend_ultimate(model: ModelSpec, initials: InitialValues | dict, u_max: int) -> np.ndarray:
    """Extend solved initial values to phi(0..u_max) by the forward recurrence.

    This is the balance recurrence rearranged around the smallest positive
    s atom m*, the same one that generates the coefficient sequences:

        s_{m*} phi(u) = phi(u - 4 + m*)
                        + (x_{u+m*-1} y_0 + x_{u+m*-2} y_1) phi(1)
                        + x_{u+m*-2} y_0 phi(2)
                        - sum_{k=1}^{u-1} s_{u+m*-k} phi(k)

    Values are computed as integers scaled by 2^bits, bits being the
    budget ``_budget`` sets for u_max, or the precision ``initials`` were
    solved at if that is more, because the recurrence amplifies roundoff
    geometrically; they are emitted as float64, each correctly rounded
    from its scaled integer.

    A solve's ``InitialValues`` start from its integer phi(0..j), with the
    solve's case tag and exact atoms; a model whose x or y atoms differ
    from the solved model's is refused. Given values (a dict, or
    ``InitialValues`` built by hand) start from their floors at 2^-bits.
    """
    if u_max < 0:
        raise InvalidModelError("u_max must be >= 0")
    route = initials._route if isinstance(initials, InitialValues) else None
    given = initials.values if isinstance(initials, InitialValues) else initials
    top = max(given)
    if sorted(given) != list(range(top + 1)):
        raise InvalidModelError("initial values must cover a contiguous range 0..j")
    if route and not (np.array_equal(route.model.x.probs, model.x.probs)
                      and np.array_equal(route.model.y.probs, model.y.probs)):
        raise InvalidModelError("initial values were solved for a model with other atoms")

    tag = route.tag if route else classify(model)
    if tag.kind == CaseKind.NO_NET_PROFIT:
        raise InvalidModelError("survival values with no net profit come from no_net_profit_values")
    min_atom = tag.min_s_atom
    # every step reads phi(1), and phi(u - 4 + m*) for u > top
    need = max(1, 3 - min_atom)
    if top < need:
        raise InvalidModelError(f"need initial values up to index {need}")

    bits = _budget(model, tag, u_max)
    if route:
        bits = max(bits, initials.precision_bits)
        phi = [v << (bits - initials.precision_bits) for v in route.head[: u_max + 1]]
    else:
        phi = [_fixed(given[i], bits) for i in range(min(top, u_max) + 1)]
    _forward(route.atoms if route else _Atoms(model), min_atom, phi, u_max)
    scale = 1 << bits
    return np.array([v / scale for v in phi])  # int / int is correctly rounded


# ---- residual checks, oracles, collapsed values ----


@dataclass(frozen=True)
class Residuals:
    master: float
    constraint: float


def residuals(model: ModelSpec, phi) -> Residuals:
    """max |phi - B phi| over u = 0..L-4, plus the constraint's violation.

    B is the balance operator ``model._balance``, whose fixed point the
    ultimate row is. Evaluated in plain float64 on the emitted values;
    this is an internal consistency check, independent of how phi was
    produced.
    """
    phi = np.asarray(phi, dtype=np.float64)
    if phi.ndim != 1 or len(phi) < 8:
        raise InvalidModelError("need phi(0..L) with L >= 7 to evaluate residuals")
    s, x, y = model.s, model.x, model.y
    y0, y1 = y.p(0), y.p(1)

    n = len(phi) - 4
    worst = float(np.max(np.abs(phi[:n] - _balance(model, phi, n))))

    lhs = math.fsum(
        [
            phi[0],
            (x.tail(2) * y0 + x.tail(1) * y1) * phi[1],
            x.tail(1) * y0 * phi[2],
            phi[1] * s.cdf(2),
            phi[2] * s.cdf(1),
            phi[3] * s.cdf(0),
        ]
    )
    constraint = abs(lhs - net_profit_margin(model))
    return Residuals(master=worst, constraint=constraint)


class _BandLU:
    """LU factors, with partial pivoting, of the n x n matrix A whose row r
    holds columns r - kl .. r + 3 at band[r, 0 .. kl + 3].

    The pivot for column k lies in rows k..k + kl, and the row it brings
    up spans columns k..k + kl + 3, so the elimination works in one
    (kl + 1) x (kl + 4) window sliding down the diagonal. Rows past n are
    the identity, which changes no solution.
    """

    def __init__(self, band: np.ndarray, kl: int):
        n, width = len(band), kl + 4
        self.kl, self.width = kl, width
        self.upper = np.empty((n, width))  # row k: U's columns k..k + kl + 3
        self.mults = np.empty((n, kl))
        self.pivots = []
        unit = np.zeros(width)
        unit[kl] = 1.0
        # win[i, j] holds A's (k + i, k + j); rows 0..kl enter trimmed on the left
        win = np.zeros((kl + 1, width))
        for i in range(kl + 1):
            win[i, : i + 4] = (band[i] if i < n else unit)[kl - i :]
        col, top, below = win[:, 0], win[0], win[1:]
        for k in range(n):
            p = int(np.abs(col).argmax())
            if col[p] == 0.0:
                raise np.linalg.LinAlgError("singular matrix")
            if p:
                win[[0, p]] = win[[p, 0]]
            self.pivots.append(p)
            self.upper[k] = top
            mult = self.mults[k] = below[:, 0] / top[0]
            # eliminate column k and slide the window one step down the diagonal
            np.subtract(below[:, 1:], np.multiply.outer(mult, top[1:]), out=win[:-1, :-1])
            win[:-1, -1] = 0.0
            win[-1] = band[k + kl + 1] if k + kl + 1 < n else unit

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        n, kl, width = len(rhs), self.kl, self.width
        b = np.append(rhs, np.zeros(kl + 1))
        for k, (p, mult) in enumerate(zip(self.pivots, self.mults)):
            if p:
                b[[k, k + p]] = b[[k + p, k]]
            b[k + 1 : k + kl + 1] -= mult * b[k]
        # b[k] is final once step k is done: b[:n] = L^-1 P rhs
        v = np.zeros(n + width)
        diag, rest = self.upper[:, 0].tolist(), self.upper[:, 1:]
        for k in range(n - 1, -1, -1):
            v[k] = (b[k] - rest[k].dot(v[k + 1 : k + width])) / diag[k]
        return v[:n]


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """a = hi + lo exactly, each half with at most 26 significant bits
    (Dekker 1971), so a product of halves is exact in float64."""
    c = 134217729.0 * a  # 2^27 + 1
    hi = c - (c - a)
    return hi, a - hi


def _band_residual(band: np.ndarray, kl: int, rhs: np.ndarray, v: np.ndarray) -> np.ndarray:
    """rhs - A v for A in ``_BandLU``'s band layout, as if summed in twice
    float64's precision: each product's rounding error comes from the
    split halves, each sum's from the two-sum identity, and the errors are
    added back at the end (Dot2: Ogita, Rump and Oishi 2005, Accurate sum
    and dot product)."""
    n = len(v)
    padded = np.concatenate([np.zeros(kl), v, np.zeros(4)])
    v_hi, v_lo = _split(padded)
    total, err = rhs.copy(), np.zeros(n)
    for j in range(kl + 4):
        a, b, b_hi, b_lo = -band[:, j], padded[j : j + n], v_hi[j : j + n], v_lo[j : j + n]
        a_hi, a_lo = _split(a)
        prod = a * b
        err += ((a_hi * b_hi - prod) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo
        s = total + prod
        z = s - total
        err += (total - (s - z)) + (prod - z)
        total = s
    return total + err


def boundary_oracle(model: ModelSpec, u_max: int, u_big: int = 400) -> np.ndarray:
    """Independent route: pin phi(u) = 1 for u >= u_big and solve the
    balance equations plus the constraint as one float64 linear system.

    Valid when the net profit condition certainly holds, since then
    phi(u) -> 1 and the truncation error decays geometrically in u_big.
    The system is banded: row u + 1 reaches back to column u + 4 - smax
    through the s atoms and, while x_{u+2} can be positive, to columns 1
    and 2, and forward to column u + 4. So it is held in band form,
    factored by ``_BandLU`` in O(u_big kl^2) time and O(u_big kl) memory,
    kl = max(1, smax - 3, x_max - 2), and refined once on an accurate
    residual (``_band_residual``).
    """
    if model.mean_s_upper >= INCOME_PER_PAIR:
        raise InvalidModelError("boundary oracle requires a certain net profit margin")
    if u_big < 8:
        raise InvalidModelError("u_big must be at least 8")
    if u_max < 0:
        raise InvalidModelError("u_max must be >= 0")

    s, x, y = model.s, model.x, model.y
    y0, y1 = y.p(0), y.p(1)
    smax, x_max = s.support_max, x.support_max
    n = u_big
    kl = max(1, smax - 3, x_max - 2)
    band = np.zeros((n, kl + 4))  # A's (r, c) at band[r, c - r + kl]
    rhs = np.zeros(n)

    band[0, kl : kl + 4] = [
        1.0,
        x.tail(2) * y0 + x.tail(1) * y1 + s.cdf(2),
        x.tail(1) * y0 + s.cdf(1),
        s.cdf(0),
    ]
    rhs[0] = net_profit_margin(model)

    # row r = u + 1: -phi(u) + sum_a s_a phi(r + 3 - a) - (x.y terms) = 0,
    # with phi = 1 from column n on
    band[1:, kl - 1] = -1.0
    for a in range(smax, -1, -1):
        lo, hi = max(1, a - 2), min(n, n - 3 + a)  # rows whose column is in 1..n-1
        band[lo:hi, kl + 3 - a] += s.probs[a]
        rhs[max(1, hi) :] -= s.probs[a]
    rows = np.arange(1, min(n, x_max))  # x_{u+2} > 0 possible, u = r - 1
    xs = np.append(x.probs, 0.0)
    band[rows, kl + 1 - rows] -= xs[rows + 2] * y0 + xs[rows + 1] * y1
    band[rows, kl + 2 - rows] -= xs[rows + 1] * y0

    try:
        lu = _BandLU(band, kl)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"boundary system is singular (u_big={u_big})") from exc
    phi = lu.solve(rhs)
    # one step of refinement on an accurate residual takes the answer from
    # the elimination's error, up to cond(A) eps, to about float64 rounding
    phi += lu.solve(_band_residual(band, kl, rhs, phi))

    if u_max < n:
        return phi[: u_max + 1].copy()
    return np.concatenate([phi, np.ones(u_max - n + 1)])


def no_net_profit_values(model: ModelSpec, tag: CaseTag | None = None, u_max: int = 0) -> np.ndarray:
    """Collapsed survival values when the margin is nonpositive: all zero,
    except the five exact point-mass boundary patterns which are sharp
    indicators 1{u >= step}."""
    tag = tag or classify(model)
    if tag.kind != CaseKind.NO_NET_PROFIT:
        raise InvalidModelError("model satisfies the net profit condition")
    out = np.zeros(u_max + 1)
    if tag.degenerate_step is not None and tag.degenerate_step <= u_max:
        out[tag.degenerate_step :] = 1.0
    return out


# ---- top-level convenience ----


@dataclass(frozen=True)
class UltimateResult:
    """phi(0..u_max) with the solve diagnostics attached.

    Values are raw solver output (not clamped); presentation layers clamp
    to [0, 1] at rendering time. ``lundberg_r`` and ``lundberg_c`` are the
    R and C of the bound 1 - phi(u) <= C e^(-R u), and ``reach`` the last
    u the paper's route computed; all three are None without net profit.
    """

    phi: np.ndarray
    case: CaseTag
    initials: dict[int, float]
    margin: float
    n_solve: int
    precision_bits: int | None
    determinant: Fraction | None
    residual_master: float
    residual_constraint: float
    lundberg_r: float | None
    lundberg_c: float | None
    reach: int | None


def survival_ultimate(model: ModelSpec, u_max: int) -> UltimateResult:
    """Classify, solve, extend, and cross-check in one call.

    The route runs only up to reach = min(u_max, u* + 8), u* from
    ``_lundberg_tail``; above reach phi continues along the recurrence's
    unit mode, phi(reach) + (mass_defect / margin)(u - reach), flat for
    exact atoms. It solves at the index ``_solve_index`` derives for
    reach, so the precision and the solve index do not grow with u_max.
    That index is at least reach + 8, so in cases A-C phi(0..reach) is
    read off the solve's sequences: sum_i F_i c_i(u) + M d(u), the free
    values F_i and the margin M floored at 2^bits, formed exactly at
    2^(2 bits) and rounded once. Only case D runs ``extend_ultimate``. The
    model is classified and its atoms made exact once per call.
    ``residuals`` checks the whole row.
    """
    if u_max < 0:
        raise InvalidModelError("u_max must be >= 0")
    tag = classify(model)
    work_len = max(u_max, 7)

    if tag.kind == CaseKind.NO_NET_PROFIT:
        phi = no_net_profit_values(model, tag, work_len)
        init = InitialValues(values={i: float(phi[i]) for i in range(4)}, n_solve=0,
                             determinant=None, precision_bits=None)
        r = c = reach = None
    else:
        tail = r, c, u_star = _lundberg_tail(model)
        reach = min(work_len, u_star + 8)
        init = solve_initials(model, tag, None if tag.kind == CaseKind.D
                              else _solve_index(model, tag, tail, reach))
        route = init._route
        if route.seqs:
            scale = 1 << 2 * init.precision_bits  # int / int is correctly rounded
            cols = zip(*(seq[: reach + 1] for seq in route.seqs))
            phi = np.array([sum(map(mul, route.weights, col)) / scale for col in cols])
        else:
            phi = extend_ultimate(model, init, reach)
        if reach < work_len:
            slope = model.s.mass_defect / net_profit_margin(model)
            phi = np.concatenate([phi, phi[reach] + slope * np.arange(1, work_len - reach + 1)])
    res = residuals(model, phi)
    return UltimateResult(
        phi=phi[: u_max + 1].copy(),
        case=tag,
        initials=dict(init.values),
        margin=net_profit_margin(model),
        n_solve=init.n_solve,
        precision_bits=init.precision_bits,
        determinant=init.determinant,
        residual_master=res.master,
        residual_constraint=res.constraint,
        lundberg_r=r,
        lundberg_c=c,
        reach=reach,
    )
