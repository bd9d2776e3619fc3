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
Cramer's rule with the right-hand side set exactly to zero.
The coefficient growth wipes out double precision long before n reaches
useful values, so sequence generation, the solve and the extension run in
extended precision. The forward recurrence runs on Python integers scaled
by 2^bits: the float64 atoms are exact dyadic rationals, so each step's
numerator is formed exactly and one floor division by the pivot is its
only rounding. The small solve runs in mpmath at the same bits. One bit
budget (``_budget``) serves all three: the growth rates of the
recurrence's characteristic roots times the index, plus the cancellation
Cramer's rule suffers between the dominant modes, plus 53 bits of float64
accuracy and a 64-bit guard.

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
the balance equations as one dense float64 linear system with phi pinned
to 1 far out, and ``no_net_profit_values`` produces the collapsed values
used when the margin is nonpositive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import accumulate
from operator import mul

import numpy as np
from mpmath import mp

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

DEFAULT_PRECISION_BITS = 256
SOLVE_AGREE_TOL = 1e-9
N_SOLVE_MIN = 150
N_SOLVE_CAP = 2000


# ---- exact model views ----


def _dyadic(values) -> tuple[list[int], int]:
    """Float64 values as integers over one power of two: v_i = n_i / 2^a."""
    ratios = [float(v).as_integer_ratio() for v in values]
    a = max(d.bit_length() for _, d in ratios) - 1
    return [n << (a - d.bit_length() + 1) for n, d in ratios], a


def _fixed(v, scale: int) -> int:
    """floor(v 2^scale), exactly, for a float or an mpf v."""
    v = mp.ldexp(v, scale)
    man, exp = v.man_exp
    if v < 0:
        man = -man
    return man << exp if exp >= 0 else man >> -exp


class _Atoms:
    """A model's float64 atoms held exactly, as integers over a power of two
    per family: x_i = x[i] / 2^ex, y_j = y[j] / 2^ey, s_k = s[k] / 2^es.

    The forward recurrence reads the integers. The head and the solve read
    mpf values, each rounded once at the working precision from an exact
    integer, so one view serves every precision a call uses.
    """

    def __init__(self, model: ModelSpec):
        self.x, self.ex = _dyadic(model.x.probs)
        self.y, self.ey = _dyadic(model.y.probs)
        self.s, self.es = _dyadic(model.s.probs)
        self._xcum = list(accumulate(self.x))
        self._scum = list(accumulate(self.s))
        self._margin = (INCOME_PER_PAIR << self.es) - sum(k * v for k, v in enumerate(self.s))

    def x_at(self, i):
        return mp.ldexp(self.x[i], -self.ex) if 0 <= i < len(self.x) else mp.mpf(0)

    def y_at(self, i):
        return mp.ldexp(self.y[i], -self.ey) if 0 <= i < len(self.y) else mp.mpf(0)

    def s_cdf(self, u):
        if u < 0:
            return mp.mpf(0)
        return mp.ldexp(self._scum[min(u, len(self._scum) - 1)], -self.es)

    def x_tail(self, u):
        if u < 0:
            return mp.mpf(1)
        return mp.ldexp((1 << self.ex) - self._xcum[min(u, len(self._xcum) - 1)], -self.ex)

    @property
    def margin(self):
        return mp.ldexp(self._margin, -self.es)


def _budget(model: ModelSpec, tag: CaseTag, n: int) -> int:
    """Working bits for coefficients and values up to index n.

    Each root z of the balance recurrence (``ModelSpec.balance_roots``)
    grows a mode by g = log2|z| bits per index. The dominant mode sets the
    magnitudes; Cramer's rule on the dim x dim difference system (dim as
    in ``_free_indices``) then cancels the sum of (g_1 - g_j) over the
    next dim - 1 modes. On top: 53 bits of float64 accuracy and a 64-bit
    guard, and never fewer than DEFAULT_PRECISION_BITS in all.
    """
    g = np.sort(np.log2(np.abs(model.balance_roots)))[::-1]
    dim = len(_free_indices(tag))
    per_index = g[0] + sum(g[0] - g[j] for j in range(1, dim))
    return max(DEFAULT_PRECISION_BITS, math.ceil(n * per_index) + 53 + 64)


def _mgf(p: Pmf, r: float, shift: int) -> float:
    """E[e^(r (Z - shift))] in float64, with the mass defect on one atom
    just past the support, the nearest place a truncated tail can sit."""
    k = np.arange(-shift, len(p.probs) + 1 - shift)
    return float(np.dot(np.append(p.probs, p.mass_defect), np.exp(r * k)))


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
    while r > 0 and _mgf(s, r, INCOME_PER_PAIR) > 1:
        r, step = r - step, 2 * step
    if r <= 0:
        return 0.0, 1.0, math.inf
    c = max(1.0, 1 / _mgf(model.y, r, PREMIUM_PER_PERIOD))
    return r, c, math.ceil((math.log(c) + 53 * math.log(2)) / r)


# ---- the forward-recurrence kernel ----


def _forward(at: _Atoms, min_atom: int, phi: list[int], stop: int) -> list[int]:
    """Extend ``phi`` in place to phi(0..stop) by the forward recurrence
    stated in ``extend_ultimate``.

    Values are integers, phi(k) scaled by 2^F for the caller's F; the
    recurrence is linear and homogeneous, so F never enters it, and the
    same loop extends phi itself and each coefficient sequence of its
    representation. Each step forms its numerator exactly over a power of
    two (the s tail over 2^es, the x.y coefficients of phi(1) and phi(2)
    over their own power, so one tiny x or y atom widens only the steps
    that read it) and divides once by the scaled pivot s_{m*}: the floor
    of that division is the step's only rounding.
    """
    m = min_atom
    s, es = at.s, at.es
    smax = len(s) - 1
    s_rev = s[::-1]
    y0, y1 = (at.y + [0, 0])[:2]

    def x(i):
        return at.x[i] if 0 <= i < len(at.x) else 0

    # step u's x.y coefficients as (c1, c2, k): c1 / 2^(es + k) is
    # x_{u+m*-1} y_0 + x_{u+m*-2} y_1 and c2 / 2^(es + k) is x_{u+m*-2} y_0;
    # they vanish once u + m* - 2 passes the support of x
    forcing = []
    ez = at.ex + at.ey
    for u in range(len(at.x) + 2 - m):
        c1 = x(u + m - 1) * y0 + x(u + m - 2) * y1
        c2 = x(u + m - 2) * y0
        both = c1 | c2
        # the pair's exponent once their common trailing zero bits are gone
        e = ez - min(ez, (both & -both).bit_length() - 1) if both else 0
        k = max(0, e - es)
        d = es + k - ez  # exact either way: c1 and c2 end in ez - e zero bits
        forcing.append((c1 << d, c2 << d, k) if d >= 0 else (c1 >> -d, c2 >> -d, k))

    for u in range(len(phi), stop + 1):
        lo = max(1, u + m - smax)
        # s_rev[smax - u - m* + k] = s_{u+m*-k} for k = lo..u-1
        tail = sum(map(mul, s_rev[smax - u - m + lo : smax - m], phi[lo:u]))
        if u < len(forcing):
            c1, c2, k = forcing[u]
            if u == 2 and c2:
                # scenarios that extend from u = 2 all have y_0 = 0
                raise NumericalError("phi(2) required as an initial value for this model")
            acc = (phi[u - 4 + m] << (es + k)) + c1 * phi[1] - (tail << k)
            if c2:
                acc += c2 * phi[2]
            phi.append(acc // (s[m] << k))
        else:
            phi.append(((phi[u - 4 + m] << es) - tail) // s[m])
    return phi


def _free_indices(tag: CaseTag) -> tuple[int, ...]:
    """The phi indices each case solves for; the head fills in the rest."""
    if tag.kind == CaseKind.A:
        return (0, 1, 2)
    if tag.kind == CaseKind.B:
        return (0, 1)
    # case C: phi(0) = 0 identically in s.3 (the first claim is at least 2)
    return (1,) if tag.scenario == "s.3" else (0,)


def _head(tag: CaseTag, at: _Atoms, free, margin) -> list:
    """phi(0..j) from the free values, with phi(j) from the constraint

        phi(0) + (X~(2) y_0 + X~(1) y_1 + S(2)) phi(1)
               + (X~(1) y_0 + S(1)) phi(2) + S(0) phi(3) = margin

    where X~ is the tail of x and S the cdf of s. Here j is one past the
    last free index: 3 in case A, 2 in case B and C s.3, 1 in C s.1/s.2;
    the constraint's coefficients beyond j vanish in each case, and the
    pivot at j is positive: s_0 in A, s_1 + X~(1) y_0 in B, s_2 + X~(1) y_1
    in C s.1/s.2, y_0 in C s.3.
    """
    row = [
        mp.mpf(1),
        at.s_cdf(2) + at.x_tail(2) * at.y_at(0) + at.x_tail(1) * at.y_at(1),
        at.s_cdf(1) + at.x_tail(1) * at.y_at(0),
        at.s_cdf(0),
    ]
    idx = _free_indices(tag)
    j = idx[-1] + 1
    phi = [mp.mpf(0)] * j
    for i, v in zip(idx, free):
        phi[i] = v
    phi.append((margin - mp.fdot(row[:j], phi)) / row[j])
    return phi


# ---- coefficient sequences ----


@dataclass(frozen=True)
class SequenceSet:
    """Representation coefficients phi(n) = sum_i ci_n phi(i) + d_n margin.

    Which of coeff_phi0/1/2 are present depends on the case: case A keeps
    all three, case B drops coeff_phi2, case C keeps a single one (phi(0)
    for scenarios s.1/s.2, phi(1) for s.3 where phi(0) = 0 identically).
    Entries are mpf computed at ``precision_bits``.
    """

    tag: CaseTag
    n_max: int
    coeff_phi0: list | None
    coeff_phi1: list | None
    coeff_phi2: list | None
    coeff_margin: list
    precision_bits: int


def _sequences(model: ModelSpec, tag: CaseTag, at: _Atoms, n_max: int) -> tuple[list[list[int]], int]:
    """The coefficient sequences up to index n_max as integers scaled by
    2^bits, in the order of ``_free_indices`` with the margin's last, and
    bits.

    Each is the forward recurrence run from the head of one unit vector
    over the free values (margin 0), or of the zero vector with margin 1,
    bits being the budget ``_budget`` sets for n_max. If the realized
    magnitudes still get within 64 bits of that budget, NumericalError is
    raised.
    """
    free = _free_indices(tag)
    bits = _budget(model, tag, n_max)
    with mp.workprec(bits):
        zero, one = mp.mpf(0), mp.mpf(1)
        heads = [_head(tag, at, [one if i == k else zero for k in free], zero) for i in free]
        heads.append(_head(tag, at, [zero] * len(free), one))
        seqs = [_forward(at, tag.min_s_atom, [_fixed(v, bits) for v in h], n_max) for h in heads]
    top_mag = max(v.bit_length() for seq in seqs for v in seq) - bits
    if top_mag > bits - 64:
        raise NumericalError(
            f"coefficients reach 2^{top_mag}, within 64 bits of the {bits}-bit budget"
        )
    return seqs, bits


def build_sequences(model: ModelSpec, tag: CaseTag | None = None, n_max: int = 153) -> SequenceSet:
    """Generate the representation coefficients up to index n_max.

    The sequences come from ``_sequences``; entries are returned as mpf at
    its precision.
    """
    tag = tag or classify(model)
    if tag.kind == CaseKind.NO_NET_PROFIT:
        raise InvalidModelError("no coefficient sequences when the net profit condition fails")
    if tag.kind == CaseKind.D:
        raise InvalidModelError("case D solves in closed form; it has no coefficient sequences")
    if n_max < 4:
        raise InvalidModelError("n_max must be at least 4")

    seqs, bits = _sequences(model, tag, _Atoms(model), n_max)
    with mp.workprec(bits):
        for seq in seqs:  # in place, so that only one copy is held at a time
            for n, v in enumerate(seq):
                seq[n] = mp.ldexp(v, -bits)

    coeffs = dict(zip(_free_indices(tag), seqs))
    return SequenceSet(
        tag=tag,
        n_max=n_max,
        coeff_phi0=coeffs.get(0),
        coeff_phi1=coeffs.get(1),
        coeff_phi2=coeffs.get(2),
        coeff_margin=seqs[-1],
        precision_bits=bits,
    )


# ---- initial-value solve ----


@dataclass(frozen=True)
class InitialValues:
    """Solved phi at the low indices each case needs to recurse forward.

    ``delta`` is the largest difference in the solved free values between
    the solves at the accepted index and one index lower, kept as an error
    estimate.
    """

    values: dict[int, float]
    n_solve: int
    determinant: mp.mpf | None
    delta: float
    precision_bits: int
    values_mp: dict = field(repr=False, default_factory=dict)


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


def _solve_at(tag: CaseTag, seqs: list[list[int]], bits: int, at: _Atoms, n: int):
    """Solve the vanished-difference system at index n by Cramer's rule.

    ``seqs`` are the scaled integer sequences of ``_sequences``; only
    entries n..n+dim of each become mpf. Returns the head phi(0..j) and
    the determinant. Caller sets precision.
    """
    steps = range(1, len(seqs))
    *cols, d = [[mp.ldexp(v, -bits) for v in seq[n : n + len(seqs)]] for seq in seqs]
    mat = [[c[i] - c[0] for c in cols] for i in steps]
    margin = at.margin
    rhs = [-(d[i] - d[0]) * margin for i in steps]
    det = _det(mat)
    if det == 0:
        raise SingularSystemError(f"difference system is singular at n={n}", n=n, determinant=0.0)
    sol = [
        _det([row[:j] + [r] + row[j + 1 :] for row, r in zip(mat, rhs)]) / det
        for j in range(len(cols))
    ]
    return _head(tag, at, sol, margin), det


def _solve_case_d(model: ModelSpec, tag: CaseTag) -> InitialValues:
    bits = _budget(model, tag, 0)
    at = _Atoms(model)
    with mp.workprec(bits):
        m = at.margin
        scen = tag.scenario
        if scen == "v.1":
            vals = {0: mp.mpf(0), 1: m / at.y_at(1)}
        elif scen in ("v.2", "v.4"):
            # The recurrence at u = 0 and u = 1 gives
            # phi(1) (s_3 - x_3 y_0 - x_2 y_1) = phi(0); with y_0 = y_1 = 0
            # in these scenarios the pivot reduces to x_1 y_2 + x_0 y_3.
            den = at.x_at(1) * at.y_at(2) + at.x_at(0) * at.y_at(3)
            phi0 = m / (1 + at.x_tail(1) * at.y_at(1) / den)
            vals = {0: phi0, 1: phi0 / den}
        else:  # v.3: the first claim is at least 3, so phi(0) = phi(1) = 0
            vals = {0: mp.mpf(0), 1: mp.mpf(0), 2: m / at.y_at(0)}
    return InitialValues(
        values={k: float(v) for k, v in vals.items()},
        n_solve=0,
        determinant=None,
        delta=0.0,
        precision_bits=bits,
        values_mp=vals,
    )


def solve_initials(model: ModelSpec, tag: CaseTag | None = None,
                   n_solve: int = N_SOLVE_MIN) -> InitialValues:
    """Solve for the low-index phi values, with the adaptive index check.

    The system is solved at n_solve and n_solve - 1; if the two solutions
    disagree beyond SOLVE_AGREE_TOL the index doubles, up to N_SOLVE_CAP,
    after which a NumericalError is raised rather than returning a value
    of unknown accuracy.
    """
    tag = tag or classify(model)
    if tag.kind == CaseKind.NO_NET_PROFIT:
        raise InvalidModelError("survival values with no net profit come from no_net_profit_values")
    if tag.kind == CaseKind.D:
        return _solve_case_d(model, tag)
    if n_solve < 8:
        raise InvalidModelError("n_solve must be at least 8")

    n = min(n_solve, N_SOLVE_CAP)
    at = _Atoms(model)
    while True:
        seqs, bits = _sequences(model, tag, at, n + 3)
        with mp.workprec(bits):
            head, det = _solve_at(tag, seqs, bits, at, n)
            head_lo, _ = _solve_at(tag, seqs, bits, at, n - 1)
            delta = max(abs(float(head[i] - head_lo[i])) for i in _free_indices(tag))
            if delta <= SOLVE_AGREE_TOL:
                return InitialValues(
                    values={k: float(v) for k, v in enumerate(head)},
                    n_solve=n,
                    determinant=det,
                    delta=delta,
                    precision_bits=bits,
                    values_mp=dict(enumerate(head)),
                )
        if n >= N_SOLVE_CAP:
            raise NumericalError(
                f"initial values did not stabilize by n={n} (last delta {delta:.3e}); "
                "the margin may be too close to zero for this method"
            )
        n = min(2 * n, N_SOLVE_CAP)


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
    """
    if isinstance(initials, InitialValues):
        given = initials.values_mp or initials.values
    else:
        given = initials
    if u_max < 0:
        raise InvalidModelError("u_max must be >= 0")
    top = max(given)
    if sorted(given) != list(range(top + 1)):
        raise InvalidModelError("initial values must cover a contiguous range 0..j")

    tag = classify(model)
    if tag.kind == CaseKind.NO_NET_PROFIT:
        raise InvalidModelError("survival values with no net profit come from no_net_profit_values")
    min_atom = tag.min_s_atom
    # every step reads phi(1), and phi(u - 4 + m*) for u > top
    need = max(1, 3 - min_atom)
    if top < need:
        raise InvalidModelError(f"need initial values up to index {need}")

    bits = _budget(model, tag, u_max)
    if isinstance(initials, InitialValues):
        bits = max(bits, initials.precision_bits)
    phi = [_fixed(given[i], bits) for i in range(min(top, u_max) + 1)]
    _forward(_Atoms(model), min_atom, phi, u_max)
    # int / int is correctly rounded
    scale = 1 << bits
    return np.array([v / scale for v in phi])


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


def boundary_oracle(model: ModelSpec, u_max: int, u_big: int = 400) -> np.ndarray:
    """Independent route: pin phi(u) = 1 for u >= u_big and solve the
    balance equations plus the constraint as one float64 linear system.

    Valid when the net profit condition certainly holds, since then
    phi(u) -> 1 and the truncation error decays geometrically in u_big.
    """
    if model.mean_s_upper >= INCOME_PER_PAIR:
        raise InvalidModelError("boundary oracle requires a certain net profit margin")
    if u_big < 8:
        raise InvalidModelError("u_big must be at least 8")
    if u_max < 0:
        raise InvalidModelError("u_max must be >= 0")

    s, x, y = model.s, model.x, model.y
    y0, y1 = y.p(0), y.p(1)
    smax = s.support_max
    n = u_big
    mat = np.zeros((n, n))
    rhs = np.zeros(n)

    mat[0, 0] = 1.0
    mat[0, 1] = x.tail(2) * y0 + x.tail(1) * y1 + s.cdf(2)
    mat[0, 2] = x.tail(1) * y0 + s.cdf(1)
    mat[0, 3] = s.cdf(0)
    rhs[0] = net_profit_margin(model)

    for u in range(n - 1):
        r = u + 1
        mat[r, u] -= 1.0
        for k in range(max(1, u + 4 - smax), u + 5):
            c = s.p(u + 4 - k)
            if c == 0.0:
                continue
            if k < n:
                mat[r, k] += c
            else:
                rhs[r] -= c
        mat[r, 1] -= x.p(u + 3) * y0 + x.p(u + 2) * y1
        mat[r, 2] -= x.p(u + 2) * y0

    try:
        phi = np.linalg.solve(mat, rhs)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"boundary system is singular (u_big={u_big})") from exc

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
    determinant: mp.mpf | None
    initials_delta: float
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
    exact atoms. So the precision and the solve index do not grow with
    u_max. ``residuals`` checks the whole row.
    """
    if u_max < 0:
        raise InvalidModelError("u_max must be >= 0")
    tag = classify(model)
    work_len = max(u_max, 7)

    if tag.kind == CaseKind.NO_NET_PROFIT:
        phi = no_net_profit_values(model, tag, work_len)
        res = residuals(model, phi)
        return UltimateResult(
            phi=phi[: u_max + 1].copy(),
            case=tag,
            initials={i: float(phi[i]) for i in range(4)},
            margin=net_profit_margin(model),
            n_solve=0,
            precision_bits=None,
            determinant=None,
            initials_delta=0.0,
            residual_master=res.master,
            residual_constraint=res.constraint,
            lundberg_r=None,
            lundberg_c=None,
            reach=None,
        )

    r, c, u_star = _lundberg_tail(model)
    reach = min(work_len, u_star + 8)
    # never extend past the solve index: committed error grows along the
    # dominant coefficient mode once u approaches n_solve
    if tag.kind != CaseKind.D and reach + 8 > N_SOLVE_CAP:
        raise NumericalError(
            f"phi up to u={reach} needs a solve index past {N_SOLVE_CAP} "
            f"(Lundberg exponent {r:.3g}); the margin is too small for this method"
        )
    init = solve_initials(model, tag, n_solve=max(N_SOLVE_MIN, reach + 8))
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
        initials_delta=init.delta,
        residual_master=res.master,
        residual_constraint=res.constraint,
        lundberg_r=r,
        lundberg_c=c,
        reach=reach,
    )
