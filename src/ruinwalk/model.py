"""Model assembly and case classification.

A model is a pair of independent integer claim distributions: odd periods
draw from ``x``, even periods from ``y``, and the insurer collects a
premium of 2 per period. Everything downstream dispatches on where the
first positive atom of the period-pair claim sum ``s = x (+) y`` sits:

* case A: s_0 > 0        (solve for phi(0..2), then phi(3), then recurse)
* case B: s_0 = 0 < s_1  (solve for phi(0..1), then phi(2))
* case C: s_0 = s_1 = 0 < s_2, three scenarios by which atoms vanish
* case D: s_0 = s_1 = s_2 = 0 < s_3, four scenarios, closed forms

The net profit condition is E[s] < 4 (premium income per pair). When it
fails, survival probabilities collapse to 0 except for five degenerate
point-mass patterns with E[s] = 4 exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

from .errors import InvalidModelError, NumericalError, PrecisionError
from .pmf import Pmf, convolve

PREMIUM_PER_PERIOD = 2
INCOME_PER_PAIR = 2 * PREMIUM_PER_PERIOD


@dataclass(frozen=True)
class ModelSpec:
    """Two alternating claim distributions; the premium is the constant
    PREMIUM_PER_PERIOD."""

    x: Pmf
    y: Pmf

    @cached_property
    def s(self) -> Pmf:
        """Distribution of one period pair's total claim, x + y."""
        return convolve(self.x, self.y)

    @cached_property
    def mean_s(self) -> float:
        """Retained mean of s (truncated, not renormalized)."""
        return self.s.mean_retained

    @property
    def mean_s_upper(self) -> float:
        return self.mean_s + self.s.tail_mean_bound

    @cached_property
    def balance_roots(self) -> np.ndarray:
        """Nonzero roots z of sum_k s_k z^(D-k) = z^(D-4), D = max(smax, 4).

        Each is a mode z^n of the balance recurrence the ultimate route
        runs; the precision budget and the Lundberg tail both read them.
        A subnormal first positive s atom raises NumericalError: np.roots
        divides by it, which overflows float64.

        The trailing run of coefficients at most 2^-52 of the largest (the
        far claim sums s_k, the lowest powers of z) is dropped before
        np.roots: it lies inside the backward error the companion
        eigen-solve commits anyway (Edelman and Murakami 1995), it only
        moves the small roots of fast-dying modes, and among the 10-12
        such coefficients of a truncated Poisson pair the solve loses the
        Lundberg root (ROADMAP D11). A leading coefficient is never
        dropped, however small: it sets the pivot's growth mode. With
        nothing dropped (every dyadic model) the roots are np.roots' on
        the whole polynomial, bit for bit (``_companion_roots``).
        Otherwise each real root in (0, 1) is polished on the whole
        polynomial (``_polish``).
        """
        s = self.s
        coeffs = np.zeros(max(s.support_max, INCOME_PER_PAIR) + 1)
        coeffs[: s.support_max + 1] = s.probs
        coeffs[INCOME_PER_PAIR] -= 1.0
        # strip the leading zeros (s_k = 0 below the first positive atom),
        # as np.roots does, and the trailing ones, which would come back
        # as roots 0
        nonzero = np.flatnonzero(coeffs)
        m = int(nonzero[0])
        if abs(coeffs[m]) < np.finfo(np.float64).tiny:
            raise NumericalError(
                f"the first positive s atom s_{m} = {float(coeffs[m])!r} is subnormal; "
                "the balance recurrence's roots overflow float64"
            )
        full = coeffs[m : int(nonzero[-1]) + 1]
        # the largest coefficient is kept, so the cut never reaches s_m
        size = np.abs(full)
        keep = int(np.flatnonzero(size > 2.0**-52 * size.max())[-1]) + 1
        z = _companion_roots(full[:keep])
        if keep < len(full):
            c = full.tolist()
            real = np.flatnonzero((z.imag == 0) & (z.real > 0) & (z.real < 1))
            z[real] = [_polish(c, r) for r in z.real[real].tolist()]
        return z

    @cached_property
    def root_rates(self) -> np.ndarray:
        """log2 |z| of the nonzero ``balance_roots``, largest first: the
        growth rate, in bits per index, of each mode z^n that does not die
        out. Read-only; the precision budget and the solve index slice it."""
        z = np.abs(self.balance_roots)
        rates = np.sort(np.log2(z[z > 0]))[::-1]
        rates.setflags(write=False)
        return rates


def _companion_roots(p: np.ndarray) -> np.ndarray:
    """np.roots of p, whose first and last entries are nonzero: the
    eigenvalues of the same companion matrix, bit for bit and dtype
    included, without np.roots' stripping and stacking."""
    n = len(p) - 1
    if n < 1:
        return np.array([])
    a = np.zeros((n, n))
    a.flat[n :: n + 1] = 1.0
    a[0] = -p[1:] / p[0]
    return np.linalg.eigvals(a)


def _horner(c: list[float], z: float) -> tuple[float, float]:
    """The polynomial c (highest power first) and its derivative at z, in
    float64 by Horner's rule."""
    p = dp = 0.0
    for a in c:
        dp = dp * z + p
        p = p * z + a
    return p, dp


def _fine_at(c: list[float], z: float) -> float:
    """The polynomial c (highest power first) at z, within 2^-110 of
    sum_k |c_k| z^(N-k), where float64's own Horner rule rounds at about
    2^-53 of it. Horner's rule runs on integers scaled by 2^f, truncating
    each coefficient and product to a unit, so it errs by under 2 units
    per coefficient. c's entries lie in [-1, 1], so f is capped at 1000,
    inside float64's exponent range."""
    size = _horner([abs(a) for a in c], z)[0]
    f = min(113 + len(c).bit_length() - math.frexp(size)[1], 1000)
    zn, zd = z.as_integer_ratio()
    g = zd.bit_length() - 1
    acc = 0
    for t in np.ldexp(c, f).tolist():
        acc = (acc * zn >> g) + int(t)
    return acc / (1 << f)


def _polish(c: list[float], z: float) -> float:
    """The root of the polynomial c next to z in (0, 1), to float64's
    resolution.

    Newton steps on ``_horner`` are kept inside a bracket over which c
    changes sign, bisecting where a step would leave it, until a step no
    longer moves the root. The bracket runs from z to twice the first
    Newton step, doubled while c keeps its sign, and must stay inside
    (0, 1), so the unit mode, at 1 or just past it, cannot capture it. z
    can lie far from the root, up to 1e-3 relative, when the cut
    coefficients weigh on a small root. With no such bracket z comes back
    as it was. Where the roundings of Horner's rule hide the sign of c, a
    few ulps around a root of small slope, one last Newton step on a finer
    value (``_fine_at``) lands on the root within about an ulp.
    """
    p, dp = _horner(c, z)
    if not p or not dp:
        return z
    step = -2 * p / dp
    while True:
        b = z + step
        if not 0 < b < 1:
            return z
        if (_horner(c, b)[0] < 0) != (p < 0):
            break
        step *= 2
    lo, hi = min(z, b), max(z, b)
    lo_neg = (p < 0) == (lo == z)  # the sign of c at lo
    x = z - p / dp
    for _ in range(200):  # bisection alone ends in about 60
        px, dx = _horner(c, x)
        if not dx:
            return x
        if not px:
            break
        if (px < 0) == lo_neg:
            lo = x
        else:
            hi = x
        nx = x - px / dx
        if nx == x:
            break
        if not lo < nx < hi:
            nx = 0.5 * (lo + hi)
            if not lo < nx < hi:
                break
        x = nx
    nx = x - _fine_at(c, x) / dx
    return nx if 0 < nx < 1 else x


def _forcing(model: ModelSpec, n: int) -> tuple[np.ndarray, np.ndarray]:
    """B's x.y columns over u = 0..n-1: the coefficients
    x_{u+3} y_0 + x_{u+2} y_1 of v(1) and x_{u+2} y_0 of v(2)."""
    y0, y1 = model.y.p(0), model.y.p(1)
    xs = np.concatenate([model.x.probs, np.zeros(n + 3)])
    return xs[3 : n + 3] * y0 + xs[2 : n + 2] * y1, xs[2 : n + 2] * y0


def _balance(model: ModelSpec, v: np.ndarray, n: int, forcing=None) -> np.ndarray:
    """(B v)(0..n-1) from v(0..n+3): the balance equations as one operator.

        (B v)(u) = sum_{k=1}^{u+4} s_{u+4-k} v(k)
                   - (x_{u+3} y_0 + x_{u+2} y_1) v(1) - x_{u+2} y_0 v(2)

    One period pair maps survival over T - 2 periods to survival over T,
    and the ultimate row is the fixed point phi = B phi. A caller applying
    B many times passes ``forcing``, ``_forcing(model, m)`` for some m >= n,
    so the x.y columns are built once.
    """
    c1, c2 = _forcing(model, n) if forcing is None else forcing
    a, s = v[1 : n + 4], model.s.probs
    # np.convolve(a, s) is np.correlate(a, s[::-1], "full") when a is at
    # least as long as s, bit for bit, without convolve's wrapper cost;
    # with a shorter a, correlate swaps the two and sums in another order
    full = np.correlate(a, s[::-1], "full") if len(a) >= len(s) else np.convolve(a, s)
    out = full[3 : n + 3]
    out -= c1[:n] * v[1]
    out -= c2[:n] * v[2]
    return out


def net_profit_margin(model: ModelSpec) -> float:
    """Income minus expected claims per period pair, 4 - E[s] (retained)."""
    return INCOME_PER_PAIR - model.mean_s


class CaseKind(Enum):
    A = "A"
    B = "B"
    C = "C"
    D = "D"
    NO_NET_PROFIT = "no-net-profit"


@dataclass(frozen=True)
class CaseTag:
    """Dispatch result: which solver applies and with which scenario.

    ``degenerate_step`` is set only for the boundary point-mass patterns
    (x and y both deterministic, claim pair summing to 4): survival is the
    exact indicator phi(u) = 1{u >= degenerate_step}.
    """

    kind: CaseKind
    scenario: str | None = None
    min_s_atom: int | None = None
    degenerate_step: int | None = None


# Scenario of cases C and D by the atom pair (i, m* - i) whose product
# x_i y_{m*-i} carries the first positive s atom s_{m*}. In exact
# arithmetic that pair alone is positive; in float64 an underflowed
# product x_i y_j (i + j < m*) can leave two, and the carrier is the larger.
_SCENARIOS = {
    2: {(1, 1): "s.1", (0, 2): "s.2", (2, 0): "s.3"},
    3: {(2, 1): "v.1", (1, 2): "v.2", (3, 0): "v.3", (0, 3): "v.4"},
}


def _degenerate_pattern(model: ModelSpec) -> int | None:
    """Detect the exact point-mass boundary x_{4-j} = y_j = 1.

    Returns the survival threshold max(1, 3 - j), or None. The surplus
    path is periodic there: after full pairs it returns to u, and mid-pair
    it dips to u - 2 + j, so survival is a sharp indicator in u.
    """
    if model.s.p(4) != 1.0:
        return None
    for j in range(5):
        if model.y.p(j) == 1.0 and model.x.p(4 - j) == 1.0:
            return max(1, 3 - j)
    return None


def classify(model: ModelSpec) -> CaseTag:
    """Assign the solver case, with the net-profit check taking precedence.

    The truncated mean only bounds E[s] from below; the upper bound adds
    the carried tail-mean bound. If 4 falls inside that interval we refuse
    rather than guess.
    """
    es_lower = model.mean_s
    es_upper = model.mean_s_upper

    if es_lower >= INCOME_PER_PAIR:
        return CaseTag(
            kind=CaseKind.NO_NET_PROFIT,
            degenerate_step=_degenerate_pattern(model),
        )
    if es_upper >= INCOME_PER_PAIR:
        raise PrecisionError(
            "E[s] is within the truncation bound of 4; lower tail_tol to decide"
        )

    s = model.s
    min_atom = next((u for u in range(4) if s.p(u) > 0.0), None)
    if min_atom is None:
        # s_0..s_3 all zero forces min(x+y) >= 4 hence E[s] >= 4, impossible here.
        raise InvalidModelError("no s atom below 4 despite E[s] < 4; model is inconsistent")

    if min_atom == 0:
        return CaseTag(CaseKind.A, min_s_atom=0)
    if min_atom == 1:
        return CaseTag(CaseKind.B, min_s_atom=1)
    pairs = _SCENARIOS[min_atom]
    carrier = max(pairs, key=lambda ij: model.x.p(ij[0]) * model.y.p(ij[1]))
    kind = CaseKind.C if min_atom == 2 else CaseKind.D
    return CaseTag(kind, scenario=pairs[carrier], min_s_atom=min_atom)
