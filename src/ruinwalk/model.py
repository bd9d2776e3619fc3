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
        """
        s = self.s
        coeffs = np.zeros(max(s.support_max, INCOME_PER_PAIR) + 1)
        coeffs[: s.support_max + 1] = s.probs
        coeffs[INCOME_PER_PAIR] -= 1.0
        # np.roots drops the leading zeros (s_k = 0 below the first
        # positive atom) itself; trailing ones would come back as roots 0
        coeffs = np.trim_zeros(coeffs, "b")
        m = int(np.flatnonzero(coeffs)[0])
        if abs(coeffs[m]) < np.finfo(np.float64).tiny:
            raise NumericalError(
                f"the first positive s atom s_{m} = {float(coeffs[m])!r} is subnormal; "
                "the balance recurrence's roots overflow float64"
            )
        return np.roots(coeffs)


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
