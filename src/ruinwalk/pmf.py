"""Truncated probability mass functions on the nonnegative integers.

Claim sizes are integer valued, so every distribution here is a dense
vector of atom probabilities ``probs[u] = P(Z = u)`` for ``u = 0..support_max``.
Distributions with infinite support (displaced Poisson) are truncated,
never renormalized: the lost tail mass is carried explicitly in
``mass_defect`` so downstream error bounds stay honest.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from operator import mul

import numpy as np

from .errors import InvalidModelError

# Explicit atom lists must account for all mass up to this tolerance.
EXPLICIT_SUM_TOL = 1e-9
# A Pmf's atoms plus its defect must sum to 1 within this accumulation error.
PMF_SUM_TOL = 1e-14


def _as_readonly(a: np.ndarray) -> np.ndarray:
    out = np.ascontiguousarray(a, dtype=np.float64)
    out.setflags(write=False)
    return out


def _shortfall(total: float, n: int) -> float:
    """1 - total, the mass n atoms summing to ``total`` lack, or 0 within
    their own float64 rounding, n 2^-53 (and what a Pmf accepts)."""
    defect = max(0.0, 1.0 - total)
    return 0.0 if defect <= min(n * 2.0**-53, PMF_SUM_TOL) else defect


@dataclass(frozen=True)
class Pmf:
    """An integer claim-size distribution truncated at ``support_max``.

    ``sum(probs) + mass_defect == 1`` to within float accumulation error.
    ``tail_mean_bound`` is an upper bound on the mean contribution of the
    dropped tail, i.e. on ``E[Z] - sum(u * probs[u])``; it is exact for
    displaced Poisson input and ``mass_defect * support_max`` for explicit
    atom lists (which are complete by construction).
    """

    probs: np.ndarray
    mass_defect: float
    tail_mean_bound: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "probs", _as_readonly(self.probs))
        if self.probs.ndim != 1 or len(self.probs) == 0:
            raise InvalidModelError("probs must be a nonempty 1-d array")
        if (self.probs < 0).any() or not np.isfinite(self.probs).all():
            raise InvalidModelError("atom probabilities must be finite and >= 0")
        if self.mass_defect < 0 or self.mass_defect > 1:
            raise InvalidModelError(f"mass_defect out of range: {self.mass_defect}")
        total = math.fsum(self.probs.tolist()) + self.mass_defect
        if abs(total - 1.0) > PMF_SUM_TOL:
            raise InvalidModelError(
                f"probs + mass_defect must sum to 1, got {total!r}"
            )

    # ---- accessors ----

    @property
    def support_max(self) -> int:
        return len(self.probs) - 1

    def p(self, u: int) -> float:
        """Atom probability, zero outside the stored support."""
        if 0 <= u <= self.support_max:
            return float(self.probs[u])
        return 0.0

    @cached_property
    def _cdf(self) -> np.ndarray:
        return _as_readonly(np.cumsum(self.probs))

    def cdf(self, u: int) -> float:
        """P(Z <= u) of the truncated distribution (0 below, capped above)."""
        if u < 0:
            return 0.0
        return float(self._cdf[min(u, self.support_max)])

    def tail(self, u: int) -> float:
        """P(Z > u) including the truncated mass."""
        return 1.0 - self.cdf(u)

    @cached_property
    def mean_retained(self) -> float:
        return math.fsum(map(mul, range(len(self.probs)), self.probs.tolist()))


# ---- constructors ----


def from_probs(values) -> Pmf:
    """Build a Pmf from an explicit atom list that must sum to 1.

    The list is taken as the complete distribution; a residual up to
    EXPLICIT_SUM_TOL is tolerated. A shortfall is recorded as mass_defect,
    unless it is no more than the atoms' own rounding (``_shortfall``); an
    excess beyond what a Pmf accepts scales the atoms down to sum to 1.
    Either way atoms the Pmf accepts are kept bit for bit.
    """
    arr = np.asarray(list(values), dtype=np.float64)
    if arr.ndim != 1 or len(arr) == 0:
        raise InvalidModelError("need at least one atom probability")
    if (arr < 0).any() or not np.isfinite(arr).all():
        raise InvalidModelError("atom probabilities must be finite and >= 0")
    total = math.fsum(arr.tolist())
    if abs(total - 1.0) > EXPLICIT_SUM_TOL:
        raise InvalidModelError(
            f"atom probabilities sum to {total!r}, expected 1 within {EXPLICIT_SUM_TOL}"
        )
    if total - 1.0 > PMF_SUM_TOL:
        arr = arr / total
        total = math.fsum(arr.tolist())
    defect = _shortfall(total, len(arr))
    return Pmf(arr, defect, defect * (len(arr) - 1))


def point_mass(value: int) -> Pmf:
    """Distribution concentrated on a single integer atom."""
    if value < 0 or value != int(value):
        raise InvalidModelError("point mass atom must be a nonnegative integer")
    arr = np.zeros(int(value) + 1)
    arr[int(value)] = 1.0
    return Pmf(arr, 0.0, 0.0)


def make_displaced_poisson(lam: float, shift: int, tail_tol: float = 1e-12) -> Pmf:
    """Poisson(lam) shifted up by ``shift``: P(Z = shift + j) = e^-lam lam^j / j!.

    Truncated at the smallest support making mass_defect <= tail_tol.
    The dropped tail's mean contribution is known exactly because
    E[Z] = lam + shift.
    """
    if not (lam > 0) or not math.isfinite(lam):
        raise InvalidModelError(f"lambda must be positive, got {lam!r}")
    if shift < 0 or shift != int(shift):
        raise InvalidModelError(f"shift must be a nonnegative integer, got {shift!r}")
    if not (0 < tail_tol <= 1e-6):
        raise InvalidModelError(f"tail_tol must lie in (0, 1e-6], got {tail_tol!r}")
    shift = int(shift)
    mode = math.floor(lam)
    # the atoms run up past shift + mode: refuse before allocating them
    if shift + mode > 10_000_000:
        raise InvalidModelError(f"displaced Poisson support too long for lambda={lam}, shift={shift}")

    # Weights relative to the mode, w_j = p_j / p_mode, by the ratios
    # p_j / p_{j-1} = lam / j: below the mode down to where they underflow,
    # above it until they fall 1e-20 under tail_tol, where what is left
    # moves neither the total nor the dropped mass. e^-lam, which is 0 in
    # float64 from lam ~ 745, never enters: the untruncated weights sum to
    # 1 / p_mode, so p_j = w_j / total. Terms taken from logs,
    # exp(j log(lam) - lam - lgamma(j + 1)), would carry the rounding of
    # logs near 3000 in size: at lam = 500 they sum to 1 - 2e-13, short of
    # the tail tolerances asked for.
    below = []
    w = 1.0
    for j in range(mode, 0, -1):
        w *= j / lam
        if w == 0.0:
            break
        below.append(w)
    weights = below[::-1] + [1.0]
    w = 1.0
    for j in itertools.count(mode + 1):
        w *= lam / j
        if w <= tail_tol * 1e-20:
            break
        weights.append(w)
    total = math.fsum(weights)

    # Drop the longest far tail whose mass stays within tail_tol; tails[k]
    # is the mass of the last k + 1 weights, summed from the smallest up.
    tails = list(itertools.accumulate(reversed(weights)))
    drop = min(bisect.bisect_right(tails, tail_tol * total), len(weights) - 1)
    kept = weights[: len(weights) - drop]

    probs = np.zeros(shift + mode - len(below) + len(kept))
    probs[shift + mode - len(below) :] = np.array(kept) / total
    defect = (tails[drop - 1] if drop else 0.0) / total
    retained_mean = math.fsum(map(mul, range(len(probs)), probs.tolist()))
    tail_mean_bound = max(0.0, (lam + shift) - retained_mean)
    return Pmf(probs, defect, tail_mean_bound)


# ---- operations ----


def convolve(a: Pmf, b: Pmf) -> Pmf:
    """Distribution of the independent sum, on the truncated supports.

    All retained cross terms survive (support_max adds), so the result's
    defect comes only from the inputs' defects: of two inputs without one,
    the products' own rounding is no lost mass (``_shortfall``).
    """
    probs = np.convolve(a.probs, b.probs)
    np.clip(probs, 0.0, None, out=probs)
    total = math.fsum(probs.tolist())
    defect = max(0.0, 1.0 - total) if a.mass_defect or b.mass_defect else _shortfall(total, len(probs))
    # E[A+B] - retained mean = (tail of A) + (tail of B) + cross defect terms.
    bound = (
        a.tail_mean_bound
        + b.tail_mean_bound
        + a.mean_retained * b.mass_defect
        + b.mean_retained * a.mass_defect
    )
    return Pmf(probs, defect, bound)


# ---- the textual PMF grammar used by the CLI and config files ----


def parse_pmf_spec(text: str, tail_tol: float = 1e-12) -> Pmf:
    """Parse ``dpois:<lambda>,<shift>`` | ``pmf:<p0>,...,<pk>`` | ``@<path>``.

    File form: line k is the weight of atom k (k = 0, 1, ...). Trailing
    newlines are allowed; a blank line before the last weight is an error,
    since it would shift every later atom. The list must sum to 1 within
    1e-9.
    """
    if not isinstance(text, str) or not text.strip():
        raise InvalidModelError("empty distribution spec")
    text = text.strip()

    if text.startswith("dpois:"):
        body = text[len("dpois:"):]
        parts = body.split(",")
        if len(parts) != 2:
            raise InvalidModelError(f"dpois spec needs lambda,shift: {text!r}")
        try:
            lam = float(parts[0])
            shift = int(parts[1])
        except ValueError as exc:
            raise InvalidModelError(f"bad dpois parameters in {text!r}") from exc
        return make_displaced_poisson(lam, shift, tail_tol)

    if text.startswith("pmf:"):
        body = text[len("pmf:"):]
        try:
            values = [float(v) for v in body.split(",")]
        except ValueError as exc:
            raise InvalidModelError(f"bad atom list in {text!r}") from exc
        return from_probs(values)

    if text.startswith("@"):
        path = text[1:]
        try:
            with open(path, "r", encoding="utf-8") as fh:
                lines = [ln.strip() for ln in fh]
        except OSError as exc:
            raise InvalidModelError(f"cannot read pmf file {path!r}: {exc}") from exc
        while lines and not lines[-1]:
            lines.pop()
        if "" in lines:
            raise InvalidModelError(
                f"blank line {lines.index('') + 1} in pmf file {path!r}; "
                "line k is the weight of atom k"
            )
        try:
            values = [float(ln) for ln in lines]
        except ValueError as exc:
            raise InvalidModelError(f"bad probability line in {path!r}") from exc
        if not values:
            raise InvalidModelError(f"pmf file {path!r} is empty")
        return from_probs(values)

    raise InvalidModelError(f"unrecognized distribution spec {text!r}")
