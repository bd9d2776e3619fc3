"""Reference computations for the benchmark's output checks.

Nothing here imports ruinwalk: the checks compare the program against
arithmetic written separately, in plain numpy and float64.

The model: periods alternate claims X (odd periods) and Y (even
periods), the surplus gains 2 per period, and the process is ruined the
first time the surplus is zero or below after a period's claim.

* ``forward_dp`` pushes the distribution of the surviving surplus
  forward one period at a time, so phi(u, T) is the mass still alive
  after T periods.
* ``first_step_phi`` conditions on the first period pair,

      phi(u) = sum_{k <= u+1} x_k sum_{j <= u+3-k} y_j phi(u + 4 - k - j),

  pins phi(v) = 1 for v beyond a wall placed from the Lundberg
  exponent, and solves the banded linear system by Gaussian elimination.
"""

from __future__ import annotations

import math

import numpy as np

# Upper bandwidth of the first-step system: phi(u) reaches up to phi(u + 4).
_UPPER = 4


def dpois_atoms(lam: float, shift: int, floor: float = 1e-30) -> np.ndarray:
    """P(Z = shift + j) = e^-lam lam^j / j!, kept while terms exceed ``floor``.

    Terms are evaluated one by one in log space, so large lambda neither
    underflows at j = 0 nor needs a running product.
    """
    terms = []
    j = 0
    log_lam = math.log(lam)
    while True:
        t = math.exp(-lam + j * log_lam - math.lgamma(j + 1))
        if j > lam and t < floor:
            break
        terms.append(t)
        j += 1
    out = np.zeros(shift + len(terms))
    out[shift:] = terms
    return out


def _trim(p: np.ndarray) -> np.ndarray:
    nz = np.nonzero(p)[0]
    return np.asarray(p[: nz[-1] + 1], dtype=np.float64)


def adjustment_exponent(x: np.ndarray, y: np.ndarray) -> float:
    """Positive root R of E[exp(R (X + Y - 4))] = 1 (Lundberg exponent of a pair)."""
    s = np.convolve(x, y)
    m = np.arange(len(s)) - 4.0
    if float(np.dot(s, m)) >= 0.0:
        raise ValueError("no net profit: E[X + Y] >= 4")
    if len(s) <= 5:
        return math.inf  # claims never exceed the income of a pair

    def g(r):
        return float(np.dot(s, np.exp(r * m))) - 1.0

    hi = 1.0
    while g(hi) < 0.0:
        hi *= 2.0
    lo = 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if g(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return lo if lo > 0 else hi


def _pair_row(x: np.ndarray, y: np.ndarray, u: int) -> dict[int, float]:
    """P(first pair survives and ends at surplus v | start u), for each v."""
    row: dict[int, float] = {}
    for k in range(min(len(x) - 1, u + 1) + 1):
        if x[k] == 0.0:
            continue
        for j in range(min(len(y) - 1, u + 3 - k) + 1):
            if y[j] == 0.0:
                continue
            v = u + 4 - k - j
            row[v] = row.get(v, 0.0) + x[k] * y[j]
    return row


def first_step_phi(x, y, u_max: int, tail: float = 1e-16) -> np.ndarray:
    """Ultimate survival phi(0..u_max) by the first-step equations over one pair.

    The wall N is placed so that exp(-R (N - u_max - smax)) < ``tail``,
    R being the Lundberg exponent, which bounds the error of pinning
    phi to 1 beyond N.
    """
    x = _trim(np.asarray(x, dtype=np.float64))
    y = _trim(np.asarray(y, dtype=np.float64))
    smax = len(x) + len(y) - 2
    r = adjustment_exponent(x, y)
    margin = 0 if math.isinf(r) else math.ceil(-math.log(tail) / r)
    n = u_max + smax + margin + 8
    low = max(0, smax - _UPPER)  # lower bandwidth
    # LAPACK-style band storage: A[i, c] lives at ab[_UPPER + i - c, c].
    ab = np.zeros((_UPPER + low + 1, n))
    rhs = np.zeros(n)
    s = np.convolve(x, y)
    steady = max(len(x) - 2, smax - 3, 0)  # from here on no first-pair truncation
    for u in range(n):
        ab[_UPPER, u] += 1.0
        if u < steady:
            row = _pair_row(x, y, u)
        else:
            row = {u + 4 - m: float(s[m]) for m in range(len(s)) if s[m] != 0.0}
        for v, p in row.items():
            if v >= n:
                rhs[u] += p
            else:
                ab[_UPPER + u - v, v] -= p
    # Elimination without pivoting: the matrix is I - P with P
    # substochastic, so it is row diagonally dominant and stays so.
    for i in range(n - 1):
        rows = min(low, n - 1 - i)
        if rows == 0:
            continue
        piv = ab[_UPPER, i]
        lcol = ab[_UPPER + 1 : _UPPER + 1 + rows, i] / piv
        for c in range(i + 1, min(n, i + _UPPER + 1)):
            a_ic = ab[_UPPER + i - c, c]
            if a_ic != 0.0:
                top = _UPPER + i + 1 - c
                ab[top : top + rows, c] -= lcol * a_ic
        rhs[i + 1 : i + 1 + rows] -= lcol * rhs[i]
    phi = np.zeros(n)
    for i in range(n - 1, -1, -1):
        acc = rhs[i]
        for c in range(i + 1, min(n, i + _UPPER + 1)):
            acc -= ab[_UPPER + i - c, c] * phi[c]
        phi[i] = acc / ab[_UPPER, i]
    return phi[: u_max + 1]


def forward_dp(x, y, u: int, t_max: int) -> np.ndarray:
    """phi(u, T) for T = 1..t_max by pushing the surplus distribution forward."""
    claims = (
        _trim(np.asarray(x, dtype=np.float64))[::-1].copy(),
        _trim(np.asarray(y, dtype=np.float64))[::-1].copy(),
    )
    # alive[w] = P(surplus = w and not yet ruined), for w >= 1.
    alive = np.zeros(u + 1)
    alive[u] = 1.0
    out = np.empty(t_max)
    for t in range(t_max):
        rev = claims[t % 2]
        # moved[i] = sum_w alive[w] p[zmax - i + w] is the mass arriving at
        # surplus i - shift; surplus 0 and below is ruin and is dropped.
        moved = np.convolve(alive, rev)
        shift = len(rev) - 3
        if shift >= -1:
            alive = np.concatenate(([0.0], moved[shift + 1 :]))
        else:
            alive = np.concatenate((np.zeros(-shift), moved))
        out[t] = alive.sum()
    return out
