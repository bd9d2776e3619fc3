"""Finite-horizon survival probabilities.

The closed recursion steps the horizon down by a full period pair:
layer T = B . layer T - 2, from layer 0 = 1 and layer 1 = X(u + 1),

    (B v)(u) = sum_{k=0}^{u+3} s_k v(u + 4 - k)
               - x_{u+2} y_0 v(2) - (x_{u+2} y_1 + x_{u+3} y_0) v(1)

where X is the cdf of the odd-period claim and s is the period-pair claim
sum; B is ``model._balance``, the operator whose fixed point is the
ultimate row. Layer T reads layer T - 2 four indices higher, so the
internal u range widens by 2 per horizon step; only the requested window
is materialized.

Two independent validators live here as well: a forward dynamic program
over the surplus (shares nothing with the recursion above) and a
counter-based Monte Carlo estimator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidModelError
from .model import ModelSpec, _balance

# Monte Carlo chunks: at most _MC_CHUNK trials and _MC_CHUNK_DOUBLES
# uniforms (trials x horizon) each, so horizons up to 256 keep full
# chunks. Chunk sizes stay multiples of 4, which keeps Philox counters
# aligned.
_MC_CHUNK = 65536
_MC_CHUNK_DOUBLES = _MC_CHUNK * 256


@dataclass(frozen=True)
class SurvivalGrid:
    """phi(u, T) for u = 0..u_max, T = 1..t_max, plus the truncation bound.

    ``error_bound`` dominates the probability that any claim in a horizon
    falls beyond the retained supports: t_max * (defect_x + defect_y).
    """

    values: np.ndarray  # shape (u_max + 1, t_max); column T-1 is horizon T
    u_max: int
    t_max: int
    error_bound: float

    def value(self, u: int, t: int) -> float:
        if not (0 <= u <= self.u_max and 1 <= t <= self.t_max):
            raise InvalidModelError(f"(u={u}, t={t}) outside computed grid")
        return float(self.values[u, t - 1])


def survival_finite(model: ModelSpec, u_max: int, t_max: int) -> SurvivalGrid:
    """Survival probability grid over u = 0..u_max, horizons 1..t_max."""
    if u_max < 0 or t_max < 1:
        raise InvalidModelError("need u_max >= 0 and t_max >= 1")

    def width(t):
        return u_max + 2 * (t_max - t)

    x = model.x
    grid = np.empty((u_max + 1, t_max))
    # horizons T - 2 and T - 1 while sweeping; layer t covers u = 0..width(t)
    older = np.ones(width(0) + 1)
    # X(1..width+1), frozen at the retained total beyond the support
    newer = x._cdf[np.minimum(np.arange(1, width(1) + 2), x.support_max)]
    grid[:, 0] = newer[: u_max + 1]
    for t in range(2, t_max + 1):
        layer = _balance(model, older, width(t) + 1)
        grid[:, t - 1] = layer[: u_max + 1]
        older, newer = newer, layer

    bound = t_max * (model.x.mass_defect + model.y.mass_defect)
    return SurvivalGrid(values=grid, u_max=u_max, t_max=t_max, error_bound=bound)


# ---- independent validators ----


def dp_survival_curve(model: ModelSpec, u: int, t_max: int) -> np.ndarray:
    """Survival for horizons 1..t_max by plain forward DP on the surplus.

    State: sub-probability vector over the surviving surplus after each
    period; ruin (w <= 0) is absorbing and simply dropped. Claims alternate
    x (odd periods) and y (even periods). No shared code with
    survival_finite beyond Pmf access, by design.
    """
    if u < 0 or t_max < 1:
        raise InvalidModelError("need u >= 0 and t_max >= 1")
    zmax = max(model.x.support_max, model.y.support_max)
    wmax = u + 2 * t_max
    p = np.zeros(wmax + zmax + 3)
    p[u] = 1.0
    out = np.empty(t_max)
    for step in range(1, t_max + 1):
        claims = model.x.probs if step % 2 == 1 else model.y.probs
        q = np.zeros_like(p)
        for z in range(len(claims)):
            pz = claims[z]
            if pz == 0.0:
                continue
            w_new_lo = max(1, 2 - z)  # surplus moves w -> w + 2 - z, must stay >= 1
            q[w_new_lo : wmax + 1] += pz * p[w_new_lo - 2 + z : wmax - 1 + z]
        p = q
        out[step - 1] = math.fsum(p[: wmax + 1])
    return out


def dp_oracle(model: ModelSpec, u: int, t: int) -> float:
    """Survival probability at one grid point via the forward DP."""
    return float(dp_survival_curve(model, u, t)[t - 1])


@dataclass(frozen=True)
class McEstimate:
    estimate: float
    stderr: float
    trials: int
    seed: int


def mc_estimate(model: ModelSpec, u: int, t: int, trials: int, seed: int) -> McEstimate:
    """Monte Carlo survival estimate with counter-based, chunk-independent RNG.

    Trial i consumes uniforms at Philox stream positions [i*t, (i+1)*t),
    so results depend only on (seed, trial index), not on chunking. A chunk
    holds its trials' uniforms, at most _MC_CHUNK_DOUBLES of them unless
    the horizon alone exceeds a quarter of that. Draws landing beyond the
    retained mass count as non-survival, matching the truncated-model
    semantics of survival_finite.
    """
    if trials < 1:
        raise InvalidModelError("trials must be >= 1")
    if u < 0 or t < 1:
        raise InvalidModelError("need u >= 0 and t >= 1")
    if seed < 0 or seed != int(seed):
        raise InvalidModelError("seed must be a nonnegative integer")

    # period j + 1 draws from x when j is even, from y when odd
    cdfs = (np.cumsum(model.x.probs), np.cumsum(model.y.probs))

    chunk = min(_MC_CHUNK, max(4, _MC_CHUNK_DOUBLES // t // 4 * 4))
    buf = np.empty((min(chunk, trials), t))
    survived = 0
    for start in range(0, trials, chunk):
        rows = min(chunk, trials - start)
        bit_gen = np.random.Philox(key=seed)
        # one Philox counter block is 4 doubles; start*t is a multiple of 4
        bit_gen.advance((start * t) // 4)
        unif = np.random.Generator(bit_gen).random(out=buf[:rows])
        surplus = np.full(rows, u, dtype=np.int64)
        alive = np.ones(rows, dtype=bool)
        for j in range(t):
            cdf = cdfs[j % 2]
            idx = np.searchsorted(cdf, unif[:, j], side="right")
            beyond = idx >= len(cdf)
            claims = np.where(beyond, 0, idx)
            surplus += 2 - claims
            alive &= ~beyond
            alive &= surplus >= 1
        survived += int(np.count_nonzero(alive))

    p_hat = survived / trials
    stderr = math.sqrt(p_hat * (1.0 - p_hat) / trials)
    return McEstimate(estimate=p_hat, stderr=stderr, trials=trials, seed=int(seed))
