"""Finite-horizon survival probabilities.

The closed recursion steps the horizon down by a full period pair:
layer T = B . layer T - 2, from layer 0 = 1 and layer 1 = X(u + 1),

    (B v)(u) = sum_{k=0}^{u+3} s_k v(u + 4 - k)
               - x_{u+2} y_0 v(2) - (x_{u+2} y_1 + x_{u+3} y_0) v(1)

where X is the cdf of the odd-period claim and s is the period-pair claim
sum; B is ``model._balance``, the operator whose fixed point is the
ultimate row. Layer T reads layer T - 2 four indices higher, so the exact
recursion needs u up to u_max + 2 (t_max - T). The Lundberg tail of the
ultimate route (``ultimate._lundberg_tail``: psi(u) <= C e^(-R u), under
2^-53 from u*) caps that window at w = max(u_max, u*) + smax, smax the
support of s, when that is below u_max + 2 t_max. Every layer keeps
u = 0..w, and the four cells above it hold the layer's far value: B
applied to a constant, which is 1 for lossless models and the retained
mass of s per pair for truncated ones. A filled cell is off by at most
C e^(-R w), and B's sum weighs those cells with s atoms summing to at
most 1, so the grid gains t_max C e^(-R w) in ``error_bound``. The work
per horizon is then O(w + smax) whatever t_max is. Models with no net
profit, or with no tail (u* = inf), keep the full window through the
same loop.

Work stops at B's float64 fixed point, not at t_max. Every layer up to
t_cap = t_max - ceil((w - u_max) / 2) spans the whole capped window, and
B reads nothing but the layer two before. So once two consecutive such
layers equal, bit for bit, the layers two before them, every later
capped layer repeats them with period 2: those columns are filled by
parity, and only the shrinking windows past t_cap are computed. Only a
lossless model (no mass lost to truncation) can get there; a truncated
one's far value shrinks every layer, so it never pays for the compare.

Two independent validators live here as well: a forward dynamic program
over the surplus (shares nothing with the recursion above) and a Monte
Carlo estimator. The estimator reads one Philox stream: trial i takes raw
outputs i*t .. (i+1)*t - 1, a period's claim is the number of cdf
entries <= (raw >> 11) * 2^-53, and a draw past the retained mass means
ruin. A per-season guide table turns almost every draw into its surplus
step with one lookup; the rest meet exact integer thresholds. Philox is
counter-based, so contiguous trial ranges run in parallel, one per CPU
(two at most at the default budget), each from its own segment of that
stream, and share one chunk budget.
Chunking the trials, splitting long horizons into time blocks and
splitting the trials into ranges bound the memory and the wall time and
never change the estimate: the survivor count is an integer sum.
"""

from __future__ import annotations

import math
import operator
import os
import threading
from dataclasses import dataclass

import numpy as np

from .errors import InvalidModelError
from .model import ModelSpec, _balance, _forcing, net_profit_margin
from .ultimate import _lundberg_tail

# Monte Carlo chunk budget: the chunks in flight keep their temporaries
# under _MC_CHUNK_DOUBLES doubles (8 bytes each) together, whatever the
# trial count, the horizon or the number of parallel trial ranges; each
# of p ranges gets _MC_CHUNK_DOUBLES / p. A chunk holds at most 1/16 of
# its budget in draws, so each draw has 128 bytes of budget against about
# 25 bytes of buffers (raw output, table index, step, a flag byte) and at
# most 60 of per-trial state. The guide tables, shared by all ranges, get
# at most _MC_CHUNK_DOUBLES / 64 buckets per season.
_MC_CHUNK_DOUBLES = 1 << 20
# Smallest chunk budget that a parallel trial range gets: the share that
# was measured to pay for its thread, two ranges on a 2-core host. At a
# quarter of it two ranges ran slower than one, their numpy calls waiting
# on the interpreter lock, so at the default budget at most two run.
_MC_RANGE_DOUBLES = _MC_CHUNK_DOUBLES // 2
# Guide-table buckets per season: at most 2^12, so about atoms / 4096
# of the draws need the exact threshold search.
_MC_GUIDE_BITS = 12
# Guide-table code for a bucket whose draws need the exact search.
_MC_EXACT = np.iinfo(np.int64).min


@dataclass(frozen=True)
class SurvivalGrid:
    """phi(u, T) for u = 0..u_max, T = 1..t_max, plus the error bound.

    ``error_bound`` dominates the probability that any claim in a horizon
    falls beyond the retained supports, t_max * (defect_x + defect_y),
    plus, when the Lundberg tail caps the window at w, t_max * C e^(-R w)
    for the cells filled above it (0 when R is inf: psi vanishes there).
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

    full = u_max + 2 * t_max  # layer 0's reach without a tail
    r, c, w = 0.0, 0.0, full
    if net_profit_margin(model) > 0:
        r, c, u_star = _lundberg_tail(model)
        w = min(full, max(u_max, u_star) + model.s.support_max)

    def width(t):
        return min(u_max + 2 * (t_max - t), w)

    x = model.x
    retained = 1.0 - model.s.mass_defect
    # the last horizon whose layer spans the whole capped window
    t_cap = t_max - (w - u_max + 1) // 2
    # only a lossless far value stays put, so only then can layers repeat
    lossless = model.s.mass_defect == 0
    forcing = _forcing(model, w + 1)
    grid = np.empty((u_max + 1, t_max))
    # horizons T - 2 and T - 1 while sweeping; each holds u = 0..w + 4,
    # computed up to width(t) and filled with the layer's far value above
    older = np.ones(w + 5)
    # X(1..w+5), frozen at the retained total beyond the support
    newer = x._cdf[np.minimum(np.arange(1, w + 6), x.support_max)]
    spare = np.empty(w + 5)
    grid[:, 0] = newer[: u_max + 1]
    repeats = 0  # consecutive capped layers equal to the layer two before
    t = 2
    while t <= t_max:
        n = width(t) + 1
        layer, spare = spare, older
        # far out B maps a constant to itself times the retained mass of s.
        # older[-1] is a far value whenever the fill is read: a capped w
        # passes the support of s, hence of x
        layer[n:] = older[-1] * retained
        layer[:n] = _balance(model, older, n, forcing)
        grid[:, t - 1] = layer[: u_max + 1]
        if lossless and t <= t_cap:
            same = np.array_equal(layer.view(np.int64), older.view(np.int64))
            repeats = repeats + 1 if same else 0
        older, newer = newer, layer
        if repeats == 2 and t < t_cap:
            # B reads only the layer two before, so both parities stay at
            # their float64 fixed point through t_cap
            grid[:, t + 1 : t_cap : 2] = newer[: u_max + 1, None]
            grid[:, t : t_cap : 2] = older[: u_max + 1, None]
            if (t_cap - t) % 2:
                older, newer = newer, older
            t = t_cap
        t += 1

    bound = t_max * (model.x.mass_defect + model.y.mass_defect)
    if w < full and r < math.inf:
        bound += t_max * c * math.exp(-r * w)
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


def _guide(pmf, bits: int):
    """Integer cdf thresholds and a guide table of surplus steps.

    A draw k = raw >> 11 stands for the uniform k * 2^-53, which is at
    least cdf[j] exactly when k >= ceil(cdf[j] * 2^53); the claim is the
    number of thresholds <= k. Bucket b holds the k sharing their top
    ``bits`` bits. Its entry is the step 2 - claim when every k in it has
    the same claim and that claim is retained, else _MC_EXACT: a
    threshold cuts the bucket or it lies past the retained mass.
    """
    thresholds = np.ceil(np.cumsum(pmf.probs) * 2.0**53).astype(np.int64)
    lo = np.arange(1 << bits, dtype=np.int64) << (53 - bits)
    first = np.searchsorted(thresholds, lo, side="right")
    last = np.searchsorted(thresholds, lo + (1 << (53 - bits)) - 1, side="right")
    exact = (first != last) | (first == len(thresholds))
    return thresholds, np.where(exact, _MC_EXACT, 2 - first)


def _mc_draws(budget: int) -> int:
    """Draws in one chunk of ``budget`` doubles: 1/16 of it, even, at least 2."""
    return max(2, budget // 16 // 2 * 2)


def _mc_tables(model: ModelSpec, budget: int):
    """Guide bits, both seasons' thresholds and their joint guide table."""
    bits = max(1, min(_MC_GUIDE_BITS, (budget // 64).bit_length() - 1))
    (kx, gx), (ky, gy) = _guide(model.x, bits), _guide(model.y, bits)
    return bits, kx, ky, np.concatenate((gx, gy))  # y buckets sit 2^bits above x's


def _mc_survivors(tables, u: int, t: int, seed: int, lo: int, hi: int, scratch, stop) -> int:
    """Survivors among trials lo .. hi - 1; a partial count once ``stop`` is set.

    ``scratch`` is a (2, draws) int64 array, the index and step buffers of
    one chunk of ``draws`` draws; the rest of a chunk's memory scales with
    it as _MC_CHUNK_DOUBLES describes. The trials read raw outputs
    lo*t .. hi*t - 1 of Philox(key=seed): the stream is opened at block
    (lo*t) // 4, four outputs a block, and the first (lo*t) % 4 outputs
    are dropped, so a range sees exactly what the sequential stream gives
    its trials. ``stop``, a threading.Event, is read before every block of
    draws, so a set event ends the count within one chunk.
    """
    bits, kx, ky, table = tables
    idx, steps = scratch
    draws = idx.size
    rows = max(1, min(hi - lo, draws // t))
    # below t only in one-trial chunks; even, so every block opens on x
    width = min(t, draws)
    starts = np.arange(0, rows * width, width)
    floor = max(1 - u, np.iinfo(np.int64).min)

    bit_gen = np.random.Philox(key=seed, counter=lo * t // 4)
    bit_gen.random_raw(lo * t % 4)
    survived = 0
    for first in range(lo, hi, rows):
        n = min(rows, hi - first)
        level = np.zeros(n, dtype=np.int64)  # surplus - u before the block
        low = np.full(n, np.iinfo(np.int64).max)  # lowest surplus - u yet
        ruined = np.zeros(n, dtype=bool)
        for offset in range(0, t, width):
            if stop.is_set():
                return survived
            w = min(width, t - offset)
            raw = bit_gen.random_raw(n * w)
            index, step = idx[: n * w], steps[: n * w]
            np.right_shift(raw, 64 - bits, out=index.view(np.uint64))
            index.reshape(n, w)[:, 1::2] += 1 << bits
            np.take(table, index, out=step, mode="wrap")
            pos = np.flatnonzero(step == _MC_EXACT)
            odd = (pos % w) & 1 == 1
            k = (raw[pos] >> 11).astype(np.int64)
            del raw  # freed before the next block's draws are made
            claim = np.where(odd, np.searchsorted(ky, k, side="right"),
                             np.searchsorted(kx, k, side="right"))
            ruin = claim == np.where(odd, len(ky), len(kx))
            step[pos] = np.where(ruin, 0, 2 - claim)
            ruined[pos[ruin] // w] = True
            # one running sum over the whole block; each row subtracts
            # the sum in front of it. It goes to the spent index buffer:
            # numpy holds the interpreter lock through an in-place cumsum,
            # which would serialise the parallel ranges
            path = np.cumsum(step, out=index)
            ends = path[w - 1 :: w]
            before = np.concatenate(([0], ends[:-1]))
            np.minimum(low, level + np.minimum.reduceat(path, starts[:n]) - before, out=low)
            level += ends - before
        survived += int(np.count_nonzero((low >= floor) & ~ruined))
    return survived


def _cpus() -> int:
    """How many CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def mc_estimate(model: ModelSpec, u: int, t: int, trials: int, seed: int) -> McEstimate:
    """Monte Carlo survival estimate from one counter-based Philox stream.

    Trial i reads the raw outputs i*t .. (i+1)*t - 1 of Philox(key=seed).
    Its period j + 1 draws from x when j is even and from y when j is odd;
    the claim is the number of cdf entries <= (raw >> 11) * 2^-53, the
    uniform ``Generator.random`` makes of that output. A draw past the
    retained mass means ruin, matching the truncated-model semantics of
    survival_finite. A trial survives when its surplus u + sum(2 - claim)
    stays >= 1 after every period.

    The trials are cut into contiguous ranges, one per CPU the process may
    run on, but no more than the work fills with whole chunks and no more
    than give each range _MC_RANGE_DOUBLES of the budget, so a small call
    or a one-CPU process runs on the calling thread alone. Each range opens
    its own segment of the stream and gets an equal share of the chunk
    budget; the calling thread runs the first range and one thread each the
    rest. When a range fails or the caller is interrupted, the other ranges
    stop within one chunk and the error reaches the caller. A range's
    chunks map their draws to steps through a guide table (exact integer
    compares for draws in buckets that a cdf entry cuts), take prefix
    sums, and keep the lowest. A trial whose horizon alone exceeds the
    chunk budget runs in time blocks that carry the surplus and its
    running minimum. Neither the split into ranges nor chunking nor time
    blocking changes the estimate.
    """
    try:
        u, t, trials, seed = map(operator.index, (u, t, trials, seed))
    except TypeError:
        raise InvalidModelError("u, t, trials and seed must be integers") from None
    if trials < 1:
        raise InvalidModelError("trials must be >= 1")
    if u < 0 or t < 1:
        raise InvalidModelError("need u >= 0 and t >= 1")
    if not 0 <= seed < 2**128:
        raise InvalidModelError("seed must be an integer in [0, 2**128)")

    budget = _MC_CHUNK_DOUBLES
    tables = _mc_tables(model, budget)
    parts = max(1, min(_cpus(), trials, trials * t // _mc_draws(budget),
                       budget // _MC_RANGE_DOUBLES))
    cuts = [trials * i // parts for i in range(parts + 1)]
    # every range's buffers come from the calling thread: what a worker
    # thread frees stays in its own malloc arena, out of the caller's reach.
    # A range needs no more draws than its trials hold.
    draws = min(_mc_draws(budget // parts), -(-trials // parts) * t)
    scratch = np.empty((parts, 2, draws), dtype=np.int64)
    counts = [0] * parts
    failures = []
    stop = threading.Event()

    def count(i):
        try:
            counts[i] = _mc_survivors(tables, u, t, seed, cuts[i], cuts[i + 1], scratch[i], stop)
        except Exception as exc:  # re-raised by the calling thread
            failures.append((i, exc))
            stop.set()

    workers = [threading.Thread(target=count, args=(i,)) for i in range(1, parts)]
    try:
        for worker in workers:
            worker.start()
        count(0)
        for worker in workers:
            worker.join()
    finally:
        stop.set()  # on an interrupt, the ranges still running stop within one chunk
        for worker in workers:
            if worker.is_alive():
                worker.join()
    if failures:
        raise min(failures)[1]  # the lowest failed range's error

    survived = sum(counts)
    p_hat = survived / trials
    stderr = math.sqrt(p_hat * (1.0 - p_hat) / trials)
    return McEstimate(estimate=p_hat, stderr=stderr, trials=trials, seed=seed)
