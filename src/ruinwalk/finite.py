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

Work stops at B's float64 fixed point, or at a float64 cycle of period
2 in each parity, not at t_max. Every layer up to
t_cap = t_max - ceil((w - u_max) / 2) spans the whole capped window, and
B reads nothing but the layer two before. So once two consecutive such
layers equal, bit for bit, the layers two before them, every later
capped layer repeats them with period 2; once they equal the layers four
before them instead, with period 4. Only the shrinking windows past
t_cap are then computed, from the repeated layers of t_cap - 1 and
t_cap. Only a lossless model (no mass lost to truncation) can get there;
a truncated one's far value shrinks every layer, so it never pays for
the compare. The grid stores each computed layer's cells u = 0..u_max
once, as one row, and a horizon index maps horizon T to its row: the
horizons a fixed point or a cycle repeats are index entries pointing at
the last two or four rows, written by residue. The row
buffer is allocated for t_max rows but written only as far as rows are
computed, and pages never written take no memory. The full
(u_max + 1) x t_max array is built only when ``values`` is read.

Two independent validators live here as well: a forward dynamic program
over the surplus (shares nothing with the recursion above) and a Monte
Carlo estimator. The estimator reads one Philox stream: trial i takes raw
outputs i*t .. (i+1)*t - 1, a period's claim is the number of cdf
entries <= (raw >> 11) * 2^-53, and a draw past the retained mass means
ruin. A per-season guide table turns almost every draw into its int32
surplus step with one lookup; the rest meet exact integer thresholds,
both seasons' in one sorted search. Prefix sums run in int32 wherever a
block's draws times its largest step fit, else in int64. Philox is
counter-based, so contiguous trial ranges run in parallel, one per CPU
(two at most at the default budget), each from its own segment of that
stream, and share one chunk budget, which sizes each range's chunk by
the bytes a draw and a trial hold.
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
from functools import cached_property

import numpy as np

from .errors import InvalidModelError
from .model import ModelSpec, _balance, _forcing, net_profit_margin
from .ultimate import _lundberg_tail

# Monte Carlo chunk budget: the chunks in flight keep their temporaries
# under _MC_CHUNK_DOUBLES doubles (8 bytes each) together, whatever the
# trial count, the horizon or the number of parallel trial ranges; each
# of p ranges gets _MC_CHUNK_DOUBLES / p. A chunk is sized from the bytes
# it holds: _MC_DRAW_BYTES per draw and _MC_TRIAL_BYTES per trial, and
# as a trial makes at least one draw, at most one trial per draw. The
# guide tables, shared by all ranges, get at most _MC_CHUNK_DOUBLES / 64
# buckets per season.
_MC_CHUNK_DOUBLES = 1 << 20
# raw output 8, table index 8, step 4 and its exact-search flag 1
_MC_DRAW_BYTES = 21
# level 8, low 8, ruined 1 and row start 8; the rest covers the row
# minimum, its sum with the level and the survivor masks
_MC_TRIAL_BYTES = 43
# Smallest chunk budget that a parallel trial range gets: the share that
# was measured to pay for its thread, two ranges on a 2-core host. At a
# quarter of it two ranges ran slower than one, their numpy calls waiting
# on the interpreter lock, so at the default budget at most two run.
_MC_RANGE_DOUBLES = _MC_CHUNK_DOUBLES // 2
# Guide-table buckets per season: at most 2^12, so about atoms / 4096
# of the draws need the exact threshold search.
_MC_GUIDE_BITS = 12
# Guide-table code for a bucket whose draws need the exact search.
_MC_EXACT = np.iinfo(np.int32).min


@dataclass(frozen=True)
class SurvivalGrid:
    """phi(u, T) for u = 0..u_max, T = 1..t_max, plus the error bound.

    Each computed layer is stored once, as a row of ``rows`` over
    u = 0..u_max, and ``index`` maps horizon T to its row: horizon T is
    ``rows[index[T - 1]]``. The horizons a fixed point repeats are index
    entries, not copies. ``values`` builds the full grid on first use.

    ``error_bound`` dominates the probability that any claim in a horizon
    falls beyond the retained supports, t_max * (defect_x + defect_y),
    plus, when the Lundberg tail caps the window at w, t_max * C e^(-R w)
    for the cells filled above it (0 when R is inf: psi vanishes there).
    """

    rows: np.ndarray  # shape (layers stored, u_max + 1)
    index: np.ndarray  # shape (t_max,); horizon T is rows[index[T - 1]]
    u_max: int
    t_max: int
    error_bound: float

    @cached_property
    def values(self) -> np.ndarray:
        """shape (u_max + 1, t_max), C-contiguous; column T-1 is horizon T."""
        return self.rows.T.take(self.index, axis=1)

    def value(self, u: int, t: int) -> float:
        if not (0 <= u <= self.u_max and 1 <= t <= self.t_max):
            raise InvalidModelError(f"(u={u}, t={t}) outside computed grid")
        return float(self.rows[self.index[t - 1], u])


def survival_finite(model: ModelSpec, u_max: int, t_max: int) -> SurvivalGrid:
    """Survival probability grid over u = 0..u_max, horizons 1..t_max."""
    if u_max < 0 or t_max < 1:
        raise InvalidModelError("need u_max >= 0 and t_max >= 1")

    full = u_max + 2 * t_max  # layer 0's reach without a tail
    r, c, w = 0.0, 0.0, full
    if net_profit_margin(model) > 0:
        r, c, u_star = _lundberg_tail(model)
        w = min(full, max(u_max, u_star) + model.s.support_max)

    x = model.x
    retained = 1.0 - model.s.mass_defect
    # the last horizon whose layer spans the whole capped window
    t_cap = t_max - (w - u_max + 1) // 2
    # only a lossless far value stays put, so only then can layers repeat
    lossless = model.s.mass_defect == 0
    forcing = _forcing(model, w + 1)
    # one row per computed layer; the pages of rows never written are
    # never touched, so a grid that stops early costs only what it fills
    rows = np.empty((t_max, u_max + 1))
    index = np.empty(t_max, dtype=np.min_scalar_type(t_max - 1))
    # horizons T - 2 and T - 1 while sweeping; each holds u = 0..w + 4,
    # computed over the layer's width n and filled with its far value above
    older = np.ones(w + 5)
    # X(1..w+5), frozen at the retained total beyond the support
    newer = x._cdf[np.minimum(np.arange(1, w + 6), x.support_max)]
    spare = np.empty(w + 5)
    rows[0] = newer[: u_max + 1]
    index[0] = 0
    stored = 1
    # consecutive capped layers equal to the layer two before, and to the
    # layer four before, compared by their bytes: those of layers T - 4 ..
    # T - 1 while capped, None before layer 0
    repeats = cycles = 0
    seen = [None, None, older.tobytes(), newer.tobytes()]
    t = 2
    while t <= t_max:
        n = min(u_max + 2 * (t_max - t), w) + 1  # the layer's width
        layer, spare = spare, older
        # far out B maps a constant to itself times the retained mass of s.
        # older[-1] is a far value whenever the fill is read: a capped w
        # passes the support of s, hence of x
        layer[n:] = older[-1] * retained
        layer[:n] = _balance(model, older, n, forcing)
        rows[stored] = layer[: u_max + 1]
        index[t - 1] = stored
        stored += 1
        if lossless and t <= t_cap:
            now = layer.tobytes()
            repeats = repeats + 1 if now == seen[2] else 0
            cycles = cycles + 1 if now == seen[0] else 0
            seen = seen[1:] + [now]
        older, newer = newer, layer
        p = 2 if repeats == 2 else 4 if cycles == 2 else 0
        if p and t < t_cap:
            # B reads only the layer two before, so once layers t - 1 and t
            # repeat the ones p before them, every horizon through t_cap
            # reuses the row of the horizon p before: p = 2 at B's float64
            # fixed point, p = 4 where each parity cycles between two
            # layers. The sweep goes on from t_cap - 1 and t_cap, whose
            # layers are those of t - 3 .. t in the same residue mod 4 (a
            # period of 2 is one of 4 too)
            for i in range(1, p + 1):
                index[t + i - 1 : t_cap : p] = index[t + i - 1 - p]
            older, newer = (np.frombuffer(seen[(t_cap - t - k) % 4]).copy() for k in (2, 1))
            t = t_cap
        t += 1

    bound = t_max * (model.x.mass_defect + model.y.mass_defect)
    if w < full and r < math.inf:
        bound += t_max * c * math.exp(-r * w)
    return SurvivalGrid(rows=rows[:stored], index=index, u_max=u_max, t_max=t_max,
                        error_bound=bound)


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
    ``bits`` bits. Its int32 entry is the step 2 - claim when every k in
    it has the same claim and that claim is retained, else _MC_EXACT: a
    threshold cuts the bucket or it lies past the retained mass.
    """
    thresholds = np.ceil(np.cumsum(pmf.probs) * 2.0**53).astype(np.int64)
    lo = np.arange(1 << bits, dtype=np.int64) << (53 - bits)
    first = np.searchsorted(thresholds, lo, side="right")
    last = np.searchsorted(thresholds, lo + (1 << (53 - bits)) - 1, side="right")
    exact = (first != last) | (first == len(thresholds))
    return thresholds, np.where(exact, _MC_EXACT, 2 - first).astype(np.int32)


def _mc_draws(budget: int) -> int:
    """Draws in one chunk of ``budget`` doubles, with a trial per draw
    at most: even, at least 2."""
    return max(2, budget * 8 // (_MC_DRAW_BYTES + _MC_TRIAL_BYTES) // 2 * 2)


def _mc_tables(model: ModelSpec, budget: int):
    """Guide bits, the joint guide table, and the exact search's merged
    thresholds with the step and ruin flag of each search result.

    y's guide buckets sit 2^bits above x's. The exact search keys a y
    draw k as k + 2^53: x's thresholds are at most 2^53, y's are shifted
    by 2^53, and a sentinel 2^53 between them counts for every y key and
    no x key, so x draws land on results 0 .. nx and y draws on
    nx + 1 .. nx + 1 + ny, nx and ny the seasons' threshold counts. The
    last result of each season is ruin, with step 0.
    """
    bits = max(1, min(_MC_GUIDE_BITS, (budget // 64).bit_length() - 1))
    (kx, gx), (ky, gy) = _guide(model.x, bits), _guide(model.y, bits)
    thresholds = np.concatenate((kx, [1 << 53], ky + (1 << 53)))
    claims = np.concatenate((np.arange(len(kx) + 1), np.arange(len(ky) + 1)))
    ruins = np.zeros(claims.size, dtype=bool)
    ruins[[len(kx), -1]] = True
    fates = np.where(ruins, 0, 2 - claims).astype(np.int32)
    return bits, np.concatenate((gx, gy)), thresholds, fates, ruins


def _mc_scratch(draws: int):
    """One range's chunk buffers for ``draws`` draws: int64 table indices
    (their spent space takes the prefix sums) and int32 steps."""
    return np.empty(draws, dtype=np.int64), np.empty(draws, dtype=np.int32)


def _mc_survivors(tables, u: int, t: int, seed: int, lo: int, hi: int, scratch, stop) -> int:
    """Survivors among trials lo .. hi - 1; a partial count once ``stop`` is set.

    ``scratch`` is _mc_scratch's pair for one chunk of ``draws`` draws:
    the int64 index buffer and the int32 step buffer. The prefix sums go
    to the spent index buffer, as int32 when a block's draws times its
    largest step fit in int32 and as int64 otherwise; the rest of a
    chunk's memory scales with it as _MC_DRAW_BYTES and _MC_TRIAL_BYTES
    describe. The trials read raw outputs lo*t .. hi*t - 1 of
    Philox(key=seed): the stream is opened at block (lo*t) // 4, four
    outputs a block, and the first (lo*t) % 4 outputs are dropped, so a
    range sees exactly what the sequential stream gives its trials.
    ``stop``, a threading.Event, is read before every block of draws, so a
    set event ends the count within one chunk.
    """
    bits, table, thresholds, fates, ruins = tables
    idx, steps = scratch
    draws = idx.size
    rows = max(1, min(hi - lo, draws // t))
    # below t only in one-trial chunks; even, so every block opens on x
    width = min(t, draws)
    starts = np.arange(0, rows * width, width)
    floor = max(1 - u, np.iinfo(np.int64).min)
    # no partial sum of a block passes its draws times the largest step
    narrow = rows * width * max(2, -int(fates.min())) <= np.iinfo(np.int32).max
    sums = idx.view(np.int32) if narrow else idx

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
            key = (raw[pos] >> 11).astype(np.int64)
            del raw  # freed before the next block's draws are made
            key += (pos % w & 1) << 53  # y draws search y's thresholds
            found = np.searchsorted(thresholds, key, side="right")
            step[pos] = fates[found]
            ruined[pos[ruins[found]] // w] = True
            # one running sum over the whole block; each row subtracts
            # the sum in front of it. It goes to the spent index buffer:
            # numpy holds the interpreter lock through an in-place cumsum,
            # which would serialise the parallel ranges
            path = np.cumsum(step, dtype=sums.dtype, out=sums[: n * w])
            ends = path[w - 1 :: w]
            row_low = np.minimum.reduceat(path, starts[:n])
            row_low[1:] -= ends[:-1]
            np.minimum(low, level + row_low, out=low)
            # only a time block's successor reads level, and time blocks
            # hold one trial each, whose sum is ends[0]
            level += ends
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
    chunks map their draws to int32 steps through a guide table (one
    exact integer search for draws in buckets that a cdf entry cuts),
    take prefix sums, int32 where they cannot overflow, and keep the
    lowest. A trial whose horizon alone exceeds the
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
    scratch = [_mc_scratch(draws) for _ in range(parts)]
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
