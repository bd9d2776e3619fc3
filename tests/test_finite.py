"""Unit tests for the finite-horizon recursion, DP oracle, and simulation."""

import math
import os
import sys
import threading

import numpy as np
import pytest

from ruinwalk import (
    InvalidModelError,
    ModelSpec,
    classify,
    dp_oracle,
    dp_survival_curve,
    from_probs,
    make_displaced_poisson,
    mc_estimate,
    parse_pmf_spec,
    point_mass,
    survival_finite,
)
from conftest import random_model
from ruinwalk.model import _balance


def test_one_period_row_is_shifted_cdf(ex1, ex2):
    # surviving one period means the first claim stays below u + 2
    for m in (ex1, ex2):
        g = survival_finite(m, u_max=6, t_max=1)
        for u in range(7):
            assert g.value(u, 1) == pytest.approx(m.x.cdf(u + 1), abs=1e-15)


def test_two_period_row_hand_sum(ex1):
    g = survival_finite(ex1, u_max=4, t_max=2)
    x, y = ex1.x, ex1.y
    for u in range(5):
        hand = math.fsum(x.p(k) * y.cdf(u + 3 - k) for k in range(u + 2))
        assert g.value(u, 2) == pytest.approx(hand, abs=1e-14)


def test_grid_matches_dp_on_benchmarks(ex1, ex3, ex5):
    for m in (ex1, ex3, ex5):
        g = survival_finite(m, u_max=5, t_max=12)
        for u in range(6):
            curve = dp_survival_curve(m, u, 12)
            for t in range(1, 13):
                assert g.value(u, t) == pytest.approx(curve[t - 1], abs=1e-12)


def test_grid_matches_dp_on_random_models():
    rng = np.random.default_rng(1234)
    for _ in range(10):
        m = random_model(rng)
        g = survival_finite(m, u_max=4, t_max=9)
        for u in range(5):
            curve = dp_survival_curve(m, u, 9)
            for t in range(1, 10):
                assert g.value(u, t) == pytest.approx(curve[t - 1], abs=1e-12)


@pytest.mark.parametrize(
    "x, y, tail_tol, case",
    [
        ("dpois:1.0,0", "dpois:2.0,0", 1e-12, ("A", None)),
        ("dpois:0.8,1", "dpois:1.5,0", 1e-12, ("B", None)),
        ("dpois:0.8,1", "dpois:0.7,1", 1e-12, ("C", "s.1")),
        ("dpois:0.6,2", "dpois:0.8,0", 1e-12, ("C", "s.3")),
        ("dpois:0.8,0", "dpois:0.6,2", 1e-12, ("C", "s.2")),
        ("dpois:0.5,2", "dpois:0.3,1", 1e-12, ("D", "v.1")),
        ("dpois:1.0,0", "dpois:2.0,0", 1e-15, ("A", None)),
        # no net profit: no tail, the full window
        ("dpois:2.2,0", "dpois:2.2,0", 1e-12, ("no-net-profit", None)),
        # no s atom above 4 and x_max > 2: R = inf and C = inf
        ("pmf:0.5,0,0,0.5", "pmf:1", 1e-12, ("A", None)),
    ],
    ids=["A", "B", "C.s1", "C.s3", "C.s2", "D.v1", "A.tol15", "no-net-profit", "R.inf"],
)
def test_long_horizon_grid_matches_dp(x, y, tail_tol, case):
    # the benchmark's finite grids run to T = 2000; a thousand layer
    # steps over a window capped by the Lundberg tail must not drift
    # from the forward DP
    m = ModelSpec(x=parse_pmf_spec(x, tail_tol), y=parse_pmf_spec(y, tail_tol))
    tag = classify(m)
    assert (tag.kind.value, tag.scenario) == case
    g = survival_finite(m, u_max=30, t_max=1000)
    assert math.isfinite(g.error_bound)
    for u in (0, 30):
        gap = np.max(np.abs(g.values[u] - dp_survival_curve(m, u, 1000)))
        assert gap < 1e-12


def test_window_stops_growing_with_t_max(monkeypatch):
    # past the Lundberg cap every layer step applies B to the same number
    # of cells, whatever the horizon
    import ruinwalk.finite as finite

    m = ModelSpec(x=make_displaced_poisson(1.0, 0), y=make_displaced_poisson(2.0, 0))
    seen = []

    def spy(model, v, n, forcing=None):
        seen.append(n)
        return _balance(model, v, n, forcing)

    monkeypatch.setattr(finite, "_balance", spy)
    widest = []
    for t_max in (2000, 20000):
        seen.clear()
        g = survival_finite(m, u_max=30, t_max=t_max)
        widest.append(max(seen))
        # the cells filled above the cap add t_max * C e^(-R w) <= t_max 2^-53
        cap_term = g.error_bound - t_max * (m.x.mass_defect + m.y.mass_defect)
        assert 0 < cap_term <= t_max * 2.0**-53
    assert widest[0] == widest[1] < 30 + 2 * 2000


def _full_sweep_reference(model, u_max, t_max):
    # the layer sweep as it stood before the fixed-point stop: B applied
    # at every horizon; returns (values, error_bound)
    from ruinwalk.model import _forcing, net_profit_margin
    from ruinwalk.ultimate import _lundberg_tail

    full = u_max + 2 * t_max
    r, c, w = 0.0, 0.0, full
    if net_profit_margin(model) > 0:
        r, c, u_star = _lundberg_tail(model)
        w = min(full, max(u_max, u_star) + model.s.support_max)
    x = model.x
    retained = 1.0 - model.s.mass_defect
    forcing = _forcing(model, w + 1)
    grid = np.empty((u_max + 1, t_max))
    older = np.ones(w + 5)
    newer = x._cdf[np.minimum(np.arange(1, w + 6), x.support_max)]
    grid[:, 0] = newer[: u_max + 1]
    for t in range(2, t_max + 1):
        n = min(u_max + 2 * (t_max - t), w) + 1
        layer = np.empty(w + 5)
        layer[n:] = older[-1] * retained
        layer[:n] = _balance(model, older, n, forcing)
        grid[:, t - 1] = layer[: u_max + 1]
        older, newer = newer, layer
    bound = t_max * (model.x.mass_defect + model.y.mass_defect)
    if w < full and r < math.inf:
        bound += t_max * c * math.exp(-r * w)
    return grid, bound


@pytest.fixture
def balance_calls(monkeypatch):
    # the window width of every layer step survival_finite makes
    import ruinwalk.finite as finite

    calls = []

    def spy(model, v, n, forcing=None):
        calls.append(n)
        return _balance(model, v, n, forcing)

    monkeypatch.setattr(finite, "_balance", spy)
    return calls


# lossless, R finite: its float64 sweep reaches B's fixed point
_DYADIC = ("pmf:0.375,0.375,0.125,0.0625,0.0625", "pmf:0.125,0.375,0.25,0.125,0.125")
_TWO_POINTS = ("pmf:0.26953125,0.3232421875,0.2109375,0.1962890625",
               "pmf:0.08203125,0.451171875,0.1767578125,0.2900390625")
# lossless, R finite: its float64 layers never reach a fixed point, but
# from horizon 199 on each parity cycles between two layers, so layer T
# equals layer T - 4 and not layer T - 2
_CYCLE = ("pmf:0.29320107506563914,0.026964819706116316,0.2654598178250586,"
          "0.11558108200908973,0.2987932053940962",
          "pmf:0.2990006975812403,0.7009993024187596")


@pytest.mark.parametrize(
    "x, y, u_max, t_max, stops",
    [
        (*_DYADIC, 0, 1999, True),
        (*_DYADIC, 0, 2000, True),
        (*_DYADIC, 30, 1999, True),
        (*_DYADIC, 30, 2000, True),
        # odd and even horizons settle on different float64 fixed points
        (*_TWO_POINTS, 0, 2001, True),
        (*_TWO_POINTS, 30, 2000, True),
        # no s atom above 4: R = inf
        ("pmf:0.5,0,0.5", "pmf:0.25,0.5,0.25", 30, 2000, True),
        # a period-4 cycle: the four t_max cover each residue of t_cap - t
        # mod 4, so the sweep past t_cap restarts from each of its layers
        *((*_CYCLE, u, t, True) for u in (0, 30) for t in range(2000, 2004)),
        # truncated: the far value shrinks every layer, no fixed point
        ("dpois:1,0", "dpois:2,0", 30, 2000, False),
        # no tail: the window is never capped, so t_cap < 2
        ("pmf:0,0.6666666666666666,0,0.3333333333333334", "pmf:0,1e-100,1", 30, 300, False),
    ],
    ids=["dyadic-0-1999", "dyadic-0-2000", "dyadic-30-1999", "dyadic-30-2000",
         "two-points-0-2001", "two-points-30-2000", "R.inf",
         *(f"cycle-{u}-{t}" for u in (0, 30) for t in range(2000, 2004)), "truncated", "no-tail"],
)
def test_fixed_point_stop_is_exact(x, y, u_max, t_max, stops, balance_calls):
    m = ModelSpec(x=parse_pmf_spec(x), y=parse_pmf_spec(y))
    want, bound = _full_sweep_reference(m, u_max, t_max)
    g = survival_finite(m, u_max=u_max, t_max=t_max)
    assert g.values.tobytes() == want.tobytes()
    assert g.error_bound == bound
    assert (len(balance_calls) < t_max - 1) == stops


def test_fixed_point_stop_work_stays_flat(balance_calls):
    # a lossless model pays for the layers before its fixed point and the
    # shrinking windows after t_cap, whatever t_max is
    m = ModelSpec(x=parse_pmf_spec(_DYADIC[0]), y=parse_pmf_spec(_DYADIC[1]))
    counts = []
    for t_max in (4000, 20000):
        balance_calls.clear()
        survival_finite(m, u_max=30, t_max=t_max)
        counts.append(len(balance_calls))
    assert counts[0] == counts[1] < 4000 - 1


def test_cycle_model_has_period_four():
    # _CYCLE's layers repeat the ones four horizons back, not two
    m = ModelSpec(x=parse_pmf_spec(_CYCLE[0]), y=parse_pmf_spec(_CYCLE[1]))
    want, _ = _full_sweep_reference(m, 30, 2000)
    assert (want[:, -9] == want[:, -5]).all() and (want[:, -9] != want[:, -7]).any()


def test_argument_checks(ex1):
    for u, t in ((-1, 5), (3, 0)):
        with pytest.raises(InvalidModelError, match="need u_max >= 0 and t_max >= 1"):
            survival_finite(ex1, u_max=u, t_max=t)
        with pytest.raises(InvalidModelError, match="need u >= 0 and t_max >= 1"):
            dp_survival_curve(ex1, u, t)


def test_dp_oracle_reads_the_curve(ex1, ex3):
    for m in (ex1, ex3):
        g = survival_finite(m, u_max=4, t_max=9)
        for u, t in ((0, 1), (2, 5), (4, 9)):
            assert dp_oracle(m, u, t) == dp_survival_curve(m, u, t)[-1]
            assert dp_oracle(m, u, t) == pytest.approx(g.value(u, t), abs=1e-12)


def test_grid_shape_and_edges(ex1):
    g = survival_finite(ex1, u_max=0, t_max=1)
    assert g.values.shape == (1, 1)
    assert g.u_max == 0 and g.t_max == 1
    with pytest.raises(Exception):
        g.value(1, 1)
    with pytest.raises(Exception):
        g.value(0, 2)


def test_error_bound_tracks_truncation():
    m = ModelSpec(
        x=make_displaced_poisson(1.0, 0, tail_tol=1e-6),
        y=make_displaced_poisson(2.0, 0, tail_tol=1e-6),
    )
    g = survival_finite(m, u_max=3, t_max=7)
    expected = 7 * (m.x.mass_defect + m.y.mass_defect)
    assert g.error_bound == pytest.approx(expected, rel=1e-12)
    assert g.error_bound < 2e-5


def test_zero_claims_always_survive():
    m = ModelSpec(x=point_mass(0), y=point_mass(0))
    g = survival_finite(m, u_max=3, t_max=6)
    assert np.all(g.values == 1.0)


def test_monotone_in_u_and_t(ex2):
    g = survival_finite(ex2, u_max=8, t_max=15)
    assert np.all(np.diff(g.values, axis=0) >= -1e-14)  # u up, survival up
    assert np.all(np.diff(g.values, axis=1) <= 1e-14)  # T up, survival down


def test_mc_reproducible_and_close(ex1):
    a = mc_estimate(ex1, u=1, t=8, trials=50000, seed=11)
    b = mc_estimate(ex1, u=1, t=8, trials=50000, seed=11)
    assert a.estimate == b.estimate and a.stderr == b.stderr
    c = mc_estimate(ex1, u=1, t=8, trials=50000, seed=12)
    assert c.estimate != a.estimate
    truth = survival_finite(ex1, u_max=1, t_max=8).value(1, 8)
    assert abs(a.estimate - truth) < 5 * a.stderr + 1e-9


def test_mc_chunk_boundary(ex1):
    # trials straddling the internal chunk size still reproduce
    a = mc_estimate(ex1, u=0, t=3, trials=65536 + 17, seed=5)
    b = mc_estimate(ex1, u=0, t=3, trials=65536 + 17, seed=5)
    assert a.estimate == b.estimate
    assert 0.0 <= a.estimate <= 1.0
    assert a.trials == 65536 + 17


def test_mc_chunk_memory_capped(ex1, monkeypatch):
    import tracemalloc

    import ruinwalk.finite as finite

    cases = [
        dict(t=1000, trials=3000),  # chunks of a few trials, not one of 3000 x 1000 draws (24 MB)
        dict(t=1, trials=200_000),  # a trial per draw: per-trial state weighs as much as the draws
        dict(t=2, trials=100_000),
    ]
    wants = [mc_estimate(ex1, u=0, seed=4, **case) for case in cases]
    cap = 1 << 16
    monkeypatch.setattr(finite, "_MC_CHUNK_DOUBLES", cap)
    for case, want in zip(cases, wants):
        tracemalloc.start()
        try:
            got = mc_estimate(ex1, u=0, seed=4, **case)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == want, case
        assert peak < 8 * cap, case


def test_mc_truncated_tail_counts_as_ruin():
    # coarse truncation: draws past the retained support are treated as
    # non-survival, so the estimate is biased down, never past the bound
    from ruinwalk import Pmf

    lossy = Pmf(probs=np.array([0.5, 0.3, 0.19]), mass_defect=0.01, tail_mean_bound=0.05)
    m = ModelSpec(x=lossy, y=lossy)
    est = mc_estimate(m, u=2, t=6, trials=20000, seed=3)
    g = survival_finite(m, u_max=2, t_max=6)
    assert est.estimate <= g.value(2, 6) + 5 * est.stderr


def test_mc_stderr_formula(ex1):
    est = mc_estimate(ex1, u=0, t=2, trials=10000, seed=1)
    want = math.sqrt(est.estimate * (1 - est.estimate) / est.trials)
    assert est.stderr == pytest.approx(want, rel=1e-12)


def _per_period_reference(model, u, t, trials, seed):
    # the estimator as it stood before the guide-table kernel: uniforms
    # from Generator.random, one searchsorted per period
    chunk_trials, chunk_doubles = 65536, 65536 * 256
    cdfs = (np.cumsum(model.x.probs), np.cumsum(model.y.probs))
    chunk = min(chunk_trials, max(4, chunk_doubles // t // 4 * 4))
    buf = np.empty((min(chunk, trials), t))
    survived = 0
    for start in range(0, trials, chunk):
        rows = min(chunk, trials - start)
        bit_gen = np.random.Philox(key=seed)
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
    return p_hat, stderr


def test_mc_matches_per_period_reference(ex1, monkeypatch):
    import ruinwalk.finite as finite
    from ruinwalk import Pmf

    rng = np.random.default_rng(2718)
    lossy = Pmf(probs=np.array([0.5, 0.3, 0.19]), mass_defect=0.01, tail_mean_bound=0.05)
    truncated = make_displaced_poisson(1.5, 0, tail_tol=1e-6)
    assert truncated.mass_defect > 0
    dyadic = ModelSpec(x=from_probs([0.5, 0.25, 0.25]), y=from_probs([0.25, 0.5, 0.25]))
    cases = [
        (ex1, 0, 1, 3000, 1),
        (ex1, 0, 2, 5000, 2),
        (ex1, 3, 60, 4000, 7),
        (ex1, 0, 3, 65536 + 17, 5),
        (ModelSpec(x=lossy, y=truncated), 2, 6, 20000, 3),
        (ModelSpec(x=truncated, y=lossy), 0, 9, 7001, 8),
        (dyadic, 1, 11, 6000, 2**100),
        # t = 1 over several chunks and ranges: one-draw rows
        (ex1, 0, 1, 200_001, 3),
        (ModelSpec(x=truncated, y=ex1.y), 0, 1, 70_001, 11),
    ]
    for _ in range(8):
        m = random_model(rng)
        cases.append((m, int(rng.integers(0, 4)), int(rng.integers(1, 30)),
                      int(rng.integers(1, 6000)), int(rng.integers(0, 2**63))))
    for m, u, t, trials, seed in cases:
        want = _per_period_reference(m, u, t, trials, seed)
        got = mc_estimate(m, u=u, t=t, trials=trials, seed=seed)
        assert (got.estimate, got.stderr) == want, (u, t, trials, seed)

    # a budget of 32 draws per chunk: many trials per chunk at t <= 32,
    # time blocks of one trial beyond
    monkeypatch.setattr(finite, "_MC_CHUNK_DOUBLES", 1 << 9)
    # (t = 33 ends each trial on a one-draw time block)
    for m, u, t, trials, seed in cases[:3] + cases[4:7] + [(ex1, 2, 101, 300, 4), (ex1, 0, 64, 99, 6),
                                                           (ex1, 2, 33, 300, 4)]:
        want = _per_period_reference(m, u, t, trials, seed)
        got = mc_estimate(m, u=u, t=t, trials=trials, seed=seed)
        assert (got.estimate, got.stderr) == want, (u, t, trials, seed)


def test_mc_wide_prefix_sums_match_reference(ex1, monkeypatch):
    # x claims 40,000 every odd period: a block of two 60,001-draw trials
    # sums past -2^31, so its prefix sums run in int64; ex1's fit int32.
    # u puts the final surplus, the lowest, near the median of y's claims
    x = np.zeros(40_001)
    x[-1] = 1.0
    wide = ModelSpec(x=from_probs(x), y=from_probs([0.5, 0.5]))
    cases = [(wide, 30_001 * 39_998 - 60_000 + 15_000, 60_001, 4, 9), (ex1, 3, 181, 3001, 7)]
    wants = [_per_period_reference(*case) for case in cases]
    assert 0 < wants[0][0] < 1
    sums = []
    cumsum = np.cumsum

    def spy(a, *args, **kwargs):
        if a.dtype == np.int32:  # the step buffer
            sums.append(np.dtype(kwargs["dtype"]))
        return cumsum(a, *args, **kwargs)

    monkeypatch.setattr(np, "cumsum", spy)
    for (m, u, t, trials, seed), want, dtype in zip(cases, wants, (np.int64, np.int32)):
        sums.clear()
        got = mc_estimate(m, u=u, t=t, trials=trials, seed=seed)
        assert (got.estimate, got.stderr) == want
        assert sums and set(sums) == {np.dtype(dtype)}


def test_mc_guide_table_exact_at_thresholds():
    # draws one below, at and one above each threshold, where a bucket's
    # claim changes: the integer compare agrees with the float compare
    import ruinwalk.finite as finite

    rng = np.random.default_rng(31)
    for _ in range(5):
        pmf = random_model(rng).x
        cdf = np.cumsum(pmf.probs)
        thresholds, table = finite._guide(pmf, 12)
        k = np.clip(np.concatenate([thresholds + d for d in (-1, 0, 1)]), 0, 2**53 - 1)
        want = np.searchsorted(cdf, k * 2.0**-53, side="right")
        assert np.array_equal(np.searchsorted(thresholds, k, side="right"), want)
        lookup = table[k >> 41]
        hit = lookup != finite._MC_EXACT
        assert np.array_equal(lookup[hit], 2 - want[hit])


def test_mc_time_blocks_bound_memory(ex1, monkeypatch):
    import tracemalloc

    import ruinwalk.finite as finite

    args = dict(u=0, t=10**5, trials=4, seed=14)
    want = mc_estimate(ex1, **args)
    # a trial's 10^5 draws far exceed a 2^12-double chunk: time blocks
    cap = 1 << 12
    monkeypatch.setattr(finite, "_MC_CHUNK_DOUBLES", cap)
    tracemalloc.start()
    try:
        got = mc_estimate(ex1, **args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == want
    assert 0 < got.estimate < 1
    assert peak < 8 * cap


def test_mc_seed_range(ex1):
    with pytest.raises(InvalidModelError):
        mc_estimate(ex1, u=1, t=3, trials=10, seed=2**128)
    with pytest.raises(InvalidModelError):
        mc_estimate(ex1, u=1, t=3, trials=10, seed=-1)
    assert mc_estimate(ex1, u=1, t=3, trials=10, seed=2**128 - 1).seed == 2**128 - 1


@pytest.mark.parametrize("bad", [
    dict(seed=math.nan),
    dict(seed=math.inf),
    dict(trials=10.0),
    dict(t=3.0),
    dict(u=1.5),
])
def test_mc_rejects_non_integers(ex1, bad):
    with pytest.raises(InvalidModelError):
        mc_estimate(ex1, **(dict(u=1, t=3, trials=10, seed=0) | bad))


def test_mc_numpy_integers_give_python_numbers(ex1):
    est = mc_estimate(ex1, u=np.int64(1), t=np.int32(3), trials=np.int64(10), seed=np.uint64(5))
    assert type(est.estimate) is float and type(est.stderr) is float
    assert type(est.trials) is int and type(est.seed) is int
    assert est == mc_estimate(ex1, u=1, t=3, trials=10, seed=5)


def test_positioned_philox_matches_stream():
    for seed in (0, 7, 2**128 - 1):
        m = 11
        for k in range(10):
            bit_gen = np.random.Philox(key=seed, counter=k // 4)
            bit_gen.random_raw(k % 4)
            want = np.random.Philox(key=seed).random_raw(k + m)[k:]
            assert np.array_equal(bit_gen.random_raw(m), want), (seed, k)


@pytest.mark.parametrize("u,t,trials,seed,cap", [
    (1, 7, 1001, 5, None),  # odd t: most cuts fall inside a Philox block
    (0, 3, 2, 2**128 - 1, None),  # fewer trials than ranges
    (2, 101, 40, 9, 1 << 9),  # time blocks of 32 draws
    (3, 61, 500, 2**128 - 1, 1 << 9),
    (0, 5, 3000, 12, 1 << 9),  # six trials a chunk
])
def test_mc_split_invariance(ex1, monkeypatch, u, t, trials, seed, cap):
    import ruinwalk.finite as finite

    if cap:
        monkeypatch.setattr(finite, "_MC_CHUNK_DOUBLES", cap)
    budget = finite._MC_CHUNK_DOUBLES
    tables = finite._mc_tables(ex1, budget)

    def survivors(lo, hi, parts):
        scratch = finite._mc_scratch(finite._mc_draws(budget // parts))
        return finite._mc_survivors(tables, u, t, seed, lo, hi, scratch, threading.Event())

    whole = survivors(0, trials, 1)
    rng = np.random.default_rng(seed % 2**64)
    for parts in (1, 2, 3):
        even = [trials * i // parts for i in range(parts + 1)]
        drawn = [0, *sorted(rng.integers(0, trials + 1, parts - 1).tolist()), trials]
        for cuts in (even, drawn):
            got = sum(survivors(lo, hi, parts) for lo, hi in zip(cuts, cuts[1:]))
            assert got == whole, cuts
    # more ranges than cores, through the public call, switching often
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
    monkeypatch.setattr(finite, "_MC_RANGE_DOUBLES", 1 << 6)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        est = mc_estimate(ex1, u=u, t=t, trials=trials, seed=seed)
    finally:
        sys.setswitchinterval(interval)
    assert est.estimate == whole / trials


class _CountingThread(threading.Thread):
    started = 0

    def start(self):
        type(self).started += 1
        super().start()


def test_mc_one_cpu_starts_no_thread(ex1, monkeypatch):
    args = dict(u=1, t=180, trials=3000, seed=3)
    monkeypatch.setattr(threading, "Thread", _CountingThread)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    _CountingThread.started = 0
    want = mc_estimate(ex1, **args)
    assert _CountingThread.started == 1  # the work fills two ranges
    # wider hosts too: no range gets less than _MC_RANGE_DOUBLES of the budget
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
    _CountingThread.started = 0
    assert mc_estimate(ex1, **args) == want
    assert _CountingThread.started == 1
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    _CountingThread.started = 0
    assert mc_estimate(ex1, **args) == want
    assert _CountingThread.started == 0


def test_mc_threads_joined_and_worker_errors_raised(ex1, monkeypatch):
    import ruinwalk.finite as finite

    args = dict(u=1, t=180, trials=3000, seed=3)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    before = threading.active_count()
    mc_estimate(ex1, **args)
    assert threading.active_count() == before

    survivors = finite._mc_survivors

    def failing(tables, u, t, seed, lo, hi, scratch, stop):
        if lo > 0:
            raise RuntimeError(f"range from {lo} failed")
        return survivors(tables, u, t, seed, lo, hi, scratch, stop)

    monkeypatch.setattr(finite, "_mc_survivors", failing)
    with pytest.raises(RuntimeError, match="range from 1500 failed"):
        mc_estimate(ex1, **args)
    assert threading.active_count() == before


@pytest.mark.parametrize("error", [RuntimeError("caller failed"), KeyboardInterrupt()])
def test_mc_caller_error_stops_workers(ex1, monkeypatch, error):
    import ruinwalk.finite as finite

    # 10^5 trials a range: 275 chunks of 364 trials each at the default budget
    args = dict(u=1, t=180, trials=200_000, seed=3)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    survivors = finite._mc_survivors
    running = threading.Event()
    blocks = []

    class Watched:
        def __init__(self, stop):
            self.stop = stop

        def is_set(self):
            blocks.append(None)
            running.set()
            return self.stop.is_set()

    def caller_fails(tables, u, t, seed, lo, hi, scratch, stop):
        if lo == 0:
            assert running.wait(30)
            raise error
        return survivors(tables, u, t, seed, lo, hi, scratch, Watched(stop))

    before = threading.active_count()
    monkeypatch.setattr(finite, "_mc_survivors", caller_fails)
    with pytest.raises(type(error)):
        mc_estimate(ex1, **args)
    assert threading.active_count() == before
    assert 1 <= len(blocks) < 100  # the worker stopped early, not after 275 chunks
