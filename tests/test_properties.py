"""Property-based checks over randomized PMFs and models."""

import math

import numpy as np
from hypothesis import assume, example, given, settings
import hypothesis.strategies as st

from ruinwalk import (
    ModelSpec,
    classify,
    convolve,
    dp_survival_curve,
    from_probs,
    net_profit_margin,
    parse_pmf_spec,
    survival_finite,
)
from ruinwalk.model import CaseKind

weights = st.lists(st.floats(0.0, 1.0, allow_nan=False), min_size=1, max_size=6)


def _normalize(ws):
    total = math.fsum(ws)
    assume(total > 1e-6)
    return [w / total for w in ws]


@given(weights)
def test_pmf_invariants(ws):
    p = from_probs(_normalize(ws))
    # cdf climbs to 1, tail mirrors it
    last = 0.0
    for u in range(p.support_max + 1):
        assert p.cdf(u) >= last - 1e-15
        assert abs(p.cdf(u) + p.tail(u) - 1.0) < 1e-12
        last = p.cdf(u)
    assert abs(p.cdf(p.support_max) - 1.0) < 1e-12
    assert abs(math.fsum(p.p(u) for u in range(p.support_max + 1)) - 1.0) < 1e-9


@given(weights, weights)
def test_convolution_properties(wa, wb):
    a = from_probs(_normalize(wa))
    b = from_probs(_normalize(wb))
    ab = convolve(a, b)
    ba = convolve(b, a)
    assert np.allclose(ab.probs, ba.probs, atol=1e-14)
    assert ab.support_max == a.support_max + b.support_max
    assert math.isclose(
        ab.mean_retained, a.mean_retained + b.mean_retained, abs_tol=1e-9
    )


@given(weights)
def test_pmf_spec_roundtrip(ws):
    probs = _normalize(ws)
    text = "pmf:" + ",".join(repr(v) for v in probs)
    again = parse_pmf_spec(text)
    assert np.array_equal(again.probs, np.asarray(probs))


@given(weights, weights)
@settings(max_examples=60, deadline=None)
# x_0 y_{m*} underflows: the scenario follows the pair that carries s_{m*}
@example([5e-324, 0, 1], [0, 1, 1])
@example([1, 1], [0, 5e-324, 1])
@example([0, 1, 1], [0, 5e-324, 1])
# y's normalized weights sum to 1 - 2^-53: a rounding, not a lost mass
@example([0.0, 0.0, 1.0], [0.0, 0.06546478369390864, 0.3333333333333333, 0.06546478369390864])
def test_classification_partitions(wa, wb):
    m = ModelSpec(x=from_probs(_normalize(wa)), y=from_probs(_normalize(wb)))
    tag = classify(m)
    if net_profit_margin(m) <= 0:
        assert tag.kind == CaseKind.NO_NET_PROFIT
        return
    assert tag.kind in (CaseKind.A, CaseKind.B, CaseKind.C, CaseKind.D)
    # min_s_atom is the first positive atom of the pair sum
    first = next(u for u in range(m.s.support_max + 1) if m.s.p(u) > 0)
    assert tag.min_s_atom == first
    assert tag.kind == {0: CaseKind.A, 1: CaseKind.B, 2: CaseKind.C, 3: CaseKind.D}[first]
    if tag.kind in (CaseKind.C, CaseKind.D):
        assert tag.scenario is not None


@given(weights, weights)
@settings(max_examples=40, deadline=None)
# s_2 = x_1 y_1 is subnormal: np.roots cannot find the Lundberg root, so
# the grid keeps its full window
@example([0, 1, 0, 0.5], [0, 2.225073858507e-311, 1])
def test_finite_grid_matches_dp_and_is_monotone(wa, wb):
    m = ModelSpec(x=from_probs(_normalize(wa)), y=from_probs(_normalize(wb)))
    g = survival_finite(m, u_max=3, t_max=6)
    for u in range(4):
        curve = dp_survival_curve(m, u, 6)
        for t in range(1, 7):
            assert abs(g.value(u, t) - curve[t - 1]) < 1e-12
    assert np.all(np.diff(g.values, axis=0) >= -1e-14)
    assert np.all(np.diff(g.values, axis=1) <= 1e-14)
    assert np.all(g.values >= -1e-15) and np.all(g.values <= 1 + 1e-15)
