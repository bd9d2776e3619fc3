"""Unit tests for model assembly and case classification."""

import math

import numpy as np
import pytest

from ruinwalk import (
    ModelSpec,
    Pmf,
    PrecisionError,
    classify,
    from_probs,
    make_displaced_poisson,
    net_profit_margin,
    point_mass,
)
from ruinwalk.model import CaseKind


def test_premium_is_pinned():
    # the premium is the constant PREMIUM_PER_PERIOD: no keyword sets it
    x = from_probs([1.0])
    for premium in (2, 3):
        with pytest.raises(TypeError):
            ModelSpec(x=x, y=x, premium=premium)


def test_pair_sum_is_convolution():
    m = ModelSpec(x=from_probs([0.5, 0.5]), y=from_probs([0.5, 0.5]))
    assert np.allclose(m.s.probs, [0.25, 0.5, 0.25], atol=1e-15)
    assert math.isclose(m.mean_s, 1.0, abs_tol=1e-15)
    assert math.isclose(net_profit_margin(m), 3.0, abs_tol=1e-15)


def test_classify_benchmarks(ex1, ex2, ex3, ex4, ex5):
    assert classify(ex1).kind == CaseKind.A
    assert classify(ex2).kind == CaseKind.B
    t3 = classify(ex3)
    assert (t3.kind, t3.scenario) == (CaseKind.C, "s.1")
    t4 = classify(ex4)
    assert (t4.kind, t4.scenario) == (CaseKind.D, "v.1")
    assert classify(ex5).kind == CaseKind.NO_NET_PROFIT


def test_classify_min_atom():
    assert classify(ModelSpec(x=from_probs([0.5, 0.5]), y=from_probs([0.5, 0.5]))).min_s_atom == 0
    # s_0 = 0 through x_0 = 0
    m = ModelSpec(x=from_probs([0.0, 1.0]), y=from_probs([0.5, 0.5]))
    tag = classify(m)
    assert (tag.kind, tag.min_s_atom) == (CaseKind.B, 1)


def test_classify_case_c_scenarios():
    # s.1: both seasons start at 1
    m = ModelSpec(x=from_probs([0.0, 1.0]), y=from_probs([0.0, 1.0]))
    assert classify(m).scenario == "s.1"
    # s.2: x has an atom at 0, y starts at 2
    m = ModelSpec(x=from_probs([0.5, 0.5]), y=from_probs([0.0, 0.0, 1.0]))
    assert classify(m).scenario == "s.2"
    # s.3: y has an atom at 0, x starts at 2
    m = ModelSpec(x=from_probs([0.0, 0.0, 1.0]), y=from_probs([0.5, 0.5]))
    assert classify(m).scenario == "s.3"


def test_classify_case_d_scenarios():
    cases = [
        ("v.1", [0.0, 0.0, 1.0], [0.0, 0.8, 0.2]),
        ("v.2", [0.0, 0.9, 0.1], [0.0, 0.0, 1.0]),
        ("v.3", [0.0, 0.0, 0.0, 1.0], [0.6, 0.4]),
        ("v.4", [0.6, 0.4], [0.0, 0.0, 0.0, 1.0]),
    ]
    for scen, xs, ys in cases:
        tag = classify(ModelSpec(x=from_probs(xs), y=from_probs(ys)))
        assert (tag.kind, tag.scenario) == (CaseKind.D, scen), scen
        assert tag.min_s_atom == 3


def test_no_net_profit_plain():
    m = ModelSpec(x=point_mass(3), y=point_mass(2))
    tag = classify(m)
    assert tag.kind == CaseKind.NO_NET_PROFIT
    assert tag.degenerate_step is None


def test_no_net_profit_degenerate_steps():
    for j in range(5):
        tag = classify(ModelSpec(x=point_mass(4 - j), y=point_mass(j)))
        assert tag.kind == CaseKind.NO_NET_PROFIT
        assert tag.degenerate_step == max(1, 3 - j), f"j={j}"


def test_exact_boundary_mean_four():
    # E S = 4 without the point-mass structure: certain ruin
    m = ModelSpec(x=from_probs([0.5, 0.0, 0.0, 0.0, 0.5]), y=point_mass(2))
    tag = classify(m)
    assert tag.kind == CaseKind.NO_NET_PROFIT
    assert tag.degenerate_step is None


def test_truncation_straddle_raises():
    # retained mean below 4 but the tail bound reaches past it
    x = Pmf(np.array([0.0, 0.0, 0.0, 1.0]), mass_defect=0.0, tail_mean_bound=2.0)
    y = from_probs([0.1, 0.9])
    with pytest.raises(PrecisionError):
        classify(ModelSpec(x=x, y=y))


def test_margin_matches_hand_sum(ex1):
    s = ex1.s
    hand = 4.0 - sum(u * s.p(u) for u in range(s.support_max + 1))
    assert math.isclose(net_profit_margin(ex1), hand, rel_tol=1e-12)
