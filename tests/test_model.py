"""Unit tests for model assembly and case classification."""

import math
from fractions import Fraction

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
from conftest import balance_coeffs, random_dpois_model, random_model


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


def _nothing_cut(c):
    """True when no coefficient lies at or below 2^-52 of the largest."""
    a = np.abs(c[c != 0])
    return a.min() > 2.0**-52 * a.max()


def test_balance_roots_whole_when_nothing_is_cut():
    """With no coefficient below the cut, ``balance_roots`` is np.roots on
    the whole polynomial, bit for bit, and ``root_rates`` are the sorted
    log2 moduli of its nonzero roots: dyadic models (multiples of 2^-16,
    as the benchmark's explicit models), the same with x or y shifted up
    by 1-3 (cases B-D, whose polynomials np.roots strips of leading
    zeros), and random explicit ones."""
    rng = np.random.default_rng(2801)
    models = []
    for _ in range(60):
        size = int(rng.integers(2, 12))
        x, y = (rng.multinomial(1 << 16, rng.dirichlet(np.ones(size))) / (1 << 16) for _ in range(2))
        if x.sum() == 1 == y.sum():
            models.append(ModelSpec(x=from_probs(x), y=from_probs(y)))
    shift_rng = np.random.default_rng(2901)
    for m in models[:45]:
        total = int(shift_rng.integers(1, 4))
        dx = int(shift_rng.integers(0, total + 1))
        x, y = (np.concatenate([np.zeros(d), p.probs]) for d, p in ((dx, m.x), (total - dx, m.y)))
        models.append(ModelSpec(x=from_probs(x), y=from_probs(y)))
    dyadic = len(models)
    models += [random_model(rng, support_max=int(rng.integers(1, 9))) for _ in range(100)]
    checked = 0
    for i, m in enumerate(models):
        c = balance_coeffs(m)
        if not _nothing_cut(c):
            assert i >= dyadic, "a dyadic model had a coefficient cut"
            continue
        whole = np.roots(c)
        assert m.balance_roots.dtype == whole.dtype
        assert m.balance_roots.tobytes() == whole.tobytes()
        size = np.abs(whole)
        rates = np.sort(np.log2(size[size > 0]))[::-1]
        assert m.root_rates.dtype == rates.dtype
        assert m.root_rates.tobytes() == rates.tobytes()
        checked += 1
    assert dyadic >= 95 and checked >= 185


def _exact_value(c, z):
    value = Fraction(0)
    for a in c:
        value = value * Fraction(z) + Fraction(a)
    return value


def _brackets_exact_root(c, z, ulps=4):
    """The whole polynomial, evaluated exactly, changes sign within
    ``ulps`` ulps of z."""
    w = ulps * math.ulp(z)
    return (_exact_value(c, z - w) > 0) != (_exact_value(c, z + w) > 0)


def test_polished_lundberg_root_brackets_the_exact_root(tight_tail_models):
    """Where coefficients are cut, the root in (0, 1) that sets R is
    polished on the whole polynomial to within 4 ulps of its exact root.
    np.roots on the whole polynomial missed it by up to 2e-7 relative,
    or lost it (ROADMAP D11). Tables 1-4 at tail_tol 1e-12 to 1e-30, and
    seeded displaced Poisson pairs with a net profit."""
    rng = np.random.default_rng(2803)
    models = list(tight_tail_models.values())
    models += [m for m in (random_dpois_model(rng) for _ in range(150))
               if classify(m).kind != CaseKind.NO_NET_PROFIT]
    checked = 0
    for m in models:
        c = balance_coeffs(m)
        if _nothing_cut(c):
            continue
        z = m.balance_roots
        z = z.real[(z.imag == 0) & (z.real > 0) & (z.real < 1)]
        assert z.size, m
        assert _brackets_exact_root(c, float(z.min())), m
        checked += 1
    assert checked >= 100
