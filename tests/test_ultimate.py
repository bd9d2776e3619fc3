"""Unit tests for the infinite-horizon solver and its cross-checks."""

import math

import numpy as np
import pytest
from mpmath import mp

from ruinwalk import (
    InvalidModelError,
    ModelSpec,
    NumericalError,
    SingularSystemError,
    boundary_oracle,
    build_sequences,
    classify,
    extend_ultimate,
    from_probs,
    make_displaced_poisson,
    net_profit_margin,
    no_net_profit_values,
    point_mass,
    residuals,
    solve_initials,
    survival_ultimate,
)
from ruinwalk.model import CaseKind
from conftest import random_case_model


# --- coefficient sequences ---


def _check_representation(model, u_check=24):
    """phi(n) must equal its coefficient representation for solved initials.

    The full-precision initials go through the representation; feeding the
    float64 roundings instead would amplify their last-bit error by the
    coefficient growth and drown the check.
    """
    tag = classify(model)
    seqs = build_sequences(model, tag, n_max=u_check)
    init = solve_initials(model, tag)
    phi = extend_ultimate(model, init, u_max=u_check)
    with mp.workprec(seqs.precision_bits):
        margin = mp.mpf(4) - mp.fsum(u * mp.mpf(float(v)) for u, v in enumerate(model.s.probs))
        for n in range(u_check + 1):
            want = seqs.coeff_margin[n] * margin
            for coeffs, idx in (
                (seqs.coeff_phi0, 0),
                (seqs.coeff_phi1, 1),
                (seqs.coeff_phi2, 2),
            ):
                if coeffs is not None and idx in init.values_mp:
                    want += coeffs[n] * init.values_mp[idx]
            assert abs(float(want) - phi[n]) < 1e-9, f"n={n}"


def test_representation_identity_case_a(ex1):
    _check_representation(ex1)


def test_representation_identity_case_b(ex2):
    _check_representation(ex2)


def test_representation_identity_case_c_s1(ex3):
    _check_representation(ex3)


def test_representation_identity_case_c_s3():
    rng = np.random.default_rng(77)
    _check_representation(random_case_model(rng, "C", "s.3"))


def _route_model(request, route):
    if route in ("A", "B", "s.1"):
        return request.getfixturevalue({"A": "ex1", "B": "ex2", "s.1": "ex3"}[route])
    if route == "dpois-B":
        # tail atoms near 1e-15 make the s atoms integers over 2^147, and the
        # x.y coefficients of the last steps need up to 7 more bits
        return ModelSpec(x=make_displaced_poisson(0.95, 1, tail_tol=1e-15),
                         y=make_displaced_poisson(1.5, 0, tail_tol=1e-15))
    if route == "underflow":
        return UNDERFLOW_MODEL
    return random_case_model(np.random.default_rng(2014), "C", route)


# x_0 = 5e-324 is the least subnormal, so x_0 y_1 underflows to s_1 = 0
# (case C s.1) and the x atoms are integers over 2^1074.
UNDERFLOW_MODEL = ModelSpec(x=from_probs([5e-324, 0.5, 0.5]), y=from_probs([0.0, 0.5, 0.5]))


@pytest.mark.parametrize("route", ["A", "B", "s.1", "s.2", "s.3", "dpois-B", "underflow"])
def test_sequences_satisfy_master_recurrence_and_constraint(request, route):
    """Any combination L(n) = sum_i c_i(n) v_i + d(n) m of the sequences
    obeys the master recurrence and meets the constraint with margin m.

    Both equations are written out here from the atoms, not taken from
    the solver, so this checks the sequences without going through the
    forward-recurrence kernel that produced them.
    """
    model = _route_model(request, route)
    n_max = 40
    seqs = build_sequences(model, n_max=n_max)
    bits = seqs.precision_bits
    rng = np.random.default_rng(len(route))
    with mp.workprec(bits):
        tol = mp.mpf(2) ** -(bits - 64)
        x = [mp.mpf(float(v)) for v in model.x.probs]
        y = [mp.mpf(float(v)) for v in model.y.probs]
        s = [mp.mpf(float(v)) for v in model.s.probs]

        def atom(seq, i):
            return seq[i] if 0 <= i < len(seq) else mp.mpf(0)

        cols = [(c, mp.mpf(rng.uniform(-1, 1)))
                for c in (seqs.coeff_phi0, seqs.coeff_phi1, seqs.coeff_phi2) if c is not None]
        m = mp.mpf(rng.uniform(0.1, 1))
        L = [mp.fsum([c[n] * v for c, v in cols] + [seqs.coeff_margin[n] * m])
             for n in range(n_max + 1)]

        def holds(lhs, terms, rel):
            scale = max([abs(lhs)] + [abs(t) for t in terms])
            return abs(lhs - mp.fsum(terms)) <= rel * scale

        y0, y1 = atom(y, 0), atom(y, 1)
        for u in range(n_max - 3):
            terms = [L[k] * atom(s, u + 4 - k) for k in range(1, u + 5)]
            terms += [-(atom(x, u + 3) * y0 + atom(x, u + 2) * y1) * L[1],
                      -atom(x, u + 2) * y0 * L[2]]
            # In C s.3 the right side at u = 0 vanishes only through the
            # atom identities s_2 = x_2 y_0 and s_3 = x_3 y_0 + x_2 y_1, which
            # the float64 atoms of s meet to rounding; L(0) = 0 exactly.
            if route == "s.3" and u == 0:
                assert L[0] == 0
                assert holds(L[0], terms, mp.mpf(2) ** -50), f"u={u}"
                continue
            assert holds(L[u], terms, tol), f"u={u}"

        x_tail = [1 - mp.fsum(x[: k + 1]) for k in range(3)]
        s_cdf = [mp.fsum(s[: k + 1]) for k in range(3)]
        constraint = [
            L[0],
            (x_tail[2] * y0 + x_tail[1] * y1 + s_cdf[2]) * L[1],
            (x_tail[1] * y0 + s_cdf[1]) * L[2],
            s_cdf[0] * L[3],
        ]
        assert holds(m, constraint, tol)


def test_sequences_reject_wrong_cases(ex4, ex5):
    with pytest.raises(InvalidModelError):
        build_sequences(ex4, n_max=20)  # case D is closed form
    with pytest.raises(InvalidModelError):
        build_sequences(ex5, n_max=20)  # no net profit


# --- initial values ---


def test_benchmark_initials(ex1, ex2, ex3):
    # three-decimal reference values: 0.442, 0.037, 0.048
    assert solve_initials(ex1).values[0] == pytest.approx(0.442, abs=5e-4)
    assert solve_initials(ex2).values[0] == pytest.approx(0.037, abs=5e-4)
    assert solve_initials(ex3).values[0] == pytest.approx(0.048, abs=5e-4)


def test_case_d_closed_forms(ex4):
    init = solve_initials(ex4)
    assert init.values[0] == 0.0
    y1 = ex4.y.p(1)
    assert init.values[1] == pytest.approx(net_profit_margin(ex4) / y1, rel=1e-12)
    assert init.n_solve == 0 and init.determinant is None


def test_case_d_other_scenarios_match_oracle():
    rng = np.random.default_rng(5150)
    for scen in ("v.2", "v.3", "v.4"):
        m = random_case_model(rng, "D", scen)
        r = survival_ultimate(m, u_max=20)
        b = boundary_oracle(m, u_max=20)
        assert np.max(np.abs(r.phi - b)) < 1e-8, scen


def test_solver_rejects_no_net_profit(ex5):
    with pytest.raises(InvalidModelError):
        solve_initials(ex5)


def test_solver_rejects_tiny_n(ex1):
    with pytest.raises(InvalidModelError):
        solve_initials(ex1, n_solve=4)


def test_singular_system_error_fields():
    err = SingularSystemError("boom", n=12, determinant=0.0)
    assert err.n == 12 and err.determinant == 0.0
    assert isinstance(err, NumericalError)


# --- forward extension ---


def test_extend_requires_contiguous_initials(ex1, ex4):
    with pytest.raises(InvalidModelError):
        extend_ultimate(ex1, {0: 0.4, 2: 0.7}, u_max=10)
    with pytest.raises(InvalidModelError):
        extend_ultimate(ex4, {0: 0.0}, u_max=10)  # case D still needs phi(1)


def test_extension_monotone_and_bounded(ex1, ex2, ex3):
    for m in (ex1, ex2, ex3):
        r = survival_ultimate(m, u_max=40)
        assert np.all(np.diff(r.phi) >= -1e-12)
        assert np.all(r.phi >= -1e-12) and np.all(r.phi <= 1 + 1e-12)
        assert r.phi[40] > r.phi[0]


def test_zero_claims_survive_surely():
    m = ModelSpec(x=point_mass(0), y=point_mass(0))
    r = survival_ultimate(m, u_max=5)
    assert np.all(r.phi == 1.0)
    # no pair claim above the income of 4: the pair-boundary surplus never
    # falls, and ruin needs x >= u + 2 in mid-pair, so psi(u) = 0 from
    # max(1, x_max - 1) = 2 and the route stops at reach 2 + 8
    m = ModelSpec(x=from_probs([0.25, 0.0, 0.0, 0.75]), y=point_mass(0))
    r = survival_ultimate(m, u_max=10_000)
    assert r.lundberg_r == math.inf and r.reach == 10
    assert r.phi[:2] == pytest.approx([0.25, 0.25], abs=1e-15)
    assert np.all(r.phi[2:] == 1.0)


# --- residuals ---


def test_residuals_small_for_solver_output(ex1, ex2, ex3, ex4):
    for m in (ex1, ex2, ex3, ex4):
        r = survival_ultimate(m, u_max=12)
        assert r.residual_master < 1e-12
        assert r.residual_constraint < 1e-12


def test_residuals_detect_perturbation(ex1):
    r = survival_ultimate(ex1, u_max=12)
    phi = np.concatenate([r.phi, np.full(4, r.phi[-1])])  # padding for the window
    clean = residuals(ex1, phi)
    bumped = phi.copy()
    bumped[0] += 0.01
    dirty = residuals(ex1, bumped)
    assert dirty.constraint > clean.constraint + 0.009
    assert dirty.master > clean.master + 0.001


def test_residuals_match_termwise_sums(ex2):
    phi = survival_ultimate(ex2, u_max=60).phi + np.random.default_rng(3).normal(0, 1e-3, 61)
    s, x, y = ex2.s, ex2.x, ex2.y
    worst = 0.0
    for u in range(len(phi) - 4):
        terms = [phi[k] * s.p(u + 4 - k) for k in range(1, u + 5)]
        rhs = (math.fsum(terms) - (x.p(u + 3) * y.p(0) + x.p(u + 2) * y.p(1)) * phi[1]
               - x.p(u + 2) * y.p(0) * phi[2])
        worst = max(worst, abs(phi[u] - rhs))
    assert residuals(ex2, phi).master == pytest.approx(worst, abs=64 * np.finfo(float).eps)


def test_residuals_need_enough_values(ex1):
    with pytest.raises(InvalidModelError):
        residuals(ex1, np.ones(5))


# --- boundary oracle ---


# Far-row models by (lambda, shift) of x and y, one per route: A, B, C s.1,
# C s.2, C s.3 and case D v.1.
FAR_ROWS = (((1, 0), (2, 0)), ((0.95, 1), (1.5, 0)), ((0.75, 1), (0.75, 1)),
            ((0.85, 0), (0.65, 2)), ((0.65, 2), (0.85, 0)), ((0.5, 2), (1 / 3, 1)))


def test_boundary_oracle_agrees(ex1, ex2, ex3, ex4):
    for m in (ex1, ex2, ex3, ex4):
        r = survival_ultimate(m, u_max=30)
        b = boundary_oracle(m, u_max=30)
        assert np.max(np.abs(r.phi - b)) < 1e-8
    for (lx, dx), (ly, dy) in FAR_ROWS:
        m = ModelSpec(x=make_displaced_poisson(lx, dx), y=make_displaced_poisson(ly, dy))
        r = survival_ultimate(m, u_max=600)
        b = boundary_oracle(m, u_max=600, u_big=1500)
        assert np.max(np.abs(r.phi - b)) < 1e-12, classify(m)
    r = survival_ultimate(UNDERFLOW_MODEL, u_max=300)
    b = boundary_oracle(UNDERFLOW_MODEL, u_max=300, u_big=1500)
    assert np.max(np.abs(r.phi - b)) < 1e-12


@pytest.mark.parametrize("rates", FAR_ROWS, ids=["A", "B", "s.1", "s.2", "s.3", "v.1"])
def test_cost_stops_growing_with_u_max(rates):
    """Past u* + 8 the row comes from the Lundberg tail, so u_max = 10^4
    solves at the bits and index of u_max = 600 and returns its row."""
    (lx, dx), (ly, dy) = rates
    m = ModelSpec(x=make_displaced_poisson(lx, dx), y=make_displaced_poisson(ly, dy))
    r = survival_ultimate(m, u_max=600)
    big = survival_ultimate(m, u_max=10_000)
    assert (big.precision_bits, big.n_solve, big.reach) == (r.precision_bits, r.n_solve, r.reach)
    assert r.reach < 150
    assert np.array_equal(big.phi[:601], r.phi)
    # the untailed route, solved past u = 600 and extended up to it
    full = extend_ultimate(m, solve_initials(m, n_solve=608), u_max=600)
    assert np.max(np.abs(full - r.phi)) < 1e-13


# Exact dyadic models, one per route: A, B, C s.1, C s.2, C s.3, D v.1.
DYADIC = {
    "A": ([0.375, 0.375, 0.1875, 0.0625], [0.125, 0.25, 0.25, 0.25, 0.125]),
    "B": ([0, 0.5, 0.25, 0.25], [0.25, 0.25, 0.25, 0.125, 0.125]),
    "s.1": ([0, 0.5, 0.25, 0.25], [0, 0.5, 0.25, 0.25]),
    "s.2": ([0.5, 0.25, 0.25], [0, 0, 0.5, 0.25, 0.25]),
    "s.3": ([0, 0, 0.5, 0.25, 0.25], [0.5, 0.25, 0.25]),
    "v.1": ([0, 0, 0.75, 0.25], [0, 0.75, 0.25]),
}


@pytest.mark.parametrize("route", DYADIC)
def test_lundberg_bound_holds(route):
    """1 - phi(u) <= C e^(-R u) against the dense oracle, with R the root
    of E[e^(R(S-4))] = 1 (not some smaller, vacuous value)."""
    x, y = DYADIC[route]
    m = ModelSpec(x=from_probs(x), y=from_probs(y))
    r = survival_ultimate(m, u_max=199)
    s = m.s.probs
    assert abs(math.fsum(s * np.exp(r.lundberg_r * (np.arange(len(s)) - 4))) - 1) < 1e-9
    psi = 1 - boundary_oracle(m, u_max=199, u_big=600)
    # the oracle's float64 rounding, where the bound falls below it
    assert np.all(psi <= r.lundberg_c * np.exp(-r.lundberg_r * np.arange(200)) + 1e-14)


def test_boundary_oracle_rejects_no_net_profit(ex5):
    with pytest.raises(InvalidModelError):
        boundary_oracle(ex5, u_max=10)


def test_boundary_oracle_pads_past_wall(ex1):
    out = boundary_oracle(ex1, u_max=450, u_big=400)
    assert len(out) == 451
    assert np.all(out[400:] == 1.0)


# --- collapsed values ---


def test_no_net_profit_values(ex5):
    vals = no_net_profit_values(ex5, u_max=8)
    assert np.all(vals == 0.0)
    with pytest.raises(InvalidModelError):
        no_net_profit_values(ModelSpec(x=point_mass(0), y=point_mass(0)), u_max=3)


def test_degenerate_patterns_exact():
    for j in range(5):
        m = ModelSpec(x=point_mass(4 - j), y=point_mass(j))
        r = survival_ultimate(m, u_max=6)
        want = np.array([1.0 if u >= max(1, 3 - j) else 0.0 for u in range(7)])
        assert np.array_equal(r.phi, want), f"j={j}"


# --- diagnostics plumbing ---


def test_result_diagnostics(ex1):
    r = survival_ultimate(ex1, u_max=10)
    assert r.case.kind == CaseKind.A
    assert r.n_solve >= 18  # bumped to cover u_max
    assert r.precision_bits >= 256
    assert r.determinant is not None and r.determinant != 0.0
    assert r.initials_delta <= 1e-9
    assert math.isclose(r.margin, net_profit_margin(ex1))
    assert set(r.initials) == {0, 1, 2, 3}


def test_u_max_zero(ex3):
    r = survival_ultimate(ex3, u_max=0)
    assert len(r.phi) == 1
    assert r.phi[0] == pytest.approx(0.0485, abs=5e-4)
    with pytest.raises(InvalidModelError):
        survival_ultimate(ex3, u_max=-1)
