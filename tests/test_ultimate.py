"""Unit tests for the infinite-horizon solver and its cross-checks."""

import math
from dataclasses import replace
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from ruinwalk import (
    InvalidModelError,
    ModelSpec,
    NumericalError,
    SingularSystemError,
    boundary_oracle,
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
from ruinwalk import ultimate
from ruinwalk.model import INCOME_PER_PAIR, PREMIUM_PER_PERIOD, CaseKind
from ruinwalk.pmf import parse_pmf_spec
from ruinwalk.reference_tables import ALL_TABLES
from ruinwalk.ultimate import _free_indices, _lundberg_tail
from conftest import random_case_model, random_model


# --- coefficient sequences ---


def _exact_atoms(model):
    """x, y, s as exact rationals of their float64 atoms, padded with
    zeros, and the margin 4 - E[s] from the same atoms."""
    x, y, s = ([Fraction(float(v)) for v in p.probs] + [Fraction(0)] * 4
               for p in (model.x, model.y, model.s))
    return x, y, s, INCOME_PER_PAIR - sum(k * v for k, v in enumerate(s))


def _check_representation(model, u_check=24):
    """phi(n) must equal its coefficient representation for solved initials.

    The representation is summed in exact rationals over the integer
    sequences of ``_sequences``, with the solve's own floors of phi(0..j);
    feeding their float64 roundings instead would amplify the last-bit
    error by the coefficient growth and drown the check.
    """
    tag = classify(model)
    seqs, bits = ultimate._sequences(model, tag, ultimate._Atoms(model), u_check)
    init = solve_initials(model, tag)
    phi = extend_ultimate(model, init, u_max=u_check)
    solved = [Fraction(v, 1 << init.precision_bits) for v in init._route.head]
    weights = [solved[i] for i in _free_indices(tag)] + [_exact_atoms(model)[3]]
    for n in range(u_check + 1):
        want = sum(w * Fraction(c[n], 1 << bits) for w, c in zip(weights, seqs))
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
    forward-recurrence kernel that produced them. They are evaluated in
    exact rationals on the integer sequences, so the only slack is the
    kernel's own floors at 2^-bits.
    """
    model = _route_model(request, route)
    n_max = 40
    seqs, bits = ultimate._sequences(model, classify(model), ultimate._Atoms(model), n_max)
    rng = np.random.default_rng(len(route))
    tol = Fraction(1, 1 << (bits - 64))
    x, y, s, _ = _exact_atoms(model)

    def atom(seq, i):
        return seq[i] if 0 <= i < len(seq) else 0

    weights = [Fraction(rng.uniform(-1, 1)) for _ in seqs[:-1]]
    m = Fraction(rng.uniform(0.1, 1))
    L = [sum(w * c[n] for w, c in zip(weights + [m], seqs)) / (1 << bits)
         for n in range(n_max + 1)]

    def holds(lhs, terms, rel):
        scale = max([abs(lhs)] + [abs(t) for t in terms])
        return abs(lhs - sum(terms)) <= rel * scale

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
            assert holds(L[0], terms, Fraction(1, 1 << 50)), f"u={u}"
            continue
        assert holds(L[u], terms, tol), f"u={u}"

    x_tail = [1 - sum(x[: k + 1]) for k in range(3)]
    s_cdf = [sum(s[: k + 1]) for k in range(3)]
    constraint = [
        L[0],
        (x_tail[2] * y0 + x_tail[1] * y1 + s_cdf[2]) * L[1],
        (x_tail[1] * y0 + s_cdf[1]) * L[2],
        s_cdf[0] * L[3],
    ]
    assert holds(m, constraint, tol)


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


def _solve_exact(mat, rhs):
    """mat v = rhs in exact rationals, by Gauss-Jordan elimination."""
    aug = [list(row) + [r] for row, r in zip(mat, rhs)]
    n = len(aug)
    for c in range(n):
        p = next(r for r in range(c, n) if aug[r][c])
        aug[c], aug[p] = aug[p], aug[c]
        aug[c] = [v / aug[c][c] for v in aug[c]]
        for r in range(n):
            f = aug[r][c]
            if r != c and f:
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[c])]
    return [row[n] for row in aug]


def test_solve_rounds_once_to_exact_floors():
    """Each value the solve keeps is the floor at 2^-bits of its exact
    value: the free values F_j of the difference system over the solve's
    own integer sequences, solved in rationals with the margin from the
    float atoms; the margin; and phi(j) from the constraint, written out
    here from the atoms, at the kept F_j. Case D's closed forms likewise."""
    rng = np.random.default_rng(1616)
    for k in range(60):
        model = random_case_model(rng, "ABC"[k % 3])
        init = solve_initials(model)
        route, bits, n = init._route, init.precision_bits, init.n_solve
        one = 1 << bits
        x, y, s, margin = _exact_atoms(model)
        dim = len(route.seqs) - 1
        rows = [[Fraction(v, one) for v in row]
                for row in ultimate._difference_rows(route.seqs, n, dim)]
        free = _solve_exact([row[:dim] for row in rows], [-row[dim] * margin for row in rows])
        want = [math.floor(v * one) for v in free + [margin]]
        assert route.weights == want, k

        xt1 = 1 - x[0] - x[1]
        xt2 = xt1 - x[2]
        row = [1, s[0] + s[1] + s[2] + xt2 * y[0] + xt1 * y[1], s[0] + s[1] + xt1 * y[0], s[0]]
        idx = _free_indices(route.tag)
        j = idx[-1] + 1
        phi = [Fraction(0)] * j
        for i, w in zip(idx, route.weights):
            phi[i] = Fraction(w, one)
        last = (margin - sum(r * v for r, v in zip(row, phi))) / row[j]
        assert route.head == [math.floor(v * one) for v in phi + [last]], k

    for scen in ("v.1", "v.2", "v.3", "v.4"):
        for _ in range(5):
            model = random_case_model(rng, "D", scen)
            init = solve_initials(model)
            x, y, s, m = _exact_atoms(model)
            if scen == "v.1":
                want = [0, m / y[1]]
            elif scen == "v.3":
                want = [0, 0, m / y[0]]
            else:
                pivot = x[1] * y[2] + x[0] * y[3]
                phi0 = m / (1 + (1 - x[0] - x[1]) * y[1] / pivot)
                want = [phi0, phi0 / pivot]
            assert init._route.head == [math.floor(v * (1 << init.precision_bits)) for v in want], scen


def test_solver_rejects_no_net_profit(ex5):
    with pytest.raises(InvalidModelError):
        solve_initials(ex5)


def test_solver_rejects_tiny_n(ex1):
    with pytest.raises(InvalidModelError):
        solve_initials(ex1, n_solve=4)
    with pytest.raises(InvalidModelError):
        solve_initials(ex1, n_solve=3000)  # past N_SOLVE_CAP


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


# Rows that stop short of u*: the D8 model (case C s.1, margin 0.020,
# u* = 1819) and table 2's (case B, u* = 545), as (lambda, shift) of x and y.
SHORT_ROWS = (((0.6339411042443803, 1), (1.3459253045058992, 1)), ((1.0, 1), (1.9, 0)))

# np.roots loses this model's Lundberg root, so it has no tail (R = 0),
# and returns an exact root 0; its coefficients grow 332 bits per index.
NO_TAIL_MODEL = ModelSpec(x=from_probs([0, 0.6666666666666666, 0, 0.3333333333333334]),
                          y=from_probs([0, 1e-100, 1]))


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
    for (lx, dx), (ly, dy) in SHORT_ROWS:
        m = ModelSpec(x=make_displaced_poisson(lx, dx), y=make_displaced_poisson(ly, dy))
        b = boundary_oracle(m, u_max=600, u_big=4000)
        for u_max in (140, 300, 600):
            r = survival_ultimate(m, u_max=u_max)
            assert np.max(np.abs(r.phi - b[: u_max + 1])) < 1e-12, (classify(m), u_max)
    r = survival_ultimate(NO_TAIL_MODEL, u_max=40)
    assert r.lundberg_r == 0
    b = boundary_oracle(NO_TAIL_MODEL, u_max=40, u_big=2000)
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


def _within_an_ulp(a, b):
    return np.all(np.abs(a - b) <= np.spacing(np.maximum(np.abs(a), np.abs(b))))


def _recurrence_only(init):
    """The same solve without its sequences: ``extend_ultimate`` recurses
    from its integer phi(0..j)."""
    return replace(init, _route=replace(init._route, seqs=None, weights=None))


def _counting_forward(monkeypatch):
    calls = []
    forward = ultimate._forward

    def counted(*args):
        calls.append(args[3])
        return forward(*args)

    monkeypatch.setattr(ultimate, "_forward", counted)
    return calls


# Rows read off the solve's sequences: the five sequence routes at u_max 600
# (FAR_ROWS), the D8 model at 300 and table 2's model at 140, 300 and 600.
READ_OFF_ROWS = [(rates, 600) for rates in FAR_ROWS[:5]]
READ_OFF_ROWS += [(SHORT_ROWS[0], 300)] + [(SHORT_ROWS[1], u) for u in (140, 300, 600)]


@pytest.mark.parametrize("rates, u_max", READ_OFF_ROWS,
                         ids=["A", "B", "s.1", "s.2", "s.3", "D8", "T2-140", "T2-300", "T2-600"])
def test_row_read_off_the_solve(monkeypatch, rates, u_max):
    """``survival_ultimate`` reads phi(0..reach) off the sequences it solved
    with: no recurrence runs after the dim + 1 sequences, the row is within
    an ulp of the same solve extended by recurrence, and it agrees with the
    oracle far past u*."""
    (lx, dx), (ly, dy) = rates
    m = ModelSpec(x=make_displaced_poisson(lx, dx), y=make_displaced_poisson(ly, dy))
    calls = _counting_forward(monkeypatch)
    r = survival_ultimate(m, u_max=u_max)
    assert len(calls) == len(_free_indices(r.case)) + 1
    assert set(calls) == {r.n_solve + 3}
    monkeypatch.undo()
    init = solve_initials(m, n_solve=r.n_solve)
    recurred = extend_ultimate(m, _recurrence_only(init), u_max=r.reach)
    assert _within_an_ulp(r.phi[: r.reach + 1], recurred)
    b = boundary_oracle(m, u_max=u_max, u_big=4000)
    assert np.max(np.abs(r.phi - b)) < 1e-12


def test_extend_recurs_without_the_solved_sequences(monkeypatch, ex1, ex3):
    """Plain dict initials, another model object and a u_max past an
    explicit n_solve's sequences all take the recurrence."""
    for m in (ex1, ex3):
        init = solve_initials(m, n_solve=20)  # sequences up to index 23
        calls = _counting_forward(monkeypatch)
        read = extend_ultimate(m, init, u_max=23)
        assert calls == []
        assert _within_an_ulp(read, extend_ultimate(m, _recurrence_only(init), u_max=23))
        assert len(calls) == 1
        past = extend_ultimate(m, init, u_max=24)
        assert len(calls) == 2
        assert np.array_equal(past, extend_ultimate(m, _recurrence_only(init), u_max=24))
        plain = extend_ultimate(m, dict(init.values), u_max=23)
        assert len(calls) == 4
        assert np.array_equal(plain[: len(init.values)], list(init.values.values()))
        twin = ModelSpec(x=m.x, y=m.y)
        assert np.array_equal(extend_ultimate(twin, init, u_max=23), past[:24])
        assert len(calls) == 5
        monkeypatch.undo()


def _parent_lundberg_tail(model):
    """``_lundberg_tail`` as it stood before its exponent grid was built
    once, verbatim with its ``_mgf``."""

    def _mgf(p, r, shift):
        k = np.arange(-shift, len(p.probs) + 1 - shift)
        return float(np.dot(np.append(p.probs, p.mass_defect), np.exp(r * k)))

    s, x = model.s, model.x
    if not s.probs[INCOME_PER_PAIR + 1 :].any():
        x_max = int(np.flatnonzero(x.probs)[-1])
        return math.inf, 1.0 if x_max <= PREMIUM_PER_PERIOD else math.inf, max(1, x_max - 1)
    try:
        z = model.balance_roots
    except NumericalError:
        # a subnormal first s atom has no float64 roots: no tail
        return 0.0, 1.0, math.inf
    z = z.real[(z.imag == 0) & (z.real > 0) & (z.real < 1)]
    r = -math.log(z.min()) if z.size else 0.0
    step = r * 2.0**-40
    while r > 0 and _mgf(s, r, INCOME_PER_PAIR) > 1:
        r, step = r - step, 2 * step
    if r <= 0:
        return 0.0, 1.0, math.inf
    c = max(1.0, 1 / _mgf(model.y, r, PREMIUM_PER_PERIOD))
    return r, c, math.ceil((math.log(c) + 53 * math.log(2)) / r)


def test_lundberg_tail_matches_parent_loop():
    rng = np.random.default_rng(1238)
    models = [random_model(rng, support_max=int(rng.integers(1, 9))) for _ in range(150)]
    models += [ModelSpec(x=make_displaced_poisson(rng.uniform(0.1, 2), int(rng.integers(0, 3)),
                                                  tail_tol=10.0 ** -rng.uniform(6, 15)),
                         y=make_displaced_poisson(rng.uniform(0.1, 2), int(rng.integers(0, 3)),
                                                  tail_tol=10.0 ** -rng.uniform(6, 15)))
               for _ in range(100)]
    lowered = 0
    for m in models:
        got = _lundberg_tail(m)
        assert got == _parent_lundberg_tail(m)
        lowered += 0 < got[0] < math.inf
    assert lowered >= 100


# x against y = pmf:0,eps,1 has the balance roots z = 1/2 and 1 as eps
# goes to 0, so R = ln 2; a tiny or subnormal eps puts a huge root next to
# them, and float64 root-finding loses them (ROADMAP D10 and direction 1).
# When the roots are found exactly, these tests pass and strict xfail
# turns that into a failure, so the marks come off with the fix.
_BADLY_SCALED_X = "pmf:0,0.6666666666666666,0,0.3333333333333334"


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="D10: np.roots loses z = 1/2")
def test_lundberg_tail_next_to_a_tiny_atom():
    m = ModelSpec(x=parse_pmf_spec(_BADLY_SCALED_X), y=parse_pmf_spec("pmf:0,1e-100,1"))
    assert _lundberg_tail(m)[0] == pytest.approx(math.log(2), rel=1e-9)


@pytest.mark.xfail(strict=True, raises=NumericalError, reason="np.roots overflows on a subnormal s atom")
def test_subnormal_first_s_atom_solves():
    m = ModelSpec(x=parse_pmf_spec(_BADLY_SCALED_X), y=parse_pmf_spec("pmf:0,2.225073858507e-311,1"))
    r = survival_ultimate(m, u_max=40)
    assert np.max(np.abs(r.phi - boundary_oracle(m, u_max=40))) < 1e-8


def _dense_boundary_system(model, n):
    """``boundary_oracle``'s system as a dense n x n matrix, columns by
    absolute index: row 0 is the constraint, row r = u + 1 the balance
    equation at u, with phi = 1 from column n on."""
    s, x, y = model.s, model.x, model.y
    y0, y1 = y.p(0), y.p(1)
    mat, rhs = np.zeros((n, n)), np.zeros(n)
    mat[0, :4] = [1.0, x.tail(2) * y0 + x.tail(1) * y1 + s.cdf(2), x.tail(1) * y0 + s.cdf(1),
                  s.cdf(0)]
    rhs[0] = net_profit_margin(model)
    r = np.arange(1, n)
    mat[r, r - 1] = -1.0
    for a, c in enumerate(s.probs):
        k = r + 3 - a  # the column s_a multiplies in row r
        inside = (k >= 1) & (k < n)
        mat[r[inside], k[inside]] += c
        rhs[r[k >= n]] -= c
    xs = np.concatenate([x.probs, np.zeros(n + 3)])
    mat[r, 1] -= xs[r + 2] * y0 + xs[r + 1] * y1
    mat[r, 2] -= xs[r + 1] * y0
    return mat, rhs


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(np.float64).eps,
                    reason="the refined dense reference needs an extended long double")
def test_boundary_oracle_band_solve_matches_dense():
    """The banded solve against ``np.linalg.solve`` on the dense system,
    on the bundled tables' models and 20 random ones. Plain LAPACK is off
    by up to about 1e-12 at u_big 1500 (cond(A) about 1e3), so the dense
    answer gets one refinement step on a long double residual first."""
    models = [ModelSpec(x=parse_pmf_spec(t.x_spec), y=parse_pmf_spec(t.y_spec)) for t in ALL_TABLES]
    models = [m for m in models if classify(m).kind != CaseKind.NO_NET_PROFIT]
    # s_3 = 0 puts zeros on the diagonal: the elimination has to pivot
    models.append(ModelSpec(x=from_probs([0.5, 0, 0.5]), y=from_probs([0.5, 0, 0.5])))
    rng = np.random.default_rng(400)
    models += [random_case_model(rng, kind, scen) for kind, scen in
               [("A", None), ("B", None), ("C", "s.1"), ("C", "s.2"), ("C", "s.3"),
                ("D", "v.1"), ("D", "v.2"), ("D", "v.3"), ("D", "v.4"), ("A", None)] * 2]
    assert len(models) >= 25
    for u_big in (400, 1500):
        for m in models:
            mat, rhs = _dense_boundary_system(m, u_big)
            ref = np.linalg.solve(mat, rhs)
            resid = rhs.astype(np.longdouble) - mat.astype(np.longdouble) @ ref.astype(np.longdouble)
            ref += np.linalg.solve(mat, resid.astype(np.float64))
            got = boundary_oracle(m, u_max=u_big - 1, u_big=u_big)
            assert np.max(np.abs(got - ref)) < 1e-13, (u_big, classify(m))


def test_band_lu_pivots():
    """A band matrix with a zero diagonal factors only with row swaps."""
    rng = np.random.default_rng(7)
    n, kl = 40, 3
    band = rng.uniform(-1, 1, (n, kl + 4))
    band[:, kl] = 0.0
    dense = np.zeros((n, n))
    for r in range(n):
        for j in range(kl + 4):
            c = r - kl + j
            if 0 <= c < n:
                dense[r, c] = band[r, j]
            else:
                band[r, j] = 0.0
    rhs = rng.uniform(-1, 1, n)
    got = ultimate._BandLU(band, kl).solve(rhs)
    assert np.max(np.abs(got - np.linalg.solve(dense, rhs))) < 1e-12 * np.linalg.cond(dense)


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
    assert math.isclose(r.margin, net_profit_margin(ex1))
    assert set(r.initials) == {0, 1, 2, 3}


def test_u_max_zero(ex3):
    r = survival_ultimate(ex3, u_max=0)
    assert len(r.phi) == 1
    assert r.phi[0] == pytest.approx(0.0485, abs=5e-4)
    with pytest.raises(InvalidModelError):
        survival_ultimate(ex3, u_max=-1)


@pytest.mark.parametrize("convert", [float, int, np.float64, Decimal, Fraction],
                         ids=["float", "int", "float64", "Decimal", "Fraction"])
def test_fixed_takes_every_exact_real(ex1, convert):
    # initials of equal value give the same row whatever their type: 0 and
    # 1 for int, dyadic values in between for the others
    values = [0, 1, 1, 1] if convert is int else [0.5, 0.625, 0.75, 0.875]
    want = extend_ultimate(ex1, dict(enumerate(map(float, values))), u_max=30)
    got = extend_ultimate(ex1, {k: convert(v) for k, v in enumerate(values)}, u_max=30)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("kind", ["none", "mpf"])
def test_fixed_refuses_other_values(ex1, kind):
    # an mpf is refused like any value Fraction cannot take exactly
    value = pytest.importorskip("mpmath").mpf(0.875) if kind == "mpf" else None
    with pytest.raises(InvalidModelError):
        extend_ultimate(ex1, {0: 0.5, 1: 0.625, 2: 0.75, 3: value}, u_max=30)
