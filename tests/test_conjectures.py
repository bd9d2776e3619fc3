"""Unit tests for the determinant traces and chain probes."""

import numpy as np
import pytest
from mpmath import mp

from ruinwalk import InvalidModelError, build_sequences, classify, solve_initials
from ruinwalk.conjectures import (
    _suspicious,
    coefficient_chain,
    determinant_trace,
    difference_matrix,
)
from ruinwalk.ultimate import _det
from conftest import random_case_model


def test_matrix_rows_at_zero(ex1):
    # rows follow from the head of the sequence table: c(i) - c(0)
    seqs = build_sequences(ex1, n_max=8)
    rows = difference_matrix(seqs, 0)
    assert [float(v) for v in rows[0]] == [-1.0, 1.0, 0.0]
    assert [float(v) for v in rows[1]] == [-1.0, 0.0, 1.0]


def test_trace_matches_dense_determinant_oracle(ex1, ex2):
    # independent route: evaluate the same matrices in float64 with numpy
    for model, which in ((ex1, 1), (ex2, 2)):
        trace = determinant_trace(model, which=which, n_max=10)
        seqs = build_sequences(model, classify(model), n_max=13)
        for n in range(11):
            mat = np.array(
                [[float(v) for v in row] for row in difference_matrix(seqs, n)]
            )
            want = np.linalg.det(mat)
            assert trace.values[n] == pytest.approx(want, rel=1e-6), f"n={n}"


def test_trace_sees_the_solve_matrix(ex1, ex2):
    # one M_n, same rows, order and sign: the trace's D_n is the solve's
    # determinant up to the solve's own rounding
    for model, which in ((ex1, 1), (ex2, 2)):
        trace = determinant_trace(model, which=which, n_max=60)
        for n in (8, 21, 40, 60):
            det = solve_initials(model, n_solve=n).determinant
            with mp.workprec(2 * trace.precision_bits):
                assert abs(trace.values[n] - det) <= mp.ldexp(abs(det), -200), (which, n)


def test_suspicious_flags_cancellation():
    bits, big = 256, 1 << 300
    assert _suspicious(0, [[3, 6], [1, 2]], bits)
    # a det of 1 from entries near 2^300: far below 2 * 301 - (bits - 48)
    rows = [[big, big - 1], [big + 1, big]]
    assert _det(rows) == 1 and _suspicious(1, rows, bits)
    rows = [[big, 1, 2], [3, big, 5], [7, 11, big]]
    assert not _suspicious(_det(rows), rows, bits)
    # the threshold itself: det of bit length 2 * 301 - 208 = 394 passes
    for low, flagged in ((92, True), (93, False)):
        rows = [[big, 0], [0, 1 << low]]
        assert _suspicious(_det(rows), rows, bits) is flagged


def test_trace_requires_matching_case(ex1, ex2, ex3):
    with pytest.raises(InvalidModelError):
        determinant_trace(ex1, which=2, n_max=10)
    with pytest.raises(InvalidModelError):
        determinant_trace(ex2, which=1, n_max=10)
    with pytest.raises(InvalidModelError):
        determinant_trace(ex3, which=1, n_max=10)
    with pytest.raises(InvalidModelError):
        determinant_trace(ex1, which=3, n_max=10)


def test_trace_magnitudes_behave(ex1, ex2):
    t1 = determinant_trace(ex1, which=1, n_max=40)
    assert not t1.zero_indices
    assert t1.min_abs >= 1.0
    assert t1.abs_monotone
    t2 = determinant_trace(ex2, which=2, n_max=40)
    assert not t2.zero_indices
    assert t2.min_abs >= 1.0
    assert t2.abs_monotone


def test_trace_records_sign_convention_without_failing(ex1):
    # the 3x3 chain's printed signs do not match the computed row order:
    # the trace must report that as violations, not raise or mask it
    trace = determinant_trace(ex1, which=1, n_max=20)
    assert trace.values[0] < 0  # sign recorded as found
    assert trace.violations  # breaches listed
    assert all(isinstance(n, int) and isinstance(msg, str) for n, msg in trace.violations)


def test_trace_2_chain_holds(ex2):
    trace = determinant_trace(ex2, which=2, n_max=40)
    assert trace.violations == []
    assert trace.values[0] >= 1.0
    assert np.all(np.diff(trace.values) >= 0)


def test_chain_case_c_scenarios(ex3):
    report = coefficient_chain(ex3, n_max=60)
    assert report.scenario == "s.1"
    assert report.violations == []

    rng = np.random.default_rng(904)
    for scen in ("s.2", "s.3"):
        m = random_case_model(rng, "C", scen)
        rep = coefficient_chain(m, n_max=60)
        assert rep.scenario == scen
        assert rep.violations == [], scen


def test_chain_interlacing_values():
    # scenario s.3 chain: odd entries climb from 1, even entries fall from -1
    rng = np.random.default_rng(31)
    m = random_case_model(rng, "C", "s.3")
    seqs = build_sequences(m, n_max=21)
    c = seqs.coeff_phi1
    with mp.workprec(seqs.precision_bits):
        assert c[1] == 1
        for n in range(1, 18, 2):
            assert 1 <= c[n] <= c[n + 2]
        for n in range(2, 18, 2):
            assert c[n] <= -1 and c[n] >= c[n + 2]


def test_chain_requires_case_c(ex1):
    with pytest.raises(InvalidModelError):
        coefficient_chain(ex1, n_max=20)
