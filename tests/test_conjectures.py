"""Unit tests for the determinant traces and chain probes."""

from fractions import Fraction
from itertools import combinations, permutations

import numpy as np
import pytest

from ruinwalk import InvalidModelError, classify, conjectures, solve_initials
from ruinwalk.cli import main
from ruinwalk.conjectures import (
    _nstr,
    _suspicious,
    coefficient_chain,
    determinant_trace,
)
from ruinwalk.ultimate import N_SOLVE_CAP, _Atoms, _det, _difference_rows, _sequences
from conftest import random_case_model


def _exact_sequences(model, n_max):
    """The integer sequences both probes read, as exact rationals: the
    free coefficients first, the margin's last."""
    seqs, bits = _sequences(model, classify(model), _Atoms(model), n_max)
    return [[Fraction(v, 1 << bits) for v in seq] for seq in seqs]


def test_matrix_rows_at_zero(ex1):
    # rows follow from the head of the sequence table: c(i) - c(0)
    rows = _difference_rows(_exact_sequences(ex1, 8)[:-1], 0, 3)
    assert rows[0] == [-1, 1, 0]
    assert rows[1] == [-1, 0, 1]


def _leibniz_det(mat):
    """det by the sum over permutations, in exact rationals: shares no code
    with the cofactor expansion of ``_det``."""
    total = Fraction(0)
    for perm in permutations(range(len(mat))):
        term = Fraction((-1) ** sum(a > b for a, b in combinations(perm, 2)))
        for i, j in enumerate(perm):
            term *= mat[i][j]
        total += term
    return total


def test_trace_matches_dense_determinant_oracle(ex1, ex2):
    # independent route: the same matrices, determinant by the permutation
    # expansion in exact rationals
    for model, which in ((ex1, 1), (ex2, 2)):
        trace = determinant_trace(model, which=which, n_max=10)
        cols = _exact_sequences(model, 13)[:-1]
        for n in range(11):
            want = _leibniz_det(_difference_rows(cols, n, len(cols)))
            assert Fraction(trace.numerators[n], 1 << trace.scale) == want, f"n={n}"


def test_trace_sees_the_solve_matrix(ex1, ex2):
    # one M_n, same rows, order and sign: the trace's D_n is the solve's
    # determinant up to the solve's own rounding
    for model, which in ((ex1, 1), (ex2, 2)):
        trace = determinant_trace(model, which=which, n_max=60)
        for n in (8, 21, 40, 60):
            det = solve_initials(model, n_solve=n).determinant
            got = Fraction(trace.numerators[n], 1 << trace.scale)
            assert abs(got - det) <= abs(det) / (1 << 200), (which, n)


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
    assert trace.numerators[0] < 0  # sign recorded as found
    assert trace.violations  # breaches listed
    assert all(isinstance(n, int) and isinstance(msg, str) for n, msg in trace.violations)


def test_trace_2_chain_holds(ex2):
    trace = determinant_trace(ex2, which=2, n_max=40)
    assert trace.violations == []
    assert trace.numerators[0] >= 1 << trace.scale
    assert all(a <= b for a, b in zip(trace.numerators, trace.numerators[1:]))


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
    c = _exact_sequences(m, 21)[0]  # the phi(1) coefficient, s.3's one free value
    assert c[1] == 1
    for n in range(1, 18, 2):
        assert 1 <= c[n] <= c[n + 2]
    for n in range(2, 18, 2):
        assert c[n] <= -1 and c[n] >= c[n + 2]


def test_planted_zero_is_reported_not_certified(monkeypatch, capsys, ex2):
    """A zero D_k is listed at k, breaks the chain into it, and leaves the
    trace uncertified as a whole, in the library and in the CLI."""
    rows = conjectures._difference_rows

    def planted(cols, n, dim):
        return [[0] * dim for _ in range(dim)] if n == 7 else rows(cols, n, dim)

    monkeypatch.setattr(conjectures, "_difference_rows", planted)
    trace = determinant_trace(ex2, which=2, n_max=12)
    assert trace.zero_indices == [7] and trace.numerators[7] == 0
    uncertified = f"some determinants could not be certified nonzero at {trace.precision_bits} bits"
    assert trace.violations == [(7, "det M_7 = 0"), (7, "expected det M_6 <= det M_7"),
                                (-1, uncertified)]
    assert main(["conjecture", "--x", "dpois:1,1", "--y", "dpois:1.9,0",
                 "--which", "2", "--n-max", "12"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "zero_count: 1" in lines
    assert lines[-3:] == ["violation n=7: det M_7 = 0", "violation n=7: expected det M_6 <= det M_7",
                          f"violation global: {uncertified}"]


def _plant_chain(monkeypatch, edit):
    """Edit the free coefficient sequence ``coefficient_chain`` reads."""
    sequences = conjectures._sequences

    def planted(*args):
        seqs, bits = sequences(*args)
        edit(seqs[0], 1 << bits)
        return seqs, bits

    monkeypatch.setattr(conjectures, "_sequences", planted)


def test_planted_chain_breaks_are_reported(monkeypatch, ex3):
    def flat(c, one):
        c[6] = c[5]

    _plant_chain(monkeypatch, flat)
    assert coefficient_chain(ex3, n_max=20).violations == [(5, "coefficient difference at n=5 vanished")]
    s3 = random_case_model(np.random.default_rng(31), "C", "s.3")

    def off_one(c, one):
        c[1] = one + 1

    def odd_drop(c, one):
        c[7] = c[5] - 1

    def even_rise(c, one):
        c[6] = c[4] + 1

    for edit, want in ((off_one, (1, "odd chain does not start at 1")),
                       (odd_drop, (5, "odd chain breaks between n=5 and n=7")),
                       (even_rise, (4, "even chain breaks between n=4 and n=6"))):
        monkeypatch.undo()
        _plant_chain(monkeypatch, edit)
        assert coefficient_chain(s3, n_max=20).violations == [want], edit.__name__


def test_chain_requires_case_c(ex1):
    with pytest.raises(InvalidModelError):
        coefficient_chain(ex1, n_max=20)


def test_probes_stop_at_the_solve_cap(ex1, ex3):
    # no solve inverts an M_n past N_SOLVE_CAP, so a larger n_max is
    # refused before any sequence is built
    with pytest.raises(InvalidModelError):
        determinant_trace(ex1, which=1, n_max=N_SOLVE_CAP + 1)
    with pytest.raises(InvalidModelError):
        coefficient_chain(ex3, n_max=N_SOLVE_CAP + 1)


# (num, scale, text): the text mpmath 1.3.0's nstr(x, 8) printed for
# x = num / 2^scale rounded once to 64 bits, which the chain-start
# violations showed before they were built from integers
NSTR_PINS = [
    (15283210222470690338298, 90, "1.2345679e-5"),  # k = -5
    (-15283210222470690338298, 90, "-1.2345679e-5"),
    (152832102224706903382983, 90, "0.00012345679"),  # k = -4
    (-1222656829050530184167972, 90, "-0.00098765432"),
    (12945382598246, 20, "12345679.0"),  # k = 7
    (123456789, 0, "1.2345679e+8"),  # k = 8
    (-123456785, 0, "-1.2345679e+8"),  # half up at the ninth digit
    (199999999, 1, "1.0e+8"),  # 99999999.5 carries to 10^8
    ((199999999 << 37) - 1, 38, "1.0e+8"),  # a 64-bit tie, to even: 99999999.5
    ((199999999 << 37) - 3, 38, "99999999.0"),  # the next tie, to even: below it
    (1, 1, "0.5"),
    (1, 0, "1.0"),
    (1024, 0, "1024.0"),
    (-3, 2, "-0.75"),
    (7**5100, 10, "9.7657166e+4306"),  # past 10^4300
    (-(7**5100) - 1, 10, "-9.7657166e+4306"),
    (3, 20000, "7.5371642e-6021"),
]


@pytest.mark.parametrize("num, scale, text", NSTR_PINS,
                         ids=[f"{i}:{text}" for i, (_, _, text) in enumerate(NSTR_PINS)])
def test_chain_start_text_pins(num, scale, text):
    assert _nstr(num, scale) == text
