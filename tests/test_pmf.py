"""Unit tests for PMF construction, convolution, and spec parsing."""

import math
import time

import numpy as np
import pytest

from ruinwalk import (
    InvalidModelError,
    convolve,
    from_probs,
    make_displaced_poisson,
    parse_pmf_spec,
    point_mass,
)
from ruinwalk.cli import main


def test_from_probs_basic():
    p = from_probs([0.25, 0.5, 0.25])
    assert p.support_max == 2
    assert p.p(1) == 0.5
    assert p.p(7) == 0.0
    assert p.p(-1) == 0.0
    assert p.mass_defect == 0.0
    assert math.isclose(p.mean_retained, 1.0, abs_tol=1e-15)


def test_from_probs_rejects_bad_sum():
    with pytest.raises(InvalidModelError):
        from_probs([0.5, 0.6])
    with pytest.raises(InvalidModelError):
        from_probs([0.5, 0.4])  # sums to 0.9


def test_from_probs_sum_tolerance():
    # any sum within EXPLICIT_SUM_TOL = 1e-9 is accepted; an excess is scaled away
    for eps in (1e-10, -1e-10):
        p = from_probs([0.5, 0.5 + eps])
        assert abs(math.fsum(p.probs) + p.mass_defect - 1.0) <= 1e-15
        assert p.mass_defect == pytest.approx(max(0.0, -eps), abs=1e-15)
    for eps in (2e-9, -2e-9):
        with pytest.raises(InvalidModelError):
            from_probs([0.5, 0.5 + eps])
    # lists a Pmf already accepts keep their atoms bit for bit
    for atoms in ([0.1] * 10, [1 / 3] * 3, [0.25, 0.5, 0.25], [0.5, 0.4999999999]):
        assert from_probs(atoms).probs.tolist() == atoms


def test_from_probs_rounding_shortfall_is_no_defect():
    # weights normalized in float64 can sum to 1 - 2^-53: no mass is lost
    ws = [0.0, 0.06546478369390864, 0.3333333333333333, 0.06546478369390864]
    atoms = [w / math.fsum(ws) for w in ws]
    assert math.fsum(atoms) == 1.0 - 2.0**-53
    p = from_probs(atoms)
    assert p.mass_defect == 0.0 and p.tail_mean_bound == 0.0
    assert p.probs.tolist() == atoms
    assert from_probs([0.5, 0.5 - 2.0**-52]).mass_defect == 0.0  # n 2^-53 for n = 2
    # a shortfall past n 2^-53 is lost mass, booked as before
    for atoms in ([0.5, 0.4999999999], [0.5, 0.5 - 2.0**-51]):
        p = from_probs(atoms)
        assert p.mass_defect == 1.0 - math.fsum(atoms) > 0
        assert p.probs.tolist() == atoms


def test_from_probs_rejects_negative_and_empty():
    with pytest.raises(InvalidModelError):
        from_probs([1.1, -0.1])
    with pytest.raises(InvalidModelError):
        from_probs([])


def test_cdf_and_tail_cap():
    p = from_probs([0.2, 0.3, 0.5])
    assert p.cdf(-1) == 0.0
    assert math.isclose(p.cdf(0), 0.2)
    assert math.isclose(p.cdf(1), 0.5)
    assert p.cdf(100) == 1.0
    assert math.isclose(p.tail(0), 0.8)
    assert p.tail(100) == 0.0
    assert p.tail(-1) == 1.0


def test_point_mass():
    p = point_mass(3)
    assert p.probs.tolist() == [0.0, 0.0, 0.0, 1.0]
    assert p.mean_retained == 3.0
    assert p.mass_defect == 0.0


def test_displaced_poisson_moments():
    lam, shift = 1.7, 2
    p = make_displaced_poisson(lam, shift, tail_tol=1e-14)
    assert p.mass_defect <= 1e-14
    # retained mean plus the tail bound recovers the exact mean
    assert math.isclose(p.mean_retained + p.tail_mean_bound, lam + shift, rel_tol=1e-12)
    assert p.p(shift) == pytest.approx(math.exp(-lam))
    assert p.p(shift - 1) == 0.0


def _poisson_by_forward_terms(lam, tail_tol):
    """The terms e^-lam lam^j / j! by the forward ratio from j = 0, up to
    the first j whose cumulative sum leaves at most tail_tol: a reference
    for rates whose e^-lam does not underflow."""
    terms = [math.exp(-lam)]
    while 1.0 - math.fsum(terms) > tail_tol:
        terms.append(terms[-1] * lam / len(terms))
    return np.array(terms)


def test_displaced_poisson_bundled_rates_keep_their_atoms():
    from ruinwalk.reference_tables import ALL_TABLES

    for table in ALL_TABLES:
        for lam in (table.x_lam, table.y_lam):
            want = _poisson_by_forward_terms(lam, 1e-12)
            got = make_displaced_poisson(lam, 0).probs
            assert len(got) == len(want), (table.name, lam)
            # both routes round each term a few times: a few ulps apart
            assert np.allclose(got, want, rtol=16 * np.finfo(float).eps, atol=0), (table.name, lam)


@pytest.mark.parametrize("lam", [500.0, 800.0, 5000.0])
def test_displaced_poisson_large_rate(lam):
    # e^-lam underflows from lam ~ 745; the construction used to wait for
    # its terms to reach the tail tolerance and never returned
    start = time.perf_counter()
    p = make_displaced_poisson(lam, 3)
    assert time.perf_counter() - start < 2.0
    assert 0.0 <= p.mass_defect <= 1e-12
    assert math.fsum(p.probs) + p.mass_defect == pytest.approx(1.0, abs=1e-14)
    assert np.all(p.probs[:3] == 0.0) and p.probs[3 + math.floor(lam)] == p.probs.max()
    assert math.isclose(p.mean_retained + p.tail_mean_bound, lam + 3, rel_tol=1e-12)


def test_displaced_poisson_validation():
    with pytest.raises(InvalidModelError):
        make_displaced_poisson(0.0, 0)
    with pytest.raises(InvalidModelError):
        make_displaced_poisson(1.0, -1)
    with pytest.raises(InvalidModelError):
        make_displaced_poisson(1.0, 0, tail_tol=0.5)


def test_convolve_exact_small():
    a = from_probs([0.5, 0.5])
    c = convolve(a, a)
    assert np.allclose(c.probs, [0.25, 0.5, 0.25], atol=1e-15)
    assert c.mass_defect == 0.0


def test_convolve_mean_additive():
    a = make_displaced_poisson(1.0, 0)
    b = make_displaced_poisson(2.0, 1)
    c = convolve(a, b)
    exact = (a.mean_retained + a.tail_mean_bound) + (b.mean_retained + b.tail_mean_bound)
    assert c.mean_retained <= exact + 1e-12
    assert c.mean_retained + c.tail_mean_bound >= exact - 1e-12


def test_convolve_defect_bookkeeping():
    a = make_displaced_poisson(3.0, 0, tail_tol=1e-6)
    b = make_displaced_poisson(2.0, 0, tail_tol=1e-6)
    c = convolve(a, b)
    # truncated mass can only grow under convolution, and stays bounded
    assert c.mass_defect >= max(a.mass_defect, b.mass_defect) - 1e-15
    assert c.mass_defect <= a.mass_defect + b.mass_defect + 1e-15


def test_parse_dpois():
    p = parse_pmf_spec("dpois:1,0")
    q = make_displaced_poisson(1.0, 0)
    assert np.array_equal(p.probs, q.probs)


def test_parse_pmf_list():
    p = parse_pmf_spec("pmf:0.25,0.5,0.25")
    assert p.probs.tolist() == [0.25, 0.5, 0.25]


def test_parse_pmf_bad_sum():
    with pytest.raises(InvalidModelError):
        parse_pmf_spec("pmf:0.5,0.6")


def test_parse_malformed():
    with pytest.raises(InvalidModelError):
        parse_pmf_spec("dpois:abc,0")
    with pytest.raises(InvalidModelError):
        parse_pmf_spec("nonsense:1,2")
    with pytest.raises(InvalidModelError):
        parse_pmf_spec("dpois:1")


def test_parse_file(tmp_path):
    f = tmp_path / "claims.txt"
    f.write_text("0.25\n0.5\n0.25\n\n")
    p = parse_pmf_spec(f"@{f}")
    assert p.probs.tolist() == [0.25, 0.5, 0.25]


def test_parse_file_rejects_interior_blank_line(tmp_path, capsys):
    # line k is atom k, so a blank line would shift every later atom
    f = tmp_path / "claims.txt"
    f.write_text("0.25\n\n0.5\n0.25\n")
    with pytest.raises(InvalidModelError, match="blank line 2"):
        parse_pmf_spec(f"@{f}")
    assert main(["classify", "--x", f"@{f}", "--y", "dpois:1,0"]) == 2
    assert "blank line" in capsys.readouterr().err
