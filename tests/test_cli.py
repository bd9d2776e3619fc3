"""CLI behavior: rendering, exit codes, determinism."""

import functools
import io
import math
import subprocess
import sys
import time
from contextlib import redirect_stdout
from dataclasses import replace
from unittest import mock

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import example, given, settings

from ruinwalk import ModelSpec, from_probs, survival_ultimate
from ruinwalk import cli
from ruinwalk.cli import _fmt_det, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_usage_errors(capsys):
    assert main([]) == 1
    assert main(["finite", "--x", "dpois:1,0"]) == 1  # missing --y/--u/--t
    assert main(["finite", "--bogus"]) == 1
    # the working precision and the solve index are derived, not flags
    model = ["--x", "dpois:1,0", "--y", "dpois:2,0"]
    assert main(["ultimate", *model, "--u-max", "2", "--precision-bits", "512"]) == 1
    assert main(["ultimate", *model, "--u-max", "2", "--n-solve", "200"]) == 1
    # each subcommand takes only the flags it reads
    assert main(["classify", *model, "--format", "csv"]) == 1
    assert main(["verify-paper", "--tail-tol", "1e-6"]) == 1
    assert main(["simulate", *model, "--u", "1", "--t", "5", "--raw"]) == 1
    assert main(["conjecture", *model, "--which", "1", "--digits", "4"]) == 1
    capsys.readouterr()


def test_validation_errors(capsys):
    code, _, err = run(capsys, "classify", "--x", "pmf:0.5,0.6", "--y", "dpois:1,0")
    assert code == 2 and "error" in err
    code, _, _ = run(capsys, "finite", "--x", "dpois:1,0", "--y", "dpois:2,0",
                     "--u", "5..2", "--t", "1")
    assert code == 2
    code, _, _ = run(capsys, "ultimate", "--x", "dpois:1,0", "--y", "dpois:2,0",
                     "--u-max", "-1")
    assert code == 2
    # --digits -1 rounded every cell to 0; 28 and more overflow the
    # 28-digit decimal context when rounding 1.0
    for digits, span in (("-1", "0..5"), ("28", "5"), ("30", "0..5")):
        code, out, err = run(capsys, "finite", "--x", "pmf:0.5,0.5", "--y", "pmf:0.5,0.5",
                             "--u", span, "--t", "1", "--digits", digits)
        assert code == 2 and out == "" and err.startswith("error: "), digits


def test_numerical_error_exit(capsys):
    # retained mean sits just under 4 with the truncation bound reaching it:
    # the classifier refuses to guess, which surfaces as a numerical failure
    code, _, err = run(capsys, "ultimate", "--x", "dpois:4,0", "--y", "pmf:1",
                       "--u-max", "2")
    assert code == 3
    assert "numerical" in err
    # margin 0.02: the Lundberg bound reaches 2^-53 only near u = 3670, so
    # the row would need a solve index past N_SOLVE_CAP
    code, _, err = run(capsys, "ultimate", "--x", "dpois:1.99,0", "--y", "dpois:1.99,0",
                       "--u-max", "2100")
    assert code == 3
    assert "solve index" in err
    # a subnormal first s atom: np.roots would overflow on it
    for argv in (("ultimate", "--x", "pmf:0,0.6666666666666666,0,0.3333333333333334",
                  "--y", "pmf:0,2.225073858507e-311,1", "--u-max", "5"),
                 ("conjecture", "--x", "pmf:0.5,0.5", "--y", "pmf:2.225073858507e-311,0.5,0.5",
                  "--which", "1", "--n-max", "5")):
        code, _, err = run(capsys, *argv)
        assert code == 3 and "numerical" in err, argv


def test_finite_csv_golden(capsys):
    code, out, _ = run(capsys, "finite", "--x", "dpois:1,0", "--y", "dpois:2,0",
                       "--u", "0..2", "--t", "1..2", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "T\\u,0,1,2"
    assert lines[1] == "1,0.736,0.92,0.981"
    assert lines[2] == "2,0.564,0.788,0.909"
    assert lines[3].startswith("# error_bound:")


def test_finite_tsv_and_digits(capsys):
    code, out, _ = run(capsys, "finite", "--x", "dpois:1,0", "--y", "dpois:2,0",
                       "--u", "0", "--t", "1", "--format", "tsv", "--digits", "1")
    assert code == 0
    assert out.splitlines()[1] == "1\t0.7"


def test_back_to_back_calls_carry_no_state(capsys):
    # one parser serves every call; options of one call must not leak
    args = ("finite", "--x", "dpois:1,0", "--y", "dpois:2,0",
            "--u", "0", "--t", "1", "--format", "csv")
    code, out, _ = run(capsys, *args, "--digits", "5")
    assert code == 0 and out.splitlines()[1] == "1,0.73576"
    code, out, _ = run(capsys, *args)
    assert code == 0 and out.splitlines()[1] == "1,0.736"
    code, _, err = run(capsys, "finite", "--x", "dpois:1,0")
    assert code == 1 and "usage error" in err


def test_raw_roundtrip(capsys):
    from ruinwalk import ModelSpec, make_displaced_poisson, survival_finite

    code, out, _ = run(capsys, "finite", "--x", "dpois:1,0", "--y", "dpois:2,0",
                       "--u", "0..3", "--t", "2", "--format", "csv", "--raw")
    assert code == 0
    cells = out.splitlines()[1].split(",")[1:]
    m = ModelSpec(x=make_displaced_poisson(1.0, 0), y=make_displaced_poisson(2.0, 0))
    g = survival_finite(m, u_max=3, t_max=2)
    for u, cell in enumerate(cells):
        assert float(cell) == g.value(u, 2)


@pytest.mark.parametrize("fmt, sep", [("csv", ","), ("tsv", "\t")])
def test_finite_raw_cells_are_repr(capsys, fmt, sep):
    # rows stream from the grid's stored rows; every cell is repr of its value
    from ruinwalk import ModelSpec, make_displaced_poisson, survival_finite

    code, out, _ = run(capsys, "finite", "--x", "dpois:1,0", "--y", "dpois:2,0",
                       "--u", "3..9", "--t", "4..40", "--format", fmt, "--raw")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == sep.join(["T\\u"] + [str(u) for u in range(3, 10)])
    m = ModelSpec(x=make_displaced_poisson(1.0, 0), y=make_displaced_poisson(2.0, 0))
    g = survival_finite(m, u_max=9, t_max=40)
    want = [sep.join([str(t)] + [repr(float(g.values[u, t - 1])) for u in range(3, 10)])
            for t in range(4, 41)]
    assert lines[1:-1] == want
    assert lines[-1].startswith("# error_bound:")

    # a lossless grid at its fixed point repeats its rows: horizons past it
    # are index entries, and each stored row is formatted once, raw or
    # rounded. Every span prints the cells of the full grid's columns,
    # wherever it starts: at 1, inside the parity fill or past t_cap, and
    # with u_lo > 0. The second model's parities settle on different
    # float64 fixed points.
    from ruinwalk import parse_pmf_spec
    from ruinwalk.cli import _fmt_prob

    models = [("pmf:0.5,0,0.5", "pmf:0.25,0.5,0.25"),
              ("pmf:0.26953125,0.3232421875,0.2109375,0.1962890625",
               "pmf:0.08203125,0.451171875,0.1767578125,0.2900390625")]
    for x, y in models:
        m = ModelSpec(x=parse_pmf_spec(x), y=parse_pmf_spec(y))
        g = survival_finite(m, u_max=9, t_max=400)
        assert len({g.values[:, t].tobytes() for t in range(400)}) < 400
        assert len(g.rows) < 400 and g.values.flags.c_contiguous
        index = g.index.tolist()
        # the parity fill: horizons that reuse the row of horizon T - 2,
        # up to t_cap; the shrinking windows past it are computed again
        fill = [t for t in range(3, 401) if index[t - 1] == index[t - 3]]
        assert fill and fill[-1] < 400
        spans = [(0, 1), (4, 1), (0, fill[len(fill) // 2]), (0, fill[-1] + 1)]
        for u_lo, t_lo in spans:
            for flags, fmt_cell in ((["--raw"], repr), (["--digits", "6"], lambda v: _fmt_prob(v, 6))):
                code, out, _ = run(capsys, "finite", "--x", x, "--y", y, "--u", f"{u_lo}..9",
                                   "--t", f"{t_lo}..400", "--format", fmt, *flags)
                assert code == 0
                want = [sep.join([str(t)] + [fmt_cell(float(g.values[u, t - 1]))
                                             for u in range(u_lo, 10)])
                        for t in range(t_lo, 401)]
                assert out.splitlines()[1:-1] == want, (x, u_lo, t_lo, flags)


# Peak RSS of a fresh process that imports the CLI, then runs argv if any:
# VmHWM, the high-water mark of the process's own memory since exec. Its
# ru_maxrss would also count the memory of the process that spawned it.
_RSS_CHILD = """
import sys
import ruinwalk.cli
if len(sys.argv) > 1 and ruinwalk.cli.main(sys.argv[1:]):
    sys.exit("nonzero exit")
with open("/proc/self/status") as status:
    sys.stderr.write(next(line.split()[1] for line in status if line.startswith("VmHWM:")))
"""


def _peak_rss_kib(*argv):
    child = subprocess.run([sys.executable, "-c", _RSS_CHILD, *argv], stdout=subprocess.DEVNULL,
                           stderr=subprocess.PIPE, text=True, check=True, timeout=120)
    return int(child.stderr)


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
def test_long_lossless_grid_streams_in_flat_memory():
    # the grid past its fixed point is index entries, not copies of its
    # rows, so 4 * 10^5 horizons cost a few MB over the import, not the
    # 100 MB of a full (u_max + 1) x t_max array
    argv = ("finite", "--x", "pmf:0.5,0,0.5", "--y", "pmf:0.25,0.5,0.25",
            "--u", "0..30", "--t", "1..400000", "--raw", "--format", "csv")
    base = _peak_rss_kib()
    assert 10 * 1024 < base and _peak_rss_kib(*argv) - base < 20 * 1024


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
def test_raw_grid_renders_in_bounded_blocks():
    # a dpois grid never repeats a row, so all 20000 stored rows print
    # once each; rendering them a block of cells at a time keeps the peak
    # to the grid's own 5 MB and a few blocks over the import
    argv = ("finite", "--x", "dpois:1,0", "--y", "dpois:2,0",
            "--u", "0..30", "--t", "1..20000", "--raw", "--format", "csv")
    assert _peak_rss_kib(*argv) - _peak_rss_kib() < 12 * 1024


def _repr_cells(values: np.ndarray, ends: np.ndarray) -> bytes:
    return b"".join(repr(v).encode() + bytes([e]) for v, e in zip(values.tolist(), ends.tolist()))


# float64 bit patterns: any pattern at all, the edges repr changes form
# at and their neighbours, and values in the range _raw_cells lays out
_SPECIAL_BITS = [int(b) for b in np.array(
    [0.0, -0.0, np.inf, -np.inf, 5e-324, 2.2250738585072014e-308, 1e-4, 10.0, 1.0, 0.5,
     2.7755575615628914e-17, -2.7755575615628914e-17, 1e16, 1e300]).view(np.uint64)]
_SPECIAL_BITS += [0x7FF8000000000000, 0x7FF8000000000001, 0xFFF0000000000001, 0x7FF0000000000001]
_float_bits = st.one_of(
    st.integers(0, 2**64 - 1),
    st.sampled_from(_SPECIAL_BITS).flatmap(lambda b: st.integers(max(0, b - 2), min(2**64 - 1, b + 2))),
    st.integers(int(np.float64(1e-4).view(np.uint64)), int(np.float64(10.0).view(np.uint64))),
    st.floats(0, 1).map(lambda v: int(np.float64(v).view(np.uint64))),
)


@given(st.lists(_float_bits, min_size=1, max_size=60), st.integers(1, 9), st.integers(1, 70))
@example([0x7FF8000000000001, 0x8000000000000000, 1, 0x3FF0000000000000], 2, 3)
@settings(max_examples=300, deadline=None)
def test_raw_cells_are_repr(bits, cols, block):
    """_raw_cells writes repr(v) + chr(end) for each cell, and _raw_rows
    joins them into rows, whatever the bits: NaN payloads, infinities,
    signed zeros and subnormals fall back to repr one cell at a time.
    A small block size cuts rows across blocks."""
    values = np.array(bits, dtype=np.uint64).view(np.float64)
    ends = np.arange(len(values), dtype=np.uint8) % 3 + 44
    assert cli._raw_cells(values, ends) == _repr_cells(values, ends)
    rows = values[: len(values) // cols * cols].reshape(-1, cols)
    with mock.patch.object(cli, "_RAW_BLOCK", block):
        assert cli._raw_rows(rows, "\t") == ["\t".join(map(repr, r)) for r in rows.tolist()]


def test_raw_cells_match_repr_on_a_sweep():
    # 3 * 10^6 doubles where a shortest-digits formatter goes wrong:
    # random bits in and around [1e-4, 10), values near 1, powers of two
    # (whose rounding interval is lopsided) and of ten with their
    # neighbours, both range edges, dyadic values with exact 17-digit
    # ties, and short decimals, whose digits stop well before 17
    rng = np.random.default_rng(20261020)
    lo, hi = (int(np.float64(v).view(np.int64)) for v in (1e-4, 10.0))
    offsets = np.arange(-40, 41)
    p2, p10 = 2.0 ** np.arange(-15, 5), 10.0 ** np.arange(-5, 2)
    steps = np.spacing(1.0) * offsets / 4
    r = rng.random(40_000)
    parts = [
        rng.integers(lo, hi, 400_000).view(np.float64),
        rng.integers(lo - 2**52, hi + 2**52, 100_000).view(np.float64),
        rng.random(100_000),
        1.0 + steps, np.nextafter(1.0, 0) + steps,
        (p2.view(np.int64)[:, None] + offsets).ravel().view(np.float64),
        (p10.view(np.int64)[:, None] + offsets).ravel().view(np.float64),
        (np.array([1e-4, 10.0]).view(np.int64)[:, None] + np.arange(-2000, 2000)).ravel().view(np.float64),
        *(rng.integers(1, 2**20, 2_000) / 2.0**j for j in range(1, 60)),
        *(np.round(r * 10.0**-e, d) for e in range(5) for d in range(1, 13)),
    ]
    values = np.concatenate(parts)
    assert values.size > 10**6
    # in range only a log10 rounded across a power of ten falls back to
    # repr: random bits and short decimals take the array path
    for part in (parts[0], parts[-1]):
        assert not cli._shortest(part[(part >= 1e-4) & (part < 10)])[2].any()
    # so do the powers of ten and their neighbours, among them these
    # doubles just below 10^-3, 10^-2 and 10^-1, whose log10 numpy rounds
    # up to the power of ten
    near = parts[6][(parts[6] >= 1e-4) & (parts[6] < 10)]
    assert not cli._shortest(near)[2].any()
    below = np.array([0.0009999999999999996, 0.0009999999999999998, 0.009999999999999995,
                      0.009999999999999997, 0.009999999999999998, 0.09999999999999998,
                      0.09999999999999999])
    assert np.isin(below, near).all() and not cli._shortest(below)[2].any()
    got = cli._raw_cells(below, np.full(below.size, ord(","), np.uint8)).decode()
    assert got.split(",")[:-1] == list(map(repr, below.tolist()))
    ends = np.full(values.size, ord(","), np.uint8)
    for start in range(0, values.size, cli._RAW_BLOCK):
        cells = values[start : start + cli._RAW_BLOCK]
        got = cli._raw_cells(cells, ends[: cells.size]).decode().split(",")[:-1]
        assert got == list(map(repr, cells.tolist())), start


def test_raw_cells_round_ties_half_even():
    # dyadic values m / 2^j in [1e-4, 10), many with X = v 10^k exactly
    # halfway between two integers (17 digits) or between two multiples
    # of 10 inside the rounding interval (16). Where no shorter form fits,
    # repr rounds such ties half to even; _shortest does too, with no
    # fallback to repr
    from fractions import Fraction

    rng = np.random.default_rng(1729)
    values = np.concatenate([rng.integers(1, 2**b, 300) / 2.0**j
                             for b in range(4, 54, 4) for j in range(1, 64)])
    values = values[(values >= 1e-4) & (values < 10)]
    ties = {17: 0, 16: 0}
    for v in values.tolist():
        k = 16 - math.floor(math.log10(v))
        x, h = Fraction(v) * 10**k, Fraction(math.ulp(v)) / 2 * 10**k
        ties[17] += x.denominator == 2
        ties[16] += x.denominator == 1 and x.numerator % 10 == 5 and h > 5
    assert min(ties.values()) > 100, ties
    assert not cli._shortest(values)[2].any()
    ends = np.full(values.size, ord(","), np.uint8)
    got = cli._raw_cells(values, ends).decode().split(",")[:-1]
    assert got == list(map(repr, values.tolist()))


def test_csv_cells_need_no_quoting(capsys):
    # csv rows are joined, never quoted: every line reads back unchanged
    import csv

    model = ("--x", "dpois:1,0", "--y", "dpois:2,0")
    for argv in (("finite", *model, "--u", "0..5", "--t", "1..30"),
                 ("finite", *model, "--u", "0..5", "--t", "1..30", "--raw"),
                 ("ultimate", *model, "--u-max", "20"),
                 ("ultimate", *model, "--u-max", "20", "--raw"),
                 ("conjecture", *model, "--which", "1", "--n-max", "300"),
                 ("conjecture", *model, "--which", "1", "--n-max", "300", "--raw"),
                 ("verify-paper",)):
        code, out, _ = run(capsys, *argv, "--format", "csv")
        assert code == 0, argv
        rows = [line for line in out.splitlines() if not line.startswith("#")]
        assert rows
        for line in rows:
            assert ",".join(next(csv.reader([line]))) == line, (argv, line)


def test_ultimate_row_reference(capsys):
    code, out, _ = run(capsys, "ultimate", "--x", "dpois:1,1", "--y", "dpois:0.9,1",
                       "--u-max", "40", "--format", "csv")
    assert code == 0
    row = out.splitlines()[1].split(",")
    assert row[0] == "inf"
    assert row[31] == "0.954" and row[41] == "0.983"
    assert "# case: C s.1" in out


def test_ultimate_diagnostics_markdown(capsys):
    code, out, _ = run(capsys, "ultimate", "--x", "dpois:1,0", "--y", "dpois:2,0",
                       "--u-max", "3")
    assert code == 0
    for key in ("case: A", "margin:", "n_solve:", "precision_bits:",
                "determinant:", "residual_master:", "residual_constraint:",
                "lundberg_r:", "lundberg_c:", "reach:"):
        assert key in out


def test_ultimate_past_solve_cap(capsys):
    # u_max + 8 passes N_SOLVE_CAP; the row past u* + 8 comes from the tail
    from ruinwalk import ModelSpec, boundary_oracle, make_displaced_poisson

    code, out, _ = run(capsys, "ultimate", "--x", "dpois:1,0", "--y", "dpois:2,0",
                       "--u-max", "2100", "--raw", "--format", "csv")
    assert code == 0
    phi = np.array([float(c) for c in out.splitlines()[1].split(",")[1:]])
    m = ModelSpec(x=make_displaced_poisson(1.0, 0), y=make_displaced_poisson(2.0, 0))
    assert np.max(np.abs(phi - boundary_oracle(m, u_max=2100, u_big=3000))) < 1e-12


# a few values a row can hold, each next to its float64 neighbours where
# those format differently: signed zeros, NaNs of two payloads, both
# infinities, and rounding boundaries of --digits
_NAN2 = np.array([0x7FF8000000000001], dtype=np.int64).view(np.float64)[0]
_CELL_VALUES = [0.0, -0.0, float("nan"), float(_NAN2), float("inf"), float("-inf"), 1.0,
                np.nextafter(1.0, 0), 1 + 2**-52, 5e-324, 0.1, np.nextafter(0.1, 1),
                0.0005, np.nextafter(0.0005, 0), 0.9999995, np.nextafter(0.9999995, 1)]
_cell_runs = st.lists(st.tuples(st.sampled_from(_CELL_VALUES), st.integers(1, 5)),
                      min_size=1, max_size=10)


@functools.cache
def _small_result():
    model = ModelSpec(x=from_probs([0.5, 0.25, 0.25]), y=from_probs([0.5, 0.5]))
    return survival_ultimate(model, u_max=7)


@given(_cell_runs, st.sampled_from([None, 0, 1, 2, 3, 4, 5, 6]))
@example([(0.0, 2), (-0.0, 3), (0.0, 1)], None)
@example([(0.0005, 2), (float(np.nextafter(0.0005, 0)), 2)], 3)
@settings(max_examples=120, deadline=None)
def test_ultimate_cells_formatted_per_run(runs, digits):
    """The row's cells equal one ``cell`` call per value, in raw mode and
    at --digits 0-6, though each run of bit-identical values is formatted
    once."""
    phi = np.array([v for v, count in runs for _ in range(count)], dtype=np.float64)
    argv = ["ultimate", "--x", "pmf:1", "--y", "pmf:1", "--u-max", str(len(phi) - 1),
            "--format", "csv"]
    argv += ["--raw"] if digits is None else ["--digits", str(digits)]
    out = io.StringIO()
    with mock.patch.object(cli, "survival_ultimate", return_value=replace(_small_result(), phi=phi)):
        with redirect_stdout(out):
            assert main(argv) == 0
    cell = repr if digits is None else functools.partial(cli._fmt_prob, digits=digits)
    assert out.getvalue().splitlines()[1].split(",") == ["inf", *map(cell, phi.tolist())]


@pytest.mark.parametrize("digits", [0, 3, 6])
def test_fmt_prob_prints_nan(digits):
    # max(0.0, nan) is 0.0, so clamping first would print a NaN cell as 0
    assert cli._fmt_prob(float("nan"), digits) == "nan"
    assert cli._fmt_prob(float(_NAN2), digits) == "nan"
    assert cli._fmt_prob(float("inf"), digits) == "1"


def test_classify_output(capsys):
    code, out, _ = run(capsys, "classify", "--x", "dpois:0.5,2",
                       "--y", "dpois:0.3333333333333333,1")
    assert code == 0
    assert "case: D v.1" in out
    assert "min_s_atom: 3" in out
    # two claims of 2 use up the income of a pair: no net profit, no scenario
    code, out, _ = run(capsys, "classify", "--x", "pmf:0,0,1", "--y", "pmf:0,0,1")
    assert code == 0
    assert out.splitlines()[:2] == ["case: no-net-profit", "scenario: -"]


@pytest.mark.parametrize("flag, span, message", [
    ("--u", "a..3", "--u expects 'a..b' or a single integer, got 'a..3'"),
    ("--u", "-1..3", "--u values must be >= 0"),
    ("--t", "1.5", "--t expects 'a..b' or a single integer, got '1.5'"),
    ("--t", "0..4", "--t values must be >= 1"),
])
def test_bad_spans_exit_2(capsys, flag, span, message):
    spans = {"--u": "0..3", "--t": "1..4", flag: span}
    # --u=-1..3: argparse would take a bare -1..3 for a flag
    code, out, err = run(capsys, "finite", "--x", "dpois:1,0", "--y", "dpois:2,0",
                         *(f"{k}={v}" for k, v in spans.items()))
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_simulate_deterministic(capsys):
    args = ("simulate", "--x", "dpois:1,0", "--y", "dpois:2,0",
            "--u", "1", "--t", "5", "--trials", "4000", "--seed", "9")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    assert "estimate: " in out1 and "stderr: " in out1


def test_simulate_rejects_bad_input(capsys):
    model = ("--x", "dpois:1,0", "--y", "dpois:2,0")
    for bad in (("--u", "-1", "--t", "5"), ("--u", "1", "--t", "0"),
                ("--u", "1", "--t", "5", "--trials", "0"),
                ("--u", "1", "--t", "5", "--seed", "-1"),
                ("--u", "1", "--t", "5", "--seed", str(2**128))):
        code, _, err = run(capsys, "simulate", *model, *bad)
        assert code == 2 and err.startswith("error: "), bad
    code, out, _ = run(capsys, "simulate", *model, "--u", "1", "--t", "5",
                       "--trials", "100", "--seed", str(2**128 - 1))
    assert code == 0 and "seed: 340282366920938463463374607431768211455" in out


def test_conjecture_subcommand(capsys):
    code, out, _ = run(capsys, "conjecture", "--which", "2", "--x", "dpois:1,1",
                       "--y", "dpois:1.9,0", "--n-max", "12", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "n,D_n"
    assert "# violations: 0" in out
    # wrong case for the requested trace
    code, _, _ = run(capsys, "conjecture", "--which", "1", "--x", "dpois:1,1",
                     "--y", "dpois:1.9,0", "--n-max", "12")
    assert code == 2


def test_oversized_requests_exit_2(capsys, monkeypatch):
    # a request too large to allocate is refused with one line, no traceback
    def out_of_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 7.28 TiB for an array")

    monkeypatch.setattr(cli, "survival_ultimate", out_of_memory)
    model = ["--x", "dpois:1,0", "--y", "dpois:2,0"]
    code, out, err = run(capsys, "ultimate", *model, "--u-max", "10")
    assert (code, out) == (2, "")
    assert err == "error: out of memory: Unable to allocate 7.28 TiB for an array\n"
    # no solve inverts an M_n past index 2000, so a trace past it is refused
    code, out, err = run(capsys, "conjecture", *model, "--which", "1", "--n-max", "2001")
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


def test_diagnostics_past_float_range(capsys):
    # determinants from about n = 261 lie beyond float64's exponent range
    code, out, _ = run(capsys, "conjecture", "--x", "dpois:1,0", "--y", "dpois:2,0",
                       "--which", "1", "--n-max", "300", "--format", "csv")
    assert code == 0
    cells = [line.split(",")[1] for line in out.splitlines()[1:302]]
    assert not any("inf" in c for c in cells)
    assert float(cells[260]) == -1.134850e308
    assert cells[261] == "1.713101e+309" and cells[300] == "-1.617012e+355"
    code, out, _ = run(capsys, "ultimate", "--x", "dpois:1.5,0", "--y", "dpois:2.2,0",
                       "--u-max", "400", "--format", "csv")
    assert code == 0
    assert "# n_solve: 255" in out
    det = out.split("# determinant: ")[1].split()[0]
    assert det == "3.850238e+362"
    # a determinant near 10^4900 with a 17059-bit mantissa, which mp.nstr
    # turned into an int past Python's 4300-digit str() limit
    code, out, _ = run(capsys, "ultimate", "--x", "pmf:0,0.6666666666666666,0,0.3333333333333334",
                       "--y", "pmf:0,1e-100,1", "--u-max", "40", "--format", "csv")
    assert code == 0
    assert out.splitlines()[1].startswith("inf,0.333,0.5,0.75,")
    assert "# determinant: -1.000000e+4900" in out and "# reach: 40" in out
    # case A determinants past 10^4300 at 30397 bits, whose violation texts
    # once went through mp.nstr at full precision
    code, out, _ = run(capsys, "conjecture", "--x", "pmf:1e-30,0.5,0.5", "--y", "pmf:0.5,0.5",
                       "--which", "1", "--n-max", "100", "--format", "csv")
    assert code == 0
    assert "# precision_bits: 30397" in out and "# violations: 200" in out
    assert out.splitlines()[101] == "100,-5.070602e+3060"
    assert ("# violation n=100: chain start breached: expected det M_100 >= 1, "
            "got -5.0706024e+3060") in out


# (num, scale, rounded, raw): the determinant num / 2^scale as the CLI
# printed it when determinants were mpf, inside and outside float64's range
FMT_DET_PINS = [
    (0, 0, "0.000000e+00", "0.0"),
    (-123456789012345678901, 30, "-1.149781e+11", "-114978094596.7377"),
    (5, 3, "6.250000e-01", "0.625"),
    (1, 1400, "3.614149e-422", "3.6141491434385841e-422"),
    (-1, 1400, "-3.614149e-422", "-3.6141491434385841e-422"),
    (7**5100, 10, "9.765717e+4306", "9.7657165801262623e+4306"),
    (-(7**5100) - 1, 10, "-9.765717e+4306", "-9.7657165801262623e+4306"),
    (999999995 * 10**400, 0, "1.000000e+409", "9.99999995e+408"),
    (10**320, 0, "1.000000e+320", "1.0e+320"),
]


@pytest.mark.parametrize("num, scale, rounded, raw", FMT_DET_PINS,
                         ids=[f"{i}:{raw}" for i, (*_, raw) in enumerate(FMT_DET_PINS)])
def test_fmt_det_pins(num, scale, rounded, raw):
    assert _fmt_det(num, 1 << scale, raw=False) == rounded
    assert _fmt_det(num, 1 << scale, raw=True) == raw


@pytest.mark.parametrize("spec", ["dpois:1,10000001", "dpois:2e7,0"])
def test_oversized_dpois_support_exits_2_at_once(capsys, spec):
    start = time.perf_counter()
    code, out, err = run(capsys, "classify", "--x", spec, "--y", "dpois:2,0")
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "") and "support too long" in err


def test_cli_imports_without_mpmath():
    code = "import sys, ruinwalk.cli; print('mpmath' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout == "False\n"


def test_verify_paper_table1(capsys):
    code, out, _ = run(capsys, "verify-paper", "--table", "1")
    assert code == 0
    assert "0 flagged, 0 failed" in out
    assert "result: ok" in out


def test_verify_paper_table4_flags(capsys):
    code, out, _ = run(capsys, "verify-paper", "--table", "4")
    assert code == 0  # flagged cells are expected, not failures
    assert "flag" in out
    assert "FAIL" not in out


def test_byte_identical_output(capsys):
    args = ("ultimate", "--x", "dpois:1,1", "--y", "dpois:1.9,0", "--u-max", "10")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2

