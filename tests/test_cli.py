"""CLI behavior: rendering, exit codes, determinism."""

import numpy as np
import pytest

from ruinwalk.cli import main


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
    # rows stream from the grid's columns; every cell is repr of its value
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


def test_classify_output(capsys):
    code, out, _ = run(capsys, "classify", "--x", "dpois:0.5,2",
                       "--y", "dpois:0.3333333333333333,1")
    assert code == 0
    assert "case: D v.1" in out
    assert "min_s_atom: 3" in out


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

