"""Command-line front end.

Subcommands: finite, ultimate, classify, simulate, conjecture,
verify-paper. Tables render as markdown (default), csv, or tsv; cell
rounding is presentation-only and --raw switches to full-precision
values. Exit codes: 0 success, 1 usage, 2 validation, 3 numerical
failure, 4 verification mismatch.

Output depends on argv alone: identical invocations produce
byte-identical output, since every code path below is deterministic and
all iteration orders are fixed.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from decimal import ROUND_HALF_UP, Decimal

import numpy as np

from .conjectures import _round_sig, determinant_trace
from .errors import InvalidModelError, NumericalError, PrecisionError
from .finite import mc_estimate, survival_finite
from .model import CaseKind, ModelSpec, classify, net_profit_margin
from .pmf import parse_pmf_spec
from .reference_tables import ALL_TABLES, verify_table
from .ultimate import survival_ultimate

# the most places the default 28-digit decimal context can round 1.0 to
MAX_DIGITS = 27
# cell separator of each delimited table format
_SEPARATORS = {"csv": ",", "tsv": "\t"}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage; the contract reserves 2
    # for validation errors, so usage problems are rerouted to exit 1
    def error(self, message):
        raise _UsageError(message)


# ---- rendering ----


def _fmt_prob(value: float, digits: int) -> str:
    """Presentation rounding: half away from zero, trailing zeros trimmed
    (so exact 0 and 1 print bare)."""
    v = min(1.0, max(0.0, float(value)))
    q = Decimal(repr(v)).quantize(Decimal(1).scaleb(-digits), rounding=ROUND_HALF_UP)
    s = format(q, "f")
    if "." in s:
        s = s.rstrip("0").rstrip(".")
    return s if s else "0"


def _fmt_det(num: int, den: int, raw: bool) -> str:
    """The determinant num / den, den > 0, as '%.6e' text (repr in raw
    mode) of its correctly rounded float64. One past float64's exponent
    range, which num / den refuses or turns into 0, prints 7 digits (17,
    trailing zeros trimmed, in raw mode) rounded half up from its exact
    value."""
    try:
        v = num / den
    except OverflowError:
        v = 0.0  # past the range, like a nonzero num / den that rounds to 0
    if v or not num:
        return repr(v) if raw else f"{v:.6e}"
    places = 17 if raw else 7
    digits, k = _round_sig(num, den, places)
    tail = digits[1:].rstrip("0" if raw else "") or "0"
    return f"{'-' if num < 0 else ''}{digits[0]}.{tail}e{k:+d}"


def _run_cells(cell, values: np.ndarray) -> list[str]:
    """``list(map(cell, values.tolist()))``, with ``cell`` called once per
    run of bit-identical values: an ultimate row past its reach repeats
    one fill value hundreds of times. Runs are matched on bits, so -0.0
    and 0.0, or NaNs of different payloads, stay apart."""
    vals = values.tolist()
    bits = values.view(np.int64)
    cuts = [0, *(np.flatnonzero(bits[1:] != bits[:-1]) + 1).tolist(), len(vals)]
    out = []
    for lo, hi in zip(cuts, cuts[1:]):
        out += [cell(vals[lo])] * (hi - lo)
    return out


def _emit_table(header: list[str], rows, fmt: str) -> None:
    """Print a table. csv and tsv stream ``rows`` (any iterable of cell
    lists) to stdout one row at a time, cells joined by the separator and
    never quoted: no cell holds a comma, tab, quote or newline. Markdown
    needs every row first to size its columns."""
    out = sys.stdout
    sep = _SEPARATORS.get(fmt)
    if sep is not None:
        out.write(sep.join(header) + "\n")
        out.writelines(sep.join(r) + "\n" for r in rows)
        return
    rows = list(rows)
    widths = [len(h) for h in header]
    for r in rows:
        for i, cell in enumerate(r):
            widths[i] = max(widths[i], len(cell))
    def line(cells):
        return "| " + " | ".join(c.ljust(w) for c, w in zip(cells, widths)) + " |"
    lines = [line(header), "| " + " | ".join("-" * w for w in widths) + " |"]
    lines.extend(line(r) for r in rows)
    print("\n".join(lines))


def _note(text: str, fmt: str) -> str:
    return f"# {text}" if fmt in ("csv", "tsv") else text


def _case_str(tag) -> str:
    if tag.kind == CaseKind.NO_NET_PROFIT:
        base = "no-net-profit"
    else:
        base = tag.kind.name
    return f"{base} {tag.scenario}" if tag.scenario else base


# ---- argument plumbing ----


def _parse_span(text: str, flag: str, minimum: int) -> tuple[int, int]:
    t = text.strip()
    if ".." in t:
        a, _, b = t.partition("..")
    else:
        a = b = t
    try:
        lo, hi = int(a), int(b)
    except ValueError:
        raise InvalidModelError(f"{flag} expects 'a..b' or a single integer, got {text!r}") from None
    if lo > hi:
        raise InvalidModelError(f"{flag} span is empty: {text!r}")
    if lo < minimum:
        raise InvalidModelError(f"{flag} values must be >= {minimum}")
    return lo, hi


def _cell_format(ns):
    """The probability cell renderer: repr unclamped under --raw, else
    ``_fmt_prob`` at --digits places."""
    if not 0 <= ns.digits <= MAX_DIGITS:
        raise InvalidModelError(f"--digits must lie in 0..{MAX_DIGITS}, got {ns.digits}")
    if ns.raw:
        return repr
    return functools.partial(_fmt_prob, digits=ns.digits)


def _model_from(ns) -> ModelSpec:
    return ModelSpec(
        x=parse_pmf_spec(ns.x, tail_tol=ns.tail_tol),
        y=parse_pmf_spec(ns.y, tail_tol=ns.tail_tol),
    )


@functools.cache  # parse_args keeps no state in the parser
def _build_parser() -> _Parser:
    parser = _Parser(prog="ruinwalk", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    # each subcommand takes only the flags it reads
    model_args = argparse.ArgumentParser(add_help=False)
    model_args.add_argument("--x", required=True, help="odd-period claim PMF spec")
    model_args.add_argument("--y", required=True, help="even-period claim PMF spec")
    model_args.add_argument("--tail-tol", type=float, default=1e-12,
                            help="truncation tail mass for dpois specs")
    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", choices=("csv", "tsv", "markdown"), default="markdown")
    raw = argparse.ArgumentParser(add_help=False)
    raw.add_argument("--raw", action="store_true", help="emit full-precision values")
    digits = argparse.ArgumentParser(add_help=False)
    digits.add_argument("--digits", type=int, default=3,
                        help=f"presentation rounding, 0..{MAX_DIGITS} (default 3)")
    prob_table = [model_args, fmt, raw, digits]

    p = sub.add_parser("finite", parents=prob_table,
                       help="grid of finite-horizon survival probabilities")
    p.add_argument("--u", required=True, help="initial surplus span a..b")
    p.add_argument("--t", required=True, help="horizon span a..b")
    p.set_defaults(func=_cmd_finite)

    p = sub.add_parser("ultimate", parents=prob_table,
                       help="ultimate survival row plus solve diagnostics")
    p.add_argument("--u-max", required=True, type=int)
    p.set_defaults(func=_cmd_ultimate)

    p = sub.add_parser("classify", parents=[model_args],
                       help="case tag and net profit margin")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("simulate", parents=[model_args],
                       help="Monte Carlo estimate of finite-horizon survival")
    p.add_argument("--u", required=True, type=int)
    p.add_argument("--t", required=True, type=int)
    p.add_argument("--trials", type=int, default=100000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("conjecture", parents=[model_args, fmt, raw],
                       help="determinant trace and chain-violation report")
    p.add_argument("--which", required=True, type=int, choices=(1, 2))
    p.add_argument("--n-max", type=int, default=100)
    p.set_defaults(func=_cmd_conjecture)

    p = sub.add_parser("verify-paper", parents=[fmt],
                       help="recompute the bundled reference tables and compare")
    p.add_argument("--table", choices=("1", "2", "3", "4", "5", "all"), default="all")
    p.set_defaults(func=_cmd_verify)

    return parser


# ---- subcommands ----


def _cmd_finite(ns) -> int:
    u_lo, u_hi = _parse_span(ns.u, "--u", 0)
    t_lo, t_hi = _parse_span(ns.t, "--t", 1)
    cell = _cell_format(ns)
    model = _model_from(ns)
    grid = survival_finite(model, u_max=u_hi, t_max=t_hi)
    header = ["T\\u"] + [str(u) for u in range(u_lo, u_hi + 1)]
    block = grid.rows[:, u_lo:]
    # csv and tsv rows are cells joined by the separator, so a stored
    # row's cells are joined once and each horizon puts its label in front
    sep = _SEPARATORS.get(ns.format)

    def formatted(row):
        cells = list(map(cell, row.tolist()))
        return cells if sep is None else [sep.join(cells)]

    def rows():
        # the last two rows formatted, newest first, as (row, bytes, cells):
        # the grid's parity fill points a horizon at the row two horizons
        # back, and a stored row near a fixed point can repeat the bytes of
        # the one before it (bytes keep -0.0 and NaN exact)
        new = old = (-1, b"", None)
        for t, i in enumerate(grid.index[t_lo - 1 : t_hi].tolist(), t_lo):
            if i == old[0]:
                new, old = old, new
            elif i != new[0]:
                key = block[i].tobytes()
                match = new if key == new[1] else old if key == old[1] else None
                cells = formatted(block[i]) if match is None else match[2]
                new, old = (i, key, cells), new
            yield [str(t), *new[2]]

    _emit_table(header, rows(), ns.format)
    print(_note(f"error_bound: {grid.error_bound:.3e}", ns.format))
    return 0


def _cmd_ultimate(ns) -> int:
    cell = _cell_format(ns)
    model = _model_from(ns)
    result = survival_ultimate(model, u_max=ns.u_max)
    header = ["T\\u", *map(str, range(ns.u_max + 1))]
    rows = [["inf", *_run_cells(cell, result.phi)]]
    _emit_table(header, rows, ns.format)
    d = result.determinant
    det = "none" if d is None else _fmt_det(d.numerator, d.denominator, raw=False)
    bits = "none" if result.precision_bits is None else str(result.precision_bits)
    tail = ["none" if v is None else format(v, ".6g")
            for v in (result.lundberg_r, result.lundberg_c, result.reach)]
    for text in (
        f"case: {_case_str(result.case)}",
        f"margin: {result.margin:.12g}",
        f"n_solve: {result.n_solve}",
        f"precision_bits: {bits}",
        f"determinant: {det}",
        f"residual_master: {result.residual_master:.3e}",
        f"residual_constraint: {result.residual_constraint:.3e}",
        f"lundberg_r: {tail[0]}",
        f"lundberg_c: {tail[1]}",
        f"reach: {tail[2]}",
    ):
        print(_note(text, ns.format))
    return 0


def _cmd_classify(ns) -> int:
    model = _model_from(ns)
    tag = classify(model)
    print(f"case: {_case_str(tag)}")
    print(f"scenario: {tag.scenario if tag.scenario else '-'}")
    atom = tag.min_s_atom
    print(f"min_s_atom: {atom if atom is not None else '-'}")
    step = tag.degenerate_step
    print(f"degenerate_step: {step if step is not None else '-'}")
    print(f"mean_s: {model.mean_s:.12g}")
    print(f"margin: {net_profit_margin(model):.12g}")
    return 0


def _cmd_simulate(ns) -> int:
    model = _model_from(ns)
    est = mc_estimate(model, u=ns.u, t=ns.t, trials=ns.trials, seed=ns.seed)
    print(f"u: {ns.u}")
    print(f"horizon: {ns.t}")
    print(f"trials: {est.trials}")
    print(f"seed: {est.seed}")
    print(f"estimate: {est.estimate!r}")
    print(f"stderr: {est.stderr!r}")
    return 0


def _cmd_conjecture(ns) -> int:
    model = _model_from(ns)
    trace = determinant_trace(model, which=ns.which, n_max=ns.n_max)
    header = ["n", "D_n"]
    den = 1 << trace.scale
    rows = [[str(n), _fmt_det(d, den, ns.raw)] for n, d in enumerate(trace.numerators)]
    _emit_table(header, rows, ns.format)
    for text in (
        f"min_abs: {trace.min_abs:.6e}",
        f"abs_monotone: {'yes' if trace.abs_monotone else 'no'}",
        f"zero_count: {len(trace.zero_indices)}",
        f"precision_bits: {trace.precision_bits}",
        f"violations: {len(trace.violations)}",
    ):
        print(_note(text, ns.format))
    for n, desc in trace.violations:
        where = f"n={n}" if n >= 0 else "global"
        print(_note(f"violation {where}: {desc}", ns.format))
    return 0


def _cmd_verify(ns) -> int:
    chosen = ALL_TABLES if ns.table == "all" else (ALL_TABLES[int(ns.table) - 1],)
    any_fail = False
    for i, table in enumerate(chosen):
        report = verify_table(table)
        by_cell = {(c.horizon, c.u): c.status for c in report.checks}
        status_text = {"ok": "ok", "flag": "flag", "fail": "FAIL"}
        header = ["T\\u"] + [str(u) for u in table.u_values]
        rows = [
            [str(t)] + [status_text[by_cell[(t, u)]] for u in table.u_values]
            for t in sorted(table.finite_rows)
        ]
        if table.ultimate_row is not None:
            rows.append(["inf"] + [status_text[by_cell[(None, u)]] for u in table.u_values])
        if i:
            print()
        print(_note(f"{table.name}: x={table.x_spec} y={table.y_spec}", ns.format))
        _emit_table(header, rows, ns.format)
        print(_note(
            f"{table.name}: {report.n_ok} ok, {report.n_flag} flagged, {report.n_fail} failed",
            ns.format,
        ))
        any_fail = any_fail or not report.passed
    print(_note(f"result: {'mismatch' if any_fail else 'ok'}", ns.format))
    return 4 if any_fail else 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    try:
        return ns.func(ns)
    except (NumericalError, PrecisionError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        # a request too large to allocate is refused, like any invalid one
        detail = f": {exc}" if str(exc) else ""
        print(f"error: out of memory{detail}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
