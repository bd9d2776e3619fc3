"""Command-line front end.

Subcommands: finite, ultimate, classify, simulate, conjecture,
verify-paper. Tables render as markdown (default), csv, or tsv; cell
rounding is presentation-only and --raw switches to full-precision
values. A --raw cell is Python's repr of its float64, byte for byte;
finite grids render theirs with numpy, a bounded block of cells at a
time (_raw_cells), and print each stored row's text for every horizon
that shares the row. Exit codes: 0 success, 1 usage, 2 validation,
3 numerical failure, 4 verification mismatch.

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
from .model import ModelSpec, classify, net_profit_margin
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
    (so exact 0 and 1 print bare). NaN prints as ``nan``, as under --raw."""
    if math.isnan(value):
        return "nan"
    v = min(1.0, max(0.0, float(value)))
    q = Decimal(repr(v)).quantize(Decimal(1).scaleb(-digits), rounding=ROUND_HALF_UP)
    s = format(q, "f")
    if "." in s:
        s = s.rstrip("0").rstrip(".")
    return s if s else "0"


# cells per numpy pass of _raw_cells: bounds its temporaries
_RAW_BLOCK = 1 << 12
_SPLIT = 134217729.0  # 2^27 + 1, Dekker's splitter for float64
# 10^k, exact in float64 for k <= 22, and its halves for Dekker's product
_POW10 = 10.0 ** np.arange(22)
_POW10_HI = _SPLIT * _POW10 - (_SPLIT * _POW10 - _POW10)
_POW10_LO = _POW10 - _POW10_HI
# the doubles nearest 10^-4 .. 10^1, none below its power of ten, so
# x < _TENS[e + 4] exactly when x < 10^e for doubles x
_TENS = np.array([1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0])


@functools.cache
def _raw_tables() -> tuple[np.ndarray, np.ndarray]:
    """The ASCII words _raw_cells lays cells out from, NUL-padded:

    - chunks, 4 bytes each: ``f"{c:04d}"`` at c, the same with trailing
      zeros cut at 10^4 + c, and "0" at 2 * 10^4;
    - heads, 8 bytes each, right-aligned: what precedes digit 2 of a
      cell in [10^-j, 10^(1-j)) whose first digit is d, at 10 j + d:
      "d." for j = 0, else "0." then j - 1 zeros and d.
    """
    chunks = np.zeros((2 * 10**4 + 1, 4), np.uint8)
    c = np.arange(10**4, dtype=np.int16)
    for i in range(4):
        chunks[: 10**4, 3 - i] = c // 10**i % 10 + 48
        # a chunk that ends a cell keeps its digits up to its last nonzero one
        chunks[10**4 : -1, 3 - i] = chunks[: 10**4, 3 - i] * (c % 10 ** (i + 1) != 0)
    chunks[-1, 0] = 48
    heads = np.zeros((5, 10, 8), np.uint8)
    heads[0, :, 6:] = np.c_[np.arange(10) + 48, np.full(10, 46)]
    for j in range(1, 5):
        heads[j, :, 6 - j : 7] = [48, 46, *[48] * (j - 1)]
        heads[j, :, 7] = np.arange(10) + 48
    return chunks.view("<u4").ravel(), heads.reshape(50, 8).view("<u4")


def _scaled(x: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """x 10^k exactly, as an int64 a plus a float64 f in [0, 1), for
    x 10^k in [2^53, 2^63): Dekker's two-product splits it into the
    rounded product p, an integer there, and its exact rounding error."""
    p = x * _POW10[k]
    xa = _SPLIT * x
    xh = xa - (xa - x)
    xl = x - xh
    ph, pl = _POW10_HI[k], _POW10_LO[k]
    err = ((xh * ph - p) + xh * pl + xl * ph) + xl * pl
    fl = np.floor(err)
    return p.astype(np.int64) + fl.astype(np.int64), err - fl


def _shortest(values: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The digits repr writes for each float64 v of ``values``, as
    (digits, e, bad): v reads back from digits 10^(e - 16), digits in
    [10^16, 10^17) with the fewest nonzero digits, and bad marks the cells
    this does not certify, whose digits and e are 0.

    For v in [10^-4, 10), which repr writes positionally, X = v 10^k with
    k = 16 - e, e = floor(log10 v), lies in [10^16, 10^17): an integer a
    plus f in [0, 1), exactly. X and h below are multiples of 2^-48, so
    f - h and f + h are exact. The rounding interval of v is X - h to
    X + h, h half an ulp of v times 10^k. (Below a power of two it is
    X - h / 2, but the powers of two in range are decimals of at most 10
    digits, their own shortest form, with no shorter one within h.) Its
    ends are odd multiples of 5^k 2^-i, i >= 34, so no integer sits on
    them; lo..hi are the integers strictly inside, fewer than 24 as
    h < 11.2. The shortest digits are a multiple of the largest power of
    ten that has one in lo..hi, the one nearest X where two do (Gay 1990;
    Adams 2018). So they are the one multiple of 100 in lo..hi if there
    is one, whatever power of ten it is also a multiple of: its trailing
    zeros are not printed. Else they are the nearer multiple of 10 that
    fits, if any, else the integer nearest X, which fits as h > 1/2. A
    tie between the two nearest goes to the one whose last printed digit
    is even, as repr's digit generation rounds half to even.
    None is 10^17: the double nearest each power of ten in range is not
    below it, so no v below one has it inside its interval.

    e is lowered where log10 rounded v just below a power of ten up to
    it. bad marks v outside that range (but for +0.0, digits 0) and an e
    that log10 rounded down across a power of ten.
    """
    ok = (values >= 1e-4) & (values < 10.0)
    x = np.where(ok, values, 1.0)
    e = np.floor(np.log10(x)).astype(np.intp)
    e -= x < _TENS[e + 4]  # log10 rounded up to a power of ten
    k = 16 - e
    a, f = _scaled(x, k)
    ok &= (a >= 10**16) & (a < 10**17)
    h = ((x.view(np.int64) >> 52) << 52).view(np.float64) * (_POW10[k] * 2.0**-53)
    lo = a + np.ceil(f - h).astype(np.int64)
    hi = a + np.floor(f + h).astype(np.int64)

    down = a // 10 * 10
    fit_down, fit_up = down >= lo, down + 10 <= hi
    near = 2 * f - (10 - 2 * (a - down))  # distance to down minus to up
    fit_up &= ~(fit_down & ((near < 0) | (near == 0) & (down % 20 == 0)))
    tens = fit_down | fit_up
    digits = np.where(tens, down + 10 * fit_up, a + ((f > 0.5) | (f == 0.5) & (a % 2 == 1)))
    hundred = hi // 100 * 100
    shorter = hundred >= lo
    digits = np.where(shorter, hundred, digits)

    zero = (values == 0) & ~np.signbit(values)
    bad = ~(ok | zero)
    digits[bad | zero] = 0
    e[bad | zero] = 0
    return digits, e, bad


def _raw_cells(values: np.ndarray, ends: np.ndarray) -> bytes:
    """The ASCII of ``repr(v) + chr(c)`` for each float64 v of ``values``
    and byte c of ``ends``, concatenated, at array speed: _shortest's
    digits laid out from _raw_tables, and repr for the cells it marks."""
    digits, e, bad = _shortest(values)
    chunks, heads = _raw_tables()
    d0 = digits // 10**16
    rest = digits - d0 * 10**16
    c1 = rest // 10**12
    r1 = rest - c1 * 10**12
    c2 = r1 // 10**8
    r2 = r1 - c2 * 10**8
    c3 = r2 // 10**4
    c4 = r2 - c3 * 10**4
    head = -10 * e + d0
    out = np.empty((values.size, 7), "<u4")  # head, 16 digits, end: 28 bytes
    out[:, 0] = heads[head, 0]
    out[:, 1] = heads[head, 1]
    # a chunk ends at its last nonzero digit when the chunks after it are
    # zero, and a "d." head then takes a "0"
    out[:, 2] = chunks[c1 + (r1 == 0) * 10**4 + ((rest == 0) & (e == 0)) * 10**4]
    out[:, 3] = chunks[c2 + (r2 == 0) * 10**4]
    out[:, 4] = chunks[c3 + (c4 == 0) * 10**4]
    out[:, 5] = chunks[c4 + 10**4]
    out[:, 6] = ends
    for i in np.flatnonzero(bad).tolist():
        text = repr(float(values[i])).encode().ljust(24, b"\0")
        out[i, :6] = np.frombuffer(text, "<u4")
    return out.tobytes().translate(None, b"\0")


def _raw_rows(rows: np.ndarray, sep: str) -> list[str]:
    """``[sep.join(map(repr, r)) for r in rows.tolist()]`` for a 2-D
    float64 array, rendered by _raw_cells _RAW_BLOCK cells at a time."""
    cols = rows.shape[1]
    flat = rows.reshape(-1)
    parts = []
    for start in range(0, flat.size, _RAW_BLOCK):
        cells = flat[start : start + _RAW_BLOCK]
        ends = np.full(cells.size, ord(sep), np.uint8)
        ends[(cols - 1 - start) % cols :: cols] = ord("\n")
        parts.append(_raw_cells(cells, ends))
    return b"".join(parts).decode("ascii").split("\n")[:-1]


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
    return f"{tag.kind.value} {tag.scenario}" if tag.scenario else tag.kind.value


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
    # a stored row is rendered as its cells joined by the separator, and
    # each horizon that prints it puts its label in front; markdown splits
    # the joined cells again to size its columns
    sep = _SEPARATORS.get(ns.format, ",")
    if ns.raw:
        render = functools.partial(_raw_rows, sep=sep)
    else:
        def render(rows):
            return [sep.join(map(cell, r)) for r in rows.tolist()]
    cells = (lambda text: [text]) if ns.format in _SEPARATORS else (lambda text: text.split(sep))
    span = grid.index[t_lo - 1 : t_hi]
    # the last horizon that prints each stored row, t_lo - 1 for none
    last = np.full(len(grid.rows), t_lo - 1)
    for start in range(0, span.size, _RAW_BLOCK):
        part = span[start : start + _RAW_BLOCK]
        np.maximum.at(last, part, np.arange(t_lo + start, t_lo + start + part.size))
    used = np.flatnonzero(last >= t_lo)
    until = last[used].tolist()
    per_block = max(1, _RAW_BLOCK // block.shape[1])

    def rows():
        # the rows the span prints are rendered once each, in order and a
        # bounded block of cells at a time; a row's text is dropped after
        # the last horizon that prints it
        texts = []
        for start in range(0, span.size, _RAW_BLOCK):
            slots = np.searchsorted(used, span[start : start + _RAW_BLOCK]).tolist()
            for t, i in enumerate(slots, t_lo + start):
                while i >= len(texts):
                    texts += map(cells, render(block[used[len(texts) : len(texts) + per_block]]))
                row = texts[i]
                if until[i] == t:
                    texts[i] = None
                yield [str(t), *row]

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
    notes = (
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
    )
    sys.stdout.write("".join(_note(text, ns.format) + "\n" for text in notes))
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
    notes = [
        f"min_abs: {trace.min_abs:.6e}",
        f"abs_monotone: {'yes' if trace.abs_monotone else 'no'}",
        f"zero_count: {len(trace.zero_indices)}",
        f"precision_bits: {trace.precision_bits}",
        f"violations: {len(trace.violations)}",
    ]
    notes += [f"violation {f'n={n}' if n >= 0 else 'global'}: {desc}" for n, desc in trace.violations]
    sys.stdout.write("".join(_note(text, ns.format) + "\n" for text in notes))
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
