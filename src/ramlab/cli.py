"""Command-line front end: sums, tables, proposition checks, expansion demo.

Exit codes: 0 pass/success, 1 usage or input error, 2 internal cross-check
mismatch or failed check. Exact quantities print as integer/rational text;
only the oracle and expansion commands print floats (12 significant digits).

Each command returns its output as tables (header, rows, passed); `main`
alone writes them and picks the exit code.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from array import array
from contextlib import nullcontext
from fractions import Fraction
from itertools import chain, islice, repeat
from operator import getitem
from typing import Iterable, Iterator, Sequence

from . import gensums, verify
from .even import EvenFunction
from .systems import InvalidSystemError, RegularSystem, gamma_A, load_system, mu_A, phi_A, psi_A

# `entrypoint` is the console script and `python -m ramlab`
__all__ = ["build_parser", "entrypoint", "main"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_MISMATCH = 2

FORMATS = ("json", "csv", "plain")

# Each cap's time and memory budget is a row of tests/budgets.json, which
# `tools/budgets.py` runs; each comment names its cap's rows and gives
# their latest peaks, from that runner's fresh processes (CPython 3.11,
# x86-64 Xeon, 2 vCPUs).

# `expansion` keeps F(x) for x <= U as floats in an array, U = R up to 2^17
# terms, its largest table, else floor(R^(2/3)). Rows "expansion at its
# largest prefix table, 2^17 terms" (`expansion 720720`: 0.11-0.22 s,
# 17.9-18.1 MB), "expansion at its --terms cap" (0.15-0.24 s, 17.8-17.9 MB)
# and "expansion refuses --terms above its cap"
MAX_TERMS = 10**7

# prop2's period tallies and prop3's diagonal rows each cost sum r <= rmax^2/2
# kernel values. Rows "verify all at the --rmax cap under U" and "... under
# MIX" (1.5-1.9 s, 27.7-27.8 MB), "Prop 3 costs only its diagonal rows"
# (0.8-1.1 s, 21.6 MB) and "verify refuses --rmax above its cap"
MAX_RMAX = 3000

# Every table keeps its values in one flat sequence, `--what cA` a list and
# the other tables an array of 8-byte ints (each value is at most sigma(r) <
# 2^63). Rows "... table at the row cap ..." and "The table refuses more rows
# than its cap": square cA under MIX 0.14-0.27 s and 18.8-19.5 MB as JSON,
# 18.7-19.4 MB as CSV and 18.6-19.4 MB as plain; one row (--nmax 1, under U),
# most of it factorizing, 2.5-4.4 s and 21.0-21.9 MB as JSON and 20.8-21.7 MB
# as CSV; four columns under D 0.16-0.33 s and 18.8-19.9 MB; `--what phiA`
# under U 1.4-3.0 s and 20.9-21.6 MB as JSON, 20.8-21.7 MB as plain
MAX_TABLE_ROWS = 2**18

# rows per emitted text, at most: `main` writes each text before the next is
# made, so one chunk's text is held at a time
CHUNK_ROWS = 4096

# the oracle and all routes sum r floating-point terms, each after a
# per-prime (k, r)_A. Of the r tried below the cap, 98280 was the slowest:
# rows "c at the slowest r below the oracle cap under D", U and MIX
# (--route all, 0.18-0.35 s, 16.7-17.1 MB), and "The oracle route refuses
# r just above its cap" and "... far above its cap"
MAX_ORACLE_R = 10**5


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; the contract here is 1
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _digits(text: str) -> int:
    # ASCII digits alone, else -1: int() also reads "1_0", " 3", "+3" and
    # other scripts' digits
    try:
        return int(text) if text.isascii() and text.isdigit() else -1
    except ValueError:  # more digits than int() converts
        return -1


def _positive_int(text: str) -> int:
    value = _digits(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return value


def _even_function(text: str, system: RegularSystem) -> EvenFunction:
    """The `--even` literal `r=12; 1:1, 2:-1, ..., 12:5/2` as an (A, r)-even
    function of `system`. r, each divisor and each value's numerator and
    denominator (nonzero) are `_digits`, a value may start with -, and
    whitespace may surround each token; an empty item is skipped."""
    head, semicolon, body = text.partition(";")
    key, equals, modulus = head.partition("=")
    r = _digits(modulus.strip())
    if not (semicolon and equals and key.strip() == "r" and r >= 0):
        raise ValueError(f"malformed even-function literal: {text!r}")
    if r < 1:
        raise ValueError(f"modulus must be >= 1, got r={r} in even-function literal {text!r}")
    values = {}
    for item in filter(None, map(str.strip, body.split(","))):
        divisor, _, value = item.partition(":")
        value = value.strip()
        negative = value[:1] == "-"
        numerator, slash, denominator = value[negative:].partition("/")
        d, p = _digits(divisor.rstrip()), _digits(numerator.rstrip())
        q = _digits(denominator.strip()) if slash else 1
        if d < 0 or p < 0 or q < 1:
            raise ValueError(f"malformed divisor:value pair {item!r}")
        if d in values:
            raise ValueError(f"divisor {d} is given more than once")
        v = Fraction(-p if negative else p, q)
        values[d] = v.numerator if v.denominator == 1 else v
    return EvenFunction.from_values(r, values, system)


def format_value(v) -> str:
    """A cell as text: bools as true/false, floats to 12 significant digits;
    str already prints ints plainly and rationals as p/q."""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return f"{v:.12g}"
    return str(v)


def _json_cell(v):
    # an exact int is its own JSON text, and so is an integral rational's
    # numerator; other rationals are the JSON string "p/q", written from the
    # two integers, and floats text, as json.dumps of the row's dict has them
    if type(v) is int:
        return v
    if isinstance(v, Fraction):
        return v.numerator if v.denominator == 1 else f'"{v.numerator}/{v.denominator}"'
    return json.dumps(format_value(v) if isinstance(v, float) else v)


def _chunks(items: Iterable) -> Iterator[list]:
    items = iter(items)
    while chunk := list(islice(items, CHUNK_ROWS)):
        yield chunk


def _plain_line(cells: Iterable[str], widths: Sequence[int]) -> str:
    return "  ".join(c.ljust(w) for c, w in zip(cells, widths)).rstrip() + "\n"


class _Grid:
    """A table of ints as one column-major sequence: `values[j * n_max +
    n - 1]` is the value at n and `moduli[j]`. `_emit_rows` writes its
    rows (n, r, value), n-major, or (r, value) under a two-key header,
    whose grid has n_max 1."""

    __slots__ = ("moduli", "n_max", "values")

    def __init__(self, moduli: range, n_max: int, values: Sequence[int]):
        self.moduli, self.n_max, self.values = moduli, n_max, values


def _grid_texts(header: list[str], grid: _Grid, fmt: str) -> Iterator[str]:
    # each line joins two pieces, the n text and a tail, the r text and the
    # value text of one modulus, both cut from the one field template per
    # key of its format, so a row of n is the tails of its moduli joined by
    # its n text. Without an n key, the n text is the line's opening alone:
    # its %.0s takes the n and prints none of it
    moduli, n_max, values = grid.moduli, grid.n_max, grid.values
    *n_key, _, _ = header
    if fmt == "plain":
        # the value is the last cell, so its padding is what rstrip removes
        tops = [n_max] * len(n_key) + [moduli[-1]]
        widths = [max(len(k), len(str(top))) for k, top in zip(header, tops)]
        yield _plain_line(header, (*widths, 0))
        fields = [f"%-{w}d" for w in widths] + ["%d"]
        opening, sep, closing = "", "  ", "\n"
    elif fmt == "json":
        fields = [json.dumps(k).replace("%", "%%") + ": %d" for k in header]
        opening, sep, closing = "{", ", ", "}\n"
    else:
        yield from _emit_rows(header, (), fmt)  # the CSV header line
        fields = ["%d"] * len(header)
        opening, sep, closing = "", ",", "\n"
    n_piece = opening + (fields[0] + sep if n_key else "%.0s")
    tail = sep.join(fields[-2:]) + closing

    width = len(moduli)
    if width <= CHUNK_ROWS:
        # whole rows of n, as many as fit in CHUNK_ROWS lines, row n the
        # slice values[n::n_max]; a modulus's tail is made once per distinct
        # value in its column and looked up per cell
        starts = range(0, width * n_max, n_max)
        tails = [{v: tail % (r, v) for v in set(values[j:j + n_max])} for r, j in zip(moduli, starts)]
        step = CHUNK_ROWS // width
        for lo in range(0, n_max, step):
            hi = min(lo + step, n_max)
            n_texts = list(map(n_piece.__mod__, range(lo + 1, hi + 1)))
            rows = (values[n::n_max] for n in range(lo, hi))
            lines = map(str.join, n_texts, map(map, repeat(getitem), repeat(tails), rows))
            yield "".join(chain.from_iterable(zip(n_texts, lines)))
        return
    # a row longer than a chunk is cut into chunks, each formatting its tails
    # where it prints them, so no text of every modulus is held at once; the
    # leading "" puts the n text before the chunk's first tail in the one join
    for n in range(n_max):
        n_text = n_piece % (n + 1)
        for lo in range(0, width, CHUNK_ROWS):
            hi = lo + CHUNK_ROWS
            cells = zip(moduli[lo:hi], values[lo * n_max + n:hi * n_max:n_max])
            yield n_text.join(chain(("",), map(tail.__mod__, cells)))


def _emit_rows(header: list[str], rows: Iterable[Sequence], fmt: str) -> Iterator[str]:
    """The text of `rows` under `header` as JSON lines, CSV or plain text,
    one string per chunk of at most CHUNK_ROWS rows.

    A `_Grid`, every `table`, is written by `_grid_texts` from its values,
    with no row tuple or type scan per cell. Plain output pads n and r to
    the widths of n_max and the largest modulus, and the last cell, the
    value, is not padded.

    Other rows, the small tables of `c`, `verify` and `expansion`, are read
    as they come. JSON and CSV take each chunk as it arrives, so `rows` may
    be a generator; plain output formats every cell before its first text,
    to pad its columns to their widest text. Every cell passes through
    `_json_cell` or `format_value`, so a JSON line is byte-identical to
    `json.dumps(dict(zip(header, row)))` after the cell rules of
    `_json_cell`, and a grid's text to that of its rows.
    """
    if isinstance(rows, _Grid):
        yield from _grid_texts(header, rows, fmt)
        return
    if fmt == "plain":
        texts = [header, *(tuple(map(format_value, row)) for row in rows)]
        widths = [max(map(len, column)) for column in zip(*texts)]
        yield from map("".join, _chunks(_plain_line(row, widths) for row in texts))
        return
    if fmt == "json":
        # one %-template per header: each key quoted once, its own % escaped
        fields = (json.dumps(k).replace("%", "%%") + ": %s" for k in header)
        template = "{" + ", ".join(fields) + "}\n"
        cell = _json_cell

        def text(chunk):
            return "".join(map(template.__mod__, chunk))
    else:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        cell = format_value

        def text(chunk):
            buf.seek(0)
            buf.truncate()
            writer.writerows(chunk)
            return buf.getvalue()

        yield text([header])
    for chunk in _chunks(rows):
        yield text([tuple(map(cell, row)) for row in chunk])


def _cmd_c(args) -> list:
    if args.route in ("oracle", "all") and args.r > MAX_ORACLE_R:
        raise ValueError(f"--route {args.route} needs r at most {MAX_ORACLE_R}, got {args.r}")
    system = load_system(args.system)
    n, r = args.n, args.r
    exact = {"divisor": gensums.c_A_divisor, "core": gensums.c_A_core}
    if args.route in exact:
        return [(["n", "r", "value"], [[n, r, exact[args.route](system, n, r)]], True)]
    ov = gensums.c_A_oracle(system, n, r)
    if args.route == "oracle":
        return [(["n", "r", "re", "im"], [[n, r, ov.real, ov.imag]], True)]
    dv, cv = gensums.c_A_divisor(system, n, r), gensums.c_A_core(system, n, r)
    match = dv == cv == gensums.c_A(system, n, r)
    match = match and abs(ov.imag) <= 1e-6 and abs(ov.real - dv) <= 1e-6
    row = [n, r, dv, cv, ov.real, "true" if match else "false"]
    return [(["n", "r", "divisor", "core", "oracle", "match"], [row], match)]


def _cmd_table(args) -> list:
    if args.nmax is not None and args.what != "cA":
        raise ValueError(f"--nmax applies only to --what cA, not --what {args.what}")
    n_max = args.nmax or args.rmax
    n_rows = args.rmax * n_max if args.what == "cA" else args.rmax
    if n_rows > MAX_TABLE_ROWS:
        raise ValueError(f"table must have at most {MAX_TABLE_ROWS} rows, got {n_rows}")
    system = load_system(args.system)
    moduli = range(1, args.rmax + 1)
    if args.what == "cA":
        columns = (gensums.c_A_column(system, r, n_max) for r in moduli)
        return [(["n", "r", "value"], _Grid(moduli, n_max, list(chain.from_iterable(columns))), True)]
    fn = {"phiA": phi_A, "psiA": psi_A, "gammaA": gamma_A, "muA": mu_A}[args.what]
    values = array("q", (fn(system, r) for r in moduli))
    return [(["r", "value"], _Grid(moduli, 1, values), True)]


def _cmd_verify(args) -> list:
    if args.rmax > MAX_RMAX:
        raise ValueError(f"--rmax must be at most {MAX_RMAX}, got {args.rmax}")
    if args.even is not None and args.target not in ("prop1", "all"):
        raise ValueError(f"--even applies only to prop1 and all, not {args.target}")
    system = load_system(args.system)
    extra = None if args.even is None else _even_function(args.even, system)
    names = verify.PROPOSITIONS if args.target == "all" else (args.target,)
    return verify.check_propositions(names, system, args.rmax, args.xmax, extra)


def _cmd_expansion(args) -> list:
    if args.terms > MAX_TERMS:
        raise ValueError(f"--terms must be at most {MAX_TERMS}, got {args.terms}")
    res = verify.expansion_demo(args.n, args.terms)
    rows = [[res.n, res.terms, res.truncated_value, res.target, res.abs_error]]
    return [(["n", "terms", "truncated", "target", "abs_error"], rows, True)]


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ramlab", description=__doc__)
    common = _Parser(add_help=False)
    common.add_argument("--format", choices=FORMATS)
    common.add_argument("-o", "--output", default=None, help="write output to a file")
    sub = parser.add_subparsers(dest="command", required=True)

    p_c = sub.add_parser("c", help="generalized Ramanujan sum c_A(n, r)", parents=[common])
    p_c.add_argument("n", type=_positive_int)
    p_c.add_argument("r", type=_positive_int)
    p_c.add_argument("--system", default="D", help="D, U, MIX, or a JSON spec file")
    p_c.add_argument("--route", choices=("divisor", "core", "oracle", "all"), default="divisor",
                     help=f"oracle and all need r at most {MAX_ORACLE_R}")
    p_c.set_defaults(func=_cmd_c)

    p_t = sub.add_parser("table", help="tables of c_A, phi_A, psi_A, gamma_A, mu_A", parents=[common])
    p_t.add_argument("--what", choices=("cA", "phiA", "psiA", "gammaA", "muA"), required=True)
    p_t.add_argument("--system", default="D")
    p_t.add_argument("--rmax", type=_positive_int, required=True,
                     help=f"the table has rmax rows, rmax * nmax for cA, at most {MAX_TABLE_ROWS}")
    p_t.add_argument("--nmax", type=_positive_int, default=None,
                     help="cA only: n = 1..nmax, default rmax")
    p_t.set_defaults(func=_cmd_table)

    p_v = sub.add_parser("verify", help="run the proposition checkers", parents=[common])
    p_v.add_argument("target", choices=(*verify.PROPOSITIONS, "all"))
    p_v.add_argument("--system", default="D")
    p_v.add_argument("--rmax", type=_positive_int, default=50, help=f"at most {MAX_RMAX}")
    p_v.add_argument("--xmax", type=_positive_int, default=1000)
    p_v.add_argument("--even", default=None,
                     help="prop1 and all only: an extra (A, r)-even function literal, read in "
                          "--system and refused if it is not A-even, e.g. 'r=6; 1:1, 2:-1, 3:0, 6:2'")
    p_v.set_defaults(func=_cmd_verify)

    p_e = sub.add_parser("expansion", help="truncated harmonic expansion of sigma(n)/n", parents=[common])
    p_e.add_argument("n", type=_positive_int)
    p_e.add_argument("--terms", type=_positive_int, default=1000,
                     help=f"at most {MAX_TERMS}")
    p_e.set_defaults(func=_cmd_expansion)
    return parser


def main(argv=None) -> int:
    """Every command computes its tables before `main` writes a byte, so a
    failed run prints nothing; each text is written as `_emit_rows` makes it."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    # argparse checks a given --format; the environment's is checked here
    fmt = args.format or os.environ.get("RAMLAB_FORMAT", "plain")
    if fmt not in FORMATS:
        print(f"RAMLAB_FORMAT must be one of {', '.join(FORMATS)}, got {fmt!r}", file=sys.stderr)
        return EXIT_USAGE
    try:
        tables = args.func(args)
        with open(args.output, "w") if args.output else nullcontext(sys.stdout) as out:
            for header, rows, _ in tables:
                out.writelines(_emit_rows(header, rows, fmt))
    except InvalidSystemError as exc:
        for v in exc.violations:
            print(v, file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, OSError) as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_USAGE
    return EXIT_OK if all(ok for _, _, ok in tables) else EXIT_MISMATCH


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
