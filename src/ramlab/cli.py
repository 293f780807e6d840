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
from fractions import Fraction
from itertools import chain, islice, repeat
from operator import itemgetter
from typing import Iterable, Iterator, Sequence

from . import gensums, verify
from .systems import InvalidSystemError, gamma_A, load_system, mu_A, phi_A, psi_A

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_MISMATCH = 2

FORMATS = ("json", "csv", "plain")

# `expansion` holds one Moebius sieve of --terms signed bytes: 45 MB peak RSS
# and 1.6-2.2 s at the cap (`expansion 720720`), three fresh processes
# (CPython 3.11, x86-64)
MAX_TERMS = 10**7

# prop3's diagonal rows cost sum r <= rmax^2/2 kernel values: `verify all` took
# 1.5-1.8 s and 30 MB peak RSS at the cap under D, U and MIX, three fresh
# processes each (CPython 3.11, x86-64 Xeon, 2 vCPUs)
MAX_RMAX = 3000

# `--what cA` keeps one column list per modulus and `main` holds every
# chunk's text until the command succeeds. At the cap a fresh process (no
# bytecode cache) took, for a square `--what cA` table under MIX, 0.23-0.30 s
# and 27 MB peak RSS as JSON, 0.21-0.28 s and 21 MB as CSV, and 0.24-0.27 s
# and 22 MB as plain; for one column per modulus (--nmax 1, under U), most
# of it factorizing the moduli, 3.9-4.6 s and 52 MB as JSON and 4.3-4.9 s
# and 46 MB as plain; for --rmax 4 --nmax 65536 under D 0.31-0.35 s and
# 27 MB as JSON (CPython 3.11, x86-64, three processes each)
MAX_TABLE_ROWS = 2**18

# rows per emitted text, at most: JSON and CSV take the all-int check and the
# write once per chunk, and `main` holds one string per chunk
CHUNK_ROWS = 4096

# the oracle and all routes sum r floating-point terms, each after a scan of
# A(r): the slowest r below the cap, 83160 and 98280, took 0.55 s in a fresh
# process (CPython 3.11, x86-64)
MAX_ORACLE_R = 10**5


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; the contract here is 1
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return value


def _default_format() -> str:
    fmt = os.environ.get("RAMLAB_FORMAT", "plain")
    return fmt if fmt in FORMATS else "plain"


def format_value(v) -> str:
    """A cell as text: bools as true/false, floats to 12 significant digits;
    str already prints ints plainly and rationals as p/q."""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return f"{v:.12g}"
    return str(v)


def _json_cell(v):
    # an exact int is its own JSON text; integral rationals become JSON numbers,
    # other rationals and floats text, as json.dumps of the row's dict has them
    if type(v) is int:
        return v
    if isinstance(v, Fraction) and v.denominator == 1:
        v = v.numerator
    elif isinstance(v, (Fraction, float)):
        v = format_value(v)
    return json.dumps(v)


def _chunks(items: Iterable) -> Iterator[list]:
    items = iter(items)
    while chunk := list(islice(items, CHUNK_ROWS)):
        yield chunk


def _plain_width(name: str, column: list) -> int:
    # an exact int's text is longest at the column's max or min, so the cells
    # of an all-int column are formatted only once, in their lines; bools
    # print true/false and take the general pass
    if column and all(type(v) is int for v in column):
        column = [max(column), min(column)]
    return max([len(name), *map(len, map(format_value, column))])


def _plain_line(cells: Iterable[str], widths: Sequence[int]) -> str:
    return "  ".join(c.ljust(w) for c, w in zip(cells, widths)).rstrip() + "\n"


class _Grid:
    """The c_A table as columns: `columns[j]` lists c_A(n, moduli[j]) for
    n = 1..n_max. Iterated, it gives the rows (n, r, value), n-major, that
    the table prints; `_emit_rows` writes it from the columns instead."""

    __slots__ = ("moduli", "n_max", "columns")

    def __init__(self, moduli: range, n_max: int, columns: list[list[int]]):
        self.moduli, self.n_max, self.columns = moduli, n_max, columns

    def __iter__(self) -> Iterator[tuple[int, int, int]]:
        return chain.from_iterable(
            zip(repeat(n), self.moduli, map(itemgetter(n - 1), self.columns))
            for n in range(1, self.n_max + 1)
        )


def _grid_texts(header: list[str], grid: _Grid, fmt: str) -> Iterator[str]:
    # each line joins three pieces, the n text, the r text and the value
    # text, each from a %d template of its format: a value text is made once
    # per distinct value, an n text once per chunk that holds n, and the r
    # texts as the two loops below say
    moduli, n_max, columns = grid.moduli, grid.n_max, grid.columns
    if fmt == "plain":
        # the value is the last cell, so its padding is what rstrip removes
        widths = (max(len(header[0]), len(str(n_max))), max(len(header[1]), len(str(moduli[-1]))))
        yield _plain_line(header, (*widths, 0))
        pieces = (f"%-{widths[0]}d  ", f"%-{widths[1]}d  ", "%d\n")
    elif fmt == "json":
        n_key, r_key, v_key = (json.dumps(k).replace("%", "%%") for k in header)
        pieces = (f"{{{n_key}: %d, {r_key}: ", f"%d, {v_key}: ", "%d}\n")
    else:
        yield from _emit_rows(header, (), fmt)  # the CSV header line
        pieces = ("%d,", "%d,", "%d\n")
    n_piece, r_piece, v_piece = pieces
    value_text = {v: v_piece % v for v in set(chain.from_iterable(columns))}.__getitem__

    def text(ns: range, cols: list, r_texts: list[str]) -> str:
        # rows n in ns (0-based) by the given columns, n-major; the values
        # are read by n when there are fewer n than columns, else by column
        if len(ns) < len(cols):
            values = chain.from_iterable(map(map, map(itemgetter, ns), repeat(cols)))
        else:
            values = chain.from_iterable(zip(*map(itemgetter(slice(ns.start, ns.stop)), cols)))
        n_texts = map(n_piece.__mod__, range(ns.start + 1, ns.stop + 1))
        lines = zip(
            chain.from_iterable(map(repeat, n_texts, repeat(len(cols)))),
            chain.from_iterable(repeat(r_texts, len(ns))),
            map(value_text, values),
        )
        return "".join(chain.from_iterable(lines))

    width = len(columns)
    if width <= CHUNK_ROWS:
        # whole rows of n, as many as fit in CHUNK_ROWS lines
        r_texts = list(map(r_piece.__mod__, moduli))
        step = CHUNK_ROWS // width
        for n in range(0, n_max, step):
            yield text(range(n, min(n + step, n_max)), columns, r_texts)
        return
    # a row longer than a chunk is cut into chunks, each building the r
    # texts it prints, so no text of every modulus is held at once
    for n in range(n_max):
        for lo in range(0, width, CHUNK_ROWS):
            hi = lo + CHUNK_ROWS
            yield text(range(n, n + 1), columns[lo:hi], list(map(r_piece.__mod__, moduli[lo:hi])))


def _emit_rows(header: list[str], rows: Iterable[Sequence], fmt: str) -> Iterator[str]:
    """The text of `rows` under `header` as JSON lines, CSV or plain text,
    one string per chunk of at most CHUNK_ROWS rows.

    A `_Grid`, the c_A table, is written from its columns and is never
    iterated as rows. Each line joins the n text, made once per n, the r
    text, made once per modulus and reused down the table (once per chunk
    when a row of moduli is longer than a chunk), and the value text, made
    once per distinct value: no row tuple, type scan or % per cell. Plain
    output pads n and r to the widths of n_max and the largest modulus,
    and the last cell, the value, is not padded. At the 2^18-row cap that
    takes the three formats to 0.21-0.30 s and 21-27 MB peak RSS in a fresh
    process (see MAX_TABLE_ROWS).

    Other rows are read as they come. JSON and CSV take each chunk as it
    arrives, so `rows` may be a generator; plain output consumes every row
    before its first text, to pad its columns. A chunk whose cells are all
    exact ints is written as it is; any other first passes each cell
    through `_json_cell` or `format_value`. Either way a JSON line is
    byte-identical to `json.dumps(dict(zip(header, row)))` after the cell
    rules of `_json_cell`, and a grid's text to that of its rows.
    """
    if isinstance(rows, _Grid):
        yield from _grid_texts(header, rows, fmt)
        return
    if fmt == "plain":
        rows = list(rows)
        widths = [_plain_width(h, [r[i] for r in rows]) for i, h in enumerate(header)]
        lines = (_plain_line(map(format_value, row), widths) for row in chain([header], rows))
        yield from map("".join, _chunks(lines))
        return
    if fmt == "json":
        # one %-template per header: each key quoted once, its own % escaped
        fields = (json.dumps(k).replace("%", "%%") + ": %s" for k in header)
        template = "{" + ", ".join(fields) + "}\n"
        cell = _json_cell

        def text(chunk):
            return "".join(map(template.__mod__, map(tuple, chunk)))
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
        if not set(map(type, chain.from_iterable(chunk))) <= {int}:
            chunk = [tuple(map(cell, row)) for row in chunk]
        yield text(chunk)


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
    n_max = args.nmax or args.rmax
    n_rows = args.rmax * n_max if args.what == "cA" else args.rmax
    if n_rows > MAX_TABLE_ROWS:
        raise ValueError(f"table must have at most {MAX_TABLE_ROWS} rows, got {n_rows}")
    system = load_system(args.system)
    if args.what == "cA":
        moduli = range(1, args.rmax + 1)
        columns = [gensums.c_A_column(system, r, n_max) for r in moduli]
        return [(["n", "r", "value"], _Grid(moduli, n_max, columns), True)]
    fn = {"phiA": phi_A, "psiA": psi_A, "gammaA": gamma_A, "muA": mu_A}[args.what]
    rows = ((r, fn(system, r)) for r in range(1, args.rmax + 1))
    return [(["r", "value"], rows, True)]


def _cmd_verify(args) -> list:
    if args.rmax > MAX_RMAX:
        raise ValueError(f"--rmax must be at most {MAX_RMAX}, got {args.rmax}")
    system = load_system(args.system)
    names = verify.PROPOSITIONS if args.target == "all" else (args.target,)
    return verify.check_propositions(names, system, args.rmax, args.xmax, args.even)


def _cmd_expansion(args) -> list:
    if args.terms > MAX_TERMS:
        raise ValueError(f"--terms must be at most {MAX_TERMS}, got {args.terms}")
    res = verify.expansion_demo(args.n, args.terms)
    rows = [[res.n, res.terms, res.truncated_value, res.target, res.abs_error]]
    return [(["n", "terms", "truncated", "target", "abs_error"], rows, True)]


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ramlab", description=__doc__)
    common = _Parser(add_help=False)
    common.add_argument("--format", choices=FORMATS, default=_default_format())
    common.add_argument("-o", "--output", default=None, help="write output to a file")
    sub = parser.add_subparsers(dest="command", required=True)

    p_c = sub.add_parser("c", help="generalized Ramanujan sum c_A(n, r)", parents=[common])
    p_c.add_argument("n", type=int)
    p_c.add_argument("r", type=int)
    p_c.add_argument("--system", default="D", help="D, U, MIX, or a JSON spec file")
    p_c.add_argument("--route", choices=("divisor", "core", "oracle", "all"), default="divisor",
                     help=f"oracle and all need r at most {MAX_ORACLE_R}")
    p_c.set_defaults(func=_cmd_c)

    p_t = sub.add_parser("table", help="tables of c_A, phi_A, psi_A, gamma_A, mu_A", parents=[common])
    p_t.add_argument("--what", choices=("cA", "phiA", "psiA", "gammaA", "muA"), required=True)
    p_t.add_argument("--system", default="D")
    p_t.add_argument("--rmax", type=_positive_int, required=True,
                     help=f"the table has rmax rows, rmax * nmax for cA, at most {MAX_TABLE_ROWS}")
    p_t.add_argument("--nmax", type=_positive_int, default=None)
    p_t.set_defaults(func=_cmd_table)

    p_v = sub.add_parser("verify", help="run the proposition checkers", parents=[common])
    p_v.add_argument("target", choices=(*verify.PROPOSITIONS, "all"))
    p_v.add_argument("--system", default="D")
    p_v.add_argument("--rmax", type=_positive_int, default=50, help=f"at most {MAX_RMAX}")
    p_v.add_argument("--xmax", type=_positive_int, default=1000)
    p_v.add_argument("--even", default=None,
                     help="extra even function literal, e.g. 'r=6; 1:1, 2:-1, 3:0, 6:2'")
    p_v.set_defaults(func=_cmd_verify)

    p_e = sub.add_parser("expansion", help="truncated harmonic expansion of sigma(n)/n", parents=[common])
    p_e.add_argument("n", type=int)
    p_e.add_argument("--terms", type=_positive_int, default=1000,
                     help=f"at most {MAX_TERMS}, where the run peaks at about 45 MB RSS")
    p_e.set_defaults(func=_cmd_expansion)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    # the chunk texts are held until every table is made, so a failed run
    # prints nothing
    texts = []
    passed = True
    try:
        for header, rows, ok in args.func(args):
            texts.extend(_emit_rows(header, rows, args.format))
            passed &= ok
        if args.output:
            with open(args.output, "w") as fh:
                fh.writelines(texts)
        else:
            sys.stdout.writelines(texts)
    except InvalidSystemError as exc:
        for v in exc.violations:
            print(v, file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, OSError) as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_USAGE
    return EXIT_OK if passed else EXIT_MISMATCH


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
