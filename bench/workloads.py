"""Seeded workload generators and the independent output checks.

A workload is a list of `ramlab` argv lists, built from a seed and nothing
else; the program sees only those argv lists. Each invocation's result is
judged by `check`, which recomputes what it can by another route than the
one the CLI used, and never inside the timed region.

Generators use only the standard library. The checks import `ramlab` for
the core and oracle routes of c_A, which the CLI does not use.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

NAMES = ("table-dense", "query-stream", "verify-sweep", "even-fourier")

# what one unit of throughput counts, per workload
WORK_UNITS = {
    "table-dense": "c_A values",
    "query-stream": "queries",
    "verify-sweep": "emitted records",
    "even-fourier": "Fourier coefficients",
}

OK, REFUSED, WRONG = "ok", "refused", "wrong"

QUERY_COUNT = 2000
QUERY_CAP = 10**10
SMOOTH_PRIMES = (2, 3, 5, 7, 11, 13)
# MIX declares its divisor sets only for prime powers p^a with a <= 16 and
# refuses larger exponents; under the cap only 2^17 and 3^17 can occur
MIX_EXPONENT_BOUND = 16
# highly composite moduli for the even-function literals, tau = 108 to 144: six
# short invocations per child rather than a few long ones, so that the host's
# speed changes less often inside one invocation
EVEN_MODULI = (50400, 55440, 65520, 75600, 83160, 110880)
EXPANSION_NS = (5040, 55440, 720720, 831600, 942480, 982800, 997920)
EXPANSION_TERMS = 10**6


@dataclass(frozen=True)
class Workload:
    name: str
    seed: int
    invocations: tuple[tuple[str, ...], ...]


def make(name: str, seed: int) -> Workload:
    """The argv lists of one workload; the same seed gives the same lists."""
    rng = random.Random(f"{name}:{seed}")
    build = {
        "table-dense": _table_dense,
        "query-stream": _query_stream,
        "verify-sweep": _verify_sweep,
        "even-fourier": _even_fourier,
    }[name]
    return Workload(name, seed, tuple(tuple(argv) for argv in build(rng)))


def _table_dense(rng):
    rmax = 300 + rng.randint(-4, 4)
    nmax = 300 + rng.randint(-4, 4)
    return [["table", "--what", "cA", "--system", "MIX", "--rmax", str(rmax),
             "--nmax", str(nmax), "--format", "json"]]


def _smooth_modulus(rng) -> int:
    # random powers of the primes <= 13, taken in random order under the cap
    r = 1
    for p in rng.sample(SMOOTH_PRIMES, len(SMOOTH_PRIMES)):
        e_max = 0
        while r * p ** (e_max + 1) <= QUERY_CAP:
            e_max += 1
        r *= p ** rng.randint(0, e_max)
    return r


def within_mix_bound(r: int) -> bool:
    """Whether every prime power of r <= QUERY_CAP is inside MIX's exponent bound."""
    return all(r % p ** (MIX_EXPONENT_BOUND + 1) for p in (2, 3))


def _query_stream(rng):
    # a modulus MIX refuses is asked under D or U instead, so that no query
    # fails and `failed` repeats from run to run; the moduli are unchanged
    queries = []
    for i in range(QUERY_COUNT):
        if i % 2:
            r = _smooth_modulus(rng)
        else:
            r = max(1, int(math.exp(rng.uniform(0.0, math.log(QUERY_CAP)))))
        n = rng.randint(1, 10**12)
        system = rng.choice(("D", "U", "MIX"))
        if system == "MIX" and not within_mix_bound(r):
            system = rng.choice(("D", "U"))
        queries.append(["c", str(n), str(r), "--system", system, "--format", "json"])
    return queries


def outside_mix_bound(invocations) -> int:
    """How many `c` queries have a modulus MIX would refuse (asked under D or U only)."""
    return sum(1 for q in invocations if q[0] == "c" and not within_mix_bound(int(q[2])))


def _verify_sweep(rng):
    xmax = 30_000 + rng.randrange(1000)
    runs = [["verify", "all", "--system", s, "--rmax", "50", "--xmax", str(xmax),
             "--format", "json"] for s in ("D", "U", "MIX")]
    runs.append(["expansion", str(rng.choice(EXPANSION_NS)), "--terms",
                 str(EXPANSION_TERMS), "--format", "json"])
    return runs


def _divisors(r: int) -> list[int]:
    small = [d for d in range(1, math.isqrt(r) + 1) if r % d == 0]
    return sorted(set(small + [r // d for d in small]))


def _even_fourier(rng):
    xmax = rng.randint(20, 100)
    runs = []
    for r in EVEN_MODULI:
        pairs = ", ".join(
            f"{d}:{rng.randint(-9, 9)}/{rng.randint(1, 9)}" for d in _divisors(r)
        )
        runs.append(["verify", "prop1", "--even", f"r={r}; {pairs}", "--rmax", "12",
                     "--xmax", str(xmax), "--format", "json"])
    return runs


# ---------------------------------------------------------------- checks


def _opt(argv, flag, default=None):
    return argv[argv.index(flag) + 1] if flag in argv else default


def _records(stdout: str) -> list[dict]:
    return [json.loads(line) for line in stdout.splitlines() if line.strip()]


def _exact(v) -> Fraction:
    return Fraction(str(v))


def _passed(v) -> bool:
    # "true" today; a JSON boolean once verify records carry real booleans
    return v is True or v == "true"


def check(argv, code, stdout: str) -> tuple[str, int, str]:
    """Judge one invocation: (status, work units done, reason if not ok).

    Exit 1 is the program refusing an input (counted as failed); any other
    nonzero exit, or output the recomputation disagrees with, is wrong.
    """
    if code == 1:
        return REFUSED, 0, "exit 1"
    if code != 0:
        return WRONG, 0, f"exit {code}"
    try:
        return {
            "table": _check_table,
            "c": _check_c,
            "verify": _check_verify,
            "expansion": _check_expansion,
        }[argv[0]](argv, _records(stdout))
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return WRONG, 0, f"unreadable output: {exc!r}"


def _system(name):
    from ramlab.systems import load_system

    return load_system(name)


def _check_table(argv, rows):
    from ramlab.gensums import c_A_core, c_A_oracle
    from ramlab.systems import phi_A

    system = _system(_opt(argv, "--system"))
    rmax = int(_opt(argv, "--rmax"))
    nmax = int(_opt(argv, "--nmax") or rmax)
    if len(rows) != nmax * rmax:
        return WRONG, 0, f"{len(rows)} rows, expected {nmax * rmax}"
    grid = [(n, r) for n in range(1, nmax + 1) for r in range(1, rmax + 1)]
    for (n, r), row in zip(grid, rows):
        if (row["n"], row["r"]) != (n, r):
            return WRONG, 0, f"row {row} out of order, expected n={n}, r={r}"
        if row["value"] != c_A_core(system, n, r):
            return WRONG, 0, f"c_A({n}, {r}) = {row['value']} disagrees with the core route"
        if n == r and row["value"] != phi_A(system, r):
            return WRONG, 0, f"diagonal c_A({r}, {r}) = {row['value']} is not phi_A"
    sample = random.Random(" ".join(argv)).sample(range(len(rows)), min(200, len(rows)))
    for i in sample:
        n, r = grid[i]
        z = c_A_oracle(system, n, r)
        if abs(z.imag) > 1e-6 or abs(z.real - rows[i]["value"]) > 1e-6:
            return WRONG, 0, f"c_A({n}, {r}) = {rows[i]['value']} disagrees with the oracle"
    return OK, len(rows), ""


def _check_c(argv, rows):
    from ramlab.gensums import c_A_core

    n, r = int(argv[1]), int(argv[2])
    if len(rows) != 1 or (rows[0]["n"], rows[0]["r"]) != (n, r):
        return WRONG, 0, f"expected one record for n={n}, r={r}, got {rows[:2]}"
    want = c_A_core(_system(_opt(argv, "--system", "D")), n, r)
    if rows[0]["value"] != want:
        return WRONG, 0, f"c_A({n}, {r}) = {rows[0]['value']}, core route gives {want}"
    return OK, 1, ""


def _check_verify(argv, rows):
    if not rows:
        return WRONG, 0, "no records"
    for row in rows:
        if "pass" in row and not _passed(row["pass"]):
            return WRONG, 0, f"record does not pass: {row}"
        if row.get("verdict") == "unexpected":
            return WRONG, 0, f"unexpected orthogonality verdict: {row}"
    literal = _opt(argv, "--even")
    if literal is not None:
        reason, coefficients = _check_even_literal(argv, literal, rows)
        if reason:
            return WRONG, 0, reason
        return OK, coefficients, ""
    return OK, len(rows), ""


def _check_even_literal(argv, literal: str, rows) -> tuple[str, int]:
    # the literal's records: partial sums recomputed by brute force over n <= x
    head, body = literal.split(";", 1)
    r = int(head.split("=")[1])
    values = {}
    for item in body.split(","):
        d, v = item.split(":")
        values[int(d)] = Fraction(v.strip())
    # the literal comes last in the prop1 battery, one record per x
    xmax = int(_opt(argv, "--xmax", "1000"))
    mine = rows[-2:] if xmax > 100 else rows[-1:]
    if any(row.get("r") != r for row in mine):
        return f"the last records are not the r={r} literal's: {mine}", 0
    for row in mine:
        x = int(row["x"])
        brute = sum(values[gcd(n, r)] for n in range(1, x + 1))
        if _exact(row["exact_sum"]) != brute:
            return f"literal partial sum {row['exact_sum']} at x={x}, brute force gives {brute}", 0
        if _exact(row["residual"]) != _exact(row["exact_sum"]) - _exact(row["main_term"]):
            return f"residual is not exact_sum - main_term: {row}", 0
    # one Fourier expansion of the literal per partial sum
    return "", len(values) * len(mine)


def _check_expansion(argv, rows):
    n, terms = int(argv[1]), int(_opt(argv, "--terms", "1000"))
    if len(rows) != 1:
        return WRONG, 0, f"expected one record, got {len(rows)}"
    row = rows[0]
    divs = _divisors(n)
    target = sum(divs) / n
    truncated, abs_error = float(row["truncated"]), float(row["abs_error"])
    # the error is (pi^2/6) sum_{d|n} (1/d) |sum_{m > M} mu(m)/m^2| with M = floor(R/d);
    # each inner tail is below 1/M <= 2d/R while d <= n <= R, so the sum is <= 2 tau(n)/R
    tail = (math.pi**2 / 6) * 2 * len(divs) / terms
    if (row["n"], row["terms"]) != (n, terms):
        return WRONG, 0, f"record for n={row['n']}, terms={row['terms']}"
    if abs(float(row["target"]) - target) > 1e-9 * target:
        return WRONG, 0, f"target {row['target']}, sigma(n)/n is {target}"
    if abs(abs(truncated - target) - abs_error) > 1e-9 * target or abs_error > tail:
        return WRONG, 0, f"abs_error {abs_error} inconsistent or above the tail bound {tail}"
    return OK, 1, ""
