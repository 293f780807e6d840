"""Ramanujan's expansion sigma(n)/n = (pi^2/6) sum_r c(n, r)/r^2, truncated
at R terms in floating point. It checks no proposition and needs only `arith`."""

from __future__ import annotations

import math
from array import array
from itertools import accumulate, chain, repeat
from math import fsum, isqrt
from operator import mul, sub, truediv

from .arith import divisors, factorize, moebius_sieve

# up to this many terms, `expansion_demo` adds every prefix sum of
# mu(m)/m^2 in increasing m; above it, only those up to floor(R^(2/3)), and
# the larger cuts come from a recursion, more accurate and O(R^(2/3))
IN_ORDER_TERMS = 2**17

__all__ = ["expansion_demo"]


def _square_tail(y: int) -> float:
    """T(y) = sum_{d>y} 1/d^2 for y >= 1 by its Euler-Maclaurin series
    1/y - 1/(2y^2) + 1/(6y^3) - 1/(30y^5), in Horner form; the series
    alternates, so the error is below the first omitted term 1/(42y^7)."""
    t = 1.0 / y
    return t - t * t * (0.5 - t * (1.0 / 6.0 - t * t / 30.0))


def _in_order_limit(terms: int) -> int:
    """U: R itself up to IN_ORDER_TERMS, else floor(R^(2/3)) in integers,
    so that every platform picks the same U."""
    if terms <= IN_ORDER_TERMS:
        return terms
    square = terms * terms
    u = round(square ** (1 / 3))
    while u**3 > square:
        u -= 1
    while (u + 1) ** 3 <= square:
        u += 1
    return u


def _moebius_square_sums(terms: int) -> tuple[array, dict[int, float]]:
    """F(x) = sum_{m<=x} mu(m)/m^2 as (prefix, above): prefix[x] for every
    x <= U = `_in_order_limit(terms)`, and above[x] for each x = R // k > U.
    See `expansion_demo` for the method."""
    limit = _in_order_limit(terms)
    ms = range(1, limit + 1)
    quotients = map(truediv, moebius_sieve(limit)[1:], map(mul, ms, ms))
    prefix = array("d", accumulate(quotients, initial=0.0))
    above: dict[int, float] = {}
    if terms == limit:
        return prefix, above
    # tails[y] = T(y) for y <= U, added downwards from the series at U
    down = range(limit, 0, -1)
    reciprocals = map(truediv, repeat(1.0), map(mul, down, down))
    tails = array("d", accumulate(reciprocals, initial=_square_tail(limit)))
    tails.reverse()
    for k in range(terms // (limit + 1), 0, -1):
        x = terms // k
        root = isqrt(x)
        last = x // (root + 1)
        # d <= last one at a time, each x // d > root already known
        ds = range(2, last + 1)
        singles = [above[v] if v > limit else prefix[v] for v in (x // d for d in ds)]
        weights = map(mul, ds, ds)
        # the rest in blocks of one quotient q <= root: d in (x // (q+1), x // q]
        ys = (x // q for q in range(1, root + 2))
        ends = [tails[y] if y <= limit else _square_tail(y) for y in ys]
        blocks = map(mul, prefix[1 : root + 1], map(sub, ends[1:], ends[:-1]))
        total = fsum(chain(map(truediv, singles, weights), blocks))
        above[x] = 1.0 - total
    return prefix, above


def expansion_demo(n: int, terms: int) -> tuple[list[str], list[list], bool]:
    """(pi^2/6) sum_{r<=R} c(n, r)/r^2 against sigma(n)/n, as a table of one
    row (n, R, truncation, target, abs_error) that passes: it states no bound.

    Regrouped by the divisor form: sum_{r<=R} c(n,r)/r^2 =
    sum_{d|n} (1/d) F(R // d), term for term the same truncation, with
    F(x) = sum_{m<=x} mu(m)/m^2. A divisor d > R has F(0) = 0, so only the
    d <= R are listed, from factorize(n), and added left to right.

    Up to U = `_in_order_limit(R)` (R itself when R <= IN_ORDER_TERMS,
    else floor(R^(2/3))), F is a prefix table of one Moebius sieve, added
    in increasing m; for R <= IN_ORDER_TERMS that is every cut, bit for
    bit the values of a loop adding mu(m)/m^2 over the squarefree m, since
    F > 0 and adding +0.0 changes nothing. Above U, F(x) at x = R // k comes
    in increasing x from the identity

        sum_{d<=x} F(x // d) / d^2 = 1   (x >= 1):

    the double sum is sum_{k<=x} k^-2 sum_{m|k} mu(m), and the inner sum is
    1 at k = 1 and 0 otherwise. So F(x) = 1 - sum_{2<=d<=x} F(x // d)/d^2,
    and x // d = R // (k d) is again a cut of R. With s = isqrt(x), the
    d <= x // (s + 1) are taken one at a time, and the remaining d, where
    q = x // d <= s, in blocks d in (x // (q+1), x // q] of weight
    T(x // (q+1)) - T(x // q), T(y) = sum_{d>y} 1/d^2. T comes from a table
    added downwards for y <= U and from `_square_tail` above U, whose
    remainder is below 1/(42 y^7). That costs O(R / sqrt(U)) = O(R^(2/3))
    steps and a sieve of U bytes, not R.

    Only +, -, *, / and math.fsum touch a float, never built-in sum(),
    which from CPython 3.12 on adds floats with compensation: the printed
    digits are the same on every interpreter version."""
    if n < 1 or terms < 1:
        raise ValueError(f"expansion_demo requires n, terms >= 1, got n={n}, terms={terms}")
    prefix, above = _moebius_square_sums(terms)
    total = 0.0
    for d in divisors(n, terms):
        cut = terms // d
        total += (prefix[cut] if cut < len(prefix) else above[cut]) / d
    truncated = (math.pi**2 / 6) * total
    target = math.prod((p ** (a + 1) - 1) // (p - 1) for p, a in factorize(n)) / n
    header = ["n", "terms", "truncated", "target", "abs_error"]
    return header, [[n, terms, truncated, target, abs(truncated - target)]], True
