"""Executable checkers for the exact identities: mean values of products of
generalized Ramanujan sums, orthogonality and its failure outside the
Dirichlet system, non-closure of A-even functions under addition, and the
truncated harmonic expansion of sigma(n)/n.

`check_propositions` runs the paper's four propositions: each one's battery
of inputs, its pass rule, and its rows for the CLI to print.
"""

from __future__ import annotations

import math
import random
from array import array
from fractions import Fraction
from itertools import accumulate, chain, repeat
from math import fsum, gcd, isqrt, lcm
from operator import mul, sub, truediv
from typing import Callable, NamedTuple, Optional, Sequence

from .arith import divisors, factorize, moebius_sieve
from .even import (
    EvenFunction,
    c_A_even,
    mean_and_bound,
    partial_sum_numerators,
    progression_totient_even,
)
from .gensums import c_A_column, c_A_sum
from .systems import DIRICHLET, RegularSystem, divisor_set, gamma_A, gcd_A, phi_A, psi_A

# the cap on p^t, the witness prime power of Prop 4 (`_additive_closure`). Its
# checks read the t + 3 divisors of p and p^t and make two gcd_A calls per
# modulus, so their cost does not grow with r_max * p^t; inside the cap
# p <= 2^10 when t >= 2, so trial division factorizes p^t at once. Rows of
# tests/budgets.json (see cli's caps): "Prop 4 answers --rmax 3000 with its
# witness at the budget 2^20", "Prop 4 refuses a witness beyond its budget
# at once" and "... a huge table power at once"
MAX_WITNESS_WORK = 2**20

# the cap on min(x, r) in `_tally`, which makes at most min(max x, r) gcd
# calls for all its x together. Rows "Prop 1 tallies an even literal at its
# tally cap" (r = 2^23, --xmax 2^24 - 1) and "Prop 1 refuses an even literal
# past its tally budget at once" (r = 2^40)
MAX_ORACLE_TALLY = 2**23

# up to this many terms, `expansion_demo` adds every prefix sum of
# mu(m)/m^2 in increasing m; above it, only those up to floor(R^(2/3)), and
# the larger cuts come from a recursion, more accurate and O(R^(2/3))
IN_ORDER_TERMS = 2**17

# the names `check_propositions` takes, in the order it runs them
PROPOSITIONS = ("prop1", "prop2", "prop3", "prop4")

__all__ = [
    "PROPOSITIONS",
    "mean_product_exact",
    "find_orthogonality_violation",
    "ExpansionResult",
    "expansion_demo",
    "check_propositions",
]


def mean_product_exact(system: RegularSystem, r: int, s: int) -> int:
    """Mean of c_A(., r) c_A(., s): sum of phi(d) over common divisors d
    divisible by both cores gamma_A(r) and gamma_A(s).

    Inside one A-set it vanishes off the diagonal. Two members d != d' of
    A(r) differ at some prime p, with exponents it < jt, t the type of the
    p^a exactly dividing r; p^(jt) also has type t, so gamma_A(d') has
    exponent jt - t + 1 > it at p. No common divisor is then divisible by
    both cores, and the mean is 0: orthogonality fails only across A-sets."""
    if r < 1 or s < 1:
        raise ValueError(f"mean_product_exact requires r, s >= 1, got r={r}, s={s}")
    common, core = gcd(r, s), lcm(gamma_A(system, r), gamma_A(system, s))
    if common % core:
        return 0
    return sum(phi_A(DIRICHLET, core * m) for m in divisors(common // core))


def _powers_within(high_types, bound: int) -> list[tuple[int, int, int]]:
    """(p^a, p, a) for each (p, a) of `RegularSystem.high_types` with p^a <= bound.
    As p^a >= 2^(a (bits(p) - 1)), a huge power is skipped without being built:
    a table exponent may be 10^18."""
    return [
        (p**a, p, a)
        for p, a in high_types
        if a * (p.bit_length() - 1) < bound.bit_length() and p**a <= bound
    ]


def find_orthogonality_violation(
    system: RegularSystem, search_bound: int
) -> Optional[tuple[int, int, int]]:
    """Smallest pair r != s <= search_bound (by r + s, then r) with nonzero
    product mean, read from the types without trying pairs.

    The mean is nonzero iff at each prime both cores' exponents are at most
    both exponents of r and s. A violating pair differs at some prime p, with
    exponents i < j and j - t_j + 1 <= i. The chain rule gives p^(t_j) of
    type t_j, so p + p^(t_j) <= r + s, with equality only when (r, s) =
    (p, p^(t_j)), whose mean is phi(p) = p - 1. So the answer is (p, p^a,
    p - 1), a the first exponent of type > 1, minimizing (p + p^a, p).
    As p is not in A(p^a) = {1, p^a}, orthogonality fails across A-sets."""
    found = [
        (p + pa, p, pa, p - 1) for pa, p, _ in _powers_within(system.high_types(), search_bound)
    ]
    return min(found)[1:] if found else None


class ExpansionResult(NamedTuple):
    """Truncation of the harmonic expansion of sigma(n)/n."""

    n: int
    terms: int
    truncated_value: float
    target: float
    abs_error: float


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


def expansion_demo(n: int, terms: int) -> ExpansionResult:
    """(pi^2/6) sum_{r<=R} c(n, r)/r^2 against sigma(n)/n.

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
    return ExpansionResult(n, terms, truncated, target, abs(truncated - target))


def _tally(f: EvenFunction, x_list: Sequence[int]) -> tuple[list[int], int]:
    """(S, L): sum_{n<=x} f(n) = S(x) / L for each x in `x_list`, each an
    int >= 0 with S(0) = 0, and L the lcm of the value denominators, by
    brute force.

    Since gcd(n + r, r) = gcd(n, r), the prefix sums P(m) = L sum_{n<=m}
    f(gcd(n, r)) give S(x) = (x // r) P(r) + P(x mod r), and P(x) itself
    for x < r. The prefixes read, P(min(x, r)) and P(x mod r), come from
    one streaming pass over n = 1..min(max x, r), cut at them in increasing
    order, each segment one C-level sum of scaled f(gcd(n, r)): the whole
    list costs at most min(max x, r) gcd calls, not O(min(x, r)) per x,
    and holds no per-n state. An x that is not an int >= 0, or whose
    min(x, r) is above MAX_ORACLE_TALLY, is refused before any gcd. Only
    `f.values` and periodicity are used, never phi, c(., q), `_form` or the
    Fourier coefficients: this is the oracle side, independent of the
    closed form of `even.partial_sum_numerators`."""
    r = f.r
    for x in x_list:
        if type(x) is not int or x < 0:
            raise ValueError(f"x must be an int >= 0, got {x!r}")
        if min(x, r) > MAX_ORACLE_TALLY:
            raise ValueError(
                f"the brute-force partial sum of an r={r} function up to x={x} needs "
                f"min(x, r) at most {MAX_ORACLE_TALLY}"
            )
    scale = lcm(*(v.denominator for _, v in f.values))
    value = {d: v.numerator * (scale // v.denominator) for d, v in f.values}.__getitem__
    prefix, total, done = {0: 0}, 0, 0
    for cut in sorted({min(x, r) for x in x_list}.union(x % r for x in x_list)):
        total += sum(map(value, map(gcd, range(done + 1, cut + 1), repeat(r))))
        prefix[cut], done = total, cut
    return [x // r * prefix[r] + prefix[x % r] if x >= r else prefix[x] for x in x_list], scale


_SUM_HEADER = ["r", "x", "exact_sum", "main_term", "residual", "bound", "pass"]


def _mean_rows(f: EvenFunction, xs: list[int]) -> tuple[list[list], bool]:
    # one Prop 1 row per x, decided in integers: the tally S / L_o, the
    # closed form T / D and M(f) = M / D with the bound B / D. A row passes
    # iff T L_o = S D and |S D - M x L_o| <= B L_o; only the printed cells
    # are Fractions: the sum S / L_o, the main term, the residual, the bound
    sums, scale = _tally(f, xs)
    mean, bound, denominator = mean_and_bound(f)
    bound_cell = Fraction(bound, denominator)
    rows, passed = [], True
    for x, s, t in zip(xs, sums, partial_sum_numerators(f, xs)):
        oracle = s * denominator
        residual = oracle - mean * x * scale
        ok = t * scale == oracle and abs(residual) <= bound * scale
        passed &= ok
        rows.append([f.r, x, Fraction(s, scale), Fraction(mean * x, denominator),
                     Fraction(residual, denominator * scale), bound_cell, "true" if ok else "false"])
    return rows, passed


def _mean_values(system, r_max, x_max, extra):
    # battery: the system's Ramanujan sums c_A(., r), the arithmetic-progression
    # totient (under D), seeded random rational (A, r)-even functions, one
    # draw per member of A(r) in increasing order, and the extra function;
    # each brute-force sum must equal the closed form and pass its bound
    # (`_mean_rows`). The extra function is the one whose tally can be
    # large, so its rows are made first, and it is refused past
    # MAX_ORACLE_TALLY before any other work; its rows still come last
    xs = [100, x_max] if x_max > 100 else [x_max]
    tail = [] if extra is None else [_mean_rows(extra, xs)]
    functions = [c_A_even(system, r) for r in range(1, min(r_max, 30) + 1)]
    functions.append(progression_totient_even(1, 12))
    rng = random.Random(20040233)
    for _ in range(10):
        r = rng.randint(1, r_max)
        drawn = {d: Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for d in divisor_set(system, r)}
        functions.append(
            EvenFunction.from_callable(r, lambda n: drawn[gcd_A(system, n, r)], system)
        )
    rows, passed = [], True
    for part, ok in [_mean_rows(f, xs) for f in functions] + tail:
        rows += part
        passed &= ok
    return _SUM_HEADER, rows, passed


def _partial_sums(system, r_max, x_max):
    # the x <= x_max among 1, 2, 3, 10, 100, and x_max itself. A row passes
    # when the closed form of c_A_sum, read once per r for every x, is
    # within psi_A(r), also read once per r, of its main term [r = 1] x, and
    # equals the tally S(x) = (x // r) S(r) + S(x mod r), read from the
    # prefix sums of one period of the kernel's column, which never uses
    # c_A_sum
    xs = sorted({min(x, x_max) for x in (1, 2, 3, 10, 100, x_max)})
    rows, passed = [], True
    for r in range(1, r_max + 1):
        period = list(accumulate(c_A_column(system, r, r)))
        bound = psi_A(system, r)
        for x, exact in zip(xs, c_A_sum(system, r, xs)):
            main = x if r == 1 else 0
            q, rest = divmod(x, r)
            tally = q * period[-1] + (period[rest - 1] if rest else 0)
            ok = exact == tally and abs(exact - main) <= bound
            passed &= ok
            rows.append([r, x, exact, main, exact - main, bound, "true" if ok else "false"])
    return _SUM_HEADER, rows, passed


def _orthogonality(system, r_max):
    # the diagonal r = s <= r_max, then the first violating pair, if any.
    # Each row tallies one period L = lcm(r, s) of c_A(., r) c_A(., s) from
    # the kernel's columns, one column on the diagonal, and passes iff the
    # tally is L times the exact mean; the violating pair's mean must also
    # be nonzero. Only the printed empirical mean is a Fraction
    label = system.label()
    hit = find_orthogonality_violation(system, r_max)
    pairs = [(r, r) for r in range(1, r_max + 1)] + ([hit[:2]] if hit else [])
    rows, passed = [], True
    for r, s in pairs:
        period = lcm(r, s)
        column = c_A_column(system, r, period)
        total = sum(map(mul, column, column if s == r else c_A_column(system, s, period)))
        exact = mean_product_exact(system, r, s)
        verdict = "diagonal" if r == s else "violating" if exact else "orthogonal"
        passed &= total == period * exact and verdict != "orthogonal"
        rows.append([label, r, s, exact, str(Fraction(total, period)), verdict])
    if hit is None:
        rows.append([label, 0, 0, 0, "0", "none-found"])
    return ["system", "r", "s", "exact_mean", "empirical_mean", "verdict"], rows, passed


def _additive_closure(system, r_max):
    """Prop 4's table: for a system with a prime power of type t > 1, f and
    g A-even with f + g A-even for no modulus r <= r_max, built at the
    smallest such prime power p^t within MAX_WITNESS_WORK; a D-like system
    (every type 1) is not applicable. ValueError when every prime power of
    type > 1 exceeds the budget.

    f(n) = (n, p)_A and g(n) = (n, p^t)_A depend on n only through (n, p)
    and (n, p^t), and (n, r)_A = ((n, r), r)_A, so f is A-even mod p iff
    f(d) = f((d, p)_A) for each d | p, and g likewise on the divisors of
    p^t: t + 3 values. h = f + g is p + p^t on p^t | n, 1 + p on p | n only,
    and 2 on n coprime to p.

    h fails A-evenness mod r at one n_r, checked for each r. If
    (p, r)_A = 1, take n_r = p: h(p) = p + 1 != 2 = h(1). Otherwise p is in
    A(r), so the p-part p^v of r has type 1; type 1 at p^v forces type 1
    below it and p^t has type t, so v < t. Take n_r = p^t: (p^t, r)_A = p^v
    and h(p^t) = p + p^t != p + 1 = h(p^v). Each row costs two gcd_A calls,
    so the budget bounds p^t alone, whatever r_max. The row passes when all
    of these hold and p is absent from A(p^t), the structural obstruction."""
    high = list(system.high_types())
    if not high:
        return ["system", "status"], [[system.label(), "not-applicable"]], True
    fits = _powers_within(high, MAX_WITNESS_WORK)
    if not fits:
        powers = ", ".join(f"{p}^{a}" for p, a in high)
        raise ValueError(
            f"prop4: every prime power of type > 1 exceeds the witness budget "
            f"{MAX_WITNESS_WORK}: {powers}"
        )
    pt, p, t = min(fits)

    def f(n: int) -> int:
        return p if n % p == 0 else 1

    def g(n: int) -> int:
        return pt if n % pt == 0 else 1

    def h(n: int) -> int:
        return f(n) + g(n)

    def even_on_divisors(fn: Callable[[int], int], r: int) -> bool:
        return all(fn(d) == fn(gcd_A(system, d, r)) for d in divisors(r))

    def certified_failure(r: int) -> bool:
        n = p if gcd_A(system, p, r) == 1 else pt
        return h(n) != h(gcd_A(system, n, r))

    ok = (even_on_divisors(f, p) and even_on_divisors(g, pt)
          and all(certified_failure(r) for r in range(1, r_max + 1))
          and p not in divisor_set(system, pt))
    row = [system.label(), p, t, p + pt, 1 + p, 2, r_max, "true" if ok else "false"]
    return ["system", "p", "t", "h_high", "h_mid", "h_low", "r_checked", "pass"], [row], ok


def check_propositions(
    names: Sequence[str], system: RegularSystem, r_max: int, x_max: int,
    extra: Optional[EvenFunction] = None,
) -> list[tuple[list[str], list[list], bool]]:
    """Check each proposition of PROPOSITIONS named in `names`, in that order,
    as a table (header, rows, passed); every check runs, even after one fails.

    In order they check mean values of (A, r)-even functions, with `extra`
    (the CLI's `--even` function) added to the battery; partial sums of
    c_A(., r); orthogonality and its first failure; and non-closure under
    addition. r_max bounds the moduli, x_max the partial sums of the first
    two. A name outside PROPOSITIONS, or r_max or x_max below 1, is refused
    with ValueError before any check runs: each would pass with nothing
    checked."""
    for name in names:
        if name not in PROPOSITIONS:
            raise ValueError(f"unknown proposition {name!r}, expected one of {', '.join(PROPOSITIONS)}")
    for bound, value in (("r_max", r_max), ("x_max", x_max)):
        if value < 1:
            raise ValueError(f"{bound} must be >= 1, got {value}")
    checks = (
        (_mean_values, (system, r_max, x_max, extra)),
        (_partial_sums, (system, r_max, x_max)),
        (_orthogonality, (system, r_max)),
        (_additive_closure, (system, r_max)),
    )
    return [check(*args) for name, (check, args) in zip(PROPOSITIONS, checks) if name in names]
