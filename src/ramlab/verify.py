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
from collections import Counter
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
from .gensums import PartialSumReport, c_A_column, partial_sum_cA
from .systems import DIRICHLET, RegularSystem, divisor_set, gamma_A, gcd_A, phi_A

# the cap on p^t, the witness prime power in `additive_closure_witness`. Its
# checks read the t + 3 divisors of p and p^t and make two gcd_A calls per
# modulus, so their cost does not grow with r_max * p^t; inside the cap
# p <= 2^10 when t >= 2, so trial division factorizes p^t at once. Rows of
# tests/budgets.json (see cli's caps): "Prop 4 answers --rmax 3000 with its
# witness at the budget 2^20" (0.11-0.17 s, 18.6-18.8 MB), "Prop 4 refuses
# a witness beyond its budget at once" and "... a huge table power at once"
MAX_WITNESS_WORK = 2**20

# the cap on min(x, r) in `mean_value_check`'s tally, which makes fewer than
# 2 min(x, r) gcd calls per x. Rows "Prop 1 tallies an even literal at its
# tally cap" (r = 2^23, --xmax 2^24 - 1: 4.5-6.2 s, 16.6-16.9 MB) and
# "Prop 1 refuses an even literal past its tally budget at once" (r = 2^40)
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
    "mean_product_empirical",
    "OrthogonalityReport",
    "orthogonality_report",
    "find_orthogonality_violation",
    "Prop4Witness",
    "additive_closure_witness",
    "ExpansionResult",
    "expansion_demo",
    "mean_value_check",
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


def mean_product_empirical(system: RegularSystem, r: int, s: int, x: int) -> Fraction:
    """(1/x) sum_{n<=x} c_A(n, r) c_A(n, s) as an exact rational.

    The product has period lcm(r, s); at x a multiple of it the average
    equals the exact mean. On the diagonal r = s one column serves both."""
    if x < 1:
        raise ValueError(f"x must be >= 1, got {x}")
    column = c_A_column(system, r, x)
    total = sum(a * b for a, b in zip(column, column if s == r else c_A_column(system, s, x)))
    return Fraction(total, x)


class OrthogonalityReport(NamedTuple):
    """Mean of a product of two generalized Ramanujan sums, exact vs empirical."""

    system: str
    r: int
    s: int
    exact_mean: int
    empirical_mean: Fraction

    @property
    def verdict(self) -> str:
        """diagonal when r = s, else orthogonal or violating as the exact
        mean is zero or not; derived, so it cannot contradict the mean."""
        if self.r == self.s:
            return "diagonal"
        return "orthogonal" if self.exact_mean == 0 else "violating"


def orthogonality_report(system: RegularSystem, r: int, s: int) -> OrthogonalityReport:
    """Exact mean of the product and its average over one period lcm(r, s)."""
    exact = mean_product_exact(system, r, s)
    empirical = mean_product_empirical(system, r, s, lcm(r, s))
    return OrthogonalityReport(system.label(), r, s, exact, empirical)


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


class Prop4Witness(NamedTuple):
    """Two A-even functions whose sum is A-even for no modulus at all.

    f(n) = (n, p)_A and g(n) = (n, p^t)_A for a prime power of type t > 1;
    their sum h takes the three case values below and cannot be A-even.
    f_even and g_even are checked on the divisors of p and of p^t, and
    h_fails_all by one certificate n_r per modulus r <= r_checked."""

    p: int
    t: int
    case_values: tuple[int, int, int]  # h on p^t | n, on p | n only, on p coprime
    r_checked: int
    f_even: bool
    g_even: bool
    h_fails_all: bool
    core_contradiction: bool  # p absent from A(p^t), the structural obstruction


def additive_closure_witness(
    system: RegularSystem, r_max: int = 100
) -> Optional[Prop4Witness]:
    """For a system with a prime power of type t > 1, exhibit f, g A-even
    with f + g A-even for no modulus r <= r_max, built at the smallest such
    prime power p^t within MAX_WITNESS_WORK; None means not applicable
    (every type is 1, as in D). ValueError when r_max < 1, or when every
    prime power of type > 1 exceeds the budget.

    f and g depend on n only through (n, p) and (n, p^t), and (n, r)_A =
    ((n, r), r)_A, so f is A-even mod p iff f(d) = f((d, p)_A) for each
    d | p, and g likewise on the divisors of p^t: t + 3 values.

    h = f + g fails A-evenness mod r at one n_r, checked for each r. If
    (p, r)_A = 1, take n_r = p: h(p) = p + 1 != 2 = h(1). Otherwise p is in
    A(r), so the p-part p^v of r has type 1; type 1 at p^v forces type 1
    below it and p^t has type t, so v < t. Take n_r = p^t: (p^t, r)_A = p^v
    and h(p^t) = p + p^t != p + 1 = h(p^v). Each row costs two gcd_A calls,
    so the budget bounds p^t alone, whatever r_max."""
    if r_max < 1:
        raise ValueError(f"r_max must be >= 1, got {r_max}")
    high = list(system.high_types())
    if not high:
        return None
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

    return Prop4Witness(
        p=p,
        t=t,
        case_values=(p + pt, 1 + p, 2),
        r_checked=r_max,
        f_even=even_on_divisors(f, p),
        g_even=even_on_divisors(g, pt),
        h_fails_all=all(certified_failure(r) for r in range(1, r_max + 1)),
        core_contradiction=p not in divisor_set(system, pt),
    )


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
    """(S, L): sum_{n<=x} f(n) = S(x) / L for each x in `x_list`, L the lcm
    of the value denominators, by brute force.

    The sum tallies n <= x by gcd class. Since gcd(n + r, r) = gcd(n, r),
    that tally is q = x // r copies of the tally over one period n = 1..r
    plus the tally over n = 1..x - q r, so each x costs O(min(x, r)) gcds;
    an x with min(x, r) above MAX_ORACLE_TALLY is refused before any x is
    tallied. The classes and counts are the same integers as a loop over
    every n <= x gives, and S(x) is one integer sum of count times scaled
    value over the classes. Only `f.values` and periodicity are used, never
    phi, c(., q), `_form` or the Fourier coefficients: this is the oracle
    side, independent of the closed form of `even.partial_sum_numerators`."""
    for x in x_list:
        if x < 1:
            raise ValueError(f"x must be >= 1, got {x}")
        if min(x, f.r) > MAX_ORACLE_TALLY:
            raise ValueError(
                f"the brute-force partial sum of an r={f.r} function up to x={x} needs "
                f"min(x, r) at most {MAX_ORACLE_TALLY}"
            )
    scale = lcm(*(v.denominator for _, v in f.values))
    scaled = {d: v.numerator * (scale // v.denominator) for d, v in f.values}
    sums = []
    for x in x_list:
        q, rest = divmod(x, f.r)
        counts = Counter(gcd(n, f.r) for n in range(1, min(x, f.r) + 1))
        if q:
            for d in counts:
                counts[d] *= q
            counts.update(gcd(n, f.r) for n in range(1, rest + 1))
        sums.append(sum(scaled[d] * c for d, c in counts.items()))
    return sums, scale


def mean_value_check(f: EvenFunction, x_list: Sequence[int]) -> list[PartialSumReport]:
    """Brute-force partial sums of f (`_tally`, S / L) against M(f) x with
    the certified bound, both from `even.mean_and_bound`."""
    sums, scale = _tally(f, x_list)
    mean, bound, denominator = mean_and_bound(f)
    bound = Fraction(bound, denominator)
    return [PartialSumReport(x, Fraction(s, scale), Fraction(mean * x, denominator), bound)
            for x, s in zip(x_list, sums)]


_SUM_HEADER = ["r", "x", "exact_sum", "main_term", "residual", "bound", "pass"]


def _mean_rows(f: EvenFunction, xs: list[int]) -> tuple[list[list], bool]:
    # one Prop 1 row per x, decided in integers: the tally S / L_o, the
    # closed form T / D and M(f) = M / D with the bound B / D. A row passes
    # iff T L_o = S D and |S D - M x L_o| <= B L_o; each printed cell is one
    # Fraction, the value of the PartialSumReport field it stands for
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
    # when the closed form of c_A_sum is within its bound and equals the
    # tally S(x) = (x // r) S(r) + S(x mod r), read from the prefix sums of
    # one period of the kernel's column, which never uses c_A_sum
    xs = sorted({min(x, x_max) for x in (1, 2, 3, 10, 100, x_max)})
    rows, passed = [], True
    for r in range(1, r_max + 1):
        period = list(accumulate(c_A_column(system, r, r)))
        for x in xs:
            rep = partial_sum_cA(system, r, x)
            q, rest = divmod(x, r)
            ok = rep.passed and rep.exact_sum == q * period[-1] + (period[rest - 1] if rest else 0)
            passed &= ok
            rows.append([r, rep.x, rep.exact_sum, rep.main_term, rep.residual, rep.certified_bound,
                         "true" if ok else "false"])
    return _SUM_HEADER, rows, passed


def _orthogonality(system, r_max):
    # the diagonal r = s <= r_max, then the first violating pair, if any
    reports = [orthogonality_report(system, r, r) for r in range(1, r_max + 1)]
    hit = find_orthogonality_violation(system, r_max)
    if hit is not None:
        reports.append(orthogonality_report(system, hit[0], hit[1]))
    passed = all(rep.empirical_mean == rep.exact_mean for rep in reports)
    passed &= hit is None or reports[-1].verdict == "violating"
    rows = [[rep.system, rep.r, rep.s, rep.exact_mean, str(rep.empirical_mean), rep.verdict]
            for rep in reports]
    if hit is None:
        rows.append([system.label(), 0, 0, 0, "0", "none-found"])
    return ["system", "r", "s", "exact_mean", "empirical_mean", "verdict"], rows, passed


def _additive_closure(system, r_max):
    witness = additive_closure_witness(system, r_max=r_max)
    if witness is None:
        return ["system", "status"], [[system.label(), "not-applicable"]], True
    ok = witness.f_even and witness.g_even and witness.h_fails_all and witness.core_contradiction
    row = [system.label(), witness.p, witness.t, *witness.case_values, witness.r_checked,
           "true" if ok else "false"]
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
    addition. r_max bounds the moduli, x_max the partial sums of the first two."""
    checks = (
        (_mean_values, (system, r_max, x_max, extra)),
        (_partial_sums, (system, r_max, x_max)),
        (_orthogonality, (system, r_max)),
        (_additive_closure, (system, r_max)),
    )
    return [check(*args) for name, (check, args) in zip(PROPOSITIONS, checks) if name in names]
