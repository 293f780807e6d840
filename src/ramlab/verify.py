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
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from math import gcd, lcm
from typing import Callable, Optional, Sequence

from .arith import divisors, moebius_sieve
from .even import (
    EvenFunction,
    c_A_even,
    certified_residual_bound,
    mean_value,
    parse_even_literal,
    partial_sum_even,
    progression_totient_even,
)
from .gensums import PartialSumReport, c_A_column, partial_sum_cA
from .systems import DIRICHLET, RegularSystem, divisor_set, gamma_A, gcd_A, phi_A

# the cap on p^t, the witness prime power in `additive_closure_witness`. Its
# checks read the t + 3 divisors of p and p^t and make two gcd_A calls per
# modulus, so their cost does not grow with r_max * p^t; inside the cap
# p <= 2^10 when t >= 2, so trial division factorizes p^t at once
MAX_WITNESS_WORK = 2**20

# the names `check_propositions` takes, in the order it runs them
PROPOSITIONS = ("prop1", "prop2", "prop3", "prop4")

__all__ = [
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
    gr, gs = gamma_A(system, r), gamma_A(system, s)
    return sum(
        phi_A(DIRICHLET, d) for d in divisors(gcd(r, s)) if d % gr == 0 and d % gs == 0
    )


def mean_product_empirical(system: RegularSystem, r: int, s: int, x: int) -> Fraction:
    """(1/x) sum_{n<=x} c_A(n, r) c_A(n, s) as an exact rational.

    The product has period lcm(r, s); at x a multiple of it the average
    equals the exact mean. On the diagonal r = s one column serves both."""
    if x < 1:
        raise ValueError(f"x must be >= 1, got {x}")
    column = c_A_column(system, r, x)
    total = sum(a * b for a, b in zip(column, column if s == r else c_A_column(system, s, x)))
    return Fraction(total, x)


@dataclass(frozen=True)
class OrthogonalityReport:
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


@dataclass(frozen=True)
class Prop4Witness:
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


@dataclass(frozen=True)
class ExpansionResult:
    """Truncation of the harmonic expansion of sigma(n)/n."""

    n: int
    terms: int
    truncated_value: float
    target: float
    abs_error: float


def expansion_demo(n: int, terms: int) -> ExpansionResult:
    """(pi^2/6) sum_{r<=R} c(n, r)/r^2 against sigma(n)/n.

    Regrouped by the divisor form: sum_{r<=R} c(n,r)/r^2 =
    sum_{d|n} (1/d) sum_{m<=R/d} mu(m)/m^2, term for term the same
    truncation. One pass over the Moebius sieve visits only the squarefree
    m, adding mu(m)/m^2 in increasing m, and keeps the running sum only at
    the cut points R/d."""
    if n < 1 or terms < 1:
        raise ValueError(f"expansion_demo requires n, terms >= 1, got n={n}, terms={terms}")
    divs = divisors(n)
    mu = moebius_sieve(terms)
    at_cut = {}
    acc, lo = 0.0, 1
    for cut in sorted({terms // d for d in divs}):
        # a view, not a copy: the selectors and the signs of m in [lo, cut]
        signs = memoryview(mu)[lo : cut + 1]
        for m, s in zip(compress(range(lo, cut + 1), signs), filter(None, signs)):
            acc += s / (m * m)
        at_cut[cut] = acc
        lo = cut + 1
    # left to right: from CPython 3.12 on, sum() adds floats with compensation,
    # which would make the printed digits depend on the interpreter version
    total = 0.0
    for d in divs:
        total += at_cut[terms // d] / d
    truncated = (math.pi**2 / 6) * total
    target = sum(divs) / n
    return ExpansionResult(n, terms, truncated, target, abs(truncated - target))


def mean_value_check(f: EvenFunction, x_list: Sequence[int]) -> list[PartialSumReport]:
    """Brute-force partial sums of f against M(f) x with the certified bound.

    The sum tallies n <= x by gcd class. Since gcd(n + r, r) = gcd(n, r),
    that tally is q = x // r copies of the tally over one period n = 1..r
    plus the tally over n = 1..x - q r, so each x costs O(min(x, r)) gcds.
    The classes and counts are the same integers, in the same order, as a
    loop over every n <= x, so the sums are identical. Only periodicity is
    used, never phi, c(., q) or the Fourier coefficients: this stays the
    oracle side, independent of the closed form in partial_sum_even."""
    reports = []
    bound = certified_residual_bound(f)
    mf = mean_value(f)
    for x in x_list:
        if x < 1:
            raise ValueError(f"x must be >= 1, got {x}")
        q, rest = divmod(x, f.r)
        # classes in order of first appearance over n = 1, 2, ...
        counts = Counter(gcd(n, f.r) for n in range(1, min(x, f.r) + 1))
        if q:
            for d in counts:
                counts[d] *= q
            counts.update(gcd(n, f.r) for n in range(1, rest + 1))
        # a Fraction start keeps integer-valued sums exact rationals
        exact = sum((f.value_map[d] * c for d, c in counts.items()), Fraction(0))
        reports.append(PartialSumReport(x, exact, mf * x, bound))
    return reports


_SUM_HEADER = ["r", "x", "exact_sum", "main_term", "residual", "bound", "pass"]


def _sum_row(r: int, rep: PartialSumReport, ok: bool) -> list:
    return [r, rep.x, rep.exact_sum, rep.main_term, rep.residual, rep.certified_bound,
            "true" if ok else "false"]


def _mean_values(system, r_max, x_max, literal):
    # battery: the system's Ramanujan sums c_A(., r), the arithmetic-progression
    # totient, and seeded random rational (A, r)-even functions, one draw per
    # member of A(r) in increasing order; each brute-force sum must pass its
    # bound and equal the closed form of partial_sum_even
    xs = [100, x_max] if x_max > 100 else [x_max]
    functions = [c_A_even(system, r) for r in range(1, min(r_max, 30) + 1)]
    functions.append(progression_totient_even(1, 12))
    rng = random.Random(20040233)
    for _ in range(10):
        r = rng.randint(1, r_max)
        drawn = {d: Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for d in divisor_set(system, r)}
        functions.append(
            EvenFunction.from_callable(r, lambda n: drawn[gcd_A(system, n, r)], system)
        )
    if literal:
        functions.append(parse_even_literal(literal))
    rows, passed = [], True
    for f in functions:
        for rep in mean_value_check(f, xs):
            ok = rep.passed and partial_sum_even(f, rep.x).exact_sum == rep.exact_sum
            passed &= ok
            rows.append(_sum_row(f.r, rep, ok))
    return _SUM_HEADER, rows, passed


def _partial_sums(system, r_max, x_max, literal):
    # the x <= x_max among 1, 2, 3, 10, 100, and x_max itself
    xs = sorted({min(x, x_max) for x in (1, 2, 3, 10, 100, x_max)})
    reports = [(r, partial_sum_cA(system, r, x)) for r in range(1, r_max + 1) for x in xs]
    rows = [_sum_row(r, rep, rep.passed) for r, rep in reports]
    return _SUM_HEADER, rows, all(rep.passed for _, rep in reports)


def _orthogonality(system, r_max, x_max, literal):
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


def _additive_closure(system, r_max, x_max, literal):
    witness = additive_closure_witness(system, r_max=r_max)
    if witness is None:
        return ["system", "status"], [[system.label(), "not-applicable"]], True
    ok = witness.f_even and witness.g_even and witness.h_fails_all and witness.core_contradiction
    row = [system.label(), witness.p, witness.t, *witness.case_values, witness.r_checked,
           "true" if ok else "false"]
    return ["system", "p", "t", "h_high", "h_mid", "h_low", "r_checked", "pass"], [row], ok


def check_propositions(
    names: Sequence[str], system: RegularSystem, r_max: int, x_max: int,
    literal: Optional[str] = None,
) -> list[tuple[list[str], list[list], bool]]:
    """Check each proposition of PROPOSITIONS named in `names`, in that order,
    as a table (header, rows, passed); every check runs, even after one fails.

    In order they check mean values of (A, r)-even functions, with `literal`
    (an `--even` CLI literal) added to the battery; partial sums of
    c_A(., r); orthogonality and its first failure; and non-closure under
    addition. r_max bounds the moduli, x_max the partial sums of the first two."""
    checks = (_mean_values, _partial_sums, _orthogonality, _additive_closure)
    return [
        check(system, r_max, x_max, literal)
        for name, check in zip(PROPOSITIONS, checks)
        if name in names
    ]
