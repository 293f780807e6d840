"""Generalized Ramanujan sums c_A(n, r): one kernel and three cross-checks.

The kernel (`c_A`, and `c_A_column` for many n at one modulus) is the hot
path: the CLI's `table --what cA`, the empirical means in `verify` and
`even.c_A_even` use it. For a regular system c_A(n, r) is
multiplicative in r, and since mu_A vanishes on p^(jt) for j >= 2, at a
prime power p^a of type t it is

    c_A(n, p^a) = p^a [p^a | n] - p^(a-t) [p^(a-t) | n].

`c_A` multiplies these local factors for one n. `c_A_column` builds each
factor as a list periodic in n mod p^a and multiplies the lists entrywise
into one period of c_A(., r), so a column costs omega(r) list products of
length min(r, n_max) and no Python-level call per n.

Three independent routes stay as the references the kernel is checked
against. Route 1 (divisor form): d * mu_A(r/d) summed over A((n, r)_A),
the members of A(r) dividing n. Route 2 (core form): classical c(n, d)
summed over the multiples d = g m, m | r/g, of the core g = gamma_A(r).
Route 3 is the literal exponential sum over residues k with (k, r)_A = 1
-- floating point, test oracle only.

The partial sums (`c_A_sum`, and the checker `partial_sum_cA`) use the
closed form over A(r), sum_{d in A(r)} d mu_A(r/d) floor(x/d). Only the
2^omega(r) members d with mu_A(r/d) != 0 contribute: those taking p^a or
p^(a-t) at each prime power p^a || r, the kernel's two terms.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from itertools import cycle
from math import floor
from operator import mul
from typing import NamedTuple, Union

from .arith import divisors, ramanujan_c
from .systems import (
    RegularSystem,
    divisor_set,
    gamma_A,
    gcd_A,
    mu_A,
    prime_power_types,
    psi_A,
)

__all__ = [
    "c_A",
    "c_A_column",
    "c_A_divisor",
    "c_A_core",
    "c_A_oracle",
    "c_A_sum",
    "Numeric",
    "PartialSumReport",
    "partial_sum_cA",
]

Numeric = Union[int, Fraction]


def _kernel_value(local: tuple, n: int) -> int:
    # local is prime_power_types(system, r); `c_A`'s one value, the product
    # of the local factors that `c_A_column` builds as periodic lists
    out = 1
    for _, _, _, high, low in local:
        if n % low:
            return 0
        out *= high - low if n % high == 0 else -low
    return out


def c_A(system: RegularSystem, n: int, r: int) -> int:
    """c_A(n, r) by the multiplicative kernel; exact integer."""
    if n < 1 or r < 1:
        raise ValueError(f"c_A requires n, r >= 1, got n={n}, r={r}")
    return _kernel_value(prime_power_types(system, r), n)


def c_A_column(system: RegularSystem, r: int, n_max: int) -> list[int]:
    """[c_A(n, r) for n = 1..n_max], factorizing r once.

    c_A(n, r) depends on n only through n mod r, so one period
    n = 1..m, m = min(r, n_max), is built and repeated. The period is the
    product of the local factors, each periodic in n mod p^a: p^a - p^(a-t)
    where p^a | n, -p^(a-t) where only p^(a-t) | n, 0 otherwise. Each factor
    is built over its first min(p^a, m) values, where p^a itself is the one
    multiple of p^a if it is reached, and cycled along the period.
    """
    if r < 1:
        raise ValueError(f"c_A_column requires r >= 1, got r={r}")
    m = min(r, n_max)
    period = [1] * m
    for _, _, _, high, low in prime_power_types(system, r):
        size = min(high, m)
        factor = [0] * size
        factor[low - 1::low] = [-low] * (size // low)
        if size == high:
            factor[-1] = high - low
        period = list(map(mul, period, cycle(factor)))
    repeats, rest = divmod(n_max, r)
    return period * repeats + period[:rest]


def c_A_divisor(system: RegularSystem, n: int, r: int) -> int:
    """c_A(n, r) by the divisor form; exact integer."""
    if n < 1 or r < 1:
        raise ValueError(f"c_A_divisor requires n, r >= 1, got n={n}, r={r}")
    # A(r)'s members dividing n are A((n, r)_A): (n, r)_A takes p^(jt) at
    # each p^a || r of type t, and p^(jt) has type t, so its chain heads r's
    return sum(d * mu_A(system, r // d) for d in divisor_set(system, gcd_A(system, n, r)))


def c_A_core(system: RegularSystem, n: int, r: int) -> int:
    """c_A(n, r) as a sum of classical Ramanujan sums over core multiples."""
    if n < 1 or r < 1:
        raise ValueError(f"c_A_core requires n, r >= 1, got n={n}, r={r}")
    g = gamma_A(system, r)
    return sum(ramanujan_c(n, g * m) for m in divisors(r // g))


def c_A_oracle(system: RegularSystem, n: int, r: int) -> complex:
    """The defining exponential sum over k mod r with (k, r)_A = 1.

    O(r) floating point; test oracle only.
    """
    if n < 1 or r < 1:
        raise ValueError(f"c_A_oracle requires n, r >= 1, got n={n}, r={r}")
    total = 0j
    for k in range(1, r + 1):
        if gcd_A(system, k, r) == 1:
            total += cmath.exp(2j * cmath.pi * ((k * n) % r) / r)
    return total


def c_A_sum(system: RegularSystem, r: int, x: int) -> int:
    """sum_{n<=x} c_A(n, r) for integer x >= 0, exactly.

    Closed form: sum_{d in A(r)} d * mu_A(r/d) * floor(x/d), over the
    members d with mu_A(r/d) = +-1 only."""
    if r < 1 or x < 0:
        raise ValueError(f"c_A_sum requires r >= 1, x >= 0, got r={r}, x={x}")
    signed = [(1, 1)]  # (d, mu_A(r/d)) over the contributing d built so far
    for _, _, _, high, low in prime_power_types(system, r):
        signed = [(d * high, s) for d, s in signed] + [(d * low, -s) for d, s in signed]
    return sum(s * d * (x // d) for d, s in signed)


class PartialSumReport(NamedTuple):
    """Exact partial sum of a function against its predicted main term.

    The residual and the verdict are derived, so they cannot disagree with
    the sum, the main term and the bound."""

    x: int
    exact_sum: Numeric
    main_term: Numeric
    certified_bound: Numeric

    @property
    def residual(self) -> Numeric:
        return self.exact_sum - self.main_term

    @property
    def passed(self) -> bool:
        return abs(self.residual) <= self.certified_bound


def partial_sum_cA(system: RegularSystem, r: int, x) -> PartialSumReport:
    """Exact partial sum of c_A(., r) up to x with its certified bound psi_A(r).

    The sum is `c_A_sum` at floor(x); real x is floored first, which leaves
    every floor(x/d) unchanged.
    """
    if r < 1 or x < 1:
        raise ValueError(f"partial_sum_cA requires r >= 1, x >= 1, got r={r}, x={x}")
    big_x = floor(x)
    return PartialSumReport(
        x=big_x,
        exact_sum=c_A_sum(system, r, big_x),
        main_term=big_x if r == 1 else 0,
        certified_bound=psi_A(system, r),
    )
