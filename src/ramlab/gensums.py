"""Generalized Ramanujan sums c_A(n, r): one kernel and three cross-checks.

The kernel is the hot path: `c_A` for one value (`even.c_A_even`),
`c_A_column` for many n at one modulus (`verify`'s Prop 2 and 3 tallies),
and `c_A_grid` for every modulus up to a bound (the CLI's `table --what cA`).
For a regular system c_A(n, r) is multiplicative in r, and since mu_A
vanishes on p^(jt) for j >= 2, at a prime power p^a of type t it is

    c_A(n, p^a) = p^a [p^a | n] - p^(a-t) [p^(a-t) | n].

`c_A` multiplies these local factors for one n. `c_A_column` builds each
factor as a list periodic in n mod p^a and multiplies the lists entrywise
into one period of c_A(., r), so a column costs omega(r) list products of
length min(r, n_max) and no Python-level call per n. `c_A_grid` walks the
moduli in increasing order from one sieve and builds column r = p^a r1
from column r1, already built, and the one factor at p^a: one list
product per modulus, and no factorization.

Three independent routes stay as the references the kernel is checked
against. Route 1 (divisor form): d * mu_A(r/d) summed over A((n, r)_A),
the members of A(r) dividing n. Route 2 (core form): classical c(n, d)
summed over the multiples d = g m, m | r/g, of the core g = gamma_A(r).
Route 3 (the oracle) evaluates the defining exponential sum over the
residues k with (k, r)_A = 1 exactly, by counting them: O(r) `gcd_A`
calls, test oracle only.

The partial sums `c_A_sum` use the closed form over A(r),
sum_{d in A(r)} d mu_A(r/d) floor(x/d). Only the 2^omega(r) members d
with mu_A(r/d) != 0 contribute: those taking p^a or p^(a-t) at each prime
power p^a || r, the kernel's two terms. It takes a list of x, like
`even.partial_sum_numerators`, and builds these signed terms once per
modulus for all of them.
"""

from __future__ import annotations

from collections import Counter
from itertools import cycle
from math import gcd
from operator import mul
from typing import Sequence

from .arith import divisors, moebius, ramanujan_c
from .systems import (
    DIRICHLET,
    RegularSystem,
    divisor_set,
    gamma_A,
    gcd_A,
    mu_A,
    phi_A,
    prime_power_types,
    prime_power_walk,
)

__all__ = [
    "c_A",
    "c_A_column",
    "c_A_grid",
    "c_A_divisor",
    "c_A_core",
    "c_A_oracle",
    "c_A_sum",
]


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


def _times_local(period: list[int], high: int, low: int) -> list[int]:
    # the period times the local factor at p^a = high of type t, low =
    # p^(a-t), which is periodic in n mod p^a: p^a - p^(a-t) where p^a | n,
    # -p^(a-t) where only p^(a-t) | n, 0 otherwise. The factor is built over
    # its first min(p^a, len(period)) values, where p^a itself is the one
    # multiple of p^a if it is reached, and cycled along the period
    size = min(high, len(period))
    factor = [0] * size
    factor[low - 1::low] = [-low] * (size // low)
    if size == high:
        factor[-1] = high - low
    return list(map(mul, period, cycle(factor)))


def _repeat(period: list[int], r: int, n_max: int) -> list[int]:
    # c_A(n, r) for n = 1..n_max from one period n = 1..min(r, n_max)
    return period * (n_max // r) + period[:n_max % r]


def c_A_column(system: RegularSystem, r: int, n_max: int) -> list[int]:
    """[c_A(n, r) for n = 1..n_max], factorizing r once.

    c_A(n, r) depends on n only through n mod r, so one period
    n = 1..m, m = min(r, n_max), is built and repeated: the product of the
    omega(r) local factors, each periodic in n mod p^a, multiplied in as
    lists of length m.
    """
    if r < 1:
        raise ValueError(f"c_A_column requires r >= 1, got r={r}")
    period = [1] * min(r, n_max)
    for _, _, _, high, low in prime_power_types(system, r):
        period = _times_local(period, high, low)
    return _repeat(period, r, n_max)


def c_A_grid(system: RegularSystem, r_max: int, n_max: int) -> list[int]:
    """c_A(n, r) for r = 1..r_max and n = 1..n_max, column-major: c_A(n, r)
    at index (r - 1) n_max + n - 1. Along `prime_power_walk`, column
    r = p^a r1 is one period of column r1, already built, times the local
    factor at p^a, repeated: one list product of length min(r, n_max) and
    2 bytes of sieve per modulus, with no factorization and no cache."""
    grid = [1] * n_max  # c_A(n, 1) = 1
    for r, (r1, (_, _, _, high, low)) in enumerate(prime_power_walk(system, r_max), 2):
        start = (r1 - 1) * n_max
        period = _times_local(grid[start:start + min(r, n_max)], high, low)
        grid += _repeat(period, r, n_max)
    return grid


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


def c_A_oracle(system: RegularSystem, n: int, r: int) -> int:
    """The defining sum c_A(n, r) = sum e(kn/r) over k mod r with
    (k, r)_A = 1, e(x) = exp(2 pi i x), counted in integers:

        c_A(n, r) = sum_{g | r} mu(r/g) N_g / phi(r/g),
        N_g = #{k mod r : (k, r)_A = 1, gcd(kn, r) = g}.

    mu and phi are the classical functions (`arith.moebius`, and `phi_A`
    under D).

    Proof. Every member of A(r) divides r, so it divides k exactly when it
    divides gcd(k, r): (k, r)_A depends on k only through gcd(k, r). A
    classical unit u mod r keeps gcd(k, r), so k -> uk permutes the A-units
    mod r. The class gcd(j, r) = g is j = g j1, j1 a unit mod r/g, so it
    has phi(r/g) residues, and any two of them have j' = uj (mod r) for
    such a u (a unit mod r/g lifts to one mod r). Then k -> uk maps the
    A-units k with kn = j onto those with kn = j' (mod r). So M_g, the
    number of A-units k with kn = j (mod r), is the same for every j of the
    class, and N_g = phi(r/g) M_g. Summing e(j/r) = e(j1/(r/g)) over the
    class gives the classical c_{r/g}(1) = mu(r/g), so the sum over k is
    sum_{g | r} M_g mu(r/g).

    O(r) `gcd_A` calls; it uses none of the kernel, divisor or core routes.
    A nonzero remainder of N_g / phi(r/g) would contradict the proof and
    raises ArithmeticError.
    """
    if n < 1 or r < 1:
        raise ValueError(f"c_A_oracle requires n, r >= 1, got n={n}, r={r}")
    counts = Counter(gcd(k * n, r) for k in range(1, r + 1) if gcd_A(system, k, r) == 1)
    total = 0
    for g, count in counts.items():
        per_residue, remainder = divmod(count, phi_A(DIRICHLET, r // g))
        if remainder:
            raise ArithmeticError(f"N_g = {count} is not a multiple of phi(r/g) at n={n}, r={r}, g={g}")
        total += moebius(r // g) * per_residue
    return total


def c_A_sum(system: RegularSystem, r: int, x_list: Sequence[int]) -> list[int]:
    """[sum_{n<=x} c_A(n, r) for x in `x_list`], each x an int >= 0, exactly.

    Closed form: sum_{d in A(r)} d * mu_A(r/d) * floor(x/d), over the
    members d with mu_A(r/d) = +-1 only. The signed terms are built once
    per call, from one `prime_power_types` read, and serve every x."""
    if r < 1:
        raise ValueError(f"c_A_sum requires r >= 1, x >= 0, x an int, got r={r}")
    for x in x_list:
        if type(x) is not int or x < 0:
            raise ValueError(f"c_A_sum requires r >= 1, x >= 0, x an int, got r={r}, x={x!r}")
    signed = [(1, 1)]  # (d, mu_A(r/d)) over the contributing d built so far
    for _, _, _, high, low in prime_power_types(system, r):
        signed = [(d * high, s) for d, s in signed] + [(d * low, -s) for d, s in signed]
    return [sum(s * d * (x // d) for d, s in signed) for x in x_list]
