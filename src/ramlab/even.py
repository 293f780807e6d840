"""The finite space of r-even functions: values on divisors of r, evaluated
anywhere through gcd(n, r). Tagged with a regular system A, a function is
(A, r)-even, f(n) = f((n, r)_A), and expands in c_A(., d), d in A(r); an
untagged one expands under D, in c(., q), q | r. Every value is an int or a
Fraction, so inner products, Fourier coefficients, means and bounds are
exact Fractions.

The basis is orthogonal (`verify.mean_product_exact`); orthogonality fails
only across A-sets, as in Prop 3's pair (p, p^a), p not in A(p^a).

One per-prime kernel gives the coefficients. At p^a || r of type t, with
(q, k) = (p^t, a/t), the members of A(r) have exponents 0, t, ..., a at p,
and c_A(p^(it), p^(jt)) is the classical c(p^i, p^j) with p replaced by q.
So both closed forms' |A(r)|^2 matrices are Kronecker products of the
classical (k+1)-square Ramanujan matrices at (q, k); D is t = 1.
`fourier_coeffs` scales rational values to integers and applies one factor
per axis: |A(r)| * sum(k+1) integer multiply-adds per formula instead of
|A(r)|^2 Fraction operations, and still compares both formulas exactly.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import floor, gcd, lcm, prod
from operator import mul
from typing import Callable, Mapping, Optional

from .arith import divisors, factorize
from .gensums import Numeric, PartialSumReport
from .systems import DIRICHLET, RegularSystem, gcd_A, prime_power_types
from . import gensums

__all__ = [
    "EvenFunction",
    "FourierCoeffs",
    "inner_product",
    "fourier_coeffs",
    "mean_value",
    "c_A_even",
    "progression_totient",
    "progression_totient_even",
    "progression_totient_mean",
    "partial_sum_even",
    "parse_even_literal",
]

@dataclass(frozen=True)
class EvenFunction:
    """A function with period r depending on n only through gcd(n, r).

    Stored as its values on the divisors of r, each an int or a Fraction;
    an optional system tag asserts the stronger A-even property (values
    constant on (., r)_A) and selects the basis c_A(., d), d in A(r), that
    the closed forms use."""

    r: int
    values: tuple[tuple[int, Numeric], ...]
    system: Optional[RegularSystem] = None

    @classmethod
    def from_values(
        cls,
        r: int,
        values: Mapping[int, Numeric],
        system: Optional[RegularSystem] = None,
    ) -> "EvenFunction":
        divs = divisors(r)
        if set(values) != set(divs):
            raise ValueError(f"values must be given on exactly the divisors of {r}")
        for d in divs:
            v = values[d]
            if isinstance(v, bool) or not isinstance(v, (int, Fraction)):
                raise ValueError(f"value at divisor {d} must be an int or a Fraction, got {v!r}")
        f = cls(r, tuple((d, values[d]) for d in divs), system)
        if system is not None:
            for d in divs:
                if f.value_map[d] != f.value_map[gcd_A(system, d, r)]:
                    raise ValueError(
                        f"not A-even mod {r}: value at {d} differs from value at (d, r)_A"
                    )
        return f

    @classmethod
    def from_callable(
        cls,
        r: int,
        fn: Callable[[int], Numeric],
        system: Optional[RegularSystem] = None,
    ) -> "EvenFunction":
        return cls.from_values(r, {d: fn(d) for d in divisors(r)}, system)

    @cached_property
    def value_map(self) -> dict[int, Numeric]:
        return dict(self.values)

    def __call__(self, n: int) -> Numeric:
        if n < 1:
            raise ValueError(f"evaluation requires n >= 1, got {n}")
        return self.value_map[gcd(n, self.r)]

    def sup_norm(self) -> Numeric:
        """Largest |f(n)| over all n; by evenness the max over divisor values."""
        return max(abs(v) for _, v in self.values)


def _per_prime(system: Optional[RegularSystem], r: int) -> tuple:
    """The one pass every closed form here reads: the system (D when None),
    the axis (q, k) = (p^t, a/t) of each p^a || r of type t, and the members
    d of A(r) with phi_A(d), in the transform's mixed-radix order."""
    system = system or DIRICHLET
    axes, members, phis = [], [1], [1]
    for _, a, t, high, low in prime_power_types(system, r):
        q, k = high // low, a // t
        axes.append((q, k))
        members = [d * q**i for d in members for i in range(k + 1)]
        phis = [x * (q**i - q ** (i - 1) if i else 1) for x in phis for i in range(k + 1)]
    return system, axes, members, phis


@dataclass(frozen=True)
class FourierCoeffs:
    """Coordinates h(d), d in A(r), in the basis c_A(., d) of `system`."""

    r: int
    h: tuple[tuple[int, Fraction], ...]
    system: RegularSystem = DIRICHLET

    @cached_property
    def coeff_map(self) -> dict[int, Fraction]:
        return dict(self.h)

    def coeff(self, q: int) -> Fraction:
        return self.coeff_map[q]


def inner_product(f: EvenFunction, g: EvenFunction) -> Fraction:
    """(1/r) sum_{d|r} phi(d) f(r/d) g(r/d), the mean of f conj(g); the
    values are rational, so conjugation is the identity."""
    if f.r != g.r:
        raise ValueError(f"modulus mismatch: {f.r} != {g.r}")
    r = f.r
    _, _, divs, phis = _per_prime(None, r)
    total = sum(phi * f.value_map[r // d] * g.value_map[r // d] for d, phi in zip(divs, phis))
    return Fraction(total, r)


def _ramanujan_pp(q: int, b: int, j: int) -> int:
    # c(m, q^j) at v_q(m) = b, with q read as a prime: c_A(p^(bt), p^(jt)) at q = p^t
    if j == 0:
        return 1
    if b >= j:
        return q**j - q ** (j - 1)
    return -(q ** (j - 1)) if b == j - 1 else 0


def _axis_matrices(q: int, k: int) -> tuple[list[list[int]], list[list[int]]]:
    """The per-prime factors of both coefficient formulas on the axis (q, k).

    Row i and column j are the exponents i and j of q in d and e: formula
    1's phi_A(q^j) c_A(q^(k-j), q^i) and formula 2's c_A(q^(k-i), q^j)."""
    phi = [1] + [q**j - q ** (j - 1) for j in range(1, k + 1)]
    k1 = [[phi[j] * _ramanujan_pp(q, k - j, i) for j in range(k + 1)] for i in range(k + 1)]
    k2 = [[_ramanujan_pp(q, k - i, j) for j in range(k + 1)] for i in range(k + 1)]
    return k1, k2


def _kron_apply(mats: list[list[list[int]]], vec: list) -> list:
    # (mats[0] x mats[1] x ...) vec, one axis at a time; vec is indexed
    # mixed-radix with the last matrix's axis varying fastest
    stride = len(vec)
    for mat in mats:
        size = len(mat)
        stride //= size
        block = stride * size
        out = [0] * len(vec)
        for start in range(0, len(vec), block):
            for off in range(start, start + stride):
                col = vec[off : start + block : stride]
                for i, row in enumerate(mat):
                    out[off + i * stride] = sum(map(mul, row, col))
        vec = out
    return vec


def fourier_coeffs(f: EvenFunction) -> FourierCoeffs:
    """The coefficients h(d) of f in the basis c_A(., d), d in A(r), with A
    the system f is tagged with (D when untagged).

    Both closed forms are evaluated for every d in A(r):

        h(d) = (1 / (r phi_A(d))) sum_{e in A(r)} phi_A(e) f(r/e) c_A(r/e, d)   (1)
        h(d) = (1 / r)            sum_{e in A(r)} f(r/e) c_A(r/d, e)            (2)

    and must agree exactly, as the integer identity S1(d) = phi_A(d) S2(d)
    on the scaled sums; a disagreement raises ArithmeticError. That the
    result reconstructs f is not re-checked here; the round-trip tests
    cover it.

    The values are scaled to integers by the lcm L of their denominators,
    each formula's matrix is applied one axis at a time (see the module
    docstring), and h(d) = S2(d) / (r L)."""
    r = f.r
    system, axes, members, phis = _per_prime(f.system, r)
    mats = [_axis_matrices(q, k) for q, k in axes]
    values = [f.value_map[r // e] for e in members]
    scale = lcm(*(v.denominator for v in values))
    values = [v.numerator * (scale // v.denominator) for v in values]
    s1 = _kron_apply([k1 for k1, _ in mats], values)
    s2 = _kron_apply([k2 for _, k2 in mats], values)
    out = []
    for d, phi_d, t1, t2 in zip(members, phis, s1, s2):
        if t1 != phi_d * t2:
            raise ArithmeticError(
                f"coefficient formulas disagree at d={d}: "
                f"{Fraction(t1, r * scale * phi_d)} vs {Fraction(t2, r * scale)}"
            )
        out.append((d, Fraction(t2, r * scale)))
    out.sort()
    return FourierCoeffs(r, tuple(out), system)


def mean_value(f: EvenFunction) -> Fraction:
    """Exact mean (1/r) sum_{d in A(r)} phi_A(d) f(r/d); equals the coefficient h(1)."""
    r = f.r
    _, _, members, phis = _per_prime(f.system, r)
    total = sum(f.value_map[r // d] * phi for d, phi in zip(members, phis))
    return Fraction(total, r)


def c_A_even(system: RegularSystem, r: int) -> EvenFunction:
    """c_A(., r) as an A-even-tagged element of the r-even space."""
    return EvenFunction.from_callable(r, lambda n: gensums.c_A(system, n, r), system)


def _progression_count(s: int, d: int, n: int) -> int:
    # terms s, s+d, ..., s+(n-1)d; well defined with no coprimality assumption
    return sum(1 for k in range(n) if gcd(s + k * d, n) == 1)


def progression_totient(s: int, d: int, n: int) -> int:
    """Count of k in [1, n] with s + (k-1)d coprime to n; requires gcd(s, d) = 1."""
    if s < 1 or d < 1 or n < 1:
        raise ValueError(f"arguments must be >= 1, got s={s}, d={d}, n={n}")
    if gcd(s, d) != 1:
        raise ValueError(f"s and d must be coprime, got gcd({s}, {d}) = {gcd(s, d)}")
    return _progression_count(s, d, n)


def progression_totient_even(s: int, n: int) -> EvenFunction:
    """d -> progression_totient(s, d, n) tabulated as an n-even function.

    Needs gcd(s, n) = 1 so the count is defined at every divisor of n."""
    if gcd(s, n) != 1:
        raise ValueError(f"tabulation needs gcd(s, n) = 1, got gcd({s}, {n}) = {gcd(s, n)}")
    return EvenFunction.from_values(n, {d: _progression_count(s, d, n) for d in divisors(n)})


def progression_totient_mean(s: int, n: int) -> Fraction:
    """Average of progression_totient(s, ., n): n * prod_{p|n} (1 - 1/p + 1/p^2)."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    out = Fraction(n)
    for p, _ in factorize(n):
        out *= 1 - Fraction(1, p) + Fraction(1, p * p)
    return out


def certified_residual_bound(f: EvenFunction) -> Fraction:
    """x-uniform bound on |sum_{n<=x} f(n) - M(f) x|:
    sup|f| (sigma_A(r)/r) sum_{d in A(r)} psi_A(d), sigma_A(r) the sum of
    A(r); under D, sup|f| (sigma(r)/r) sum_{q|r} psi(q).

    Proof. By formula (2) of `fourier_coeffs`, h(d) = (1/r) sum_{e in A(r)}
    f(r/e) c_A(r/d, e). At p^b || e of type t the kernel takes the values
    p^b - p^(b-t), -p^(b-t) and 0, so |c_A(m, e)| <= e and |h(d)| <=
    sup|f| sigma_A(r)/r. As c_A(., 1) = 1 and h(1) = M(f) (formula (1) at
    d = 1), the residual is sum_{d>1} h(d) sum_{n<=x} c_A(n, d). For d > 1
    that inner sum is sum_m s_m m floor(x/m) over the 2^omega(d) terms of
    `gensums.c_A_sum`, whose signs s_m sum to 0, so it is -sum_m s_m m {x/m},
    at most sum_m m = psi_A(d) in absolute value. The d = 1 term only
    loosens the bound. Both factors are products over the axes (q, k):
    s(k) and s(k) + s(k-1), where s(k) = 1 + q + ... + q^k."""
    r = f.r
    _, axes, _, _ = _per_prime(f.system, r)
    sums = [((q ** (k + 1) - 1) // (q - 1), (q**k - 1) // (q - 1)) for q, k in axes]
    sigma_a = prod(s for s, _ in sums)
    total = prod(s + s_prev for s, s_prev in sums)
    return Fraction(f.sup_norm() * sigma_a * total, r)


def partial_sum_even(f: EvenFunction, x) -> PartialSumReport:
    """Exact partial sum of f up to x via the Fourier decomposition.

    sum_{n<=x} f(n) = sum_{d in A(r)} h(d) sum_{n<=x} c_A(n, d), each inner
    sum in closed form, so the cost is in |A(r)|, not x; the main term is h(1) x."""
    if x < 1:
        raise ValueError(f"x must be >= 1, got {x}")
    big_x = floor(x)
    coeffs = fourier_coeffs(f)
    exact = sum(hd * gensums.c_A_sum(coeffs.system, d, big_x) for d, hd in coeffs.h)
    return PartialSumReport(
        x=big_x,
        exact_sum=exact,
        main_term=coeffs.coeff(1) * big_x,
        certified_bound=certified_residual_bound(f),
    )


_LITERAL_RE = re.compile(r"^\s*r\s*=\s*(\d+)\s*;\s*(.*)$", re.S)


def parse_even_literal(text: str) -> EvenFunction:
    """Parse the CLI literal `r=12; 1:1, 2:-1, ..., 12:5` (rationals as p/q)."""
    m = _LITERAL_RE.match(text)
    if not m:
        raise ValueError(f"malformed even-function literal: {text!r}")
    r = int(m.group(1))
    if r < 1:
        raise ValueError(f"modulus must be >= 1, got r={r} in even-function literal {text!r}")
    values: dict[int, Numeric] = {}
    for item in m.group(2).split(","):
        item = item.strip()
        if not item:
            continue
        try:
            key, val = item.split(":")
            d, frac = int(key), Fraction(val.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"malformed divisor:value pair {item!r}") from exc
        if d in values:
            raise ValueError(f"divisor {d} is given more than once")
        values[d] = frac.numerator if frac.denominator == 1 else frac
    return EvenFunction.from_values(r, values)
