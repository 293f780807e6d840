"""The finite space of r-even functions: values on divisors of r, evaluated
anywhere through gcd(n, r).

Inner products, Fourier coefficients in the Ramanujan-sum basis, and mean
values are exact (Fraction) whenever the function values are integers or
rationals; complex-valued functions fall back to floats.

The Fourier coefficients come from a per-prime kernel. For r = prod p^a
and q, e | r, c(r/q, e) = prod_p c(p^(a - v_p(q)), p^(v_p(e))), so the
tau x tau matrices of both closed forms are Kronecker products of one
(a+1) x (a+1) integer matrix per prime. `fourier_coeffs` scales rational
values to integers and applies each factor along its prime axis:
tau(r) * sum(a+1) integer multiply-adds per formula instead of tau(r)^2
Fraction operations. Both formulas are still evaluated and compared
exactly for every q.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import floor, gcd, lcm
from operator import mul
from typing import Callable, Mapping, Optional, Union

from .arith import (
    dedekind_psi,
    divisors,
    euler_phi,
    factorize,
    ramanujan_c,
    sigma,
)
from .reports import PartialSumReport
from .systems import DIRICHLET, RegularSystem, gcd_A
from . import gensums

__all__ = [
    "Scalar",
    "EvenFunction",
    "FourierCoeffs",
    "inner_product",
    "fourier_coeffs",
    "mean_value",
    "ramanujan_even",
    "c_A_even",
    "progression_totient",
    "progression_totient_even",
    "progression_totient_mean",
    "partial_sum_even",
    "parse_even_literal",
]

Scalar = Union[int, Fraction, float, complex]


def _exact(v: Scalar) -> Scalar:
    return Fraction(v) if isinstance(v, int) else v


def _conj(v: Scalar) -> Scalar:
    return v.conjugate() if isinstance(v, complex) else v


def _div(v: Scalar, k: int) -> Scalar:
    if isinstance(v, (int, Fraction)):
        return Fraction(v, k)
    return v / k


def _is_exact(v: Scalar) -> bool:
    return isinstance(v, (int, Fraction))


@dataclass(frozen=True)
class EvenFunction:
    """A function with period r depending on n only through gcd(n, r).

    Stored as its values on the divisors of r; an optional system tag
    asserts the stronger A-even property (values constant on (., r)_A)."""

    r: int
    values: tuple[tuple[int, Scalar], ...]
    system: Optional[RegularSystem] = None

    @classmethod
    def from_values(
        cls,
        r: int,
        values: Mapping[int, Scalar],
        system: Optional[RegularSystem] = None,
    ) -> "EvenFunction":
        divs = divisors(r)
        if set(values) != set(divs):
            raise ValueError(f"values must be given on exactly the divisors of {r}")
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
        fn: Callable[[int], Scalar],
        system: Optional[RegularSystem] = None,
    ) -> "EvenFunction":
        return cls.from_values(r, {d: fn(d) for d in divisors(r)}, system)

    @cached_property
    def value_map(self) -> dict[int, Scalar]:
        return dict(self.values)

    def __call__(self, n: int) -> Scalar:
        if n < 1:
            raise ValueError(f"evaluation requires n >= 1, got {n}")
        return self.value_map[gcd(n, self.r)]

    def sup_norm(self) -> Scalar:
        """Largest |f(n)| over all n; by evenness the max over divisor values."""
        return max(abs(v) for _, v in self.values)

    def is_exact(self) -> bool:
        return all(_is_exact(v) for _, v in self.values)


@dataclass(frozen=True)
class FourierCoeffs:
    """Coordinates h(q), q | r, in the basis of classical Ramanujan sums."""

    r: int
    h: tuple[tuple[int, Scalar], ...]

    @cached_property
    def coeff_map(self) -> dict[int, Scalar]:
        return dict(self.h)

    def coeff(self, q: int) -> Scalar:
        return self.coeff_map[q]

    def reconstruct(self) -> EvenFunction:
        """The even function n -> sum_{q|r} h(q) c(n, q)."""
        return EvenFunction.from_values(
            self.r,
            {
                d: sum(hq * ramanujan_c(d, q) for q, hq in self.h)
                for d in divisors(self.r)
            },
        )


def inner_product(f: EvenFunction, g: EvenFunction) -> Scalar:
    """(1/r) sum_{d|r} phi(d) f(r/d) conj(g(r/d))."""
    if f.r != g.r:
        raise ValueError(f"modulus mismatch: {f.r} != {g.r}")
    r = f.r
    total = sum(
        euler_phi(d) * _exact(f.value_map[r // d]) * _conj(_exact(g.value_map[r // d]))
        for d in divisors(r)
    )
    return _div(total, r)


def _ramanujan_pp(p: int, b: int, j: int) -> int:
    # c(m, p^j) for v_p(m) = b: it depends on m only through gcd(m, p^j)
    if j == 0:
        return 1
    if b >= j:
        return p**j - p ** (j - 1)
    return -(p ** (j - 1)) if b == j - 1 else 0


def _axis_matrices(p: int, a: int) -> tuple[list[list[int]], list[list[int]]]:
    """The per-prime factors of both coefficient formulas at p^a || r.

    Row i = v_p(q), column j = v_p(e): formula 1's phi(p^j) c(p^(a-j), p^i)
    and formula 2's c(p^(a-i), p^j)."""
    phi = [1] + [p**j - p ** (j - 1) for j in range(1, a + 1)]
    k1 = [[phi[j] * _ramanujan_pp(p, a - j, i) for j in range(a + 1)] for i in range(a + 1)]
    k2 = [[_ramanujan_pp(p, a - i, j) for j in range(a + 1)] for i in range(a + 1)]
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
    """The coefficients h(q) of f in the Ramanujan-sum basis.

    Both closed forms are evaluated for every q | r:

        h(q) = (1 / (r phi(q))) sum_{e|r} phi(e) f(r/e) c(r/e, q)    (1)
        h(q) = (1 / r)          sum_{e|r} f(r/e) c(r/q, e)           (2)

    and must agree, exactly for rational values (as the integer identity
    S1(q) = phi(q) S2(q) on the scaled sums) and to 1e-9 for float or
    complex ones; a disagreement raises ArithmeticError. That the result
    reconstructs f is not re-checked here; the round-trip tests cover it.

    Rational values are scaled to integers by the lcm L of their
    denominators, each formula's matrix is applied one prime axis at a time
    (see the module docstring), and h(q) = S2(q) / (r L)."""
    r = f.r
    divs, phis, k1s, k2s = [1], [1], [], []
    for p, a in factorize(r):
        divs = [d * p**i for d in divs for i in range(a + 1)]
        phis = [x * (p**i - p ** (i - 1) if i else 1) for x in phis for i in range(a + 1)]
        k1, k2 = _axis_matrices(p, a)
        k1s.append(k1)
        k2s.append(k2)
    values = [f.value_map[r // e] for e in divs]
    exact = f.is_exact()
    scale = 1
    if exact:
        fracs = [Fraction(v) for v in values]
        scale = lcm(*(v.denominator for v in fracs))
        values = [v.numerator * (scale // v.denominator) for v in fracs]
    s1 = _kron_apply(k1s, values)
    s2 = _kron_apply(k2s, values)
    out = []
    for q, phi_q, t1, t2 in zip(divs, phis, s1, s2):
        if exact:
            agree = t1 == phi_q * t2
            h = Fraction(t2, r * scale)
        else:
            h, h1 = t2 / r, t1 / (r * phi_q)
            agree = abs(h1 - h) <= 1e-9 * (1 + abs(h1))
        if not agree:
            raise ArithmeticError(
                f"coefficient formulas disagree at q={q}: "
                f"{_div(t1, r * scale * phi_q)} vs {_div(t2, r * scale)}"
            )
        out.append((q, h))
    out.sort()
    return FourierCoeffs(r, tuple(out))


def mean_value(f: EvenFunction) -> Scalar:
    """Exact mean (1/r) sum_{e|r} f(e) phi(r/e); equals the q = 1 coefficient."""
    r = f.r
    total = sum(_exact(f.value_map[e]) * euler_phi(r // e) for e in divisors(r))
    return _div(total, r)


def ramanujan_even(r: int) -> EvenFunction:
    """c(., r) as an element of the r-even space."""
    return EvenFunction.from_callable(r, lambda n: ramanujan_c(n, r))


def c_A_even(system: RegularSystem, r: int) -> EvenFunction:
    """c_A(., r) as an A-even-tagged element of the r-even space."""
    return EvenFunction.from_callable(
        r, lambda n: gensums.c_A(system, n, r), system=system
    )


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


def certified_residual_bound(f: EvenFunction) -> Scalar:
    """x-uniform bound on |sum_{n<=x} f(n) - M(f) x|.

    sup|f| * (sigma(r)/r) * sum_{q|r} psi(q): the coefficient bound
    |h(q)| <= sup|f| sigma(r)/r combined with |sum_{n<=x} c(n,q)| <= psi(q)
    for q > 1 (and the q = 1 term exactly cancelling the main term)."""
    r = f.r
    k_f = f.sup_norm()
    total = sum(dedekind_psi(q) for q in divisors(r))
    if _is_exact(k_f):
        return Fraction(k_f) * Fraction(sigma(r), r) * total
    return k_f * sigma(r) / r * total


def partial_sum_even(f: EvenFunction, x) -> PartialSumReport:
    """Exact partial sum of f up to x via the Fourier decomposition.

    sum_{n<=x} f(n) = sum_{q|r} h(q) sum_{n<=x} c(n, q), each inner sum in
    closed form, so the cost is in tau(r), not x."""
    if x < 1:
        raise ValueError(f"x must be >= 1, got {x}")
    big_x = floor(x)
    coeffs = fourier_coeffs(f)
    exact = sum(hq * gensums.c_A_sum(DIRICHLET, q, big_x) for q, hq in coeffs.h)
    return PartialSumReport(
        x=big_x,
        exact_sum=exact,
        main_term=mean_value(f) * big_x,
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
    values: dict[int, Scalar] = {}
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
