"""The finite space of r-even functions: values on divisors of r, evaluated
anywhere through gcd(n, r).

Inner products, Fourier coefficients in the Ramanujan-sum basis, and mean
values are exact (Fraction) whenever the function values are integers or
rationals; complex-valued functions fall back to floats.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import floor, gcd
from typing import Callable, Mapping, Optional, Union

from .arith import (
    _divisor_tuple,
    dedekind_psi,
    euler_phi,
    factorize,
    moebius,
    ramanujan_c,
    sigma,
)
from .reports import PartialSumReport
from .systems import RegularSystem, gcd_A
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
    "format_even_literal",
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
        divs = _divisor_tuple(r)
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
        return cls.from_values(r, {d: fn(d) for d in _divisor_tuple(r)}, system)

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
                for d in _divisor_tuple(self.r)
            },
        )


def inner_product(f: EvenFunction, g: EvenFunction) -> Scalar:
    """(1/r) sum_{d|r} phi(d) f(r/d) conj(g(r/d))."""
    if f.r != g.r:
        raise ValueError(f"modulus mismatch: {f.r} != {g.r}")
    r = f.r
    total = sum(
        euler_phi(d) * _exact(f.value_map[r // d]) * _conj(_exact(g.value_map[r // d]))
        for d in _divisor_tuple(r)
    )
    return _div(total, r)


def fourier_coeffs(f: EvenFunction) -> FourierCoeffs:
    """The coefficients h(q) of f in the Ramanujan-sum basis.

    Computed by both closed forms; they must agree (exactly for rational
    values, to 1e-9 for floats), and the result reconstructs f."""
    r = f.r
    divs = _divisor_tuple(r)
    out = []
    for q in divs:
        s1 = sum(euler_phi(e) * _exact(f.value_map[r // e]) * ramanujan_c(r // e, q) for e in divs)
        h1 = _div(s1, r * euler_phi(q))
        s2 = sum(_exact(f.value_map[r // e]) * ramanujan_c(r // q, e) for e in divs)
        h2 = _div(s2, r)
        if _is_exact(h1) and _is_exact(h2):
            agree = h1 == h2
        else:
            agree = abs(h1 - h2) <= 1e-9 * (1 + abs(h1))
        if not agree:
            raise ArithmeticError(f"coefficient formulas disagree at q={q}: {h1} vs {h2}")
        out.append((q, h1))
    return FourierCoeffs(r, tuple(out))


def mean_value(f: EvenFunction) -> Scalar:
    """Exact mean (1/r) sum_{e|r} f(e) phi(r/e); equals the q = 1 coefficient."""
    r = f.r
    total = sum(_exact(f.value_map[e]) * euler_phi(r // e) for e in _divisor_tuple(r))
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
    return EvenFunction.from_values(n, {d: _progression_count(s, d, n) for d in _divisor_tuple(n)})


def progression_totient_mean(s: int, n: int) -> Fraction:
    """Average of progression_totient(s, ., n): n * prod_{p|n} (1 - 1/p + 1/p^2)."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    out = Fraction(n)
    for p, _ in factorize(n):
        out *= 1 - Fraction(1, p) + Fraction(1, p * p)
    return out


def _c_partial_sum(q: int, x: int) -> int:
    # sum_{n<=x} c(n, q) in closed form over divisors of q
    return sum(d * moebius(q // d) * (x // d) for d in _divisor_tuple(q))


def certified_residual_bound(f: EvenFunction) -> Scalar:
    """x-uniform bound on |sum_{n<=x} f(n) - M(f) x|.

    sup|f| * (sigma(r)/r) * sum_{q|r} psi(q): the coefficient bound
    |h(q)| <= sup|f| sigma(r)/r combined with |sum_{n<=x} c(n,q)| <= psi(q)
    for q > 1 (and the q = 1 term exactly cancelling the main term)."""
    r = f.r
    k_f = f.sup_norm()
    total = sum(dedekind_psi(q) for q in _divisor_tuple(r))
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
    exact = sum(hq * _c_partial_sum(q, big_x) for q, hq in coeffs.h)
    main = mean_value(f) * big_x
    residual = exact - main
    bound = certified_residual_bound(f)
    return PartialSumReport(
        x=big_x,
        exact_sum=exact,
        main_term=main,
        residual=residual,
        certified_bound=bound,
        passed=abs(residual) <= bound,
    )


_LITERAL_RE = re.compile(r"^\s*r\s*=\s*(\d+)\s*;\s*(.*)$", re.S)


def parse_even_literal(text: str) -> EvenFunction:
    """Parse the CLI literal `r=12; 1:1, 2:-1, ..., 12:5` (rationals as p/q)."""
    m = _LITERAL_RE.match(text)
    if not m:
        raise ValueError(f"malformed even-function literal: {text!r}")
    r = int(m.group(1))
    values: dict[int, Scalar] = {}
    for item in m.group(2).split(","):
        item = item.strip()
        if not item:
            continue
        try:
            key, val = item.split(":")
            frac = Fraction(val.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"malformed divisor:value pair {item!r}") from exc
        values[int(key)] = frac.numerator if frac.denominator == 1 else frac
    return EvenFunction.from_values(r, values)


def format_even_literal(f: EvenFunction) -> str:
    from .reports import format_value

    pairs = ", ".join(f"{d}:{format_value(v)}" for d, v in f.values)
    return f"r={f.r}; {pairs}"
