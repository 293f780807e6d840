"""The finite space of r-even functions: values on divisors of r, evaluated
anywhere through gcd(n, r). Each function names its regular system A (D by
default): it is (A, r)-even, f(n) = f((n, r)_A), and expands in c_A(., d),
d in A(r). Every value is an int or a Fraction, so inner products, Fourier
coefficients, means and bounds are exact Fractions.

The basis is orthogonal (`verify.mean_product_exact`); orthogonality fails
only across A-sets, as in Prop 3's pair (p, p^a), p not in A(p^a).

One per-prime kernel gives the coefficients. At p^a || r of type t, with
(q, k) = (p^t, a/t), the members of A(r) have exponents 0, t, ..., a at p,
and c_A(p^(it), p^(jt)) is the classical c(p^i, p^j) with p replaced by q.
So both closed forms' |A(r)|^2 matrices are Kronecker products of the
classical (k+1)-square Ramanujan matrices at (q, k); D is t = 1.
`fourier_coeffs` applies one factor per axis to `EvenFunction._form`'s
integer values: |A(r)| * sum(k+1) integer multiply-adds per formula
instead of |A(r)|^2 Fraction operations, and compares both formulas exactly.
An axis of size m = k+1 takes min(m^2, |A(r)|) Python-level steps, each a
C-level map or sum (`_kron_apply`), and its matrices are built once per
(q, k) (`_axis_matrices`).

The partial sums reuse that transform. sum_{n<=X} f(n) is
sum_{d in A(r)} h(d) sum_{n<=X} c_A(n, d), and each inner sum is
sum_{e in A(d)} mu_A(d/e) e floor(X/e) (`gensums.c_A_sum`). Since e in A(d)
and d in A(r) give e in A(r), the double sum regroups by e into
sum_{e in A(r)} e floor(X/e) G(e), G(e) = sum_{d: e in A(d)} mu_A(d/e) h(d).
On the axis (q, k), e in A(d) reads j <= i on the exponents, and mu_A(q^m)
is 1, -1, 0 for m = 0, 1, >= 2, so G is h under the Kronecker product of
the matrices with 1 on the diagonal and -1 just above it: one more
integer pass over the numerators of h (proof at `partial_sum_numerators`).
Everything here about partial sums is an integer over D = r L:
`mean_and_bound` gives the mean's numerator M and the bound's B, once per
function, and `partial_sum_numerators` each sum's T. `verify` decides a
Prop 1 row by comparing these with its own tally in integers;
`mean_value`, `certified_residual_bound` and `partial_sum_even` divide
them once each.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import repeat
from math import floor, gcd, lcm, prod
from operator import add, mul
from typing import Callable, Mapping, NamedTuple, Sequence

from .arith import divisors, factorize
from .gensums import Numeric, PartialSumReport
from .systems import DIRICHLET, RegularSystem, divisor_set, gcd_A, prime_power_types
from . import gensums

__all__ = [
    "EvenFunction",
    "FourierCoeffs",
    "inner_product",
    "fourier_coeffs",
    "mean_value",
    "mean_and_bound",
    "certified_residual_bound",
    "c_A_even",
    "progression_totient",
    "progression_totient_even",
    "progression_totient_mean",
    "partial_sum_numerators",
    "partial_sum_even",
]

class EvenFunction:
    """A function with period r depending on n only through gcd(n, r).

    Stored as its values on the divisors of r, in increasing order, each an
    int or a Fraction; the system A asserts the A-even property (values
    constant on (., r)_A) and selects the basis c_A(., d), d in A(r), that
    the closed forms use. Construction checks all three, so every instance
    can be scaled to integers and transformed. An instance is immutable,
    and equal and hash equal to another by r, values and system."""

    def __init__(self, r: int, values: tuple[tuple[int, Numeric], ...],
                 system: RegularSystem = DIRICHLET):
        # set in __dict__, where the two cached properties also go
        vars(self).update(r=r, values=values, system=system)
        if type(r) is not int or r < 1:
            raise ValueError(f"modulus must be an int >= 1, got {r!r}")
        if type(values) is not tuple or any(type(i) is not tuple or len(i) != 2 for i in values):
            raise ValueError("values must be a tuple of (divisor, value) pairs")
        if tuple(d for d, _ in values) != divisors(r):
            raise ValueError(f"values must be given on exactly the divisors of {r}, in increasing order")
        if not isinstance(system, RegularSystem):
            raise ValueError(f"system must be a RegularSystem, got {system!r}")
        # (d, r)_A is d on A(r), so only a divisor outside A(r) (none under D)
        # is compared, with its smaller (d, r)_A, whose value is checked already
        members = set(divisor_set(system, r))
        for d, v in values:
            if isinstance(v, bool) or not isinstance(v, (int, Fraction)):
                raise ValueError(f"value at divisor {d} must be an int or a Fraction, got {v!r}")
            if d not in members and v != self.value_map[g := gcd_A(system, d, r)]:
                raise ValueError(
                    f"not A-even mod {r}: value at {d} is {v}, "
                    f"but ({d}, {r})_A = {g} has value {self.value_map[g]}"
                )

    def _key(self) -> tuple:
        return self.r, self.values, self.system

    def __setattr__(self, attr, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set or delete {attr!r}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        return self._key() == other._key() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return "EvenFunction(r={!r}, values={!r}, system={!r})".format(*self._key())

    def __reduce__(self):
        # pickle by fields, as a RegularSystem does: the receiving process
        # checks the values again, and no cached property travels
        return (type(self), self._key())

    @classmethod
    def from_values(
        cls,
        r: int,
        values: Mapping[int, Numeric],
        system: RegularSystem = DIRICHLET,
    ) -> "EvenFunction":
        return cls(r, tuple(sorted(values.items())), system)

    @classmethod
    def from_callable(
        cls,
        r: int,
        fn: Callable[[int], Numeric],
        system: RegularSystem = DIRICHLET,
    ) -> "EvenFunction":
        return cls.from_values(r, {d: fn(d) for d in divisors(r)}, system)

    @cached_property
    def value_map(self) -> dict[int, Numeric]:
        return dict(self.values)

    @cached_property
    def _form(self) -> tuple:
        # `_per_prime`'s pass, then f(r/e) at its members e as integers over
        # their lcm L, and L: built once, read by the coefficients, mean and bound
        axes, members, phis = _per_prime(self.system, self.r)
        values = [self.value_map[self.r // e] for e in members]
        scale = lcm(*(v.denominator for v in values))
        return axes, members, phis, [v.numerator * (scale // v.denominator) for v in values], scale

    def __call__(self, n: int) -> Numeric:
        if n < 1:
            raise ValueError(f"evaluation requires n >= 1, got {n}")
        return self.value_map[gcd(n, self.r)]


def _per_prime(system: RegularSystem, r: int) -> tuple:
    """The one pass every closed form here reads: the axis (q, k) =
    (p^t, a/t) of each p^a || r of type t, and the members d of A(r) with
    phi_A(d), in the transform's mixed-radix order."""
    axes, members, phis = [], [1], [1]
    for _, a, t, high, low in prime_power_types(system, r):
        q, k = high // low, a // t
        axes.append((q, k))
        members = [d * q**i for d in members for i in range(k + 1)]
        phis = [x * (q**i - q ** (i - 1) if i else 1) for x in phis for i in range(k + 1)]
    return axes, members, phis


class FourierCoeffs(NamedTuple):
    """Coordinates h(d) = S2(d) / denominator, d in A(r), in the basis
    c_A(., d) of `system`.

    The integer numerators S2(d) are kept in the transform's mixed-radix
    order over `axes`, the order of `members`, which starts at d = 1;
    `denominator` is r L, L the lcm of the value denominators."""

    r: int
    system: RegularSystem
    axes: tuple[tuple[int, int], ...]
    members: tuple[int, ...]
    numerators: tuple[int, ...]
    denominator: int


def inner_product(f: EvenFunction, g: EvenFunction) -> Fraction:
    """(1/r) sum_{d|r} phi(d) f(r/d) g(r/d), the mean of f conj(g); the
    values are rational, so conjugation is the identity."""
    if f.r != g.r:
        raise ValueError(f"modulus mismatch: {f.r} != {g.r}")
    r = f.r
    _, divs, phis = _per_prime(DIRICHLET, r)
    total = sum(phi * f.value_map[r // d] * g.value_map[r // d] for d, phi in zip(divs, phis))
    return Fraction(total, r)


def _ramanujan_pp(q: int, b: int, j: int) -> int:
    # c(m, q^j) at v_q(m) = b, with q read as a prime: c_A(p^(bt), p^(jt)) at q = p^t
    if j == 0:
        return 1
    if b >= j:
        return q**j - q ** (j - 1)
    return -(q ** (j - 1)) if b == j - 1 else 0


@lru_cache(maxsize=4096)
def _axis_matrices(q: int, k: int) -> tuple:
    """The per-prime factors on the axis (q, k) of formula 1, formula 2 and
    `partial_sum_even`'s regrouping, as tuples of rows.

    Row i and column j are the exponents i and j of q in d and e: formula
    2's c_A(q^(k-i), q^j); formula 1's phi_A(q^j) c_A(q^(k-j), q^i), which
    is formula 2's transpose with column j scaled; and mu_A(q^(j-i)) for
    j >= i, 1 on the diagonal and -1 just above it. Cached, since the
    functions of one Prop 1 battery read the same few axes."""
    phi = [1] + [q**j - q ** (j - 1) for j in range(1, k + 1)]
    k2 = tuple(tuple(_ramanujan_pp(q, k - i, j) for j in range(k + 1)) for i in range(k + 1))
    k1 = tuple(tuple(map(mul, phi, col)) for col in zip(*k2))
    diff = tuple(tuple((j == i) - (j == i + 1) for j in range(k + 1)) for i in range(k + 1))
    return k1, k2, diff


def _kron_apply(mats: Sequence[Sequence[Sequence[int]]], vec: list) -> list:
    # (mats[0] x mats[1] x ...) vec, vec indexed mixed-radix with the last
    # matrix's axis varying fastest. Each pass applies the fastest axis's
    # m-square matrix to all of vec and writes its rows as contiguous
    # blocks, so that axis becomes the slowest and the next one the fastest;
    # after one pass per axis the order is back. A pass takes min(m^2, tau)
    # Python steps, tau = len(vec): on a wide axis (m^2 <= tau) one C-level
    # map per nonzero entry over the strided slices vec[j::m], on a deep one
    # one sum per entry over the contiguous fibers vec[c:c+m]
    size = len(vec)
    for mat in reversed(mats):
        m = len(mat)
        if m * m > size:
            fibers = [vec[c : c + m] for c in range(0, size, m)]
            vec = [sum(map(mul, row, fiber)) for row in mat for fiber in fibers]
            continue
        cols = [vec[j::m] for j in range(m)]
        vec = []
        for row in mat:
            acc = None
            for c, col in zip(row, cols):
                if c:
                    term = col if c == 1 else map(mul, col, repeat(c))
                    acc = term if acc is None else list(map(add, acc, term))
            vec.extend(repeat(0, size // m) if acc is None else acc)
    return vec


def fourier_coeffs(f: EvenFunction) -> FourierCoeffs:
    """The coefficients h(d) of f in the basis c_A(., d), d in A(r), with A
    the system f names.

    Both closed forms are evaluated for every d in A(r):

        h(d) = (1 / (r phi_A(d))) sum_{e in A(r)} phi_A(e) f(r/e) c_A(r/e, d)   (1)
        h(d) = (1 / r)            sum_{e in A(r)} f(r/e) c_A(r/d, e)            (2)

    and must agree exactly, as the integer identity S1(d) = phi_A(d) S2(d)
    on the scaled sums; a disagreement raises ArithmeticError. That the
    result reconstructs f is not re-checked here; the round-trip tests
    cover it.

    The values come scaled to integers by the lcm L of their denominators
    (`EvenFunction._form`), each formula's matrix is applied one axis at a
    time (see the module docstring), and h(d) = S2(d) / (r L); the result
    keeps the integers S2 and the one denominator r L."""
    r = f.r
    axes, members, phis, values, scale = f._form
    mats = [_axis_matrices(q, k) for q, k in axes]
    s1 = _kron_apply([m[0] for m in mats], values)
    s2 = _kron_apply([m[1] for m in mats], values)
    if list(map(mul, phis, s2)) != s1:
        for d, phi_d, t1, t2 in zip(members, phis, s1, s2):
            if t1 != phi_d * t2:
                raise ArithmeticError(
                    f"coefficient formulas disagree at d={d}: "
                    f"{Fraction(t1, r * scale * phi_d)} vs {Fraction(t2, r * scale)}"
                )
    return FourierCoeffs(r, f.system, tuple(axes), tuple(members), tuple(s2), r * scale)


def mean_value(f: EvenFunction) -> Fraction:
    """Exact mean (1/r) sum_{d in A(r)} phi_A(d) f(r/d); equals the coefficient h(1)."""
    mean, _, denominator = mean_and_bound(f)
    return Fraction(mean, denominator)


def c_A_even(system: RegularSystem, r: int) -> EvenFunction:
    """c_A(., r) as an (A, r)-even function."""
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


def mean_and_bound(f: EvenFunction) -> tuple[int, int, int]:
    """(M, B, D): the mean M(f) = M / D and the x-uniform bound B / D on
    |sum_{n<=x} f(n) - M(f) x|, over D = r L, L the lcm of the value
    denominators, from `EvenFunction._form`. M is sum_{d in A(r)} phi_A(d)
    f(r/d) scaled by L, and B / D is sup|f| (sigma_A(r)/r) sum_{d in A(r)}
    psi_A(d), sigma_A(r) the sum of A(r); under D, sup|f| (sigma(r)/r)
    sum_{q|r} psi(q). The one computation of the bound.

    Proof of the bound. By formula (2) of `fourier_coeffs`, h(d) = (1/r)
    sum_{e in A(r)} f(r/e) c_A(r/d, e). At p^b || e of type t the kernel
    takes the values p^b - p^(b-t), -p^(b-t) and 0, so |c_A(m, e)| <= e
    and |h(d)| <= sup|f| sigma_A(r)/r. As c_A(., 1) = 1 and h(1) = M(f)
    (formula (1) at d = 1), the residual is sum_{d>1} h(d) sum_{n<=x} c_A(n, d). For d > 1
    that inner sum is sum_m s_m m floor(x/m) over the 2^omega(d) terms of
    `gensums.c_A_sum`, whose signs s_m sum to 0, so it is -sum_m s_m m {x/m},
    at most sum_m m = psi_A(d) in absolute value. The d = 1 term only
    loosens the bound. Both factors are products over the axes (q, k):
    s(k) and s(k) + s(k-1), where s(k) = 1 + q + ... + q^k. sup|f| is read
    from the scaled f(r/e), e in A(r), of `EvenFunction._form`: that is the
    sup over all divisors, as r/e runs over A(r) and f(d) = f((d, r)_A)."""
    axes, _, phis, values, scale = f._form
    sigma_a = prod((q ** (k + 1) - 1) // (q - 1) for q, k in axes)
    total = prod((q ** (k + 1) + q**k - 2) // (q - 1) for q, k in axes)
    return sum(map(mul, values, phis)), max(map(abs, values)) * sigma_a * total, f.r * scale


def certified_residual_bound(f: EvenFunction) -> Fraction:
    """x-uniform bound on |sum_{n<=x} f(n) - M(f) x|: B / D of
    `mean_and_bound`, which proves it."""
    _, bound, denominator = mean_and_bound(f)
    return Fraction(bound, denominator)


def partial_sum_numerators(f: EvenFunction, x_list: Sequence) -> list[int]:
    """T(x) with sum_{n<=x} f(n) = T(x) / D for each x in `x_list`, D = r L
    the denominator of `mean_and_bound`, via the Fourier decomposition, f
    transformed once for all of them.

    sum_{n<=x} f(n) = sum_{d in A(r)} h(d) sum_{n<=x} c_A(n, d), each inner
    sum in closed form, so the cost is in |A(r)|, not x. With X = floor(x)
    and h(d) = S2(d) / (r L) from `fourier_coeffs`, the sum is regrouped by
    the members e of A(r):

        T(x) = sum_d S2(d) c_A_sum(d, X) = sum_{e in A(r)} e floor(X/e) G(e),
        G(e) = sum_{d in A(r), e in A(d)} mu_A(d/e) S2(d).

    Proof. `gensums.c_A_sum` gives sum_{n<=X} c_A(n, d) = sum_{e in A(d)}
    mu_A(d/e) e floor(X/e). Every e in A(d) is in A(r), since A(d) is a
    subset of A(r) for d in A(r), so swapping the two finite sums gives the
    identity term for term. On the axis (q, k) of p^a || r of type t, d and
    e have exponents i and j of q; p^(it) has type t by the chain rule, so
    e in A(d) means j <= i there, and mu_A(q^(i-j)) is 1 at j = i, -1 at
    j = i - 1 and 0 otherwise. Both conditions and mu_A are products over
    the axes, so G is S2 under the Kronecker product of the (k+1)-square
    matrices with 1 on the diagonal and -1 just above it, one more pass of
    the transform."""
    for x in x_list:
        if x < 1:
            raise ValueError(f"x must be >= 1, got {x}")
    coeffs = fourier_coeffs(f)
    diffs = [_axis_matrices(q, k)[2] for q, k in coeffs.axes]
    grouped = _kron_apply(diffs, list(coeffs.numerators))
    terms = [(e, g) for e, g in zip(coeffs.members, grouped) if g]
    return [sum(g * e * (big_x // e) for e, g in terms) for big_x in map(floor, x_list)]


def partial_sum_even(f: EvenFunction, x_list: Sequence) -> list[PartialSumReport]:
    """Exact partial sums of f up to each x in `x_list`, X = floor(x): the
    closed form T(x) / D of `partial_sum_numerators` against the main term
    M(f) X and the bound of `mean_and_bound`, each divided once by D."""
    sums = partial_sum_numerators(f, x_list)
    mean, bound, denominator = mean_and_bound(f)
    bound = Fraction(bound, denominator)
    return [
        PartialSumReport(big_x, Fraction(total, denominator), Fraction(mean * big_x, denominator), bound)
        for big_x, total in zip(map(floor, x_list), sums)
    ]
