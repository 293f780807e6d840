"""Exact elementary arithmetic functions and classical Ramanujan sums.

Everything here is plain integer arithmetic (Python ints, so no overflow).
Intended input range is desk scale, n <= 10**9.
"""

from __future__ import annotations

from array import array
from functools import lru_cache
from itertools import chain, compress, count
from math import gcd, isqrt
from typing import Iterator

__all__ = [
    "primes_up_to",
    "factorize",
    "divisors",
    "moebius",
    "moebius_sieve",
    "ramanujan_c",
]


def _prime_flags(limit: int) -> bytearray:
    """flags[m] = 1 if m is prime else 0, for 0 <= m <= limit (sieve of
    Eratosthenes)."""
    flags = bytearray([1]) * (limit + 1)
    flags[:2] = bytes(min(limit + 1, 2))
    for p in range(2, isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = bytes(len(range(p * p, limit + 1, p)))
    return flags


def primes_up_to(limit: int) -> Iterator[int]:
    """The primes p <= limit, increasing, read lazily."""
    if limit < 0:
        raise ValueError(f"primes_up_to requires limit >= 0, got {limit}")
    return compress(range(limit + 1), _prime_flags(limit))


_SMALL_PRIMES = list(primes_up_to(1000))


# One rule for every cache in the package: cache only where measured traffic
# repeats the arguments, and bound it at 4096 entries, so that a long run of
# distinct inputs cannot grow the process.
@lru_cache(maxsize=4096)
def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """The pairs (p, a) with p^a exactly dividing n >= 1, primes strictly
    increasing, by trial division."""
    if n < 1:
        raise ValueError(f"factorize requires n >= 1, got {n}")
    m = n
    factors = []
    # past the table, every odd number is tried: a composite one never
    # divides m, whose smaller primes are already divided out
    for p in chain(_SMALL_PRIMES, count(_SMALL_PRIMES[-1] + 2, 2)):
        if p * p > m:
            break
        if m % p == 0:
            a = 0
            while m % p == 0:
                m //= p
                a += 1
            factors.append((p, a))
    if m > 1:
        factors.append((m, 1))
    return tuple(factors)


@lru_cache(maxsize=4096)
def divisors(n: int) -> tuple[int, ...]:
    """All positive divisors of n, strictly increasing."""
    divs = [1]
    for p, a in factorize(n):
        divs = [d * p**i for d in divs for i in range(a + 1)]
    return tuple(sorted(divs))


def moebius(n: int) -> int:
    """Moebius function: (-1)^k on squarefree n with k prime factors, else 0."""
    out = 1
    for _, a in factorize(n):
        if a >= 2:
            return 0
        out = -out
    return out


# swaps the bytes of 1 and -1, keeps 0
_NEGATE = bytes.maketrans(b"\x01\xff", b"\xff\x01")
# a prime flag 1 becomes -1, a flag 0 becomes 1
_PRIME_SIGN = bytes.maketrans(b"\x01\x00", b"\xff\x01")


def moebius_sieve(limit: int) -> array:
    """Moebius values mu[0..limit] as signed bytes (mu[0] = 0), one byte per
    entry: mu[m] is the int -1, 0 or 1.

    With s = isqrt(limit), every m starts at -1 if prime, else 1. A prime
    q > s divides m <= limit at most once, as m = j*q with j < q, so for
    each j = 2..limit//(s+1) one strided pass writes the prime signs of
    s+1..limit//j over the multiples j*(s+1)..limit of j. Taking j in
    increasing order never overwrites a -1 that a smaller j' wrote for a
    prime q > s: j*m = j'*q with j' < j gives m < q, and q | j*m with
    j <= s < q gives q | m, which no 0 < m < q allows. Then each prime p <= s
    negates its multiples from 2p and zeroes the multiples of p^2: fewer
    than 2*sqrt(limit) C-level slice passes in all, not one per prime."""
    if limit < 0:
        raise ValueError(f"moebius_sieve requires limit >= 0, got {limit}")
    root = isqrt(limit)
    flags = _prime_flags(limit)
    small = list(compress(range(root + 1), flags))
    mu = flags.translate(_PRIME_SIGN)
    del flags
    mu[0] = 0
    lo = root + 1
    # the signs of lo..limit//2 as they are before any pass writes there
    signs = mu[lo : limit // 2 + 1]
    for j in range(2, limit // lo + 1):
        hi = limit // j
        mu[j * lo : j * hi + 1 : j] = signs[: hi - lo + 1]
    del signs
    for p in small:
        mu[2 * p :: p] = mu[2 * p :: p].translate(_NEGATE)
        mu[p * p :: p * p] = bytes(limit // (p * p))
    return array("b", mu)


def ramanujan_c(n: int, r: int) -> int:
    """Classical Ramanujan sum c(n, r) = sum_{d | gcd(n,r)} d * mu(r/d)."""
    if n < 1 or r < 1:
        raise ValueError(f"ramanujan_c requires n, r >= 1, got n={n}, r={r}")
    # every divisor of gcd(n, r) divides r
    return sum(d * moebius(r // d) for d in divisors(gcd(n, r)))

