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


def primes_up_to(limit: int) -> Iterator[int]:
    """The primes p <= limit, increasing, read lazily (sieve of Eratosthenes)."""
    flags = bytearray([1]) * (limit + 1)
    flags[0:2] = b"\x00\x00"
    for p in range(2, isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = bytes(len(range(p * p, limit + 1, p)))
    return compress(range(limit + 1), flags)


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


def moebius_sieve(limit: int) -> array:
    """Moebius values mu[0..limit] as signed bytes (mu[0] = 0), one byte per
    entry: mu[m] is the int -1, 0 or 1.

    Each prime p negates every multiple of p and, up to sqrt(limit), zeroes
    every multiple of p^2, one C-level slice pass each."""
    mu = bytearray([1]) * (limit + 1)
    mu[0] = 0
    for p in primes_up_to(limit):
        mu[p::p] = mu[p::p].translate(_NEGATE)
        if p * p <= limit:
            mu[p * p :: p * p] = bytes(limit // (p * p))
    return array("b", mu)


def ramanujan_c(n: int, r: int) -> int:
    """Classical Ramanujan sum c(n, r) = sum_{d | gcd(n,r)} d * mu(r/d)."""
    if n < 1 or r < 1:
        raise ValueError(f"ramanujan_c requires n, r >= 1, got n={n}, r={r}")
    # every divisor of gcd(n, r) divides r
    return sum(d * moebius(r // d) for d in divisors(gcd(n, r)))

