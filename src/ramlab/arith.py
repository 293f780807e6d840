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
    "smallest_prime_powers",
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


def smallest_prime_powers(limit: int) -> Iterator[tuple[int, int, int, int]]:
    """(r1, p, a, p^a) for r = 2, 3, ..., limit in turn, with r = p^a r1,
    p the smallest prime of r and r1 prime to p: each modulus as a prime
    power times a smaller cofactor, so a multiplicative function of every
    r <= limit is one product per modulus.

    One sieve holds the smallest prime of each composite r <= limit, 2
    bytes per modulus, written from the primes up to isqrt(limit); 0 marks
    a prime. That smallest prime is at most isqrt(limit), so it fits in 2
    bytes for every limit < 2^32. Each r then costs a + 1 Python-level
    divisions and no trial division."""
    if limit < 0:
        raise ValueError(f"smallest_prime_powers requires limit >= 0, got {limit}")
    smallest = array("H", bytes(2 * (limit + 1)))
    # the largest prime first, so that each smaller one overwrites its multiples
    for p in reversed(list(primes_up_to(isqrt(limit)))):
        smallest[p * p :: p] = array("H", [p]) * len(range(p * p, limit + 1, p))
    for r in range(2, limit + 1):
        p = smallest[r] or r
        high, r1, a = p, r // p, 1
        while r1 % p == 0:
            high, r1, a = high * p, r1 // p, a + 1
        yield r1, p, a, high


# not cached: the callers whose arguments recur, `divisors` and
# `systems.prime_power_types`, are cached above it (one cold pass per
# benchmark workload hit 243 of 3187 lookups at most, on query-stream)
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


# One rule for every cache in the package: cache only where measured traffic
# repeats the arguments, and bound it at 4096 entries, so that a long run of
# distinct inputs cannot grow the process. The even layer and the checks
# list the divisors of one modulus again (one cold pass, hits/misses: 367/36
# on verify-sweep, 264/18 on even-fourier, no lookup on the other two)
@lru_cache(maxsize=4096)
def divisors(n: int, bound: int | None = None) -> tuple[int, ...]:
    """The positive divisors of n, strictly increasing; given a bound, only
    those d <= bound. A divisor above the bound is never made, so the work
    grows with the divisors kept, not with tau(n)."""
    bound = n if bound is None else bound
    divs = [1] if bound >= 1 else []
    for p, a in factorize(n):
        grown = []
        for d in divs:
            for _ in range(a):
                d *= p
                if d > bound:
                    break
                grown.append(d)
        divs += grown
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

    Every entry but mu[0] starts at 1; each prime p <= limit negates its
    multiples (one `bytes.translate` pass) and zeroes those of p^2. It serves
    `expansion._in_order_limit(R)` entries: at most 2^17, 46415 at R = 10^7."""
    if limit < 0:
        raise ValueError(f"moebius_sieve requires limit >= 0, got {limit}")
    mu = bytearray(b"\0" + b"\1" * limit)
    for p in primes_up_to(limit):
        mu[p::p] = mu[p::p].translate(_NEGATE)
        mu[p * p :: p * p] = bytes(limit // (p * p))
    return array("b", mu)


def ramanujan_c(n: int, r: int) -> int:
    """Classical Ramanujan sum c(n, r) = sum_{d | gcd(n,r)} d * mu(r/d)."""
    if n < 1 or r < 1:
        raise ValueError(f"ramanujan_c requires n, r >= 1, got n={n}, r={r}")
    # every divisor of gcd(n, r) divides r
    return sum(d * moebius(r // d) for d in divisors(gcd(n, r)))

