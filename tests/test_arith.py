import cmath
import time
from math import gcd, isqrt, prod

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ramlab.arith import (
    divisors,
    factorize,
    moebius,
    moebius_sieve,
    primes_up_to,
    ramanujan_c,
)
from ramlab.gensums import c_A_oracle
from ramlab.systems import DIRICHLET, phi_A

from conftest import euler_phi, sigma


def linear_moebius_sieve(limit: int) -> list[int]:
    """Moebius values mu[0..limit] by a linear-style sieve (mu[0] unused)."""
    mu = [0] * (limit + 1)
    if limit >= 1:
        mu[1] = 1
    primes: list[int] = []
    is_comp = bytearray(limit + 1)
    for i in range(2, limit + 1):
        if not is_comp[i]:
            primes.append(i)
            mu[i] = -1
        for p in primes:
            if i * p > limit:
                break
            is_comp[i * p] = 1
            if i % p == 0:
                mu[i * p] = 0
                break
            mu[i * p] = -mu[i]
    return mu


def is_prime(p: int) -> bool:
    # trial division by every d <= sqrt(p), independent of `factorize`
    return p >= 2 and all(p % d for d in range(2, isqrt(p) + 1))


def assert_factorization(n: int) -> None:
    # n is the product, the primes increase, each p is prime and p^a is
    # the exact power of p in n: a loop that stops early and appends a
    # composite remainder fails here
    prod = 1
    prev = 0
    for p, a in factorize(n):
        assert p > prev and a >= 1
        assert is_prime(p), (n, p)
        assert n % p**a == 0 and n % p ** (a + 1) != 0, (n, p, a)
        prod *= p**a
        prev = p
    assert prod == n


class TestFactorize:
    def test_one(self):
        assert factorize(1) == ()

    def test_twelve(self):
        assert factorize(12) == ((2, 2), (3, 1))

    def test_prime(self):
        assert factorize(97) == ((97, 1),)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            factorize(0)

    def test_large_prime_factor(self):
        # forces the trial-division continuation past the small-prime table
        assert factorize(2 * 1009 * 1013) == ((2, 1), (1009, 1), (1013, 1))

    @given(st.integers(min_value=1, max_value=10**9))
    @settings(max_examples=100, deadline=None)
    def test_reconstructs(self, n):
        assert_factorization(n)

    @pytest.mark.parametrize(
        "n,expected",
        [
            # around the end of the small-prime table, 997 < 1000 < 1009
            (997**2, ((997, 2),)),
            (997 * 1009, ((997, 1), (1009, 1))),
            (1009**2, ((1009, 2),)),
            (991 * 997 * 1009 * 1013, ((991, 1), (997, 1), (1009, 1), (1013, 1))),
            # a semiprime near 10^10, both factors past the table
            (99991 * 100003, ((99991, 1), (100003, 1))),
        ],
    )
    def test_past_the_small_prime_table(self, n, expected):
        assert factorize(n) == expected
        assert_factorization(n)


class TestDivisors:
    @pytest.mark.parametrize(
        "n,expected",
        [(1, (1,)), (6, (1, 2, 3, 6)), (12, (1, 2, 3, 4, 6, 12))],
    )
    def test_examples(self, n, expected):
        assert divisors(n) == expected

    @given(st.integers(min_value=1, max_value=5000))
    @settings(max_examples=50, deadline=None)
    def test_matches_definition(self, n):
        assert divisors(n) == tuple(d for d in range(1, n + 1) if n % d == 0)

    @given(st.integers(min_value=1, max_value=5000), st.integers(min_value=0, max_value=6000))
    @settings(max_examples=100, deadline=None)
    def test_bounded_matches_definition(self, n, bound):
        assert divisors(n, bound) == tuple(d for d in range(1, min(n, bound) + 1) if n % d == 0)

    def test_bounded_primorial_costs_only_the_divisors_kept(self):
        # the product of the first 26 primes has 2^26 divisors; listing them
        # all took seconds and hundreds of MB at 22 primes
        n = prod(primes_up_to(101))
        start = time.perf_counter()
        kept = divisors(n, 1000)
        assert time.perf_counter() - start < 1.0
        assert kept == tuple(d for d in range(1, 1001) if n % d == 0)


class TestClassicalFunctions:
    # phi is phi_A under D and sigma(n) is sum(divisors(n)); the tests'
    # per-prime formulas `euler_phi` and `sigma` are checked beside them
    def test_examples(self):
        assert phi_A(DIRICHLET, 1) == 1
        assert phi_A(DIRICHLET, 4) == 2
        assert phi_A(DIRICHLET, 12) == sum(1 for k in range(1, 13) if gcd(k, 12) == 1) == 4
        assert (sum(divisors(6)), moebius(6)) == (12, 1)
        assert (sum(divisors(1)), moebius(1)) == (1, 1)
        assert moebius(12) == 0

    def test_direct_enumeration_small(self):
        for n in range(1, 2001):
            divs = [d for d in range(1, n + 1) if n % d == 0]
            assert sum(divisors(n)) == sigma(n) == sum(divs)
            phi = sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)
            assert phi_A(DIRICHLET, n) == euler_phi(n) == phi

    def test_sieve_oracle_10k(self):
        limit = 10**4
        sig = [0] * (limit + 1)
        for d in range(1, limit + 1):
            for m in range(d, limit + 1, d):
                sig[m] += d
        for n in range(1, limit + 1):
            assert sum(divisors(n)) == sigma(n) == sig[n]

    def test_moebius_sieve_matches(self):
        mu = moebius_sieve(10**4)
        for n in range(1, 10**4 + 1):
            assert mu[n] == moebius(n)

    def test_moebius_sieve_equals_linear_sieve(self):
        # the textbook sieve against a linear sieve, on every limit through
        # 3000: each p^2 and p^2 +- 1 for p <= 53, where the zeroing pass
        # of p first reaches an entry, and each prime, where its negating
        # pass first runs. Signed entries, so -1 is not read back as 255
        reference = linear_moebius_sieve(3000)
        for limit in range(3001):
            mu = moebius_sieve(limit)
            assert mu[0] == 0
            assert mu.tolist() == reference[: limit + 1], limit
        assert moebius_sieve(10**6).tolist() == linear_moebius_sieve(10**6)

    @given(st.integers(min_value=0, max_value=5 * 10**4))
    @settings(max_examples=40, deadline=None)
    def test_moebius_sieve_equals_linear_sieve_drawn(self, limit):
        assert moebius_sieve(limit).tolist() == linear_moebius_sieve(limit)

    @pytest.mark.parametrize("limit", [-1, -2, -(10**6)])
    def test_sieves_refuse_a_negative_limit(self, limit):
        for fn in (moebius_sieve, primes_up_to):
            with pytest.raises(ValueError, match=rf"^{fn.__name__} requires limit >= 0, got {limit}$"):
                fn(limit)

    def test_primes_up_to(self):
        for limit in range(200):
            primes = [p for p in range(2, limit + 1) if factorize(p) == ((p, 1),)]
            assert list(primes_up_to(limit)) == primes, limit

    @given(
        st.integers(min_value=1, max_value=400),
        st.integers(min_value=1, max_value=400),
    )
    @settings(max_examples=200, deadline=None)
    def test_multiplicative(self, m, n):
        if gcd(m, n) != 1:
            return
        for f in (lambda k: phi_A(DIRICHLET, k), lambda k: sum(divisors(k)), moebius):
            assert f(m * n) == f(m) * f(n)


class TestRamanujanC:
    def test_parity_mod_2(self):
        for n in range(1, 20):
            assert ramanujan_c(n, 2) == (1 if n % 2 == 0 else -1)

    def test_examples(self):
        assert ramanujan_c(1, 1) == 1
        assert ramanujan_c(2, 4) == -2

    def test_oracle_examples(self):
        # the classical exponential sum is the oracle's Dirichlet case
        assert c_A_oracle(DIRICHLET, 1, 1) == pytest.approx(1 + 0j)
        assert c_A_oracle(DIRICHLET, 2, 4) == pytest.approx(-2 + 0j, abs=1e-9)
        for n in range(1, 10):
            expected = 2 * cmath.cos(2 * cmath.pi * n / 3).real
            assert c_A_oracle(DIRICHLET, n, 3).real == pytest.approx(expected, abs=1e-9)
            assert abs(c_A_oracle(DIRICHLET, n, 3).imag) < 1e-9

    def test_against_oracle_to_500(self):
        # exponential sum per residue class, vectorized; |error| <= 1e-6
        for r in range(1, 501):
            ks = np.array([k for k in range(1, r + 1) if gcd(k, r) == 1])
            m = np.arange(r)
            z = np.exp(2j * np.pi * np.outer(m, ks) / r).sum(axis=1)
            assert np.abs(z.imag).max() <= 1e-6
            for n in range(1, 501):
                assert abs(ramanujan_c(n, r) - z[n % r].real) <= 1e-6

    def test_special_values_10k(self):
        for r in range(1, 10**4 + 1):
            assert ramanujan_c(r, r) == euler_phi(r)
            assert ramanujan_c(1, r) == moebius(r)

    def test_multiplicative_in_r(self):
        for n in range(1, 201, 7):
            for r in range(1, 201, 3):
                for s in range(1, 201, 5):
                    if gcd(r, s) == 1:
                        assert ramanujan_c(n, r * s) == ramanujan_c(n, r) * ramanujan_c(n, s)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            ramanujan_c(0, 5)
        with pytest.raises(ValueError):
            c_A_oracle(DIRICHLET, 5, 0)
