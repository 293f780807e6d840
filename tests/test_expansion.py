import random
import time
from array import array
from fractions import Fraction
from itertools import combinations
from math import cos, fsum, pi, prod

import pytest

from ramlab import expansion
from ramlab.arith import divisors, primes_up_to
from ramlab.cli import MAX_TERMS
from ramlab.expansion import IN_ORDER_TERMS, _in_order_limit, _moebius_square_sums, _square_tail

from conftest import expansion_row, sigma
from test_arith import linear_moebius_sieve


class TestExpansionDemo:
    def test_target(self):
        res = expansion_row(6, 1000)
        assert res["target"] == 2.0

    def test_n1_converges(self):
        res = expansion_row(1, 10**5)
        assert res["abs_error"] < 1e-4

    def test_first_terms_shape(self):
        # four-term truncation written out by hand from the divisor form
        n = 4
        expected = (pi**2 / 6) * (
            1 + (-1) ** n / 4 + 2 * cos(2 * pi * n / 3) / 9
            + 2 * cos(pi * n / 2) / 16
        )
        res = expansion_row(n, 4)
        assert res["truncated"] == pytest.approx(expected, abs=1e-9)

    def test_matches_literal_truncation(self):
        from ramlab.arith import ramanujan_c

        for n in (1, 6, 12):
            for terms in (10, 100, 500):
                literal = (pi**2 / 6) * sum(
                    ramanujan_c(n, r) / r**2 for r in range(1, terms + 1)
                )
                assert expansion_row(n, terms)["truncated"] == pytest.approx(
                    literal, abs=1e-9
                )

    @staticmethod
    def prefix_table_reference(n, terms, mu):
        # the same truncation read from a full table of the prefix sums
        # sum_{m<=k} mu(m)/m^2, k = 0..terms, with mu from the linear sieve
        prefix = [0.0] * (terms + 1)
        acc = 0.0
        for m in range(1, terms + 1):
            if mu[m]:
                acc += mu[m] / (m * m)
            prefix[m] = acc
        # left to right: built-in sum() adds floats with compensation from
        # CPython 3.12 on
        total = 0.0
        for d in divisors(n):
            total += prefix[terms // d] / d
        return (pi**2 / 6) * total

    @pytest.mark.parametrize("terms", [1, 2, 7, 100, 1000, 12345])
    @pytest.mark.parametrize("n", [1, 2, 6, 12, 97, 360, 5040, 720720, 2**20])
    def test_equals_prefix_table(self, n, terms):
        # most n here have divisors above terms, whose cut point is 0
        reference = self.prefix_table_reference(n, terms, linear_moebius_sieve(terms))
        assert expansion_row(n, terms)["truncated"] == reference

    def test_bit_identical_at_the_in_order_cap(self):
        # the golden CLI corpus stops at 10^5 terms; up to IN_ORDER_TERMS
        # every cut is the left-to-right prefix sum, bit for bit
        terms = IN_ORDER_TERMS
        mu = linear_moebius_sieve(terms)
        for n in (720720, 997920):
            reference = self.prefix_table_reference(n, terms, mu)
            assert expansion_row(n, terms)["truncated"] == reference

    def test_accurate_at_a_million_terms(self):
        # against each cut's correctly rounded sum, the recursion is within
        # 1e-14; a left-to-right sum over every m <= 10^6 is 6-9e-14 off
        terms = 10**6
        mu = linear_moebius_sieve(terms)
        quotients = array("d", (mu[m] / (m * m) if m else 0.0 for m in range(terms + 1)))
        for n in (1, 5040, 720720, 997920):
            exact = sum(Fraction(fsum(quotients[1 : terms // d + 1])) / d for d in divisors(n))
            reference = Fraction(pi**2 / 6) * exact
            truncated = expansion_row(n, terms)["truncated"]
            assert abs(Fraction(truncated) - reference) <= 1e-14

    def test_recursion_keeps_the_identity(self):
        # sum_{d<=x} F(x // d) / d^2 = 1 at cuts x > U, each F(x) within
        # 1e-15 of the correctly rounded sum of mu(m)/m^2 over m <= x
        terms = 10**6
        prefix, above = _moebius_square_sums(terms)
        limit = len(prefix) - 1
        assert limit == _in_order_limit(terms) == 10**4 and min(above) > limit
        mu = linear_moebius_sieve(terms)
        for x in (terms, terms // 3, terms // 10, terms // 64, min(above)):
            values = [above[v] if v > limit else prefix[v] for v in (x // d for d in range(1, x + 1))]
            assert abs(fsum(f / (d * d) for d, f in enumerate(values, 1)) - 1) <= 1e-15
            assert abs(above[x] - fsum(mu[m] / (m * m) for m in range(1, x + 1) if mu[m])) <= 1e-15

    def test_tail_series(self):
        # T(a) - T(b) = sum_{a<d<=b} 1/d^2 at the split point of 10^6 terms,
        # the in-order cap and 10^6
        for a, b in combinations((_in_order_limit(10**6), IN_ORDER_TERMS, 10**6), 2):
            expected = fsum(1.0 / (d * d) for d in range(a + 1, b + 1))
            assert abs(_square_tail(a) - _square_tail(b) - expected) <= 1e-13 * expected

    def test_divisors_up_to_terms_match_the_full_list(self):
        # only the divisors d <= R are listed; sigma(n) comes from the
        # factorization, and the truncation equals the full-divisor
        # reference, whose divisors above R add F(0) = 0
        rng = random.Random(1048576)
        ns = [rng.randint(1, 2**20) for _ in range(300)] + [720720, 831600, 997920, 2**20]
        terms_list = (1, 12, 1000)
        mu = linear_moebius_sieve(max(terms_list))
        for n in ns:
            for terms in terms_list:
                assert divisors(n, terms) == tuple(d for d in divisors(n) if d <= terms)
                res = expansion_row(n, terms)
                assert res["target"] == sum(divisors(n)) / n
                assert res["truncated"] == self.prefix_table_reference(n, terms, mu)

    def test_primorial_costs_only_the_divisors_below_terms(self):
        # the product of the first 26 primes has 2^26 divisors; listing them
        # all took seconds and hundreds of MB at 22 primes
        n = prod(primes_up_to(101))
        start = time.perf_counter()
        res = expansion_row(n, 1000)
        assert time.perf_counter() - start < 1.0
        assert res["target"] == sigma(n) / n

    def test_sieve_stays_within_2_17_entries_up_to_MAX_TERMS_and_IN_ORDER_TERMS(self, count_calls):
        # moebius_sieve is the textbook sieve, one slice pass per prime,
        # sized for the at most 2^17 entries its one caller reads: R itself
        # up to IN_ORDER_TERMS = 2^17, and floor(R^(2/3)) above, which stays
        # within 2^17 while R <= 2^25.5 (about 4.7e7, past MAX_TERMS = 10^7).
        # A rise in either constant that breaks this asks the sieve to be
        # measured again at its new size
        calls = count_calls(expansion, "moebius_sieve")
        for terms in (2**17 - 1, 2**17, 2**17 + 1, 10**6, MAX_TERMS):
            expansion.expansion_demo(1, terms)
        limits = [limit for (limit,) in calls]
        assert limits == [2**17 - 1, 2**17, 2580, 10**4, 46415]
        assert max(limits) <= 2**17

    def test_error_shrinks(self):
        for n in (1, 6, 20):
            e3 = expansion_row(n, 10**3)["abs_error"]
            e5 = expansion_row(n, 10**5)["abs_error"]
            assert e5 <= e3 + 1e-9
            assert e5 < 2 * sigma(n) / 10**5 * (pi**2 / 6)
