import random
from math import gcd

import pytest

from ramlab import gensums
from ramlab.arith import factorize, ramanujan_c
from ramlab.gensums import (
    c_A,
    c_A_column,
    c_A_core,
    c_A_divisor,
    c_A_oracle,
    c_A_sum,
)
from ramlab.systems import DIRICHLET, MIX, UNITARY, divisor_set, gcd_A, mu_A, phi_A, psi_A

from conftest import c_A_exponential, c_A_sum_at


class TestDivisorRoute:
    def test_dirichlet_collapses_to_classical(self):
        for n in range(1, 201):
            for r in range(1, 201):
                assert c_A_divisor(DIRICHLET, n, r) == ramanujan_c(n, r)

    def test_unitary_examples(self):
        assert c_A_divisor(UNITARY, 2, 4) == -1
        assert c_A_divisor(UNITARY, 4, 4) == 3 == phi_A(UNITARY, 4)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            c_A_divisor(UNITARY, 0, 4)

    @pytest.mark.parametrize(
        "system, n, r, members",
        [(DIRICHLET, 30030, 30030, 64), (DIRICHLET, 1, 30030, 1), (UNITARY, 720, 720, 8),
         (MIX, 3072, 9216, 4)],
        ids=["D square-free", "D coprime", "U", "MIX"],
    )
    def test_sums_only_the_members_of_the_gcd(self, count_calls, system, n, r, members):
        # one divisor_set call, on (n, r)_A, and one mu_A call per member:
        # A(r) is never listed to be filtered by d | n
        sets = count_calls(gensums, "divisor_set")
        mus = count_calls(gensums, "mu_A")
        value = c_A_divisor(system, n, r)
        assert [m for _, m in sets] == [gcd_A(system, n, r)]
        assert len(mus) == len(divisor_set(system, sets[0][1])) == members
        assert value == c_A(system, n, r)


class TestCoreRoute:
    def test_unitary_examples(self):
        # gamma_U(4) = 2, so the sum runs over d in {2, 4}
        assert c_A_core(UNITARY, 2, 4) == ramanujan_c(2, 2) + ramanujan_c(2, 4) == -1
        assert c_A_core(UNITARY, 8, 4) == ramanujan_c(8, 2) + ramanujan_c(8, 4) == 3

    def test_dirichlet_route_equality(self):
        for n in range(1, 50):
            for r in range(1, 50):
                assert c_A_core(DIRICHLET, n, r) == c_A_divisor(DIRICHLET, n, r)


class TestOracle:
    def test_examples(self):
        assert c_A_oracle(UNITARY, 2, 4) == -1
        for system in (DIRICHLET, UNITARY, MIX):
            assert c_A_oracle(system, 7, 1) == 1
        assert c_A_oracle(DIRICHLET, 1, 5) == -1
        assert type(c_A_oracle(MIX, 48, 720)) is int

    def test_route_agreement_small(self, any_system):
        # the exact count is the float definition's value, within 1e-6
        for n in range(1, 61):
            for r in range(1, 61):
                v = c_A_divisor(any_system, n, r)
                assert v == c_A_core(any_system, n, r) == c_A(any_system, n, r)
                assert c_A_oracle(any_system, n, r) == v
                assert abs(c_A_exponential(any_system, n, r) - v) <= 1e-6


class TestIdentities:
    def test_diagonal_is_phi(self, any_system):
        for r in range(1, 2001):
            assert c_A_divisor(any_system, r, r) == phi_A(any_system, r)

    def test_A_evenness(self, any_system):
        for n in range(1, 301):
            for r in range(1, 301):
                g = gcd_A(any_system, n, r)
                assert c_A_divisor(any_system, n, r) == c_A_divisor(any_system, g, r)

    def test_multiplicative_in_r(self, any_system):
        rng = random.Random(5)
        for _ in range(300):
            n = rng.randint(1, 200)
            r, s = rng.randint(1, 60), rng.randint(1, 60)
            if gcd(r, s) != 1:
                continue
            assert c_A_divisor(any_system, n, r * s) == c_A_divisor(
                any_system, n, r
            ) * c_A_divisor(any_system, n, s)


class TestPartialSum:
    def test_modulus_one(self, any_system):
        for x in (1, 17, 1000):
            assert c_A_sum_at(any_system, 1, x) == x

    def test_unitary_example(self):
        exact = c_A_sum_at(UNITARY, 4, 10)
        assert exact == -2 and abs(exact) <= psi_A(UNITARY, 4) == 5

    def test_dirichlet_example(self):
        exact = c_A_sum_at(DIRICHLET, 6, 100)
        assert abs(exact) <= psi_A(DIRICHLET, 6) == 12
        brute = sum(ramanujan_c(n, 6) for n in range(1, 101))
        assert exact == brute

    def test_closed_form_matches_brute(self, any_system):
        for r in range(1, 51):
            for x in (1, 7, 100, 731):
                exact = c_A_sum_at(any_system, r, x)
                brute = sum(c_A_divisor(any_system, n, r) for n in range(1, x + 1))
                assert exact == brute
                assert abs(exact - (x if r == 1 else 0)) <= psi_A(any_system, r)

    def test_rejects_bad_input(self):
        for r, x in ((6, -1), (0, 10)):
            with pytest.raises(ValueError, match="c_A_sum requires r >= 1, x >= 0"):
                c_A_sum_at(DIRICHLET, r, x)
        # every x is checked, wherever it stands in the list
        with pytest.raises(ValueError, match="c_A_sum requires r >= 1, x >= 0, x an int, got r=6, x=-1"):
            c_A_sum(DIRICHLET, 6, [10, 0, -1])

    @pytest.mark.parametrize("r", [1, 12, 360, 720720])
    def test_answers_each_x_of_a_list_as_alone(self, any_system, r):
        # unsorted and repeated x, 0 and the multiples of r included, each
        # answer the column's own prefix sum
        xs = [3 * r + 5, 0, r, 7, 3 * r + 5, 2 * r, 1, 0]
        column = c_A_column(any_system, r, max(xs))
        assert c_A_sum(any_system, r, xs) == [sum(column[:x]) for x in xs]
        assert c_A_sum(any_system, r, []) == []

    @pytest.mark.parametrize("r", [1, 12, 360, 720720])
    def test_reads_the_types_once_and_lists_no_members(self, count_calls, any_system, r):
        # the 2^omega(r) signed terms come from one prime_power_types call
        # for every x of the list; A(r) is never listed and mu_A never
        # evaluated
        types = count_calls(gensums, "prime_power_types")
        sets = count_calls(gensums, "divisor_set")
        mus = count_calls(gensums, "mu_A")
        xs = [10**6, 0, r, 10**6 + 1, 7]
        exact = c_A_sum(any_system, r, xs)
        assert (len(types), sets, mus) == (1, [], [])
        assert exact == [sum(d * mu_A(any_system, r // d) * (x // d)
                             for d in divisor_set(any_system, r)) for x in xs]


class TestColumn:
    @pytest.mark.parametrize("r", [1, 12, 360, 720720])
    def test_one_product_per_prime(self, count_calls, any_system, r):
        # omega(r) periodic factors, each cycled once along the period
        cycles = count_calls(gensums, "cycle")
        column = c_A_column(any_system, r, 2000)
        assert len(cycles) == len(factorize(r))
        assert column == [c_A(any_system, n, r) for n in range(1, 2001)]

    def test_against_routes(self, any_system):
        columns = {r: c_A_column(any_system, r, 30) for r in range(1, 31)}
        for r, column in columns.items():
            assert column[r - 1] == phi_A(any_system, r)
            for n, v in enumerate(column, 1):
                assert v == c_A_core(any_system, n, r) == c_A_oracle(any_system, n, r)
