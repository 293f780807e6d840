import random
from math import gcd

import pytest

from ramlab.arith import ramanujan_c
from ramlab.gensums import (
    c_A,
    c_A_column,
    c_A_core,
    c_A_divisor,
    c_A_oracle,
    partial_sum_cA,
)
from ramlab.systems import DIRICHLET, MIX, UNITARY, gcd_A, phi_A, psi_A


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
        assert c_A_oracle(UNITARY, 2, 4).real == pytest.approx(-1, abs=1e-9)
        for system in (DIRICHLET, UNITARY, MIX):
            assert c_A_oracle(system, 7, 1) == 1
        assert c_A_oracle(DIRICHLET, 1, 5).real == pytest.approx(-1, abs=1e-9)

    def test_route_agreement_small(self, any_system):
        for n in range(1, 61):
            for r in range(1, 61):
                v = c_A_divisor(any_system, n, r)
                assert v == c_A_core(any_system, n, r) == c_A(any_system, n, r)
                z = c_A_oracle(any_system, n, r)
                assert abs(z.imag) <= 1e-6
                assert abs(z.real - v) <= 1e-6


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
            rep = partial_sum_cA(any_system, 1, x)
            assert rep.exact_sum == x and rep.residual == 0 and rep.passed

    def test_unitary_example(self):
        rep = partial_sum_cA(UNITARY, 4, 10)
        assert rep.exact_sum == -2
        assert rep.certified_bound == psi_A(UNITARY, 4) == 5
        assert rep.passed

    def test_dirichlet_example(self):
        rep = partial_sum_cA(DIRICHLET, 6, 100)
        assert abs(rep.residual) <= psi_A(DIRICHLET, 6) == 12
        brute = sum(ramanujan_c(n, 6) for n in range(1, 101))
        assert rep.exact_sum == brute

    def test_closed_form_matches_brute(self, any_system):
        for r in range(1, 51):
            for x in (1, 7, 100, 731):
                rep = partial_sum_cA(any_system, r, x)
                brute = sum(c_A_divisor(any_system, n, r) for n in range(1, x + 1))
                assert rep.exact_sum == brute
                assert rep.residual == rep.exact_sum - rep.main_term
                assert rep.passed

    def test_real_x_floors(self):
        assert partial_sum_cA(DIRICHLET, 6, 100.9) == partial_sum_cA(DIRICHLET, 6, 100)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            partial_sum_cA(DIRICHLET, 6, 0)


class TestColumn:
    def test_against_routes(self, any_system):
        columns = {r: c_A_column(any_system, r, 30) for r in range(1, 31)}
        for r, column in columns.items():
            assert column[r - 1] == phi_A(any_system, r)
            for n, v in enumerate(column, 1):
                assert v == c_A_core(any_system, n, r)
                z = c_A_oracle(any_system, n, r)
                assert abs(z.imag) <= 1e-6 and abs(z.real - v) <= 1e-6
