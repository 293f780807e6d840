"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
status lines. Every inequality below is exact integer/rational arithmetic
unless a float tolerance is stated next to it.
"""

import random
import time
from fractions import Fraction
from math import gcd, lcm, pi

import numpy as np
import pytest

from ramlab.arith import divisors, moebius, ramanujan_c
from ramlab.even import (
    EvenFunction,
    fourier_coeffs,
    inner_product,
    mean_value,
    progression_totient_even,
    progression_totient_mean,
)
from ramlab.gensums import c_A, c_A_core, c_A_divisor
from ramlab.systems import DIRICHLET, MIX, UNITARY, divisor_set, gcd_A, mu_A, phi_A, psi_A
from ramlab.verify import (
    additive_closure_witness,
    expansion_demo,
    find_orthogonality_violation,
    mean_product_empirical,
    mean_product_exact,
    mean_value_check,
)

from conftest import euler_phi, reconstruct, sigma

SYSTEMS = [("D", DIRICHLET), ("U", UNITARY), ("MIX", MIX)]


def _report(num, text):
    print(f"\n[criterion {num}] PASS: {text}")


def test_criterion_1_route_agreement():
    """Kernel = divisor route = core route = rounded exponential oracle, n, r <= 300."""
    start = time.monotonic()
    bound = 300
    for name, system in SYSTEMS:
        for r in range(1, bound + 1):
            ks = np.array([k for k in range(1, r + 1) if gcd_A(system, k, r) == 1])
            z = np.exp(2j * np.pi * np.outer(np.arange(r), ks) / r).sum(axis=1)
            assert np.abs(z.imag).max() <= 1e-6, (name, r)
            rounded = np.round(z.real).astype(int)
            assert np.abs(z.real - rounded).max() <= 1e-6, (name, r)
            for n in range(1, bound + 1):
                v = c_A_divisor(system, n, r)
                assert v == c_A_core(system, n, r), (name, n, r)
                assert v == c_A(system, n, r), (name, n, r)
                assert v == rounded[n % r], (name, n, r)
    elapsed = time.monotonic() - start
    assert elapsed < 60
    _report(1, f"kernel and 3 routes agree for A in {{D, U, MIX}}, n, r <= {bound} ({elapsed:.1f}s)")


def test_criterion_2_mean_value_bound():
    """|sum_{n<=x} f(n) - M(f) x| <= K_f (sigma(r)/r) sum_{q|r} psi(q), brute force."""
    rng = random.Random(233)
    checked = 0
    for _ in range(50):
        r = rng.randint(1, 100)
        f = EvenFunction.from_callable(
            r, lambda d: Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        )
        k_f = Fraction(max(abs(v) for _, v in f.values))
        # Dedekind psi(q) = sum_{d|q} d |mu(q/d)|, from the definition
        psi = [sum(d * abs(moebius(q // d)) for d in divisors(q)) for q in divisors(r)]
        bound = k_f * Fraction(sigma(r), r) * sum(psi)
        for rep in mean_value_check(f, [10**3, 10**4]):
            assert rep.certified_bound == bound
            assert abs(rep.residual) <= bound
            checked += 1
    _report(2, f"{checked} brute-force partial sums within the certified bound")


def test_criterion_3_partial_sum_cA_bound():
    """|sum_{n<=x} c_A(n, r) - [r=1] x| <= psi_A(r) over the full grid."""
    xs = list(range(1, 1001)) + [10**4]
    for name, system in SYSTEMS:
        for r in range(1, 201):
            terms = [(d, d * mu_A(system, r // d)) for d in divisor_set(system, r)]
            psi = psi_A(system, r)
            for x in xs:
                s = sum(c * (x // d) for d, c in terms)
                main = x if r == 1 else 0
                assert abs(s - main) <= psi, (name, r, x)
    _report(3, "bound holds for r <= 200, x in [1,1000] + {10^4}, A in {D, U, MIX}")


def test_criterion_4_mean_product_diagonal_coprime():
    """Exact product means: diagonal phi_A, coprime zero, Dirichlet delta."""
    for name, system in SYSTEMS:
        for r in range(1, 101):
            assert mean_product_exact(system, r, r) == phi_A(system, r), (name, r)
        for r in range(1, 101):
            for s in range(1, 101):
                if gcd(r, s) == 1 and r * s > 1:
                    assert mean_product_exact(system, r, s) == 0, (name, r, s)
    for r in range(1, 101):
        for s in range(1, 101):
            expected = euler_phi(r) if r == s else 0
            assert mean_product_exact(DIRICHLET, r, s) == expected
    _report(4, "diagonal/coprime means exact for all systems; Dirichlet fully orthogonal")


def test_criterion_5_orthogonality_violation():
    """The unitary search finds (2, 4) with mean 1 = phi(2), exactly."""
    assert find_orthogonality_violation(UNITARY, 100) == (2, 4, 1)
    assert 1 == euler_phi(2)
    for k in (1, 2, 10, 250):
        assert mean_product_empirical(UNITARY, 2, 4, 4 * k) == 1
    _report(5, "violation (r, s) = (2, 4) with mean 1; period averages exactly 1")


def test_criterion_6_additive_non_closure():
    """f, g A-even but f + g A-even for no r <= 100; Dirichlet not applicable."""
    for name, system in [("U", UNITARY), ("MIX", MIX)]:
        w = additive_closure_witness(system, r_max=100)
        assert w is not None, name
        assert w.f_even and w.g_even, name
        assert w.h_fails_all and w.r_checked == 100, name
        assert w.core_contradiction, name
    assert additive_closure_witness(DIRICHLET, r_max=100) is None
    _report(6, "non-closure witnessed for U and MIX up to r = 100; D not applicable")


def test_criterion_7_expansion_truncation():
    """Truncation error < 2 sigma(n)/R * pi^2/6 at R = 10^5, and improves on R = 10^3."""
    start = time.monotonic()
    big, small = 10**5, 10**3
    for n in range(1, 21):
        e_small = expansion_demo(n, small).abs_error
        e_big = expansion_demo(n, big).abs_error
        assert e_big < 2 * sigma(n) / big * (pi**2 / 6), n
        assert e_big <= e_small + 1e-9, n
    elapsed = time.monotonic() - start
    assert elapsed < 30
    _report(7, f"truncation errors within tail bound for n <= 20 ({elapsed:.1f}s)")


def test_criterion_8_progression_totient_mean():
    """Closed-form mean equals the even-function route; period averages exact."""
    checked = 0
    for n in range(1, 201):
        for s in (1, 5, 7):
            if gcd(s, n) != 1:
                continue  # tabulation undefined off the coprime case
            f = progression_totient_even(s, n)
            assert mean_value(f) == progression_totient_mean(s, n), (s, n)
            checked += 1
    for n in range(1, 51):
        for s in (1, 5, 7):
            if gcd(s, n) != 1:
                continue
            x = n * (10**4 // n)
            period = [_direct_progression_count(s, d, n) for d in range(1, n + 1)]
            # spot-check that the direct count is periodic in d before tiling
            rng = random.Random(n * 100 + s)
            for _ in range(5):
                d = rng.randint(n + 1, 10**4)
                assert _direct_progression_count(s, d, n) == period[(d - 1) % n]
            total = sum(period) * (x // n)
            assert Fraction(total, x) == progression_totient_mean(s, n), (s, n)
    _report(8, f"{checked} exact mean identities; empirical averages exact for n <= 50")


def _direct_progression_count(s, d, n):
    return sum(1 for k in range(n) if gcd(s + k * d, n) == 1)


def test_criterion_9_hilbert_space_suite():
    """Orthogonality <c_q, c_q'> = delta phi(q) and Fourier round trip, r <= 200."""
    rng = random.Random(424)
    for r in range(1, 201):
        divs = divisors(r)
        basis = {
            q: EvenFunction.from_callable(r, lambda n, q=q: ramanujan_c(n, q))
            for q in divs
        }
        for q1 in divs:
            for q2 in divs:
                expected = euler_phi(q1) if q1 == q2 else 0
                assert inner_product(basis[q1], basis[q2]) == expected, (r, q1, q2)
        f = EvenFunction.from_callable(
            r, lambda d: Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        )
        coeffs = fourier_coeffs(f)  # both coefficient formulas compared internally
        assert reconstruct(coeffs).value_map == {d: Fraction(v) for d, v in f.values}, r
        assert mean_value(f) == coeffs.coeff(1), r
    _report(9, "orthogonality and Fourier round trip exact for all r <= 200")
