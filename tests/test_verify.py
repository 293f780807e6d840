import random
from collections import Counter
from fractions import Fraction
from math import gcd, lcm, pi

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ramlab.arith import divisors
from ramlab.even import EvenFunction, c_A_even, partial_sum_even
from ramlab.gensums import PartialSumReport, c_A_divisor
from ramlab.systems import (
    DIRICHLET,
    MIX,
    UNITARY,
    ExponentOutOfScopeError,
    RegularSystem,
    divisor_set,
    gcd_A,
    phi_A,
    system_from_dict,
)
from ramlab.verify import (
    OrthogonalityReport,
    additive_closure_witness,
    expansion_demo,
    find_orthogonality_violation,
    mean_product_empirical,
    mean_product_exact,
    mean_value_check,
    orthogonality_report,
)

from conftest import SPEC_A, SPEC_B, euler_phi, sigma, valid_specs
from test_arith import linear_moebius_sieve


class TestMeanProductExact:
    def test_diagonal(self, any_system):
        for r in range(1, 101):
            assert mean_product_exact(any_system, r, r) == phi_A(any_system, r)

    def test_coprime_vanishes(self, any_system):
        for r in range(1, 40):
            for s in range(1, 40):
                if gcd(r, s) == 1 and r * s > 1:
                    assert mean_product_exact(any_system, r, s) == 0

    def test_dirichlet_orthogonality(self):
        for r in range(1, 101):
            for s in range(1, 101):
                expected = euler_phi(r) if r == s else 0
                assert mean_product_exact(DIRICHLET, r, s) == expected

    def test_unitary_2_4(self):
        assert mean_product_exact(UNITARY, 2, 4) == 1

    @pytest.mark.parametrize("system", [DIRICHLET, UNITARY, MIX], ids=["D", "U", "MIX"])
    def test_orthogonal_inside_each_A_set(self, system):
        for r in range(1, 301):
            members = divisor_set(system, r)
            for i, d in enumerate(members):
                for e in members[i + 1:]:
                    assert mean_product_exact(system, d, e) == 0, (r, d, e)

    @given(valid_specs(), st.integers(min_value=1, max_value=5000))
    @settings(max_examples=200, deadline=None)
    def test_orthogonal_inside_each_A_set_on_valid_systems(self, spec, r):
        system = system_from_dict(spec)
        try:
            members = divisor_set(system, r)
        except ExponentOutOfScopeError:
            return  # r has a prime power above a table prime's bound
        for i, d in enumerate(members):
            for e in members[i + 1:]:
                assert mean_product_exact(system, d, e) == 0, (d, e)


class TestMeanProductEmpirical:
    def test_coprime_case(self):
        assert mean_product_empirical(DIRICHLET, 2, 3, 6) == 0

    def test_unitary_2_4_period_average(self):
        for k in (1, 2, 25):
            assert mean_product_empirical(UNITARY, 2, 4, 4 * k) == 1

    def test_diagonal_period_average(self, any_system):
        for r in (1, 4, 6, 9):
            assert mean_product_empirical(any_system, r, r, 3 * r) == phi_A(any_system, r)

    def test_matches_exact_at_period_multiples(self, any_system):
        rng = random.Random(23)
        for _ in range(40):
            r, s = rng.randint(1, 30), rng.randint(1, 30)
            x = lcm(r, s) * rng.randint(1, 3)
            assert mean_product_empirical(any_system, r, s, x) == mean_product_exact(
                any_system, r, s
            )


def violating_pairs(system, search_bound):
    """Every pair r != s <= search_bound with nonzero product mean, by r + s,
    then r: one divisor sum per pair, O(search_bound^2). The oracle for the
    closed form in find_orthogonality_violation, which tries no pairs."""
    for total in range(3, 2 * search_bound + 1):
        for r in range(1, min(total - 1, search_bound) + 1):
            s = total - r
            if s > search_bound or s == r:
                continue
            v = mean_product_exact(system, r, s)
            if v != 0:
                yield (r, s, v)


def pair_scan(system, search_bound):
    """The first violating pair found by trying every pair in order."""
    return next(violating_pairs(system, search_bound), None)


class TestViolationSearch:
    @pytest.mark.parametrize("system", [DIRICHLET, UNITARY, MIX], ids=["D", "U", "MIX"])
    def test_matches_scan_below_200(self, system):
        # the scan at a bound b visits exactly the pairs with r, s <= b, in
        # the order of the scan at 199, so its answer is the first of those
        pairs = list(violating_pairs(system, 199))
        for bound in range(1, 200):
            first = next(((r, s, v) for r, s, v in pairs if max(r, s) <= bound), None)
            assert find_orthogonality_violation(system, bound) == first, bound
        assert pair_scan(system, 199) == find_orthogonality_violation(system, 199)

    @given(valid_specs(), st.integers(min_value=1, max_value=140))
    @settings(max_examples=500, deadline=None)
    def test_matches_scan_on_valid_systems(self, spec, bound):
        system = system_from_dict(spec)
        try:
            expected = pair_scan(system, bound)
        except ExponentOutOfScopeError:
            return  # the scan reached a modulus above the exponent bound
        assert find_orthogonality_violation(system, bound) == expected

    @pytest.mark.parametrize(
        "spec, bound, expected",
        [
            # the smallest prime power of type > 1 is 11^2, but 2 + 2^7 is
            # the smaller sum once 2^7 is in range
            (SPEC_A, 127, (11, 121, 10)),
            (SPEC_A, 130, (2, 128, 1)),
            # 3 + 3^3 = 5 + 5^2: the tie goes to the smaller r
            (SPEC_B, 30, (3, 27, 2)),
            (SPEC_B, 26, (5, 25, 4)),
            (SPEC_B, 24, None),
        ],
    )
    def test_first_violation_is_not_the_smallest_high_type(self, spec, bound, expected):
        system = system_from_dict(spec)
        assert find_orthogonality_violation(system, bound) == expected
        assert pair_scan(system, bound) == expected

    def test_witness_prime_power_of_system_A(self):
        w = additive_closure_witness(system_from_dict(SPEC_A))
        assert (w.p, w.t) == (11, 2)

    def test_asks_no_type_above_the_exponent_bound(self, monkeypatch):
        # a_max 2 with 2^2 of type 1: the scan would raise at r = 8
        spec = {"kind": "custom", "default": "unitary-default", "a_max": 2,
                "types": [{"p": 2, "a": 2, "t": 1}]}
        system = system_from_dict(spec)
        type_of = RegularSystem.type_of

        def bounded(self, p, a):
            assert a <= self.a_max, (p, a)
            return type_of(self, p, a)

        monkeypatch.setattr(RegularSystem, "type_of", bounded)
        assert find_orthogonality_violation(system, 10**6) == (3, 9, 2)

    def test_dirichlet_none(self):
        assert find_orthogonality_violation(DIRICHLET, 100) is None

    def test_unitary(self):
        assert find_orthogonality_violation(UNITARY, 100) == (2, 4, 1)

    def test_mix(self):
        assert find_orthogonality_violation(MIX, 100) == (2, 4, 1)

    def test_custom(self, custom_system):
        r, s, v = find_orthogonality_violation(custom_system, 100)
        # witness has the construction shape r = p, s = p^t with type t > 1
        assert (r, s, v) == (2, 4, 1)

    def test_report_verdicts(self):
        assert orthogonality_report(UNITARY, 4, 4).verdict == "diagonal"
        assert orthogonality_report(UNITARY, 2, 3).verdict == "orthogonal"
        rep = orthogonality_report(UNITARY, 2, 4)
        assert rep.verdict == "violating"
        assert rep.exact_mean == 1 and rep.empirical_mean == 1


def is_A_even(system, h, r, n_max):
    """True iff h(n) = h((n, r)_A) for every n <= n_max: the brute-force
    oracle for the divisor checks of f and g in additive_closure_witness."""
    if n_max < r:
        raise ValueError(f"n_max must be >= r, got n_max={n_max}, r={r}")
    return all(h(n) == h(gcd_A(system, n, r)) for n in range(1, n_max + 1))


def h_fails_all_by_scan(system, h, pt, r_max):
    """h is A-even mod no r <= r_max, each r scanned over 4 lcm(r, p^t)
    values of n: the oracle for the witness's one certificate per modulus."""
    return all(not is_A_even(system, h, r, 4 * lcm(r, pt)) for r in range(1, r_max + 1))


def witness_functions(w):
    """f(n) = (n, p)_A, g(n) = (n, p^t)_A and h = f + g of the witness."""
    pt = w.p**w.t

    def f(n):
        return w.p if n % w.p == 0 else 1

    def g(n):
        return pt if n % pt == 0 else 1

    return f, g, lambda n: f(n) + g(n)


class TestIsAEven:
    def test_cA_is_A_even(self, any_system):
        for r in range(1, 51):
            h = lambda n, r=r: c_A_divisor(any_system, n, r)
            assert is_A_even(any_system, h, r, 4 * r)

    def test_constant(self, any_system):
        assert is_A_even(any_system, lambda n: 7, 12, 48)

    def test_requires_full_period(self):
        with pytest.raises(ValueError):
            is_A_even(UNITARY, lambda n: 1, 12, 6)


class TestAdditiveClosure:
    def test_dirichlet_not_applicable(self):
        assert additive_closure_witness(DIRICHLET) is None

    @pytest.mark.parametrize("system", [UNITARY, MIX], ids=["U", "MIX"])
    def test_witness_at_two(self, system):
        w = additive_closure_witness(system, r_max=100)
        assert (w.p, w.t) == (2, 2)
        assert w.case_values == (6, 3, 2)
        assert w.f_even and w.g_even
        assert w.h_fails_all
        assert w.core_contradiction
        assert 2 not in divisor_set(system, 4)

    def test_summands_individually_even(self):
        w = additive_closure_witness(UNITARY)
        f, g, h = witness_functions(w)
        assert is_A_even(UNITARY, f, w.p, 8 * w.p)
        assert is_A_even(UNITARY, g, w.p**w.t, 8 * w.p**w.t)
        assert not is_A_even(UNITARY, h, 12, 4 * lcm(12, 4))
        assert (h(w.p**w.t), h(w.p), h(1)) == w.case_values

    def test_custom_system(self, custom_system):
        # unitary-default: the smallest high-type prime power is 2^2
        w = additive_closure_witness(custom_system, r_max=50)
        assert (w.p, w.t) == (2, 2)
        assert w.h_fails_all

    @pytest.mark.parametrize("system", [UNITARY, MIX, system_from_dict(SPEC_A),
                                        system_from_dict(SPEC_B)], ids=["U", "MIX", "A", "B"])
    def test_certificates_match_the_scan(self, system):
        w = additive_closure_witness(system, r_max=100)
        pt = w.p**w.t
        f, g, h = witness_functions(w)
        assert w.f_even and is_A_even(system, f, w.p, 4 * w.p)
        assert w.g_even and is_A_even(system, g, pt, 4 * pt)
        assert w.h_fails_all and h_fails_all_by_scan(system, h, pt, 100)

    @pytest.mark.parametrize("r_max", [0, -1])
    def test_no_vacuous_pass(self, r_max):
        # an empty range of moduli would make h_fails_all hold vacuously
        for system in (UNITARY, DIRICHLET):
            with pytest.raises(ValueError, match=f"r_max must be >= 1, got {r_max}"):
                additive_closure_witness(system, r_max=r_max)


class TestExpansionDemo:
    def test_target(self):
        res = expansion_demo(6, 1000)
        assert res.target == 2.0

    def test_n1_converges(self):
        res = expansion_demo(1, 10**5)
        assert res.abs_error < 1e-4

    def test_first_terms_shape(self):
        # four-term truncation written out by hand from the divisor form
        n = 4
        expected = (pi**2 / 6) * (
            1 + (-1) ** n / 4 + 2 * __import__("math").cos(2 * pi * n / 3) / 9
            + 2 * __import__("math").cos(pi * n / 2) / 16
        )
        res = expansion_demo(n, 4)
        assert res.truncated_value == pytest.approx(expected, abs=1e-9)

    def test_matches_literal_truncation(self):
        from ramlab.arith import ramanujan_c

        for n in (1, 6, 12):
            for terms in (10, 100, 500):
                literal = (pi**2 / 6) * sum(
                    ramanujan_c(n, r) / r**2 for r in range(1, terms + 1)
                )
                assert expansion_demo(n, terms).truncated_value == pytest.approx(
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
        return (pi**2 / 6) * sum(prefix[terms // d] / d for d in divisors(n))

    @pytest.mark.parametrize("terms", [1, 2, 7, 100, 1000, 12345])
    @pytest.mark.parametrize("n", [1, 2, 6, 12, 97, 360, 5040, 720720, 2**20])
    def test_equals_prefix_table(self, n, terms):
        # most n here have divisors above terms, whose cut point is 0
        reference = self.prefix_table_reference(n, terms, linear_moebius_sieve(terms))
        assert expansion_demo(n, terms).truncated_value == reference

    def test_bit_identical_at_a_million_terms(self):
        # the golden CLI corpus stops at 10^5 terms
        terms = 10**6
        mu = linear_moebius_sieve(terms)
        for n in (720720, 997920):
            reference = self.prefix_table_reference(n, terms, mu)
            assert expansion_demo(n, terms).truncated_value == reference

    def test_error_shrinks(self):
        for n in (1, 6, 20):
            e3 = expansion_demo(n, 10**3).abs_error
            e5 = expansion_demo(n, 10**5).abs_error
            assert e5 <= e3 + 1e-9
            assert e5 < 2 * sigma(n) / 10**5 * (pi**2 / 6)


class TestMeanValueCheck:
    def test_trivial_function(self):
        f = c_A_even(DIRICHLET, 1)
        for rep in mean_value_check(f, [1, 10, 500]):
            assert rep.residual == 0 and rep.passed

    def test_progression_totient_mod_2(self):
        from ramlab.even import progression_totient_even, progression_totient_mean

        f = progression_totient_even(1, 2)
        (rep,) = mean_value_check(f, [10**4])
        assert rep.main_term == progression_totient_mean(1, 2) * 10**4
        assert rep.passed

    def test_random_rational_on_36(self):
        rng = random.Random(8)
        f = EvenFunction.from_callable(
            36, lambda d: Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        )
        for rep in mean_value_check(f, [10**3, 10**4]):
            assert rep.passed


PRIME_POWERS = (2, 4, 64, 256, 3, 27, 243, 5, 125, 7, 343, 11, 121, 397)
VALUES = {
    "int": st.integers(min_value=-10**6, max_value=10**6),
    "Fraction": st.fractions(max_denominator=50),
}


def full_loop_sum(f: EvenFunction, x: int):
    """The tally over every n <= x: the reference for mean_value_check."""
    counts = Counter(gcd(n, f.r) for n in range(1, x + 1))
    return sum((f.value_map[d] * c for d, c in counts.items()), Fraction(0))


class TestMeanValueCheckTally:
    """The one-period tally against the loop over every n <= x."""

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_equals_full_loop(self, data):
        r = data.draw(
            st.one_of(st.just(1), st.sampled_from(PRIME_POWERS), st.integers(1, 400)), label="r"
        )
        kind = data.draw(st.sampled_from(sorted(VALUES)), label="kind")
        system = data.draw(st.sampled_from((None, DIRICHLET, UNITARY, MIX)), label="system")
        if system is None:
            divs = divisors(r)
            vals = data.draw(st.lists(VALUES[kind], min_size=len(divs), max_size=len(divs)))
            f = EvenFunction.from_values(r, dict(zip(divs, vals)))
        else:
            # A-even: one value per element of A(r), read through (d, r)_A
            a_divs = divisor_set(system, r)
            vals = data.draw(st.lists(VALUES[kind], min_size=len(a_divs), max_size=len(a_divs)))
            by_class = dict(zip(a_divs, vals))
            f = EvenFunction.from_callable(r, lambda d: by_class[gcd_A(system, d, r)], system)
        q = data.draw(st.integers(1, 6), label="q")
        xs = [
            data.draw(st.integers(1, r), label="x <= r"),
            q * r,
            q * r + data.draw(st.integers(0, r - 1), label="rest"),
        ]
        for x, rep in zip(xs, mean_value_check(f, xs)):
            want = full_loop_sum(f, x)
            assert rep.exact_sum == want
            assert type(rep.exact_sum) is type(want)

    @pytest.mark.parametrize("r", [1, 397, 360, 5040])
    @pytest.mark.parametrize("x", [10**12, 10**12 + 396])
    def test_gcd_calls_are_bounded_by_the_period(self, r, x, monkeypatch):
        calls = 0

        def counting_gcd(a, b):
            nonlocal calls
            calls += 1
            # fail at once rather than run a loop over every n <= x
            assert calls <= 2 * r, f"more than 2r = {2 * r} gcd calls"
            return gcd(a, b)

        monkeypatch.setattr("ramlab.verify.gcd", counting_gcd)
        f = EvenFunction.from_callable(r, lambda d: Fraction(d % 7 - 3, d % 5 + 1))
        (rep,) = mean_value_check(f, [x])
        assert rep.exact_sum == partial_sum_even(f, x).exact_sum


class TestReports:
    def test_partial_sum_derived_fields(self):
        rep = PartialSumReport(x=1, exact_sum=Fraction(7, 2), main_term=1, certified_bound=2)
        assert rep.residual == Fraction(5, 2)
        assert not rep.passed
        assert PartialSumReport(1, -2, 0, 2).passed

    def test_verdict_is_derived(self):
        # a nonzero mean on the diagonal is no violation, and r != s decides
        # by the mean alone, so a contradictory verdict cannot be built
        assert OrthogonalityReport("U", 3, 3, 2, Fraction(2)).verdict == "diagonal"
        assert OrthogonalityReport("U", 2, 3, 0, Fraction(0)).verdict == "orthogonal"
        assert OrthogonalityReport("U", 2, 4, 1, Fraction(1)).verdict == "violating"
