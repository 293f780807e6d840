import random
import time
from array import array
from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import fsum, gcd, lcm, pi, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ramlab import cli, even, verify
from ramlab.cli import MAX_TERMS
from ramlab.arith import divisors, primes_up_to
from ramlab.even import EvenFunction, FourierCoeffs, c_A_even, fourier_coeffs, partial_sum_even
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
    IN_ORDER_TERMS,
    ExpansionResult,
    MAX_ORACLE_TALLY,
    OrthogonalityReport,
    Prop4Witness,
    additive_closure_witness,
    check_propositions,
    expansion_demo,
    find_orthogonality_violation,
    mean_product_empirical,
    mean_product_exact,
    mean_value_check,
    orthogonality_report,
)
from ramlab.verify import _in_order_limit, _moebius_square_sums, _square_tail

from conftest import (
    RATIONAL_VALUES,
    SPEC_A,
    SPEC_B,
    euler_phi,
    in_scope_moduli,
    sigma,
    valid_specs,
)
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

    @pytest.mark.parametrize("system", [UNITARY, MIX, system_from_dict(SPEC_A),
                                        system_from_dict(SPEC_B)], ids=["U", "MIX", "A", "B"])
    def test_two_gcd_calls_per_modulus(self, count_calls, system):
        # t + 3 for the evenness of f and g, then two per modulus r <= r_max;
        # each witness here is at p^2
        calls = count_calls(verify, "gcd_A")
        w = additive_closure_witness(system, r_max=100)
        assert w.h_fails_all and len(calls) == 2 * 100 + w.t + 3 == 205

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
        assert expansion_demo(n, terms).truncated_value == reference

    def test_bit_identical_at_the_in_order_cap(self):
        # the golden CLI corpus stops at 10^5 terms; up to IN_ORDER_TERMS
        # every cut is the left-to-right prefix sum, bit for bit
        terms = IN_ORDER_TERMS
        mu = linear_moebius_sieve(terms)
        for n in (720720, 997920):
            reference = self.prefix_table_reference(n, terms, mu)
            assert expansion_demo(n, terms).truncated_value == reference

    def test_accurate_at_a_million_terms(self):
        # against each cut's correctly rounded sum, the recursion is within
        # 1e-14; a left-to-right sum over every m <= 10^6 is 6-9e-14 off
        terms = 10**6
        mu = linear_moebius_sieve(terms)
        quotients = array("d", (mu[m] / (m * m) if m else 0.0 for m in range(terms + 1)))
        for n in (1, 5040, 720720, 997920):
            exact = sum(Fraction(fsum(quotients[1 : terms // d + 1])) / d for d in divisors(n))
            reference = Fraction(pi**2 / 6) * exact
            truncated = expansion_demo(n, terms).truncated_value
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
                res = expansion_demo(n, terms)
                assert res.target == sum(divisors(n)) / n
                assert res.truncated_value == self.prefix_table_reference(n, terms, mu)

    def test_primorial_costs_only_the_divisors_below_terms(self):
        # the product of the first 26 primes has 2^26 divisors; listing them
        # all took seconds and hundreds of MB at 22 primes
        n = prod(primes_up_to(101))
        start = time.perf_counter()
        res = expansion_demo(n, 1000)
        assert time.perf_counter() - start < 1.0
        assert res.target == sigma(n) / n

    def test_sieve_stays_within_2_17_entries_up_to_MAX_TERMS_and_IN_ORDER_TERMS(self, count_calls):
        # moebius_sieve is the textbook sieve, one slice pass per prime,
        # sized for the at most 2^17 entries its one caller reads: R itself
        # up to IN_ORDER_TERMS = 2^17, and floor(R^(2/3)) above, which stays
        # within 2^17 while R <= 2^25.5 (about 4.7e7, past MAX_TERMS = 10^7).
        # A rise in either constant that breaks this asks the sieve to be
        # measured again at its new size
        calls = count_calls(verify, "moebius_sieve")
        for terms in (2**17 - 1, 2**17, 2**17 + 1, 10**6, MAX_TERMS):
            expansion_demo(1, terms)
        limits = [limit for (limit,) in calls]
        assert limits == [2**17 - 1, 2**17, 2580, 10**4, 46415]
        assert max(limits) <= 2**17

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

    def test_prop1_transforms_each_function_once(self, count_calls):
        # 30 sums c_A(., r), one progression totient and 10 drawn functions,
        # each checked at x = 100 and x = --xmax
        calls = count_calls(even, "fourier_coeffs")
        ((_, rows, passed),) = check_propositions(["prop1"], MIX, 50, 30000)
        assert passed and len(rows) == 2 * 41
        assert len(calls) == 41

    def test_prop1_computes_each_bound_once(self, count_calls):
        # mean_and_bound is the bound's one computation, read once per
        # function for both sides of its rows, wherever it is bound
        calls = [count_calls(module, "mean_and_bound") for module in (even, verify)]
        ((_, rows, passed),) = check_propositions(["prop1"], MIX, 50, 30000)
        assert passed and len(rows) == 2 * 41
        assert sum(map(len, calls)) == 41

    def test_tally_reads_only_the_values(self, monkeypatch):
        # the oracle side: no phi, c_A, per-prime pass or coefficients
        def refuse(*args):
            raise AssertionError("the tally used the closed form's machinery")

        f = EvenFunction.from_callable(360, lambda d: Fraction(d % 7 - 3, d % 5 + 1))
        for module, name in [(even, "_per_prime"), (even, "fourier_coeffs"),
                             (even, "mean_and_bound"), (verify, "phi_A"),
                             (verify, "mean_and_bound"), (verify, "partial_sum_numerators")]:
            monkeypatch.setattr(module, name, refuse)
        sums, scale = verify._tally(f, [7, 360, 1000])
        assert "_form" not in vars(f)
        assert [Fraction(s, scale) for s in sums] == [full_loop_sum(f, x) for x in (7, 360, 1000)]

    @pytest.mark.parametrize(
        "make",
        [
            lambda: EvenFunction.from_callable(360, lambda d: Fraction(d % 7 - 3, d % 5 + 1)),
            lambda: c_A_even(UNITARY, 360),
        ],
        ids=["rational-under-D", "c_A-under-U"],
    )
    def test_one_per_prime_pass_per_function(self, make, count_calls):
        # a Prop 1 row of one function reads its mean and bound on the
        # brute-force side and its coefficients and bound on the closed-form
        # side, all from one per-prime pass and one integer scaling
        f = make()
        calls = count_calls(even, "_per_prime")
        oracle = mean_value_check(f, [100, 1000])
        closed = partial_sum_even(f, [100, 1000])
        assert oracle == closed and all(rep.passed for rep in closed)
        assert [r for _, r in calls] == [360]


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
    def test_gcd_calls_are_bounded_by_the_period(self, r, x, count_calls):
        # at most 2r gcd calls, the one past them failing at once rather
        # than running a loop over every n <= x
        count_calls(verify, "gcd", limit=2 * r)
        f = EvenFunction.from_callable(r, lambda d: Fraction(d % 7 - 3, d % 5 + 1))
        (rep,) = mean_value_check(f, [x])
        assert [rep] == partial_sum_even(f, [x])


    def test_refuses_past_the_tally_budget_before_any_tally(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("tallied past the budget")

        cap = MAX_ORACLE_TALLY
        f = EvenFunction.from_callable(2**24, lambda d: Fraction(1, d))
        monkeypatch.setattr("ramlab.verify.gcd", refuse)
        # min(x, r) is what the tally pays; the first x is fine and still untallied
        with pytest.raises(ValueError, match=f"needs min\\(x, r\\) at most {cap}"):
            mean_value_check(f, [100, cap + 1])
        monkeypatch.undo()
        small = EvenFunction.from_callable(12, lambda d: d)
        (rep,) = mean_value_check(small, [10**15])
        assert [rep] == partial_sum_even(small, [10**15])


def reference_rows(f: EvenFunction, xs: list[int]) -> list[list]:
    """Prop 1's rows of one function composed in Fractions from the public
    reports, as the battery made them before it decided in integers: a row
    passes when the brute-force sum is within its bound and equals the
    closed form."""
    rows = []
    for rep, closed in zip(mean_value_check(f, xs), partial_sum_even(f, xs), strict=True):
        ok = rep.passed and closed.exact_sum == rep.exact_sum
        rows.append([f.r, rep.x, rep.exact_sum, rep.main_term, rep.residual, rep.certified_bound,
                     "true" if ok else "false"])
    return rows


SYSTEMS = st.one_of(st.sampled_from((DIRICHLET, UNITARY, MIX)),
                    valid_specs().map(lambda spec: system_from_dict(spec, name="T")))


@st.composite
def even_functions(draw, system):
    """An (A, r)-even function of `system`: one int or Fraction value per
    member of A(r), read through (d, r)_A."""
    r = draw(in_scope_moduli(system), label="r")
    members = divisor_set(system, r)
    kind = draw(st.sampled_from(sorted(RATIONAL_VALUES)), label="kind")
    vals = draw(st.lists(RATIONAL_VALUES[kind], min_size=len(members), max_size=len(members)))
    by_class = dict(zip(members, vals))
    return EvenFunction.from_callable(r, lambda d: by_class[gcd_A(system, d, r)], system)


def period_xs(data, r: int) -> list[int]:
    """x <= r, x = q r and x = q r + rest for one drawn q."""
    q = data.draw(st.integers(1, 3), label="q")
    return [data.draw(st.integers(1, r), label="x <= r"), q * r,
            q * r + data.draw(st.integers(0, r - 1), label="rest")]


def battery_and_reference(system, r_max, x_max, extra=None):
    """check_propositions' Prop 1 table, and the reference rows of every
    function its battery checked, in the table's order (the extra last)."""
    seen = []
    real = verify._mean_rows
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(verify, "_mean_rows", lambda f, xs: seen.append((f, xs)) or real(f, xs))
        ((header, rows, passed),) = check_propositions(["prop1"], system, r_max, x_max, extra)
    order = seen[1:] + seen[:1] if extra is not None else seen
    return header, rows, passed, [row for f, xs in order for row in reference_rows(f, xs)]


def assert_same_cells(header, rows, want):
    # equal values of the same types, so every format prints the same bytes
    assert rows == want
    assert [list(map(type, row)) for row in rows] == [list(map(type, row)) for row in want]
    for fmt in ("json", "csv", "plain"):
        assert "".join(cli._emit_rows(header, rows, fmt)) == "".join(cli._emit_rows(header, want, fmt))


class TestMeanRowsDifferential:
    """Prop 1's integer rows against the Fraction composition of
    `reference_rows`, cell for cell and pass flag for pass flag."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_rows_equal_the_reference(self, data):
        system = data.draw(SYSTEMS, label="system")
        f = data.draw(even_functions(system), label="f")
        xs = period_xs(data, f.r)
        rows, passed = verify._mean_rows(f, xs)
        want = reference_rows(f, xs)
        assert_same_cells(verify._SUM_HEADER, rows, want)
        assert passed and {row[-1] for row in rows} == {"true"}

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_battery_with_an_extra_equals_the_reference(self, data):
        system = data.draw(SYSTEMS, label="system")
        extra = data.draw(even_functions(system), label="extra")
        x_max = data.draw(st.sampled_from(period_xs(data, extra.r)), label="x_max")
        r_max = data.draw(st.integers(1, 12), label="r_max")
        header, rows, passed, want = battery_and_reference(system, r_max, x_max, extra)
        assert_same_cells(header, rows, want)
        assert passed == all(row[-1] == "true" for row in want)

    @pytest.mark.parametrize("corrupt", ["closed form", "mean", "bound"])
    def test_a_corrupted_side_fails_the_same_rows(self, corrupt, monkeypatch):
        # each corruption rebinds the name in both modules, so the reference
        # (through even's reports) and the rows (through verify) read it alike
        name, wrong = {
            "closed form": ("partial_sum_numerators", lambda sums: [t + 1 for t in sums]),
            "mean": ("mean_and_bound", lambda mbd: (mbd[0] + 1, *mbd[1:])),
            "bound": ("mean_and_bound", lambda mbd: (mbd[0], 0, mbd[2])),
        }[corrupt]
        real = getattr(even, name)
        for module in (even, verify):
            monkeypatch.setattr(module, name, lambda *args: wrong(real(*args)))
        drawn = {d: Fraction(d % 7 - 3, d % 5 + 1) for d in divisor_set(MIX, 360)}
        extra = EvenFunction.from_callable(360, lambda d: drawn[gcd_A(MIX, d, 360)], MIX)
        header, rows, passed, want = battery_and_reference(MIX, 12, 1000, extra)
        assert_same_cells(header, rows, want)
        flags = [row[-1] for row in rows]
        assert not passed and "false" in flags
        assert corrupt != "closed form" or set(flags) == {"false"}


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

    @pytest.mark.parametrize(
        "record",
        ["RegularSystem", "EvenFunction", "PartialSumReport", "FourierCoeffs",
         "OrthogonalityReport", "Prop4Witness", "ExpansionResult"],
    )
    def test_every_record_is_immutable(self, record):
        f = c_A_even(UNITARY, 12)
        instances = {
            "RegularSystem": (MIX, ("types", "default", "a_max", "name")),
            "EvenFunction": (f, ("r", "values", "system")),
        }
        for rec in (partial_sum_even(f, [5])[0], fourier_coeffs(f), orthogonality_report(MIX, 2, 4),
                    additive_closure_witness(MIX, 2), expansion_demo(6, 10)):
            instances[type(rec).__name__] = (rec, rec._fields)
        rec, fields = instances[record]
        for field in fields:
            before = getattr(rec, field)
            with pytest.raises(AttributeError):
                setattr(rec, field, before)
            with pytest.raises(AttributeError):
                delattr(rec, field)
            assert getattr(rec, field) is before

    def test_result_records_are_tuples_of_their_fields(self):
        # the five result records are NamedTuples: iterable, and equal to
        # the tuple of their fields
        for cls in (PartialSumReport, FourierCoeffs, OrthogonalityReport, Prop4Witness,
                    ExpansionResult):
            assert issubclass(cls, tuple)
        rep = PartialSumReport(1, Fraction(7, 2), 1, 2)
        assert rep == (1, Fraction(7, 2), 1, 2) and list(rep) == [1, Fraction(7, 2), 1, 2]
