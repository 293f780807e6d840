import random
import re
from decimal import Decimal
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ramlab import even
from ramlab.arith import divisors, ramanujan_c
from ramlab.gensums import c_A, c_A_sum
from ramlab.even import (
    EvenFunction,
    c_A_even,
    certified_residual_bound,
    fourier_coeffs,
    inner_product,
    mean_value,
    parse_even_literal,
    partial_sum_even,
    progression_totient,
    progression_totient_even,
    progression_totient_mean,
)
from ramlab.systems import (
    DIRICHLET,
    MIX,
    UNITARY,
    ExponentOutOfScopeError,
    divisor_set,
    gcd_A,
    phi_A,
    psi_A,
    system_from_dict,
)
from ramlab.verify import check_propositions

from conftest import coeff, coeffs_h, euler_phi, reconstruct, sigma, valid_specs


def random_rational_even(r, rng):
    return EvenFunction.from_callable(
        r, lambda d: Fraction(rng.randint(-9, 9), rng.randint(1, 9))
    )


def reference_fourier_coeffs(f):
    """The definition, as the test oracle: both closed forms as tau_A^2
    double sums over A(r), A the system f names, in Fraction arithmetic.

        h(d) = (1 / (r phi_A(d))) sum_{e in A(r)} phi_A(e) f(r/e) c_A(r/e, d)
        h(d) = (1 / r)            sum_{e in A(r)} f(r/e) c_A(r/d, e)
    """
    system = f.system
    r = f.r
    members = divisor_set(system, r)
    out = []
    for d in members:
        s1 = sum(
            phi_A(system, e) * f.value_map[r // e] * c_A(system, r // e, d) for e in members
        )
        h1 = Fraction(s1, r * phi_A(system, d))
        s2 = sum(f.value_map[r // e] * c_A(system, r // d, e) for e in members)
        assert h1 == Fraction(s2, r)
        out.append((d, h1))
    return tuple(out)


def reference_bound(f):
    """sup|f| (sigma_A(r)/r) sum_{d in A(r)} psi_A(d), summed over A(r)."""
    system = f.system
    members = divisor_set(system, f.r)
    return (
        Fraction(max(abs(v) for _, v in f.values))
        * Fraction(sum(members), f.r)
        * sum(psi_A(system, d) for d in members)
    )


def per_coefficient_partial_sums(f, xs):
    """sum_{d in A(r)} h(d) sum_{n<=x} c_A(n, d) for each x in xs, one
    closed-form c_A_sum and one Fraction multiply-add per coefficient of the
    tau_A^2 definition: the oracle for the regrouped integer route of
    partial_sum_even."""
    system = f.system
    coeffs = reference_fourier_coeffs(f)
    return [sum((hd * c_A_sum(system, d, x) for d, hd in coeffs), Fraction(0)) for x in xs]


SMALL_PRIMES = (2, 3, 5, 7, 11, 13)


@st.composite
def moduli(draw):
    """r = 1, a prime power, or a product of small prime powers with tau(r) <= 144."""
    kind = draw(st.sampled_from(("one", "prime power", "composite")))
    if kind == "one":
        return 1
    if kind == "prime power":
        p = draw(st.sampled_from(SMALL_PRIMES + (9973,)))
        return p ** draw(st.integers(min_value=1, max_value=12 if p < 9973 else 3))
    r, tau = 1, 1
    for p in SMALL_PRIMES:
        a = draw(st.integers(min_value=0, max_value=5))
        if tau * (a + 1) <= 144:
            r, tau = r * p**a, tau * (a + 1)
    return r


RATIONAL_VALUES = {
    "int": st.integers(min_value=-10**6, max_value=10**6),
    "fraction": st.fractions(min_value=-1000, max_value=1000, max_denominator=100),
}
RATIONAL_VALUES["int and fraction"] = st.one_of(*RATIONAL_VALUES.values())

# values that are neither an int nor a Fraction, refused at construction
INEXACT_VALUES = [0.5, 1.0, 1j, "1", Decimal("0.5"), None, True]


class TestEvenFunction:
    def test_evaluate_through_gcd(self):
        f = c_A_even(DIRICHLET, 6)
        assert f(8) == ramanujan_c(2, 6) == -1
        assert f(6) == f.value_map[6]

    def test_constant(self):
        f = EvenFunction.from_callable(12, lambda d: 1)
        assert all(f(n) == 1 for n in range(1, 50))

    def test_requires_exact_divisor_support(self):
        with pytest.raises(ValueError):
            EvenFunction.from_values(6, {1: 1, 2: 2})

    def test_rejects_nonpositive_argument(self):
        with pytest.raises(ValueError):
            c_A_even(DIRICHLET, 6)(0)

    def test_A_even_tag_accepts_cA(self):
        for r in range(1, 101):
            f = c_A_even(UNITARY, r)
            # tagged A-even functions still live in the plain r-even space
            assert all(f(n) == f.value_map[gcd(n, r)] for n in range(1, 3 * r + 1))

    def test_A_even_tag_rejects_violator(self):
        # distinguishes 2 from 4 although (2, 4)_U = (4, 4)_U would have to agree
        with pytest.raises(ValueError):
            EvenFunction.from_values(4, {1: 0, 2: 1, 4: 2}, system=UNITARY)

    # 6 is squarefree, so every 6-even function is also U-even: only the
    # value at 3 can be refused
    @pytest.mark.parametrize("system", [DIRICHLET, UNITARY], ids=["D", "U"])
    @pytest.mark.parametrize("bad", INEXACT_VALUES, ids=repr)
    def test_refuses_inexact_value(self, bad, system):
        values = {1: 1, 2: Fraction(1, 2), 3: bad, 6: -4}
        want = f"value at divisor 3 must be an int or a Fraction, got {bad!r}"
        with pytest.raises(ValueError, match=re.escape(want)):
            EvenFunction.from_values(6, values, system)
        with pytest.raises(ValueError, match=re.escape(want)):
            EvenFunction.from_callable(6, values.__getitem__, system)

    # each is refused by the constructor itself, so no later operation meets
    # a value without a denominator or a divisor without a value
    @pytest.mark.parametrize(
        "args, message",
        [
            ((2, ((1, 0.5), (2, 1))), "value at divisor 1 must be an int or a Fraction, got 0.5"),
            ((2, ((1, 1), (2, True))), "value at divisor 2 must be an int or a Fraction, got True"),
            ((6, ((1, 1), (2, 2))), "values must be given on exactly the divisors of 6"),
            ((6, ((2, 2), (1, 1), (3, 3), (6, 6))),
             "values must be given on exactly the divisors of 6, in increasing order"),
            ((2, [(1, 1), (2, 1)]), "values must be a tuple of (divisor, value) pairs"),
            ((2, ((1, 1), (2,))), "values must be a tuple of (divisor, value) pairs"),
            ((0, ()), "modulus must be an int >= 1, got 0"),
            ((2.0, ((1, 1), (2, 1))), "modulus must be an int >= 1, got 2.0"),
            ((4, ((1, 0), (2, 1), (4, 2)), UNITARY), "not A-even mod 4"),
            ((4, ((1, 1), (2, 1), (4, 1)), None), "system must be a RegularSystem, got None"),
            ((4, ((1, 1), (2, 1), (4, 1)), "U"), "system must be a RegularSystem, got 'U'"),
        ],
        ids=["float value", "bool value", "missing divisors", "unordered", "list",
             "short pair", "zero modulus", "float modulus", "not A-even", "no system",
             "system name"],
    )
    def test_direct_construction_is_checked(self, args, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            EvenFunction(*args)

    def test_evenness_check_skips_members(self, monkeypatch):
        # (d, r)_A = d on A(r), so gcd_A runs only on the divisors outside
        # it: never under D, the default, once per non-member under U
        calls = []
        real = even.gcd_A
        monkeypatch.setattr(even, "gcd_A", lambda *a: calls.append(a[1]) or real(*a))
        r = 110880  # 2^5 3^2 5 7 11, tau = 144
        f = EvenFunction.from_callable(r, lambda d: Fraction(d % 7, d % 5 + 1))
        assert f.system is DIRICHLET and calls == []
        c_A_even(UNITARY, r)
        outside = sorted(set(divisors(r)) - set(divisor_set(UNITARY, r)))
        assert calls == outside and len(outside) == 144 - 32

    def test_evenness_compares_only_non_members(self):
        # a member d of A(r) is its own (d, r)_A, so its value is never
        # compared: no comparison under D, one per non-member under U
        compared = []

        class Counted(Fraction):
            def __ne__(self, other):
                compared.append(self)
                return Fraction.__ne__(self, other)

        r = 36
        values = {d: Counted(1, gcd_A(UNITARY, d, r)) for d in divisors(r)}
        EvenFunction.from_values(r, values)
        assert compared == []
        EvenFunction.from_values(r, values, UNITARY)
        outside = set(divisors(r)) - set(divisor_set(UNITARY, r))
        assert len(compared) == len(outside) == 5

    def test_twins_are_equal_and_hash_equal(self):
        # equality and hash are by (r, values, system), whatever the cached
        # properties hold
        f, twin = c_A_even(UNITARY, 12), c_A_even(UNITARY, 12)
        fourier_coeffs(f)
        assert f is not twin and f == twin and hash(f) == hash(twin)
        assert len({f, twin}) == 1
        assert f != EvenFunction(12, f.values) and f != (12, f.values, UNITARY)


class TestInnerProduct:
    def test_modulus_mismatch(self):
        with pytest.raises(ValueError):
            inner_product(c_A_even(DIRICHLET, 6), c_A_even(DIRICHLET, 4))

    def test_constant_norm_one(self):
        for r in (1, 2, 12, 36):
            one = EvenFunction.from_callable(r, lambda d: 1)
            norm = inner_product(one, one)
            assert norm == 1 and type(norm) is Fraction

    def test_orthogonality_small(self):
        for r in range(1, 61):
            basis = {q: EvenFunction.from_callable(r, lambda n, q=q: ramanujan_c(n, q))
                     for q in divisors(r)}
            for q1, f in basis.items():
                for q2, g in basis.items():
                    expected = euler_phi(q1) if q1 == q2 else 0
                    assert inner_product(f, g) == expected

    def test_gram_is_diagonal_positive(self):
        # linear independence of the tau(r) basis functions
        for r in (24, 36, 60):
            for q in divisors(r):
                f = EvenFunction.from_callable(r, lambda n, q=q: ramanujan_c(n, q))
                assert inner_product(f, f) > 0

    def test_symmetric_on_rationals(self):
        # conjugation is the identity on rational values
        rng = random.Random(5)
        for r in (1, 4, 12, 36, 60):
            f, g = random_rational_even(r, rng), random_rational_even(r, rng)
            assert inner_product(f, g) == inner_product(g, f)
        f = EvenFunction.from_values(4, {1: Fraction(1, 2), 2: 0, 4: -1})
        g = EvenFunction.from_values(4, {1: 2, 2: 3, 4: Fraction(1, 3)})
        # (1/4) (phi(1) f(4) g(4) + phi(2) f(2) g(2) + phi(4) f(1) g(1))
        assert inner_product(f, g) == inner_product(g, f) == Fraction(-1, 3 * 4) + Fraction(2, 4)


class TestFourier:
    def test_basis_element(self):
        for r in range(1, 101):
            coeffs = fourier_coeffs(c_A_even(DIRICHLET, r))
            for q in divisors(r):
                assert coeff(coeffs, q) == (1 if q == r else 0)

    @pytest.mark.parametrize("system", [UNITARY, MIX], ids=["U", "MIX"])
    def test_A_basis_element(self, system):
        for r in range(1, 121):
            coeffs = fourier_coeffs(c_A_even(system, r))
            assert [d for d, _ in coeffs_h(coeffs)] == list(divisor_set(system, r))
            assert all(h == (1 if d == r else 0) for d, h in coeffs_h(coeffs))

    def test_constant_function(self):
        coeffs = fourier_coeffs(EvenFunction.from_callable(12, lambda d: 1))
        for q in divisors(12):
            assert coeff(coeffs, q) == (1 if q == 1 else 0)

    def test_round_trip_random(self):
        rng = random.Random(99)
        for _ in range(40):
            r = rng.randint(1, 100)
            f = random_rational_even(r, rng)
            g = reconstruct(fourier_coeffs(f))
            assert g.value_map == {d: Fraction(v) for d, v in f.values}

    def test_linear_system_oracle(self):
        # solve for h directly from the reconstruction equations on divisors
        from fractions import Fraction as F

        rng = random.Random(3)
        for r in (12, 30, 36):
            f = random_rational_even(r, rng)
            divs = divisors(r)
            k = len(divs)
            mat = [[F(ramanujan_c(d, q)) for q in divs] for d in divs]
            rhs = [F(f.value_map[d]) for d in divs]
            # gaussian elimination in exact rationals
            for col in range(k):
                piv = next(i for i in range(col, k) if mat[i][col] != 0)
                mat[col], mat[piv] = mat[piv], mat[col]
                rhs[col], rhs[piv] = rhs[piv], rhs[col]
                inv = 1 / mat[col][col]
                mat[col] = [v * inv for v in mat[col]]
                rhs[col] *= inv
                for i in range(k):
                    if i != col and mat[i][col]:
                        factor = mat[i][col]
                        mat[i] = [a - factor * b for a, b in zip(mat[i], mat[col])]
                        rhs[i] -= factor * rhs[col]
            coeffs = fourier_coeffs(f)
            assert [coeff(coeffs, q) for q in divs] == rhs

    def test_mean_is_first_coefficient(self):
        rng = random.Random(17)
        for _ in range(30):
            r = rng.randint(1, 150)
            f = random_rational_even(r, rng)
            assert mean_value(f) == coeff(fourier_coeffs(f), 1)


class TestFourierKernel:
    """The per-prime kernel in fourier_coeffs against the tau^2 definition."""

    @settings(max_examples=40, deadline=None)
    @given(r=moduli(), data=st.data())
    def test_rational_values_match_exactly(self, r, data):
        kind = data.draw(st.sampled_from(sorted(RATIONAL_VALUES)), label="kind")
        divs = divisors(r)
        vals = data.draw(st.lists(RATIONAL_VALUES[kind], min_size=len(divs), max_size=len(divs)))
        f = EvenFunction.from_values(r, dict(zip(divs, vals)))
        got = coeffs_h(fourier_coeffs(f))
        assert got == reference_fourier_coeffs(f)
        assert all(type(h) is Fraction for _, h in got)

    @pytest.mark.parametrize("r", [50400, 110880])
    def test_highly_composite_moduli(self, r):
        f = random_rational_even(r, random.Random(r))
        assert coeffs_h(fourier_coeffs(f)) == reference_fourier_coeffs(f)

    @pytest.mark.parametrize("formula", [0, 1])
    def test_corrupted_matrix_entry_is_caught(self, monkeypatch, formula):
        # r = 2^2 * 3: every entry of every per-prime matrix, one at a time
        f = EvenFunction.from_callable(12, lambda d: Fraction(d * d + 1, d + 2))
        _corrupt_each_entry(monkeypatch, f, formula, ((2, 2), (3, 1)))

    @pytest.mark.parametrize("formula", [0, 1])
    def test_corrupted_matrix_entry_is_caught_under_MIX(self, monkeypatch, formula):
        # r = 2^3 * 3^2 under MIX: the axes (q, k) = (8, 1) and (3, 2)
        f = EvenFunction.from_callable(
            72, lambda n: Fraction(gcd_A(MIX, n, 72) ** 2 + 1, gcd_A(MIX, n, 72) + 2), MIX
        )
        _corrupt_each_entry(monkeypatch, f, formula, ((8, 1), (3, 2)))


def _corrupt_each_entry(monkeypatch, f, formula, axes):
    honest = even._axis_matrices
    for q, k in axes:
        for i in range(k + 1):
            for j in range(k + 1):
                def corrupted(qq, kk, q=q, i=i, j=j):
                    mats = honest(qq, kk)
                    if qq == q:
                        mats[formula][i][j] += 1
                    return mats

                monkeypatch.setattr(even, "_axis_matrices", corrupted)
                with pytest.raises(ArithmeticError, match="formulas disagree"):
                    fourier_coeffs(f)
    monkeypatch.setattr(even, "_axis_matrices", honest)
    assert coeffs_h(fourier_coeffs(f)) == reference_fourier_coeffs(f)


@st.composite
def in_scope_moduli(draw, system):
    """r = prod p^e over 2, 3, 5, 7, 11 with each p^e inside the system's
    exponent bound, r <= 20000."""
    r = 1
    for p in (2, 3, 5, 7, 11):
        e = draw(st.integers(min_value=0, max_value=6), label=f"v_{p}")
        if e and r * p**e <= 20000:
            try:
                system.type_of(p, e)
            except ExponentOutOfScopeError:
                continue
            r *= p**e
    return r


class TestAEvenFunctions:
    """(A, r)-even functions on random valid systems: the per-prime transform
    against the tau_A^2 definition, the round trip, the mean, and the certified
    bound against brute-force partial sums."""

    @settings(max_examples=60, deadline=None)
    @given(spec=valid_specs(), data=st.data())
    def test_against_definition_and_brute_force(self, spec, data):
        system = system_from_dict(spec)
        r = data.draw(in_scope_moduli(system), label="r")
        members = divisor_set(system, r)
        vals = data.draw(st.lists(RATIONAL_VALUES["int and fraction"],
                                  min_size=len(members), max_size=len(members)))
        drawn = dict(zip(members, vals))
        f = EvenFunction.from_callable(r, lambda n: drawn[gcd_A(system, n, r)], system)
        coeffs = fourier_coeffs(f)
        assert coeffs_h(coeffs) == reference_fourier_coeffs(f)
        assert [d for d, _ in coeffs_h(coeffs)] == list(members)
        back = reconstruct(coeffs)
        assert back.system == system
        assert back.value_map == {d: Fraction(v) for d, v in f.values}
        mean = mean_value(f)
        assert mean == coeff(coeffs, 1) == Fraction(sum(f(n) for n in range(1, r + 1)), r)
        bound = certified_residual_bound(f)
        assert bound == reference_bound(f)
        assert type(mean) is type(bound) is Fraction
        # the residual has period r, so x <= r covers every x
        total = Fraction(0)
        for x in range(1, r + 1):
            total += f(x)
            assert abs(total - mean * x) <= bound
        xs = (1, r, 3 * r + data.draw(st.integers(0, r), label="rest"))
        for x, rep in zip(xs, partial_sum_even(f, xs), strict=True):
            brute = sum(f(n) for n in range(1, x + 1))
            assert rep.x == x and rep.exact_sum == brute and rep.passed

    @settings(max_examples=40, deadline=None)
    @given(spec=valid_specs(), data=st.data())
    def test_integer_partial_sum_against_per_coefficient_route(self, spec, data):
        # the integer route regroups the per-coefficient sums by the members
        # of A(r); both must give the brute-force sum, exactly and as Fractions
        system = system_from_dict(spec)
        r = data.draw(in_scope_moduli(system), label="r")
        members = divisor_set(system, r)
        vals = data.draw(st.lists(RATIONAL_VALUES["int and fraction"],
                                  min_size=len(members), max_size=len(members)))
        drawn = dict(zip(members, vals))
        f = EvenFunction.from_callable(r, lambda n: drawn[gcd_A(system, n, r)], system)
        period = [f(n) for n in range(1, r + 1)]
        q = data.draw(st.integers(0, 10**9), label="q")
        rest = data.draw(st.integers(1, r), label="rest")
        xs = (1, rest, r, q * r + rest)
        reports = partial_sum_even(f, xs)
        for x, want, rep in zip(xs, per_coefficient_partial_sums(f, xs), reports, strict=True):
            # f has period r
            brute = x // r * sum(period) + sum(period[: x % r])
            got = rep.exact_sum
            assert got == want == brute
            assert type(got) is Fraction

    def test_unitary_bound_by_hand(self):
        # r = 12 under U: A(12) = {1, 3, 4, 12}, sigma_U(12) = 20, and
        # psi_U is 1, 4, 5, 20 on those members
        f = c_A_even(UNITARY, 12)
        assert max(abs(v) for _, v in f.values) == 6
        assert certified_residual_bound(f) == 6 * Fraction(20, 12) * 30


class TestMeanValue:
    def test_ramanujan_sums(self):
        assert mean_value(c_A_even(DIRICHLET, 1)) == 1
        for r in range(2, 120):
            assert mean_value(c_A_even(DIRICHLET, r)) == 0

    def test_constant(self):
        mean = mean_value(EvenFunction.from_callable(30, lambda d: 1))
        assert mean == 1 and type(mean) is Fraction

    def test_two_term_hand_evaluation(self):
        f = c_A_even(DIRICHLET, 2)
        assert mean_value(f) == Fraction(ramanujan_c(1, 2) + ramanujan_c(2, 2), 2) == 0


class TestProgressionTotient:
    def test_examples(self):
        assert progression_totient(1, 1, 12) == euler_phi(12) == 4
        assert progression_totient(1, 2, 2) == 2
        assert progression_totient(1, 3, 1) == 1

    def test_rejects_common_factor(self):
        with pytest.raises(ValueError):
            progression_totient(2, 4, 9)

    def test_mean_examples(self):
        assert progression_totient_mean(1, 1) == 1
        assert progression_totient_mean(1, 2) == Fraction(3, 2)
        assert progression_totient_mean(1, 12) == 7

    def test_mean_matches_tabulated_route(self):
        for n in range(1, 80):
            f = progression_totient_even(1, n)
            assert mean_value(f) == progression_totient_mean(1, n)

    def test_tabulation_needs_coprime_modulus(self):
        with pytest.raises(ValueError):
            progression_totient_even(5, 10)

    def test_empirical_average_at_period(self):
        for n in (2, 6, 12):
            x = n * 50
            f = progression_totient_even(1, n)
            total = sum(f(d) for d in range(1, x + 1))
            assert Fraction(total, x) == progression_totient_mean(1, n)


class TestPartialSumEven:
    @pytest.mark.parametrize("system", [None, DIRICHLET, UNITARY, MIX], ids=["default", "D", "U", "MIX"])
    def test_transform_order_starts_at_one(self, system):
        # the main term h(1) x reads numerators[0], so the member at index 0
        # must be d = 1 for every r and system
        for r in range(1, 121):
            f = c_A_even(system, r) if system else EvenFunction.from_callable(r, lambda d: d % 5)
            coeffs = fourier_coeffs(f)
            assert coeffs.members[0] == 1
            assert Fraction(coeffs.numerators[0], coeffs.denominator) == mean_value(f) == coeff(coeffs, 1)

    def test_one_transform_for_every_x(self, monkeypatch):
        calls = []
        real = even.fourier_coeffs
        monkeypatch.setattr(even, "fourier_coeffs", lambda f: calls.append(f) or real(f))
        f = EvenFunction.from_callable(36, lambda d: Fraction(d % 7 - 3, d % 5 + 1))
        reports = partial_sum_even(f, [1, 36, 10**3, 10**12])
        assert len(calls) == 1
        assert [rep.x for rep in reports] == [1, 36, 10**3, 10**12]
        assert all(rep.main_term == mean_value(f) * rep.x and rep.passed for rep in reports)
        # every x is checked before the transform runs
        with pytest.raises(ValueError, match="x must be >= 1, got 0"):
            partial_sum_even(f, [10, 0])
        assert len(calls) == 1

    def test_constant_zero_residual(self):
        one = EvenFunction.from_callable(12, lambda d: 1)
        for x in (1, 10, 10**4):
            (rep,) = partial_sum_even(one, [x])
            assert rep.residual == 0 and rep.passed

    def test_ramanujan_mod_6(self):
        (rep,) = partial_sum_even(c_A_even(DIRICHLET, 6), [10**4])
        brute = sum(ramanujan_c(n, 6) for n in range(1, 10**4 + 1))
        assert rep.exact_sum == brute
        assert abs(rep.exact_sum) <= 12

    def test_random_within_certified_bound(self):
        rng = random.Random(41)
        for _ in range(15):
            r = rng.randint(1, 50)
            f = random_rational_even(r, rng)
            for x in (10**3, 10**4):
                (rep,) = partial_sum_even(f, [x])
                brute = sum(Fraction(f.value_map[gcd(n, r)]) for n in range(1, x + 1))
                assert rep.exact_sum == brute
                assert rep.passed

    def test_bound_formula(self):
        f = c_A_even(DIRICHLET, 6)
        expected = (
            Fraction(max(abs(v) for _, v in f.values))
            * Fraction(sigma(6), 6)
            * sum(psi_A(DIRICHLET, q) for q in divisors(6))
        )
        bound = certified_residual_bound(f)
        assert bound == expected and type(bound) is Fraction


def _literal(f):
    """f as the CLI literal `r=...; d:v, ...` that parse_even_literal reads."""
    return f"r={f.r}; " + ", ".join(f"{d}:{v}" for d, v in f.values)


class TestLiteral:
    def test_integers(self):
        f = parse_even_literal("r=12; 1:1, 2:-1, 3:0, 4:2, 6:0, 12:5", DIRICHLET)
        assert f.r == 12 and f.value_map[4] == 2 and f.system is DIRICHLET

    def test_rationals(self):
        f = parse_even_literal("r=2; 1:1/3, 2:-5/2", DIRICHLET)
        assert f.value_map == {1: Fraction(1, 3), 2: Fraction(-5, 2)}

    def test_malformed(self):
        with pytest.raises(ValueError):
            parse_even_literal("1:1, 2:2", DIRICHLET)
        with pytest.raises(ValueError):
            parse_even_literal("r=6; 1:one", DIRICHLET)
        with pytest.raises(ValueError):
            parse_even_literal("r=6; 1:1, 2:2", DIRICHLET)  # missing divisors

    @pytest.mark.parametrize("system", [UNITARY, MIX], ids=["U", "MIX"])
    def test_read_in_the_system(self, system):
        # (2, 4)_A = 1 under U and MIX, so f(2) must equal f(1)
        f = parse_even_literal("r=4; 1:1, 2:1, 4:3", system)
        assert f.system is system
        assert [d for d, _ in coeffs_h(fourier_coeffs(f))] == [1, 4]
        with pytest.raises(ValueError, match=re.escape("not A-even mod 4: value at 2 ")):
            parse_even_literal("r=4; 1:1, 2:2, 4:3", system)
        assert parse_even_literal("r=4; 1:1, 2:2, 4:3", DIRICHLET).value_map[2] == 2

    @settings(max_examples=40, deadline=None)
    @given(spec=valid_specs(), data=st.data())
    def test_printed_literal_round_trips_and_passes_prop1(self, spec, data):
        system = system_from_dict(spec)
        r = data.draw(in_scope_moduli(system), label="r")
        members = divisor_set(system, r)
        vals = data.draw(st.lists(RATIONAL_VALUES["int and fraction"],
                                  min_size=len(members), max_size=len(members)))
        drawn = dict(zip(members, vals))
        f = EvenFunction.from_callable(r, lambda n: drawn[gcd_A(system, n, r)], system)
        literal = _literal(f)
        assert parse_even_literal(literal, system) == f
        x_max = data.draw(st.integers(1, 3 * r), label="x_max")
        ((_, rows, passed),) = check_propositions(["prop1"], system, 1, x_max, literal)
        assert passed and rows[-1][:2] == [r, x_max]
        # a changed value at a divisor outside A(r) breaks f(d) = f((d, r)_A)
        outside = sorted(set(divisors(r)) - set(members))
        if outside:
            d = data.draw(st.sampled_from(outside), label="d")
            values = dict(f.values)
            values[d] += 1
            bad = _literal(EvenFunction.from_values(r, values))
            with pytest.raises(ValueError, match=rf"^not A-even mod {r}: value at {d} "):
                parse_even_literal(bad, system)
            with pytest.raises(ValueError, match=rf"value at {d} "):
                check_propositions(["prop1"], system, 1, x_max, bad)
