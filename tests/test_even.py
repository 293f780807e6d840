import copy
import pickle
import random
import re
from decimal import Decimal
from fractions import Fraction
from itertools import product
from math import gcd, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ramlab import even
from ramlab.arith import divisors, ramanujan_c
from ramlab.gensums import c_A, c_A_sum
from ramlab.even import (
    EvenFunction,
    c_A_even,
    fourier_coeffs,
    inner_product,
    mean_and_bound,
    partial_sum_numerators,
    progression_totient,
    progression_totient_even,
    progression_totient_mean,
)
from ramlab.systems import (
    DIRICHLET,
    MIX,
    UNITARY,
    divisor_set,
    gcd_A,
    phi_A,
    prime_power_types,
    psi_A,
    system_from_dict,
)

from conftest import (
    RATIONAL_VALUES,
    c_A_sum_at,
    coeff,
    coeffs_h,
    euler_phi,
    in_scope_moduli,
    prop1_fractions,
    reconstruct,
    sigma,
    valid_specs,
)


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
    partial_sum_numerators."""
    system = f.system
    coeffs = reference_fourier_coeffs(f)
    return [sum((hd * c_A_sum_at(system, d, x) for d, hd in coeffs), Fraction(0)) for x in xs]


def dense_kron_apply(mats, vec):
    """(mats[0] x mats[1] x ...) vec from the definition: entry (I, J) of the
    Kronecker product is the product over the axes of mats[a][I_a][J_a], over
    the digit tuples I, J in mixed-radix order, the last axis fastest."""
    digits = list(product(*(range(len(mat)) for mat in mats)))
    return [
        sum(prod(mat[i][j] for mat, i, j in zip(mats, row, col)) * v for col, v in zip(digits, vec))
        for row in digits
    ]


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

    def test_evenness_check_skips_members(self, count_calls):
        # (d, r)_A = d on A(r), so gcd_A runs only on the divisors outside
        # it: never under D, the default, once per non-member under U
        calls = count_calls(even, "gcd_A")
        r = 110880  # 2^5 3^2 5 7 11, tau = 144
        f = EvenFunction.from_callable(r, lambda d: Fraction(d % 7, d % 5 + 1))
        assert f.system is DIRICHLET and calls == []
        c_A_even(UNITARY, r)
        outside = sorted(set(divisors(r)) - set(divisor_set(UNITARY, r)))
        assert [d for _, d, _ in calls] == outside and len(outside) == 144 - 32

    def test_pickle_checks_the_values_again(self):
        # built around the constructor, so its values were never checked:
        # under U, (2, 4)_A = 1, so f(2) must equal f(1)
        smuggled = object.__new__(EvenFunction)
        vars(smuggled).update(r=4, values=((1, 1), (2, 2), (4, 3)), system=UNITARY)
        text = pickle.dumps(smuggled)
        with pytest.raises(ValueError, match=re.escape("not A-even mod 4: value at 2 ")):
            pickle.loads(text)

    def test_copies_carry_no_cached_transform(self, count_calls):
        # a copy is built by its fields and checked again, so it builds its
        # own form, equal to f's, in one per-prime pass, and shares none of it
        f = EvenFunction.from_callable(
            72, lambda n: Fraction(gcd_A(MIX, n, 72) ** 2 + 1, gcd_A(MIX, n, 72) + 2), MIX
        )
        want = fourier_coeffs(f)
        calls = count_calls(even, "_per_prime")
        for make in (lambda: pickle.loads(pickle.dumps(f)), lambda: copy.copy(f)):
            calls.clear()
            copied = make()
            assert copied == f and copied is not f
            assert calls == [(MIX, 72)]
            assert copied._form == f._form and copied._form is not f._form
            assert all(a is not b for a, b in zip(copied._form[2:4], f._form[2:4]))
            assert fourier_coeffs(copied) == want and len(calls) == 1

    @pytest.mark.parametrize("system", [DIRICHLET, UNITARY, MIX], ids=["D", "U", "MIX"])
    @pytest.mark.parametrize("r", [1, 72, 360, 110880])
    def test_construction_makes_one_per_prime_pass(self, system, r, count_calls):
        # the cost contract: one `_per_prime` pass lists A(r) for both the
        # A-even check and the form, and reading the form builds nothing;
        # prime_power_types, which every listing of A(r) reads, is looked up
        # once more than the evenness check's gcd_A calls
        values = tuple((d, Fraction(gcd_A(system, d, r) % 7 - 3, gcd_A(system, d, r) % 5 + 1))
                       for d in divisors(r))
        passes, gcds = count_calls(even, "_per_prime"), count_calls(even, "gcd_A")
        before = prime_power_types.cache_info()
        f = EvenFunction(r, values, system)
        after = prime_power_types.cache_info()
        assert passes == [(system, r)]
        assert (after.hits + after.misses) - (before.hits + before.misses) == 1 + len(gcds)
        fourier_coeffs(f), mean_and_bound(f), partial_sum_numerators(f, [10, r])
        assert passes == [(system, r)]

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
            assert prop1_fractions(f)[0] == coeff(fourier_coeffs(f), 1)


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

    def test_kron_apply_is_the_kronecker_product(self):
        # wide axes (m^2 <= tau) of size 1-6 and one deep axis of up to 41 that
        # alone outweighs the rest, with zero, +-1 and large entries
        rng = random.Random(33)
        entries = (0, 0, 1, -1, 2, -3, 10**30, -(10**25) + 7)
        for _ in range(150):
            sizes = [rng.randint(1, 6) for _ in range(rng.randint(0, 3))]
            if rng.random() < 0.3:
                sizes.insert(rng.randint(0, len(sizes)), rng.randint(7, 41))
            if prod(sizes) > 150:
                continue
            mats = [[[rng.choice(entries) for _ in range(m)] for _ in range(m)] for m in sizes]
            vec = [rng.choice((0, 1, -1, rng.randint(-10**40, 10**40))) for _ in range(prod(sizes))]
            assert even._kron_apply(mats, vec) == dense_kron_apply(mats, vec), sizes
        # by hand: the last matrix copies each block's first entry, the first
        # adds twice the first block to the second
        mats = [[[2, 1], [0, 1]], [[1, 0, 0]] * 3]
        assert even._kron_apply(mats, [1, 2, 3, 4, 5, 6]) == [6, 6, 6, 4, 4, 4]

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
                    # a copy: the honest matrices are cached, and shared
                    mats = [list(map(list, mat)) for mat in honest(qq, kk)]
                    if qq == q:
                        mats[formula][i][j] += 1
                    return mats

                monkeypatch.setattr(even, "_axis_matrices", corrupted)
                with pytest.raises(ArithmeticError, match="formulas disagree"):
                    fourier_coeffs(f)
    monkeypatch.setattr(even, "_axis_matrices", honest)
    assert coeffs_h(fourier_coeffs(f)) == reference_fourier_coeffs(f)


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
        xs = (1, r, 3 * r + data.draw(st.integers(0, r), label="rest"))
        mean, bound, _, sums = prop1_fractions(f, xs)
        assert mean == coeff(coeffs, 1) == Fraction(sum(f(n) for n in range(1, r + 1)), r)
        assert bound == reference_bound(f)
        # the residual has period r, so x <= r covers every x
        total = Fraction(0)
        for x in range(1, r + 1):
            total += f(x)
            assert abs(total - mean * x) <= bound
        for x, exact in zip(xs, sums, strict=True):
            brute = sum(f(n) for n in range(1, x + 1))
            assert exact == brute and abs(exact - mean * x) <= bound

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
        _, _, denominator = mean_and_bound(f)
        sums = partial_sum_numerators(f, xs)
        for x, want, total in zip(xs, per_coefficient_partial_sums(f, xs), sums, strict=True):
            # f has period r
            brute = x // r * sum(period) + sum(period[: x % r])
            assert Fraction(total, denominator) == want == brute

    def test_unitary_bound_by_hand(self):
        # r = 12 under U: A(12) = {1, 3, 4, 12}, sigma_U(12) = 20, and
        # psi_U is 1, 4, 5, 20 on those members
        f = c_A_even(UNITARY, 12)
        assert max(abs(v) for _, v in f.values) == 6
        _, bound, denominator = mean_and_bound(f)
        assert Fraction(bound, denominator) == 6 * Fraction(20, 12) * 30


class TestMeanValue:
    """M(f) = M / D of `mean_and_bound`."""

    def test_ramanujan_sums(self):
        assert mean_and_bound(c_A_even(DIRICHLET, 1))[0] == 1
        for r in range(2, 120):
            assert mean_and_bound(c_A_even(DIRICHLET, r))[0] == 0

    def test_constant(self):
        mean, _, denominator = mean_and_bound(EvenFunction.from_callable(30, lambda d: 1))
        assert mean == denominator == 30

    def test_two_term_hand_evaluation(self):
        f = c_A_even(DIRICHLET, 2)
        assert prop1_fractions(f)[0] == Fraction(ramanujan_c(1, 2) + ramanujan_c(2, 2), 2) == 0

    @pytest.mark.parametrize("system", [UNITARY, MIX], ids=["U", "MIX"])
    def test_is_the_inner_product_with_one(self, system):
        # the mean's definition, (1/r) sum_{n<=r} f(n) = <f, 1>, read over
        # all divisors of r with phi, against M / D over A(r) with phi_A
        rng = random.Random(35)
        for r in range(1, 200):
            one = EvenFunction.from_callable(r, lambda d: 1)
            drawn = {d: Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for d in divisor_set(system, r)}
            rational = EvenFunction.from_callable(r, lambda d: drawn[gcd_A(system, d, r)], system)
            for f in (c_A_even(system, r), rational):
                mean, _, denominator = mean_and_bound(f)
                assert Fraction(mean, denominator) == inner_product(f, one), (r, f)


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
            assert prop1_fractions(f)[0] == progression_totient_mean(1, n)

    def test_tabulation_needs_coprime_modulus(self):
        with pytest.raises(ValueError):
            progression_totient_even(5, 10)

    @pytest.mark.parametrize(
        "s, n, message",
        [(2, 4, "s and n must be coprime, got gcd(2, 4) = 2"),
         (0, 5, "s and n must be >= 1, got s=0, n=5"),
         (-3, 5, "s and n must be >= 1, got s=-3, n=5"),
         (0, 1, "s and n must be >= 1, got s=0, n=1"),
         (1, 0, "s and n must be >= 1, got s=1, n=0")],
        ids=["shared factor", "s zero", "s negative", "s zero at n 1", "n zero"],
    )
    def test_one_domain_for_all_three(self, s, n, message):
        # the count, its tabulation and its mean take the same (s, n), with
        # the same message: none answers where the tabulation is refused
        for call in (lambda: progression_totient(s, 1, n), lambda: progression_totient_even(s, n),
                     lambda: progression_totient_mean(s, n)):
            with pytest.raises(ValueError, match=re.escape(message)):
                call()

    def test_count_needs_a_positive_step(self):
        with pytest.raises(ValueError, match="d must be >= 1, got d=0"):
            progression_totient(1, 0, 5)

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
            mean, _, denominator = mean_and_bound(f)
            assert (coeffs.numerators[0], coeffs.denominator) == (mean, denominator)
            assert Fraction(mean, denominator) == coeff(coeffs, 1)

    def test_one_transform_for_every_x(self, count_calls):
        calls = count_calls(even, "fourier_coeffs")
        f = EvenFunction.from_callable(36, lambda d: Fraction(d % 7 - 3, d % 5 + 1))
        xs = [1, 36, 10**3, 10**12]
        sums = partial_sum_numerators(f, xs)
        assert len(calls) == 1
        mean, bound, _ = mean_and_bound(f)
        assert all(abs(total - mean * x) <= bound for x, total in zip(xs, sums, strict=True))
        # every x is checked before the transform runs
        with pytest.raises(ValueError, match="x must be an int >= 0, got -1"):
            partial_sum_numerators(f, [10, -1])
        assert len(calls) == 1

    @pytest.mark.parametrize("system", [DIRICHLET, UNITARY, MIX], ids=lambda s: s.name)
    def test_one_domain_with_c_A_sum(self, system):
        # both closed forms of a partial sum take every int x >= 0, the empty
        # sum at 0 included, and refuse anything else rather than flooring it
        f = c_A_even(system, 12)
        _, _, denominator = mean_and_bound(f)
        xs = [0, 1, 11, 12, 13, 1000]
        assert partial_sum_numerators(f, xs) == [denominator * s for s in c_A_sum(system, 12, xs)]
        assert partial_sum_numerators(f, [0]) == [0] == c_A_sum(system, 12, [0])
        for x in (-1, 2.5, 3.0, True, Fraction(7)):
            with pytest.raises(ValueError, match="x must be an int >= 0"):
                partial_sum_numerators(f, [x])
            with pytest.raises(ValueError, match="c_A_sum requires r >= 1, x >= 0, x an int"):
                c_A_sum_at(system, 12, x)

    def test_constant_zero_residual(self):
        one = EvenFunction.from_callable(12, lambda d: 1)
        xs = [1, 10, 10**4]
        mean, _, denominator = mean_and_bound(one)
        assert partial_sum_numerators(one, xs) == [mean * x for x in xs] == [denominator * x for x in xs]

    def test_ramanujan_mod_6(self):
        f = c_A_even(DIRICHLET, 6)
        _, _, denominator = mean_and_bound(f)
        (total,) = partial_sum_numerators(f, [10**4])
        brute = sum(ramanujan_c(n, 6) for n in range(1, 10**4 + 1))
        assert Fraction(total, denominator) == brute
        assert abs(brute) <= 12

    def test_random_within_certified_bound(self):
        rng = random.Random(41)
        for _ in range(15):
            r = rng.randint(1, 50)
            f = random_rational_even(r, rng)
            xs = [10**3, 10**4]
            mean, bound, tallies, sums = prop1_fractions(f, xs)
            for x, tally, exact in zip(xs, tallies, sums, strict=True):
                brute = sum(Fraction(f.value_map[gcd(n, r)]) for n in range(1, x + 1))
                assert exact == tally == brute
                assert abs(exact - mean * x) <= bound

    def test_bound_formula(self):
        f = c_A_even(DIRICHLET, 6)
        expected = (
            Fraction(max(abs(v) for _, v in f.values))
            * Fraction(sigma(6), 6)
            * sum(psi_A(DIRICHLET, q) for q in divisors(6))
        )
        _, bound, denominator = mean_and_bound(f)
        assert Fraction(bound, denominator) == expected
