import random
import re
from collections import Counter
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ramlab import cli, even, verify
from ramlab.arith import divisors
from ramlab.even import (
    EvenFunction,
    FourierCoeffs,
    c_A_even,
    fourier_coeffs,
    partial_sum_numerators,
)
from ramlab.gensums import c_A_divisor, c_A_sum
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
    CHECKS,
    MAX_ORACLE_TALLY,
    check_propositions,
    find_orthogonality_violation,
    mean_product_exact,
)

from conftest import (
    RATIONAL_VALUES,
    SPEC_A,
    SPEC_B,
    euler_phi,
    in_scope_moduli,
    orthogonality_row,
    product_mean,
    prop1_fractions,
    prop4_row,
    valid_specs,
)


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
    # the pointwise average of conftest's `product_mean`, the oracle of
    # Prop 3's period tally, against the exact mean
    def test_coprime_case(self):
        assert product_mean(DIRICHLET, 2, 3, 6) == 0

    def test_unitary_2_4_period_average(self):
        for k in (1, 2, 25):
            assert product_mean(UNITARY, 2, 4, 4 * k) == 1

    def test_diagonal_period_average(self, any_system):
        for r in (1, 4, 6, 9):
            assert product_mean(any_system, r, r, 3 * r) == phi_A(any_system, r)

    def test_matches_exact_at_period_multiples(self, any_system):
        rng = random.Random(23)
        for _ in range(40):
            r, s = rng.randint(1, 30), rng.randint(1, 30)
            x = lcm(r, s) * rng.randint(1, 3)
            assert product_mean(any_system, r, s, x) == mean_product_exact(
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
        w = prop4_row(system_from_dict(SPEC_A), 100)
        assert (w["p"], w["t"]) == (11, 2)

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
        # a pair whose mean is zero is orthogonal: TestOrthogonalityRows
        ((_, rows, passed),) = check_propositions(["prop3"], UNITARY, 4, 1)
        assert rows[3] == ["U", 4, 4, 3, "3", "diagonal"]
        assert rows[-1] == ["U", 2, 4, 1, "1", "violating"] and passed


def is_A_even(system, h, r, n_max):
    """True iff h(n) = h((n, r)_A) for every n <= n_max: the brute-force
    oracle for the divisor checks of f and g in Prop 4's row."""
    if n_max < r:
        raise ValueError(f"n_max must be >= r, got n_max={n_max}, r={r}")
    return all(h(n) == h(gcd_A(system, n, r)) for n in range(1, n_max + 1))


def h_fails_all_by_scan(system, h, pt, r_max):
    """h is A-even mod no r <= r_max, each r scanned over 4 lcm(r, p^t)
    values of n: the oracle for the witness's one certificate per modulus."""
    return all(not is_A_even(system, h, r, 4 * lcm(r, pt)) for r in range(1, r_max + 1))


def witness_functions(w):
    """f(n) = (n, p)_A, g(n) = (n, p^t)_A and h = f + g of the witness, a
    row of conftest's `prop4_row`."""
    p = w["p"]
    pt = p ** w["t"]

    def f(n):
        return p if n % p == 0 else 1

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
    # Prop 4's row through conftest's `prop4_row`: p, t, the case values,
    # r_checked and one pass flag, each check read against a scan
    def test_dirichlet_not_applicable(self):
        assert prop4_row(DIRICHLET, 100) is None
        assert check_propositions(["prop4"], DIRICHLET, 100, 1) == [
            (["system", "status"], [["D", "not-applicable"]], True)]

    @pytest.mark.parametrize("system", [UNITARY, MIX], ids=["U", "MIX"])
    def test_witness_at_two(self, system):
        w = prop4_row(system, 100)
        assert (w["p"], w["t"]) == (2, 2)
        assert (w["h_high"], w["h_mid"], w["h_low"]) == (6, 3, 2)
        assert w["r_checked"] == 100
        assert w["passed"] and w["pass"] == "true"
        assert 2 not in divisor_set(system, 4)

    def test_summands_individually_even(self):
        w = prop4_row(UNITARY, 100)
        p, pt = w["p"], w["p"] ** w["t"]
        f, g, h = witness_functions(w)
        assert is_A_even(UNITARY, f, p, 8 * p)
        assert is_A_even(UNITARY, g, pt, 8 * pt)
        assert not is_A_even(UNITARY, h, 12, 4 * lcm(12, 4))
        assert (h(pt), h(p), h(1)) == (w["h_high"], w["h_mid"], w["h_low"])

    def test_custom_system(self, custom_system):
        # unitary-default: the smallest high-type prime power is 2^2
        w = prop4_row(custom_system, 50)
        assert (w["p"], w["t"]) == (2, 2)
        assert w["passed"] and w["r_checked"] == 50

    @pytest.mark.parametrize("system", [UNITARY, MIX, system_from_dict(SPEC_A),
                                        system_from_dict(SPEC_B)], ids=["U", "MIX", "A", "B"])
    def test_certificates_match_the_scan(self, system):
        w = prop4_row(system, 100)
        p, pt = w["p"], w["p"] ** w["t"]
        f, g, h = witness_functions(w)
        assert is_A_even(system, f, p, 4 * p)
        assert is_A_even(system, g, pt, 4 * pt)
        assert h_fails_all_by_scan(system, h, pt, 100)
        assert p not in divisor_set(system, pt)
        assert w["passed"] and w["pass"] == "true"

    @pytest.mark.parametrize("system", [UNITARY, MIX, system_from_dict(SPEC_A),
                                        system_from_dict(SPEC_B)], ids=["U", "MIX", "A", "B"])
    def test_two_gcd_calls_per_modulus(self, count_calls, system):
        # t + 3 for the evenness of f and g, then two per modulus r <= r_max;
        # each witness here is at p^2
        calls = count_calls(verify, "gcd_A")
        w = prop4_row(system, 100)
        assert w["passed"] and len(calls) == 2 * 100 + w["t"] + 3 == 205

    @pytest.mark.parametrize("broken", ["core", "certificate at r = 6"])
    def test_each_check_decides_the_flag(self, broken, monkeypatch):
        # p in A(p^t), or one modulus whose certificate n_r is its own
        # (n_r, r)_A, fails the row and the table
        if broken == "core":
            monkeypatch.setattr(verify, "divisor_set", lambda system, n: divisors(n))
        else:
            real = verify.gcd_A
            monkeypatch.setattr(verify, "gcd_A", lambda system, n, r: n if r == 6 else real(system, n, r))
        w = prop4_row(UNITARY, 100)
        assert (w["p"], w["t"], w["r_checked"]) == (2, 2, 100)
        assert not w["passed"] and w["pass"] == "false"

    @pytest.mark.parametrize("r_max", [0, -1])
    def test_no_vacuous_pass(self, r_max):
        # an empty range of moduli would make every certificate hold vacuously
        for system in (UNITARY, DIRICHLET):
            with pytest.raises(ValueError, match=f"r_max must be >= 1, got {r_max}"):
                check_propositions(["prop4"], system, r_max, 1)


class TestOrthogonalityRows:
    """Prop 3's rows, each tallied over one period L = lcm(r, s) of the
    kernel's columns, against conftest's `orthogonality_row`, whose tally
    reads c_A pointwise."""

    @pytest.mark.parametrize("system, r_max", [
        (DIRICHLET, 1), (DIRICHLET, 30), (UNITARY, 1), (UNITARY, 3), (UNITARY, 30),
        (MIX, 30), (system_from_dict(SPEC_A), 130), (system_from_dict(SPEC_B), 30),
    ], ids=["D-1", "D-30", "U-1", "U-3", "U-30", "MIX-30", "A-130", "B-30"])
    def test_rows_equal_the_reference(self, system, r_max):
        ((header, rows, passed),) = check_propositions(["prop3"], system, r_max, 1)
        hit = find_orthogonality_violation(system, r_max)
        want = [orthogonality_row(system, r, r) for r in range(1, r_max + 1)]
        want.append(orthogonality_row(system, *hit[:2]) if hit else
                    [system.label(), 0, 0, 0, "0", "none-found"])
        assert_same_cells(header, rows, want)
        assert passed

    @given(valid_specs(), st.integers(1, 12))
    @settings(max_examples=60, deadline=None)
    def test_rows_equal_the_reference_on_valid_systems(self, spec, r_max):
        system = system_from_dict(spec, name="T")
        assume(all(within_bound(system, r) for r in range(1, r_max + 1)))
        ((header, rows, passed),) = check_propositions(["prop3"], system, r_max, 1)
        assert rows[:r_max] == [orthogonality_row(system, r, r) for r in range(1, r_max + 1)]
        assert passed

    @pytest.mark.parametrize("system", [DIRICHLET, UNITARY, MIX], ids=["D", "U", "MIX"])
    @pytest.mark.parametrize("r", [2, 3, 12])
    def test_a_mean_off_by_one_fails_its_row(self, system, r, monkeypatch):
        # the tally is L times the true mean, so a wrong exact mean on one
        # diagonal row fails the table and shows in that row's cell alone
        real = verify.mean_product_exact
        monkeypatch.setattr(verify, "mean_product_exact",
                            lambda sy, a, b: real(sy, a, b) + (a == b == r))
        ((_, rows, passed),) = check_propositions(["prop3"], system, 12, 1)
        monkeypatch.undo()
        ((_, want, _),) = check_propositions(["prop3"], system, 12, 1)
        assert not passed
        want[r - 1][3] += 1
        assert rows == want

    def test_a_row_passes_on_L_times_the_mean(self, monkeypatch):
        # the tally over L = r on the diagonal is r phi_A(r), never phi_A(r)
        # once r > 1; an exact mean equal to the tally itself fails
        monkeypatch.setattr(verify, "mean_product_exact",
                            lambda sy, a, b: (a == b) * a * phi_A(sy, a))
        ((_, rows, passed),) = check_propositions(["prop3"], DIRICHLET, 2, 1)
        assert rows[1][3:5] == [2, "1"] and not passed
        ((_, rows, passed),) = check_propositions(["prop3"], DIRICHLET, 1, 1)
        assert passed

    @pytest.mark.parametrize("system", [DIRICHLET, UNITARY], ids=["D", "U"])
    def test_a_pair_with_zero_mean_is_no_violation(self, system, monkeypatch):
        # the pair the search returns must have a nonzero mean: (2, 3) is
        # orthogonal, so its row's tally agrees and still the table fails
        monkeypatch.setattr(verify, "find_orthogonality_violation", lambda *args: (2, 3, 1))
        ((_, rows, passed),) = check_propositions(["prop3"], system, 4, 1)
        assert rows[-1] == [system.label(), 2, 3, 0, "0", "orthogonal"]
        assert not passed

    @pytest.mark.parametrize("system, r_max, pair", [
        (UNITARY, 4, (2, 4)), (UNITARY, 50, (2, 4)), (MIX, 50, (2, 4)), (DIRICHLET, 50, None),
    ], ids=["U-4", "U-50", "MIX-50", "D-50"])
    def test_cost_one_column_per_diagonal_modulus(self, system, r_max, pair, count_calls):
        # one column per diagonal modulus, two for the violating pair, and
        # one exact mean per row: r_max + 2 and r_max + 1 under U, r_max
        # and r_max under D
        columns = count_calls(verify, "c_A_column")
        means = count_calls(verify, "mean_product_exact")
        ((_, rows, passed),) = check_propositions(["prop3"], system, r_max, 1)
        diagonal = [(system, r, r) for r in range(1, r_max + 1)]
        if pair is None:
            assert columns == diagonal and len(columns) == r_max
            assert means == diagonal and len(means) == r_max
        else:
            r, s = pair
            assert columns == diagonal + [(system, r, s), (system, s, s)]
            assert len(columns) == r_max + 2
            assert means == diagonal + [(system, r, s)] and len(means) == r_max + 1
        assert passed and len(rows) == r_max + 1


class TestCheckPropositionsRefusals:
    # each input that would pass with nothing checked is refused before any
    # check runs

    @pytest.fixture
    def refuse(self, monkeypatch):
        # every entry of the table keeps its flag, and its check fails the test
        def refuse(*args):
            raise AssertionError("a check ran on refused input")

        for name, (_, reads_extra) in list(CHECKS.items()):
            monkeypatch.setitem(CHECKS, name, (refuse, reads_extra))

    @pytest.mark.parametrize("names", [["prop5"], ["prop1", "all"], ["prop3", "Prop4"]])
    def test_unknown_name(self, names, refuse):
        bad = next(name for name in names if name not in CHECKS)
        with pytest.raises(ValueError, match=f"unknown proposition {bad!r}"):
            check_propositions(names, UNITARY, 10, 10)

    @pytest.mark.parametrize("names", [["prop1"], ["prop2"], ["prop3"], ["prop4"], tuple(CHECKS)])
    @pytest.mark.parametrize("r_max, x_max, refused", [
        (0, 10, "r_max must be >= 1, got 0"), (-3, 10, "r_max must be >= 1, got -3"),
        (10, 0, "x_max must be >= 1, got 0"), (0, 0, "r_max must be >= 1, got 0"),
        (10, -1, "x_max must be >= 1, got -1"),
    ])
    def test_bounds_below_one(self, names, r_max, x_max, refused, refuse):
        with pytest.raises(ValueError, match=f"^{refused}$"):
            check_propositions(names, UNITARY, r_max, x_max)

    @pytest.mark.parametrize("names", ["prop3", "prop", "", "all"])
    def test_a_str_is_not_a_list_of_names(self, names, refuse):
        # iterated, "prop3" would name 'p', and "" would check nothing
        refused = f"names must be a sequence of proposition names, not the str {names!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(refused)}$"):
            check_propositions(names, UNITARY, 10, 10)

    @pytest.mark.parametrize("names", [["prop2"], ["prop3"], ["prop4"], ["prop2", "prop4"], []])
    def test_an_extra_no_named_check_reads(self, names, refuse):
        # only Prop 1 reads the extra function: without it, the extra would
        # pass unchecked
        extra = c_A_even(DIRICHLET, 6)
        refused = f"no check of {names} reads extra: it would pass unchecked"
        with pytest.raises(ValueError, match=f"^{re.escape(refused)}$"):
            check_propositions(names, DIRICHLET, 5, 5, extra)

    def test_every_name_at_one(self):
        tables = check_propositions(tuple(CHECKS), UNITARY, 1, 1)
        assert len(tables) == 4 and all(passed for _, _, passed in tables)


class TestMeanValueCheck:
    """Prop 1's quantities of one function: its tally, mean and bound."""

    def test_trivial_function(self):
        f = c_A_even(DIRICHLET, 1)
        xs = [1, 10, 500]
        mean, _, tallies, _ = prop1_fractions(f, xs)
        assert tallies == [mean * x for x in xs] == xs

    def test_progression_totient_mod_2(self):
        from ramlab.even import progression_totient_even, progression_totient_mean

        f = progression_totient_even(1, 2)
        mean, bound, (tally,), _ = prop1_fractions(f, [10**4])
        assert mean == progression_totient_mean(1, 2)
        assert abs(tally - mean * 10**4) <= bound

    def test_random_rational_on_36(self):
        rng = random.Random(8)
        f = EvenFunction.from_callable(
            36, lambda d: Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        )
        xs = [10**3, 10**4]
        mean, bound, tallies, _ = prop1_fractions(f, xs)
        assert all(abs(tally - mean * x) <= bound for x, tally in zip(xs, tallies))

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
        # the oracle side: no phi, c_A, per-prime pass, coefficients or form;
        # f's stored form is swapped for one that refuses any use
        def refuse(*args):
            raise AssertionError("the tally used the closed form's machinery")

        class Refused:
            __iter__ = __len__ = __getitem__ = __bool__ = __eq__ = __hash__ = __getattr__ = refuse

        f = EvenFunction.from_callable(360, lambda d: Fraction(d % 7 - 3, d % 5 + 1))
        for module, name in [(even, "_per_prime"), (even, "fourier_coeffs"),
                             (even, "mean_and_bound"), (verify, "phi_A"),
                             (verify, "mean_and_bound"), (verify, "partial_sum_numerators")]:
            monkeypatch.setattr(module, name, refuse)
        vars(f)["_form"] = form = Refused()
        sums, scale = verify._tally(f, [7, 360, 1000])
        assert vars(f)["_form"] is form
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
        # side, all from the one per-prime pass and integer scaling that
        # built the function
        calls = count_calls(even, "_per_prime")
        f = make()
        rows, passed = verify._mean_rows(f, [100, 1000])
        assert passed and len(rows) == 2
        assert [r for _, r in calls] == [360]


class TestPartialSums:
    """Prop 2's rows: c_A_sum against its bound psi_A(r) and the period tally."""

    def test_prop2_reads_each_bound_once_per_modulus(self, count_calls):
        # psi_A once per r and c_A_sum once per r, for all six x of its rows;
        # the tally reads the kernel's column, never c_A_sum
        bounds = count_calls(verify, "psi_A")
        sums = count_calls(verify, "c_A_sum")
        ((_, rows, passed),) = check_propositions(["prop2"], UNITARY, 50, 1000)
        assert passed and len(rows) == 50 * 6
        assert [r for _, r in bounds] == list(range(1, 51))
        assert [r for _, r, _ in sums] == list(range(1, 51))
        assert {tuple(xs) for _, _, xs in sums} == {(1, 2, 3, 10, 100, 1000)}

    def test_prop2_fails_exactly_the_rows_past_a_zero_bound(self, monkeypatch):
        # with psi_A read as 0 a row may pass only with a zero residual: the
        # bound half of the rule decides, as the tally half still holds
        monkeypatch.setattr(verify, "psi_A", lambda system, r: 0)
        ((_, rows, passed),) = check_propositions(["prop2"], MIX, 30, 1000)
        flags = [row[-1] for row in rows]
        assert not passed and {row[5] for row in rows} == {0}
        assert flags == ["true" if row[4] == 0 else "false" for row in rows]
        assert set(flags) == {"true", "false"}


PRIME_POWERS = (2, 4, 64, 256, 3, 27, 243, 5, 125, 7, 343, 11, 121, 397)
VALUES = {
    "int": st.integers(min_value=-10**6, max_value=10**6),
    "Fraction": st.fractions(max_denominator=50),
}


def full_loop_sum(f: EvenFunction, x: int):
    """The tally over every n <= x: the reference for `verify._tally`."""
    counts = Counter(gcd(n, f.r) for n in range(1, x + 1))
    return sum((f.value_map[d] * c for d, c in counts.items()), Fraction(0))


class TestMeanValueCheckTally:
    """The one-period tally against the loop over every n <= x."""

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_equals_full_loop(self, data):
        # one unsorted x list with repeats, over 0, an x < r, r, a multiple
        # q r and a q r + rest, under D, U, MIX, random valid systems and
        # untagged values on every divisor. Each of these tally mutants
        # fails it: segment bounds off by one, the full period's prefix
        # read for an x < r, and the rest of an x >= r read at min(x, r)
        r = data.draw(
            st.one_of(st.just(1), st.sampled_from(PRIME_POWERS), st.integers(1, 400)), label="r"
        )
        kind = data.draw(st.sampled_from(sorted(VALUES)), label="kind")
        system = data.draw(st.one_of(st.none(), SYSTEMS), label="system")
        if system is None:
            divs = divisors(r)
            vals = data.draw(st.lists(VALUES[kind], min_size=len(divs), max_size=len(divs)))
            f = EvenFunction.from_values(r, dict(zip(divs, vals)))
        else:
            # A-even: one value per element of A(r), read through (d, r)_A
            assume(within_bound(system, r))
            a_divs = divisor_set(system, r)
            vals = data.draw(st.lists(VALUES[kind], min_size=len(a_divs), max_size=len(a_divs)))
            by_class = dict(zip(a_divs, vals))
            f = EvenFunction.from_callable(r, lambda d: by_class[gcd_A(system, d, r)], system)
        q = data.draw(st.integers(1, 6), label="q")
        shapes = [0, data.draw(st.integers(0, r - 1), label="x < r"), r, q * r,
                  q * r + data.draw(st.integers(0, r - 1), label="rest")]
        repeats = data.draw(st.lists(st.sampled_from(shapes), max_size=4), label="repeats")
        xs = data.draw(st.permutations(shapes + repeats), label="xs")
        sums, scale = verify._tally(f, xs)
        assert [Fraction(s, scale) for s in sums] == [full_loop_sum(f, x) for x in xs]

    @pytest.mark.parametrize("r", [1, 12, 397, 5040])
    @pytest.mark.parametrize(
        "shape",
        [
            lambda r: [],
            lambda r: [0],
            lambda r: [r // 2, 1, r // 2, 0],
            lambda r: [5 * r + 3, r, 0, 2 * r, r - 1, 5 * r + 3],
            lambda r: [10**12 + 396, 7, 10**12],
        ],
        ids=["empty", "zero", "below r", "at and past r", "huge"],
    )
    def test_one_pass_for_the_whole_list(self, r, shape, count_calls):
        # every x of the list shares one pass over n <= min(max x, r): a
        # tally that counts one period per x fails at the call past it
        xs = shape(r)
        limit = min(max(xs, default=0), r)
        calls = count_calls(verify, "gcd", limit=limit)
        f = EvenFunction.from_callable(r, lambda d: Fraction(d % 7 - 3, d % 5 + 1))
        _, _, tallies, sums = prop1_fractions(f, xs)
        assert len(calls) == limit
        assert tallies == sums and len(sums) == len(xs)

    @pytest.mark.parametrize("system", [DIRICHLET, UNITARY, MIX], ids=lambda s: s.name)
    def test_one_domain_with_the_closed_forms(self, system, monkeypatch):
        # the oracle takes every int x >= 0 with S(0) = 0, as the two closed
        # forms do, and refuses anything else before any gcd
        def value(d):
            g = gcd_A(system, d, 12)
            return Fraction(g % 7 - 3, g % 5 + 1)

        f, g = c_A_even(system, 12), EvenFunction.from_callable(12, value, system)
        xs = [0, 1, 11, 12, 13, 1000, 0]
        assert verify._tally(f, xs) == (c_A_sum(system, 12, xs), 1)
        assert verify._tally(f, [0]) == ([0], 1)
        assert partial_sum_numerators(f, [0]) == [0] == c_A_sum(system, 12, [0])
        assert verify._tally(g, [0])[0] == [0] == partial_sum_numerators(g, [0])

        def refuse(*args):
            raise AssertionError("tallied before refusing")

        monkeypatch.setattr(verify, "gcd", refuse)
        for x in (-1, 2.5, 3.0, True, Fraction(7)):
            with pytest.raises(ValueError, match=re.escape(f"x must be an int >= 0, got {x!r}")):
                verify._tally(g, [12, x])

    @pytest.mark.parametrize("r", [1, 397, 360, 5040])
    @pytest.mark.parametrize("x", [10**12, 10**12 + 396])
    def test_gcd_calls_are_bounded_by_the_period(self, r, x, count_calls):
        # at most 2r gcd calls, the one past them failing at once rather
        # than running a loop over every n <= x
        count_calls(verify, "gcd", limit=2 * r)
        f = EvenFunction.from_callable(r, lambda d: Fraction(d % 7 - 3, d % 5 + 1))
        _, _, (tally,), (exact,) = prop1_fractions(f, [x])
        assert tally == exact


    def test_refuses_past_the_tally_budget_before_any_tally(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("tallied past the budget")

        cap = MAX_ORACLE_TALLY
        f = EvenFunction.from_callable(2**24, lambda d: Fraction(1, d))
        monkeypatch.setattr("ramlab.verify.gcd", refuse)
        # min(x, r) is what the tally pays; the first x is fine and still untallied
        with pytest.raises(ValueError, match=f"needs min\\(x, r\\) at most {cap}"):
            verify._tally(f, [100, cap + 1])
        monkeypatch.undo()
        small = EvenFunction.from_callable(12, lambda d: d)
        _, _, (tally,), (exact,) = prop1_fractions(small, [10**15])
        assert tally == exact


def reference_rows(f: EvenFunction, xs: list[int]) -> list[list]:
    """Prop 1's rows of one function composed in Fractions, as the battery
    made them before it decided in integers: a row passes when the
    brute-force sum is within its bound of the main term and equals the
    closed form."""
    mean, bound, tallies, sums = prop1_fractions(f, xs)
    rows = []
    for x, tally, exact in zip(xs, tallies, sums, strict=True):
        residual = tally - mean * x
        ok = abs(residual) <= bound and exact == tally
        rows.append([f.r, x, tally, mean * x, residual, bound, "true" if ok else "false"])
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


def within_bound(system: RegularSystem, r: int) -> bool:
    try:
        divisor_set(system, r)
    except ExponentOutOfScopeError:
        return False
    return True


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
        # the battery reads every modulus up to r_max, so r_max stays below
        # the first one past a table prime's exponent bound
        limit = 1
        while limit < 12 and within_bound(system, limit + 1):
            limit += 1
        r_max = data.draw(st.integers(1, limit), label="r_max")
        header, rows, passed, want = battery_and_reference(system, r_max, x_max, extra)
        assert_same_cells(header, rows, want)
        assert passed == all(row[-1] == "true" for row in want)

    @pytest.mark.parametrize("corrupt", ["closed form", "mean", "bound"])
    def test_a_corrupted_side_fails_the_same_rows(self, corrupt, monkeypatch):
        # each corruption rebinds the name in both modules, so the reference
        # (through even, in `prop1_fractions`) and the rows (through verify)
        # read it alike
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
    @pytest.mark.parametrize("system, claimed, verdict, ok", [
        (UNITARY, (2, 4, 0), "violating", True), (DIRICHLET, (2, 4, 5), "orthogonal", False),
    ], ids=["U", "D"])
    def test_verdict_is_derived(self, system, claimed, verdict, ok, monkeypatch):
        # a nonzero mean on the diagonal is no violation, and r != s decides
        # by the exact mean alone, not by the mean the search claimed, so a
        # contradictory verdict cannot be built
        monkeypatch.setattr(verify, "find_orthogonality_violation", lambda *args: claimed)
        ((_, rows, passed),) = check_propositions(["prop3"], system, 4, 1)
        assert {row[-1] for row in rows[:4]} == {"diagonal"}
        assert rows[-1][1:3] == [2, 4] and rows[-1][-1] == verdict and passed == ok

    @pytest.mark.parametrize("record", ["RegularSystem", "EvenFunction", "FourierCoeffs"])
    def test_every_record_is_immutable(self, record):
        f = c_A_even(UNITARY, 12)
        coeffs = fourier_coeffs(f)
        rec, fields = {
            "RegularSystem": (MIX, ("types", "default", "a_max", "name")),
            "EvenFunction": (f, ("r", "values", "system")),
            "FourierCoeffs": (coeffs, coeffs._fields),
        }[record]
        for field in fields:
            before = getattr(rec, field)
            with pytest.raises(AttributeError):
                setattr(rec, field, before)
            with pytest.raises(AttributeError):
                delattr(rec, field)
            assert getattr(rec, field) is before

    def test_result_records_are_tuples_of_their_fields(self):
        # the one result record is a NamedTuple: iterable, and equal to the
        # tuple of its fields
        assert issubclass(FourierCoeffs, tuple)
        coeffs = fourier_coeffs(c_A_even(UNITARY, 12))
        fields = tuple(getattr(coeffs, name) for name in coeffs._fields)
        assert coeffs == fields and list(coeffs) == list(fields)
