"""The multiplicative c_A kernel and the A-functions on random valid systems.

The strategy `conftest.valid_specs` draws custom systems that satisfy the
chain rule (type t at p^a forces type t at every p^(it), i <= a/t), under
both default rules.
On each one the kernel must agree with the divisor, core and oracle
routes, and mu_A, phi_A, psi_A, gamma_A and the partial sum c_A_sum with
definitions built directly from A(r).
"""

import time
from math import gcd, prod

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ramlab.arith import divisors, factorize, primes_up_to, ramanujan_c
from ramlab.gensums import c_A, c_A_column, c_A_core, c_A_divisor, c_A_grid, c_A_oracle
from ramlab.systems import (
    DIRICHLET,
    MIX,
    UNITARY,
    ExponentOutOfScopeError,
    InvalidSystemError,
    RegularSystem,
    divisor_set,
    gamma_A,
    gcd_A,
    mu_A,
    multiplicative_table,
    phi_A,
    psi_A,
    system_from_dict,
)
from ramlab.verify import mean_product_exact

from conftest import c_A_sum_at, prop4_row, valid_specs
from test_verify import h_fails_all_by_scan, is_A_even, witness_functions


def _type_or_none(system, p, a):
    """The type of p^a, or None where the system refuses the exponent."""
    try:
        return system.type_of(p, a)
    except ExponentOutOfScopeError:
        return None


def _modulus(data, system, limit=3000):
    r = data.draw(st.integers(min_value=1, max_value=limit), label="r")
    assume(all(_type_or_none(system, p, a) is not None for p, a in factorize(r)))
    return r


@given(valid_specs(), st.data())
@settings(max_examples=150, deadline=None)
def test_kernel_matches_divisor_and_core(spec, data):
    system = system_from_dict(spec)
    r = _modulus(data, system, limit=20000)
    for _ in range(5):
        n = data.draw(st.integers(1, 1000), label="k") * data.draw(
            st.sampled_from(divisors(r)), label="d"
        )
        assert c_A(system, n, r) == c_A_divisor(system, n, r) == c_A_core(system, n, r)
    assert c_A_column(system, r, 60) == [c_A_divisor(system, n, r) for n in range(1, 61)]


@given(valid_specs(), st.data())
@settings(max_examples=100, deadline=None)
def test_oracle_counts_the_defining_sum_exactly(spec, data):
    # n over two periods, and three n far past them
    system = system_from_dict(spec)
    r = _modulus(data, system, limit=119)
    ns = [*range(1, 2 * r + 1), *(data.draw(st.integers(1, 10**12), label="n") for _ in range(3))]
    for n in ns:
        assert c_A_oracle(system, n, r) == c_A(system, n, r), n


@given(valid_specs(), st.data())
@settings(max_examples=100, deadline=None)
def test_A_functions_against_definitions(spec, data):
    system = system_from_dict(spec)
    r = _modulus(data, system)
    members = divisor_set(system, r)
    assert phi_A(system, r) == sum(1 for k in range(1, r + 1) if gcd_A(system, k, r) == 1)
    assert sum(mu_A(system, d) for d in members) == (1 if r == 1 else 0)
    assert psi_A(system, r) == sum(abs(mu_A(system, d)) * (r // d) for d in members)
    # the largest member with mu_A != 0 is the product of the p^t; dividing
    # r * rad(r) by it leaves p^(a - t + 1) at each prime power
    kernel = max(d for d in members if mu_A(system, d) != 0)
    radical = prod(p for p, _ in factorize(r))
    assert gamma_A(system, r) == r * radical // kernel


# The list-then-filter forms of gcd_A and the three exact sums: each lists
# a whole divisor set and keeps the members its formula sums, the oracles
# that the bounded enumerations in the package must match.
def _gcd_A_by_scan(system, k, r):
    return max(d for d in divisor_set(system, r) if k % d == 0)


def _c_A_divisor_by_filter(system, n, r):
    return sum(d * mu_A(system, r // d) for d in divisor_set(system, r) if n % d == 0)


def _c_A_core_by_filter(system, n, r):
    g = gamma_A(system, r)
    return sum(ramanujan_c(n, d) for d in divisors(r) if d % g == 0)


def _mean_product_by_filter(system, r, s):
    gr, gs = gamma_A(system, r), gamma_A(system, s)
    return sum(phi_A(DIRICHLET, d) for d in divisors(gcd(r, s)) if d % gr == 0 and d % gs == 0)


@given(valid_specs(), st.data())
@settings(max_examples=100, deadline=None)
def test_gcd_A_per_prime_matches_the_scan(spec, data):
    # k = 0 included: every chain is then taken whole
    system = system_from_dict(spec)
    r = _modulus(data, system, limit=1000)
    for k in range(3 * r + 1):
        assert gcd_A(system, k, r) == _gcd_A_by_scan(system, k, r), k


@given(valid_specs(), st.data())
@settings(max_examples=100, deadline=None)
def test_exact_routes_match_their_list_then_filter_forms(spec, data):
    system = system_from_dict(spec)
    r = _modulus(data, system)
    ns = [1, r, *(data.draw(st.integers(1, 3 * r), label="n") for _ in range(3))]
    ns += [d * data.draw(st.integers(1, 30), label="k") for d in divisor_set(system, r)[-3:]]
    for n in ns:
        assert c_A_divisor(system, n, r) == _c_A_divisor_by_filter(system, n, r), n
        assert c_A_core(system, n, r) == _c_A_core_by_filter(system, n, r), n
    # `shared` has a divisor of r, so the common divisors can reach both cores
    shared = data.draw(st.sampled_from(divisors(r)), label="d") * data.draw(st.integers(1, 30))
    for s in (r, shared, _modulus(data, system)):
        if all(_type_or_none(system, p, a) is not None for p, a in factorize(s)):
            assert mean_product_exact(system, r, s) == _mean_product_by_filter(system, r, s), s


@given(valid_specs(), st.data())
@settings(max_examples=100, deadline=None)
def test_partial_sum_against_full_closed_form(spec, data):
    # c_A_sum keeps only the members d with mu_A(r/d) != 0
    system = system_from_dict(spec)
    r = _modulus(data, system)
    members = divisor_set(system, r)
    for x in (0, 1, data.draw(st.integers(2, 5000), label="x")):
        full = sum(d * mu_A(system, r // d) * (x // d) for d in members)
        assert c_A_sum_at(system, r, x) == full
    assert c_A_sum_at(system, r, 60) == sum(c_A_column(system, r, 60))


@given(valid_specs(), st.data())
@settings(max_examples=100, deadline=None)
def test_column_repeats_one_period(spec, data):
    # c_A_column evaluates n = 1..min(r, n_max) and repeats it; check every
    # n against c_A below, at and past one period, whole and cut short
    system = system_from_dict(spec)
    r = _modulus(data, system, limit=300)
    k = data.draw(st.integers(2, 3), label="k")
    lengths = [data.draw(st.integers(0, r - 1), label="below"), r, k * r]
    if r > 1:
        lengths.append(k * r + data.draw(st.integers(1, r - 1), label="rest"))
    for n_max in lengths:
        assert c_A_column(system, r, n_max) == [c_A(system, n, r) for n in range(1, n_max + 1)]


BIG_PRIME = 999999999989  # the largest prime below 10^12


@pytest.mark.parametrize(
    "system, r, n_max",
    [
        (system, r, n_max)
        for system in (DIRICHLET, UNITARY, MIX)
        for r, n_max in (
            (2**40, 5),
            (3**25, 5),
            (BIG_PRIME, 5),
            (2**3 * BIG_PRIME, 20),
            (2**16 * 3**20, 12),
        )
        if not (system is MIX and r == 2**40)  # MIX refuses 2^17 and above
    ],
    ids=lambda v: getattr(v, "name", str(v)),
)
def test_column_far_below_its_prime_powers(system, r, n_max):
    # n_max far below p^a: each local factor is built over n_max values, so
    # the column takes no time and memory of order p^a
    expected = [c_A_divisor(system, n, r) for n in range(1, n_max + 1)]
    start = time.perf_counter()
    assert c_A_column(system, r, n_max) == expected
    assert time.perf_counter() - start < 0.5


A_FUNCTIONS = {"muA": mu_A, "phiA": phi_A, "psiA": psi_A, "gammaA": gamma_A}


def _per_modulus_tables(system, r_max, n_max):
    """Each table as the functions of one modulus build it, r = 1..r_max,
    and the message of the first modulus the system refuses, if any."""
    tables = {"cA": []} | {what: [] for what in A_FUNCTIONS}
    for r in range(1, r_max + 1):
        try:
            row = {"cA": c_A_column(system, r, n_max)} | {
                what: [fn(system, r)] for what, fn in A_FUNCTIONS.items()}
        except ExponentOutOfScopeError as exc:
            return tables, str(exc)
        for what, values in row.items():
            tables[what] += values
    return tables, None


def _assert_tables_match_per_modulus(system, r_max, n_max):
    # every table from the one walk equals the per-modulus functions', and
    # one the system refuses is refused with the same message
    tables, refused = _per_modulus_tables(system, r_max, n_max)
    build = {"cA": lambda: c_A_grid(system, r_max, n_max)} | {
        what: (lambda what=what: list(multiplicative_table(system, what, r_max)))
        for what in A_FUNCTIONS}
    for what, want in tables.items():
        if refused:
            with pytest.raises(ExponentOutOfScopeError) as exc:
                build[what]()
            assert str(exc.value) == refused, what
        else:
            assert build[what]() == want, what


@pytest.mark.parametrize("r_max, n_max", [(1, 1), (1, 9), (2, 1), (64, 1), (60, 7), (130, 130),
                                          (17, 400)])
def test_tables_match_per_modulus(any_system, r_max, n_max):
    _assert_tables_match_per_modulus(any_system, r_max, n_max)


@given(valid_specs(), st.integers(1, 300), st.integers(1, 40))
@settings(max_examples=80, deadline=None)
def test_tables_match_per_modulus_on_valid_systems(spec, r_max, n_max):
    _assert_tables_match_per_modulus(system_from_dict(spec), r_max, n_max)


def test_kernel_rejects_invalid_system():
    # the kernel never meets an invalid table: building one is refused
    with pytest.raises(InvalidSystemError) as exc:
        RegularSystem(types=((2, 4, 3),))
    assert exc.value.violations == ["type 3 does not divide exponent 4 at prime power 2^4"]


def test_kernel_exponent_bound_message(custom_system):
    messages = []
    for route in (c_A, c_A_divisor):
        with pytest.raises(ExponentOutOfScopeError, match="5\\^17") as exc:
            route(custom_system, 1, 5**17)
        messages.append(str(exc.value))
    assert messages[0] == messages[1]


def test_kernel_rejects_bad_input():
    with pytest.raises(ValueError):
        c_A(DIRICHLET, 0, 4)
    with pytest.raises(ValueError):
        c_A_column(DIRICHLET, 0, 4)
    with pytest.raises(ValueError):
        c_A_sum_at(DIRICHLET, 4, -1)


# every p^a with a >= 2 up to 7^6, the largest table entry the strategy draws;
# its table holds at most three of 2, 3, 5, 7, so under the unitary default
# some p <= 7 has no entry and p^2 of type 2, also below that bound
HIGH_POWERS = sorted(
    (p**a, p, a) for p in primes_up_to(7**3) for a in range(2, 7) if p**a <= 7**6
)


@given(valid_specs())
@settings(max_examples=150, deadline=None)
def test_witness_matches_scan(spec):
    system = system_from_dict(spec)
    # asks type_of at every prime power and skips only what it refuses
    scan = next(
        ((p, a, t) for _, p, a in HIGH_POWERS
         if (t := _type_or_none(system, p, a)) is not None and t > 1),
        None,
    )
    # every r <= r_max stays inside each table prime's exponent bound
    table_primes = {entry["p"] for entry in spec["types"]}
    r_max = min([30] + [p ** (spec["a_max"] + 1) - 1 for p in table_primes])
    w = prop4_row(system, r_max)
    assert (None if w is None else (w["p"], w["t"], w["t"])) == scan  # t == a
    if w is None:
        return
    p, pt = w["p"], w["p"] ** w["t"]
    f, g, h = witness_functions(w)
    assert (w["h_high"], w["h_mid"], w["h_low"], w["r_checked"]) == (p + pt, p + 1, 2, r_max)
    assert w["passed"] == (is_A_even(system, f, p, 4 * p) and is_A_even(system, g, pt, 4 * pt)
                           and h_fails_all_by_scan(system, h, pt, r_max)
                           and p not in divisor_set(system, pt))
    assert w["passed"] and w["pass"] == "true"
