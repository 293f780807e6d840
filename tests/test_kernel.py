"""The multiplicative c_A kernel and the A-functions on random valid systems.

The strategy `conftest.valid_specs` draws custom systems that satisfy the
chain rule (type t at p^a forces type t at every p^(it), i <= a/t), under
both default rules.
On each one the kernel must agree with the divisor and core routes, and
mu_A, phi_A, psi_A, gamma_A and the partial sum c_A_sum with definitions
built directly from A(r).
"""

import time
from math import prod

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ramlab.arith import divisors, factorize, primes_up_to
from ramlab.gensums import c_A, c_A_column, c_A_core, c_A_divisor, c_A_sum
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
    phi_A,
    psi_A,
    system_from_dict,
)
from ramlab.verify import additive_closure_witness

from conftest import valid_specs
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


@given(valid_specs(), st.data())
@settings(max_examples=100, deadline=None)
def test_partial_sum_against_full_closed_form(spec, data):
    # c_A_sum keeps only the members d with mu_A(r/d) != 0
    system = system_from_dict(spec)
    r = _modulus(data, system)
    members = divisor_set(system, r)
    for x in (0, 1, data.draw(st.integers(2, 5000), label="x")):
        full = sum(d * mu_A(system, r // d) * (x // d) for d in members)
        assert c_A_sum(system, r, x) == full
    assert c_A_sum(system, r, 60) == sum(c_A_column(system, r, 60))


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
        c_A_sum(DIRICHLET, 4, -1)


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
    w = additive_closure_witness(system, r_max=r_max)
    assert (None if w is None else (w.p, w.t, w.t)) == scan  # t == a
    if w is None:
        return
    pt = w.p**w.t
    f, g, h = witness_functions(w)
    assert w.f_even == is_A_even(system, f, w.p, 4 * w.p)
    assert w.g_even == is_A_even(system, g, pt, 4 * pt)
    assert w.h_fails_all == h_fails_all_by_scan(system, h, pt, r_max)
    assert w.f_even and w.g_even and w.h_fails_all and w.core_contradiction
