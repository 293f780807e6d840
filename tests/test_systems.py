import json
import pickle
import random
import re
import time
from math import gcd, prod
from pathlib import Path
from typing import Callable, NamedTuple

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ramlab import arith, systems
from ramlab.arith import divisors, factorize, primes_up_to
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
    load_system,
    mu_A,
    phi_A,
    prime_power_types,
    psi_A,
    system_from_dict,
)
from ramlab.verify import MAX_WITNESS_WORK

from conftest import CUSTOM_OK, PRIMES, euler_phi, prop4_row, sigma, valid_specs


FIELDS = ("types", "default", "a_max", "name")


def fields_of(system, **changes):
    """The keyword arguments that rebuild `system`, with `changes` applied."""
    return {**{field: getattr(system, field) for field in FIELDS}, **changes}


def refused(**fields):
    """The violations construction raises for these fields."""
    with pytest.raises(InvalidSystemError) as exc:
        RegularSystem(**fields)
    return exc.value.violations


class TestValidate:
    def test_dirichlet_ok(self):
        # rebuilding each built-in from its fields passes construction again
        for system in (DIRICHLET, UNITARY, MIX):
            assert RegularSystem(**fields_of(system)) == system

    def test_custom_ok(self, custom_system):
        assert RegularSystem(**fields_of(custom_system)) == custom_system

    def test_equal_and_hash_equal_by_fields(self):
        twin = RegularSystem(**fields_of(MIX))
        assert twin is not MIX and twin == MIX and hash(twin) == hash(MIX)
        assert RegularSystem(**fields_of(MIX, name="other")) != MIX
        assert MIX != fields_of(MIX) and MIX != tuple(fields_of(MIX).values())

    def test_pickle_rebuilds_a_smuggled_system_from_its_fields(self):
        # made without the constructor, with a compiled table and a hash
        # that disagree with its fields, it pickles by the fields alone: the
        # copy is validated, compiled and hashed afresh
        smuggled = object.__new__(RegularSystem)
        for slot, value in zip((*FIELDS, "_rows", "_hash"),
                               ((), "unitary-default", 16, "U", {2: {2: 1}}, 0)):
            object.__setattr__(smuggled, slot, value)
        assert smuggled.type_of(2, 2) == 1 and hash(smuggled) == 0
        copy = pickle.loads(pickle.dumps(smuggled))
        assert copy == UNITARY and hash(copy) == hash(UNITARY)
        assert copy.type_of(2, 2) == 2

    def test_non_divisor_type(self):
        violations = refused(types=((2, 4, 3),))
        assert len(violations) == 1
        assert "3 does not divide exponent 4" in violations[0]

    def test_chain_violation(self):
        # type 1 at 2^4 forces type 1 at 2^2, contradicting the table; the
        # broken link is 2^3 (type 1 by the Dirichlet default) -> 2^2
        violations = refused(types=((2, 2, 2), (2, 4, 1)))
        assert any("chain violation at p=2" in v for v in violations)
        assert violations == [
            "chain violation at p=2: type 1 of 2^3 forces type 1 at 2^2, found 2"
        ]

    def test_chain_violation_names_each_broken_link(self):
        # unitary default: 3^6 of type 2 needs 3^4 of type 2 (found 4) and
        # 3^4 needs 3^2 (found 2, fine); 3^3 of type 1 needs 3^2 of type 1
        assert refused(
            types=((3, 2, 2), (3, 3, 1), (3, 4, 4), (3, 6, 2)), default="unitary-default"
        ) == [
            "chain violation at p=3: type 1 of 3^3 forces type 1 at 3^2, found 2",
            "chain violation at p=3: type 2 of 3^6 forces type 2 at 3^4, found 4",
        ]

    def test_cost_does_not_depend_on_the_exponent_bound(self):
        # one link per entry: an exponent bound of 10^18 is as cheap as 16
        for default in ("dirichlet-default", "unitary-default"):
            system = RegularSystem(types=((2, 1, 1), (2, 10**18, 10**18)),
                                   default=default, a_max=10**18)
            assert system.type_of(2, 10**18 - 1) == (1 if default == "dirichlet-default"
                                                     else 10**18 - 1)
        assert refused(types=((2, 10**18, 1),), default="unitary-default", a_max=10**18) == [
            f"chain violation at p=2: type 1 of 2^{10**18} forces type 1 at "
            f"2^{10**18 - 1}, found {10**18 - 1}"
        ]

    def test_reports_all_violations(self):
        assert len(refused(types=((2, 4, 3), (3, 2, 4), (7, 20, 1)))) == 3

    @pytest.mark.parametrize(
        "entry",
        [(2.0, 1, 1), (2, 1, True), (2, "4", 1), (2, 4)],
        ids=["float prime", "bool type", "str exponent", "two fields"],
    )
    def test_malformed_entry(self, entry):
        # without the shape check each would build a system, or fail as a
        # bare TypeError or an unpacking ValueError
        assert refused(types=(entry,)) == [
            f"malformed entry {entry!r}: must be a tuple (p, a, t) of three integers"
        ]

    def test_types_must_be_a_tuple(self):
        # a list would be refused only when hashed, as a bare TypeError
        assert refused(types=[(2, 1, 1)]) == ["types must be a tuple of (p, a, t) entries, got list"]

    def test_name_must_be_a_str(self):
        assert refused(name=["D"]) == ["name must be a str, got ['D']"]

    def test_unknown_default_rule(self):
        assert refused(default="other") == ["unknown default rule 'other'"]

    def test_invalid_system_rejected_by_operations(self, tmp_path):
        # every construction path refuses the same broken table with the same
        # list: the constructor, a rebuild from another system's fields, the
        # loader, a spec file and a pickle written from a system that never
        # passed the constructor
        expected = ["type 3 does not divide exponent 4 at prime power 2^4"]
        spec = {"types": [{"p": 2, "a": 4, "t": 3}]}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(spec))
        smuggled = object.__new__(RegularSystem)
        for field, value in zip(FIELDS, (((2, 4, 3),), "dirichlet-default", 16, "")):
            object.__setattr__(smuggled, field, value)
        paths = [
            lambda: RegularSystem(types=((2, 4, 3),)),
            lambda: RegularSystem(**fields_of(DIRICHLET, types=((2, 4, 3),))),
            lambda: system_from_dict(spec),
            lambda: load_system(str(path)),
            lambda: pickle.loads(pickle.dumps(smuggled)),
        ]
        for build in paths:
            with pytest.raises(InvalidSystemError) as exc:
                build()
            assert exc.value.violations == expected


class Table(NamedTuple):
    """A type table as drawn, before any validation: the fields a
    RegularSystem is built from."""

    types: tuple[tuple[int, int, int], ...]
    default: str
    a_max: int


def type_of(table, p, a):
    """The type of p^a read straight off a table (a Table or a system), in
    RegularSystem.type_of's terms: the first entry for p^a, else the default
    rule's; a table prime refuses exponents above the bound."""
    entries = [t for q, b, t in table.types if q == p]
    if entries and a > table.a_max:
        raise ExponentOutOfScopeError(f"{p}^{a}")
    found = [t for q, b, t in table.types if (q, b) == (p, a)]
    return found[0] if found else (a if table.default == "unitary-default" else 1)


def full_chain_violations(table):
    """The chain check as a loop over every exponent a <= a_max at each
    table prime, walking the whole chain p^(it), i <= a/t: the form the
    checker had before it checked one link per entry. Returns the (p, a)
    whose chain breaks."""
    broken = []
    for p in sorted({p for p, _, _ in table.types}):
        for a in range(1, table.a_max + 1):
            t = type_of(table, p, a)
            if any(type_of(table, p, i * t) != t for i in range(1, a // t + 1)):
                broken.append((p, a))
    return broken


def high_types_by_loop(table):
    """high_types as a loop over a = 2..a_max at each table prime (the form
    it had before it read the entries), plus a = 2 at the smallest prime
    without an entry under the unitary default."""
    table_primes = sorted({p for p, _, _ in table.types})
    found = []
    for p in table_primes:
        a = next((a for a in range(2, table.a_max + 1) if type_of(table, p, a) > 1), None)
        if a is not None:
            found.append((p, a))
    if table.default == "unitary-default":
        found.append((next(p for p in primes_up_to(50) if p not in table_primes), 2))
    return found


def random_table(rng):
    """A table that passes the checker's shape checks (prime p, t | a <= a_max,
    one type per p^a) but need not satisfy the chain rule."""
    a_max = rng.randint(1, 8)
    entries = tuple(
        (p, a, rng.choice([t for t in range(1, a + 1) if a % t == 0]))
        for p in rng.sample((2, 3, 5, 7), rng.randint(0, 3))
        for a in rng.sample(range(1, a_max + 1), rng.randint(0, a_max))
    )
    default = rng.choice(("dirichlet-default", "unitary-default"))
    return Table(entries, default, a_max)


class TestAgainstTheLoops:
    def test_validate_verdict_matches_full_chain_loop(self):
        rng = random.Random(2024)
        verdicts = []
        for _ in range(10000):
            table = random_table(rng)
            try:
                system = RegularSystem(*table)
            except InvalidSystemError:
                system = None
            verdict = system is None
            assert verdict == bool(full_chain_violations(table)), table
            verdicts.append(verdict)
            if not verdict:
                assert list(system.high_types()) == high_types_by_loop(table), table
        # both verdicts are exercised (3866 of the 10000 tables are invalid)
        assert 2000 < sum(verdicts) < 8000

    @given(valid_specs())
    @settings(max_examples=200, deadline=None)
    def test_valid_specs(self, spec):
        system = system_from_dict(spec)
        assert full_chain_violations(system) == []
        assert list(system.high_types()) == high_types_by_loop(system)
        assert all(type_of(system, p, a) == system.type_of(p, a)
                   for p, a, _ in system.types)


class TestCompiledSystem:
    def test_equal_systems_hash_equal(self, custom_system):
        twin = system_from_dict(CUSTOM_OK, name="T")
        assert twin == custom_system and twin is not custom_system
        assert hash(twin) == hash(custom_system)
        assert {twin: 1}[custom_system] == 1

    def test_pickle_round_trip(self):
        for system in (DIRICHLET, UNITARY, MIX):
            copy = pickle.loads(pickle.dumps(system))
            assert copy == system and hash(copy) == hash(system)
            assert copy.type_of(2, 3) == system.type_of(2, 3)

    def test_type_lookup(self, custom_system):
        assert [custom_system.type_of(5, a) for a in range(1, 7)] == [1, 2, 3, 2, 5, 6]
        assert [MIX.type_of(2, a) for a in range(1, 5)] == [1, 2, 3, 4]
        assert MIX.type_of(3, 4) == 1

    def test_exponent_bound_holds_only_at_table_primes(self, custom_system):
        # a prime without a table entry follows the default rule at every exponent
        assert MIX.type_of(3, 17) == 1 and MIX.type_of(3, 10**6) == 1
        assert custom_system.type_of(7, 17) == 17
        assert DIRICHLET.type_of(2, 10**6) == 1 and UNITARY.type_of(2, 10**6) == 10**6
        for system, p in ((MIX, 2), (custom_system, 5)):
            with pytest.raises(ExponentOutOfScopeError, match=f"{p}\\^17 exceeds"):
                system.type_of(p, 17)


def witness_power(system):
    """(p, t) of the Prop 4 witness, None when not applicable."""
    w = prop4_row(system, 1)
    return None if w is None else (w["p"], w["t"])


def refusal(*powers):
    return ("prop4: every prime power of type > 1 exceeds the witness budget "
            f"{MAX_WITNESS_WORK}: " + ", ".join(f"{p}^{a}" for p, a in powers))


class TestWitnessPrimePower:
    @pytest.mark.parametrize(
        "spec, expected",
        [
            ({"kind": "dirichlet"}, None),
            ({"kind": "unitary"}, (2, 2)),
            ({"kind": "custom", "default": "dirichlet-default", "types": []}, None),
            (CUSTOM_OK, (2, 2)),
            # Dirichlet at 2 and 3 under the unitary default: 5^2 comes first
            ({"kind": "custom", "default": "unitary-default", "a_max": 3,
              "types": [{"p": p, "a": a, "t": 1} for p in (2, 3) for a in (1, 2, 3)]},
             (5, 2)),
            # unitary at 101 only, beyond any small-prime search
            ({"kind": "custom", "default": "dirichlet-default",
              "types": [{"p": 101, "a": a, "t": a} for a in range(1, 17)]},
             (101, 2)),
            # types > 1 only at powers of 3, with 3^3 of type 3
            ({"kind": "custom", "default": "dirichlet-default", "a_max": 4,
              "types": [{"p": 3, "a": a, "t": t} for a, t in ((2, 2), (3, 3), (4, 2))]},
             (3, 2)),
            # the exponent bound holds only at table primes: with no entry,
            # 2^2 has type 2 under the unitary default
            ({"kind": "custom", "default": "unitary-default", "a_max": 1, "types": []},
             (2, 2)),
            # 2 is a table prime bounded at 1, so the first type > 1 is 3^2
            ({"default": "unitary-default", "a_max": 1, "types": [{"p": 2, "a": 1, "t": 1}]},
             (3, 2)),
        ],
    )
    def test_examples(self, spec, expected):
        assert witness_power(system_from_dict(spec)) == expected

    @staticmethod
    def two_table_primes(p, a, q, b):
        # Dirichlet default; p^e and q^e of type e from a and b up to the bound
        top = max(a, b)
        return system_from_dict({"a_max": top, "types": [
            {"p": r, "a": e, "t": e} for r, k in ((p, a), (q, b)) for e in range(k, top + 1)]})

    def assert_refused_at_once(self, system, *powers):
        start = time.perf_counter()
        with pytest.raises(ValueError) as exc:
            prop4_row(system, 100)
        assert time.perf_counter() - start < 1.0
        assert str(exc.value) == refusal(*powers)

    @given(st.sampled_from([2, 3, 5, 7, 11, 101, 9973]), st.sampled_from([2, 3, 5, 13, 97]),
           st.integers(2, 80), st.integers(2, 80))
    @settings(max_examples=200, deadline=None)
    def test_smallest_power_inside_the_budget(self, p, q, a, b):
        assume(p != q)
        system = self.two_table_primes(p, a, q, b)
        fits = [(r**e, r, e) for r, e in ((p, a), (q, b)) if r**e <= MAX_WITNESS_WORK]
        if fits:
            assert witness_power(system) == min(fits)[1:]
        else:
            self.assert_refused_at_once(system, *sorted(((p, a), (q, b))))

    def test_near_equal_powers_inside_the_budget(self):
        # 2^19 and 3^12, from the continued fraction of log2(3), within 1.4 %
        assert 3**12 <= MAX_WITNESS_WORK
        assert witness_power(self.two_table_primes(2, 19, 3, 12)) == (2, 19)

    @pytest.mark.parametrize("a, b", [(84, 53), (485, 306), (1054, 665)])
    def test_near_equal_powers_beyond_the_budget(self, a, b):
        self.assert_refused_at_once(self.two_table_primes(2, a, 3, b), (2, a), (3, b))

    def test_exponents_near_the_loader_limit(self):
        # 2^(10^18) and 3^(10^18) could never be built
        system = self.two_table_primes(3, 10**18, 2, 10**18)
        self.assert_refused_at_once(system, (2, 10**18), (3, 10**18))

    def test_builtins(self):
        assert witness_power(DIRICHLET) is None
        assert witness_power(MIX) == witness_power(UNITARY) == (2, 2)

    def test_unitary_states_the_unitary_default(self):
        # D and U are the empty table under each default rule
        assert UNITARY == RegularSystem(default="unitary-default", name="U")
        assert DIRICHLET == RegularSystem(name="D")
        assert DIRICHLET.types == UNITARY.types == ()
        bare = RegularSystem(default="unitary-default")
        assert witness_power(bare) == witness_power(UNITARY)


class TestDivisorSet:
    def test_examples(self):
        assert divisor_set(DIRICHLET, 12) == (1, 2, 3, 4, 6, 12)
        assert divisor_set(UNITARY, 12) == (1, 3, 4, 12)
        assert divisor_set(UNITARY, 16) == (1, 16)

    def test_unitary_law_to_2000(self):
        for n in range(1, 2001):
            expected = tuple(d for d in divisors(n) if gcd(d, n // d) == 1)
            assert divisor_set(UNITARY, n) == expected

    def test_subset_and_endpoints(self, any_system):
        for n in range(1, 300):
            members = divisor_set(any_system, n)
            assert members[0] == 1 and members[-1] == n
            assert set(members) <= set(divisors(n))

    def test_multiplicative_assembly(self, any_system):
        rng = random.Random(7)
        for _ in range(200):
            m, n = rng.randint(1, 100), rng.randint(1, 100)
            if gcd(m, n) != 1:
                continue
            prod = {
                d * e
                for d in divisor_set(any_system, m)
                for e in divisor_set(any_system, n)
            }
            assert set(divisor_set(any_system, m * n)) == prod

    def test_out_of_scope_exponent(self, custom_system):
        with pytest.raises(ExponentOutOfScopeError, match="5\\^17"):
            divisor_set(custom_system, 5**17)


class TestGcdA:
    def test_examples(self):
        assert gcd_A(DIRICHLET, 8, 12) == gcd(8, 12) == 4
        assert gcd_A(UNITARY, 2, 4) == 1
        assert gcd_A(UNITARY, 8, 4) == 4

    def test_zero_k(self, any_system):
        for r in (1, 4, 12, 36):
            assert gcd_A(any_system, 0, r) == r

    def test_dirichlet_is_gcd(self):
        for k in range(1, 100):
            for r in range(1, 100):
                assert gcd_A(DIRICHLET, k, r) == gcd(k, r)

    def test_lists_no_divisors(self, any_system, custom_system, count_calls):
        # gcd_A steps along each chain of A(r): a divisor list of r, or of
        # A(r), fails at its first call
        count_calls(systems, "divisor_set", limit=0)
        count_calls(arith, "divisors", limit=0)
        for system in (any_system, custom_system):
            for r in (1, 12, 360, 5**4 * 7, 2**12 * 3**5):
                for k in (0, 1, 4, 6, r, 2 * r, 10**12):
                    assert r % gcd_A(system, k, r) == 0


def convolve_A(
    system: RegularSystem,
    f: Callable[[int], int],
    g: Callable[[int], int],
    n_max: int,
) -> list:
    """The A-convolution (f *_A g)(n) = sum_{d in A(n)} f(d) g(n/d) on 1..n_max.

    Returns a list indexed by n (index 0 unused).
    """
    out = [0] * (n_max + 1)
    for n in range(1, n_max + 1):
        out[n] = sum(f(d) * g(n // d) for d in divisor_set(system, n))
    return out


class TestConvolution:
    def test_dirichlet_unit_counts_divisors(self):
        one = lambda n: 1
        res = convolve_A(DIRICHLET, one, one, 100)
        for n in range(1, 101):
            assert res[n] == len(divisors(n))

    def test_unitary_unit_counts_unitary_divisors(self):
        one = lambda n: 1
        res = convolve_A(UNITARY, one, one, 20)
        assert res[12] == 4

    def test_delta_is_unity(self, any_system):
        delta = lambda n: 1 if n == 1 else 0
        f = lambda n: n * n - 3 * n + 1
        res = convolve_A(any_system, f, delta, 150)
        assert res[1:] == [f(n) for n in range(1, 151)]

    def test_commutative_and_associative(self, any_system):
        rng = random.Random(13)
        n_max = 200
        fv = [0] + [rng.randint(-5, 5) for _ in range(n_max)]
        gv = [0] + [rng.randint(-5, 5) for _ in range(n_max)]
        hv = [0] + [rng.randint(-5, 5) for _ in range(n_max)]
        f, g, h = fv.__getitem__, gv.__getitem__, hv.__getitem__
        fg = convolve_A(any_system, f, g, n_max)
        gf = convolve_A(any_system, g, f, n_max)
        assert fg == gf
        fg_h = convolve_A(any_system, fg.__getitem__, h, n_max)
        gh = convolve_A(any_system, g, h, n_max)
        f_gh = convolve_A(any_system, f, gh.__getitem__, n_max)
        assert fg_h == f_gh


class TestMultiplicativeFunctions:
    def test_mu_examples(self):
        assert mu_A(DIRICHLET, 12) == 0
        assert mu_A(UNITARY, 4) == -1
        assert mu_A(UNITARY, 12) == 1

    def test_moebius_inversion(self, any_system):
        one = lambda n: 1
        mu = lambda n: mu_A(any_system, n)
        res = convolve_A(any_system, one, mu, 2000)
        assert res[1] == 1
        assert all(v == 0 for v in res[2:])

    def test_moebius_inversion_custom(self, custom_system):
        one = lambda n: 1
        mu = lambda n: mu_A(custom_system, n)
        res = convolve_A(custom_system, one, mu, 2000)
        assert res[1] == 1
        assert all(v == 0 for v in res[2:])

    def test_phi_examples(self):
        for r in range(1, 1001):
            assert phi_A(DIRICHLET, r) == euler_phi(r)
        assert phi_A(UNITARY, 4) == 3
        assert phi_A(UNITARY, 12) == 6

    def test_phi_counts_coprime_residues(self, any_system):
        for r in range(1, 2001):
            # k has (k, r)_A = 1 iff no member > 1 of A(r) divides it
            marked = bytearray(r + 1)
            for d in divisor_set(any_system, r):
                if d > 1:
                    for m in range(d, r + 1, d):
                        marked[m] = 1
            assert phi_A(any_system, r) == r - sum(marked[1:])

    def test_gamma_examples(self):
        assert gamma_A(DIRICHLET, 8) == 8
        assert gamma_A(UNITARY, 8) == 2
        assert gamma_A(UNITARY, 12) == 6

    def test_psi_examples(self):
        assert psi_A(DIRICHLET, 4) == 6
        assert psi_A(UNITARY, 4) == 5

    def test_psi_bounded_by_sigma(self, any_system):
        for r in range(1, 1001):
            assert psi_A(any_system, r) <= sigma(r)

    def test_value_at_one(self, any_system):
        assert mu_A(any_system, 1) == 1
        assert phi_A(any_system, 1) == 1
        assert gamma_A(any_system, 1) == 1
        assert psi_A(any_system, 1) == 1

    @given(valid_specs(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_local_factors_on_valid_specs(self, spec, data):
        # each local factor against the exponent form, and the four functions
        # against their definitions over A(r): sum of mu_A over A(r) is [r = 1],
        # phi_A = sum d mu_A(r/d) and psi_A = sum d |mu_A(r/d)|
        system = system_from_dict(spec)
        exps = data.draw(st.lists(st.integers(0, spec["a_max"]), min_size=4, max_size=4))
        r = prod(p**e for p, e in zip(PRIMES, exps))
        local = [(p, a, system.type_of(p, a)) for p, a in factorize(r)]
        assert prime_power_types(system, r) == tuple(
            (p, a, t, p**a, p ** (a - t)) for p, a, t in local
        )
        assert gamma_A(system, r) == prod(p ** (a - t + 1) for p, a, t in local)
        members = divisor_set(system, r)
        assert sum(mu_A(system, d) for d in members) == (r == 1)
        assert phi_A(system, r) == sum(d * mu_A(system, r // d) for d in members)
        assert psi_A(system, r) == sum(d * abs(mu_A(system, r // d)) for d in members)

    @given(
        st.integers(min_value=1, max_value=500),
        st.integers(min_value=1, max_value=500),
    )
    @settings(max_examples=200, deadline=None)
    def test_multiplicative(self, m, n):
        if gcd(m, n) != 1:
            return
        for system in (DIRICHLET, UNITARY, MIX):
            for f in (mu_A, phi_A, gamma_A, psi_A):
                assert f(system, m * n) == f(system, m) * f(system, n)


class TestLoader:
    def test_builtin_names(self):
        assert load_system("D") is DIRICHLET
        assert load_system("U") is UNITARY
        assert load_system("MIX") is MIX

    def test_json_file_round_trip(self, tmp_path, custom_system):
        path = tmp_path / "sys.json"
        path.write_text(json.dumps(CUSTOM_OK))
        loaded = load_system(str(path))
        assert loaded.types == custom_system.types
        assert loaded.default == custom_system.default

    def test_invalid_file_lists_violations(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"kind": "custom", "types": [{"p": 2, "a": 4, "t": 3}]}))
        with pytest.raises(InvalidSystemError) as exc:
            load_system(str(path))
        assert any("does not divide" in v for v in exc.value.violations)

    def test_missing_file(self):
        with pytest.raises(InvalidSystemError):
            load_system("/nonexistent/spec.json")

    def test_not_json(self, tmp_path):
        path = tmp_path / "garbage.json"
        path.write_text("{not json")
        with pytest.raises(InvalidSystemError):
            load_system(str(path))

    def test_unknown_kind(self):
        with pytest.raises(InvalidSystemError):
            system_from_dict({"kind": "cross"})

    def test_kind_tag_still_accepted(self):
        assert system_from_dict({"kind": "dirichlet"}) is DIRICHLET
        assert system_from_dict({"kind": "unitary"}) is UNITARY
        assert system_from_dict({"kind": "custom"}) == RegularSystem()

    @pytest.mark.parametrize(
        "spec, keys",
        [
            # a table and an invalid bound beside a kind that takes neither
            ({"kind": "dirichlet", "types": [{"p": 2, "a": 2, "t": 2}], "a_max": 0},
             ["types", "a_max"]),
            ({"kind": "unitary", "default": "unitary-default"}, ["default"]),
            ({"typez": [{"p": 2, "a": 2, "t": 2}]}, ["typez"]),
            ({"kind": "custom", "name": "x", "a_max": 4}, ["name"]),
        ],
    )
    def test_refuses_keys_it_would_ignore(self, spec, keys):
        with pytest.raises(InvalidSystemError) as exc:
            system_from_dict(spec)
        assert exc.value.violations == [
            f"unexpected key {key!r} for kind {spec.get('kind', 'custom')!r}" for key in keys
        ]

    def test_unknown_default(self):
        with pytest.raises(InvalidSystemError):
            system_from_dict({"kind": "custom", "default": "other"})

    @pytest.mark.parametrize(
        "spec, message",
        [
            ({"types": [{"p": 4, "a": 2, "t": 1}]}, "4, which is not a prime"),
            ({"types": [{"p": 91, "a": 1, "t": 1}]}, "91, which is not a prime"),
            ({"a_max": 0}, "exponent bound must be >= 1, got 0"),
            ({"a_max": -3}, "exponent bound must be >= 1, got -3"),
            ({"a_max": "x"}, "exponent bound must be an integer, got 'x'"),
            ({"a_max": 2.5}, "exponent bound must be an integer, got 2.5"),
            ({"types": [{"p": "x", "a": 1, "t": 1}]}, "malformed types table"),
            ({"types": [{"p": 2.5, "a": 1, "t": 1}]}, "p must be an integer, got 2.5"),
            ({"types": [{"p": 3, "a": 1.5, "t": 1}]}, "a must be an integer, got 1.5"),
            ({"types": [{"p": 3, "a": 2, "t": 0.5}]}, "t must be an integer, got 0.5"),
            ({"types": [{"p": 3, "a": True, "t": 1}]}, "a must be an integer, got True"),
            ({"types": [{"p": 2, "a": 1, "t": False}]}, "t must be an integer, got False"),
            ({"types": [{"p": float("inf"), "a": 1, "t": 1}]}, "p must be an integer, got inf"),
            ([{"p": 2, "a": 1, "t": 1}], "must be a JSON object"),
            ({"types": [{"p": "5", "a": 1, "t": 1}]}, "p must be an integer, got '5'"),
            ({"types": [{"p": 2, "a": 1, "t": None}]}, "t must be an integer, got None"),
            ({"types": [{"p": 2, "a": 2, "t": 2, "rule": "unitary"}]},
             "malformed types table: entry {'p': 2, 'a': 2, 't': 2, 'rule': 'unitary'} "
             "must be an object with exactly the keys p, a, t"),
            ({"types": [{"p": 2, "a": 2}]},
             "entry {'p': 2, 'a': 2} must be an object with exactly the keys p, a, t"),
            ({"types": [[2, 2, 2]]},
             "entry [2, 2, 2] must be an object with exactly the keys p, a, t"),
            ({"types": {"p": 2, "a": 2, "t": 2}}, "malformed types table: types must be a list"),
            ({"a_max": True}, "exponent bound must be an integer, got True"),
            ({"a_max": "4"}, "exponent bound must be an integer, got '4'"),
            ({"a_max": float("inf")}, "exponent bound must be an integer, got inf"),
            ({"a_max": float("nan")}, "exponent bound must be an integer, got nan"),
        ],
    )
    def test_bad_spec_lists_violation(self, spec, message):
        with pytest.raises(InvalidSystemError) as exc:
            system_from_dict(spec)
        assert any(message in v for v in exc.value.violations)

    @pytest.mark.parametrize(
        "types, message",
        [
            ([{"p": 1, "a": 1, "t": 1}], "malformed entry (p=1, a=1, t=1)"),
            ([{"p": 2, "a": 0, "t": 1}], "malformed entry (p=2, a=0, t=1)"),
            ([{"p": 2, "a": 2, "t": 1}, {"p": 2, "a": 2, "t": 2}],
             "conflicting types for prime power 2^2"),
        ],
        ids=["p below 2", "a below 1", "conflicting types"],
    )
    def test_entry_refusals_are_exact(self, types, message):
        with pytest.raises(InvalidSystemError) as exc:
            system_from_dict({"types": types})
        assert exc.value.violations == [message]

    @pytest.mark.parametrize("a_max", [1.0, 3.0, 16.0, 1e18])
    def test_integral_a_max_reads_as_an_integer_like_an_entry(self, a_max):
        # JSON may write an integer as 3.0 or 1e18: a_max reads it as p, a
        # and t do, and the system equals the one spelled with ints
        system = system_from_dict({"a_max": a_max, "types": [{"p": 2.0, "a": 1.0, "t": 1}]})
        assert type(system.a_max) is int
        assert system == system_from_dict({"a_max": int(a_max), "types": [{"p": 2, "a": 1, "t": 1}]})

    def test_constructor_still_refuses_a_float_a_max(self):
        # only the JSON loader reads an integral number; a RegularSystem
        # built directly takes an int
        with pytest.raises(InvalidSystemError) as exc:
            RegularSystem(a_max=2.0)
        assert exc.value.violations == ["declared exponent bound must be an integer, got 2.0"]

    def test_readme_examples_load(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        blocks = re.findall(r"```json\n(.*?)```", readme, re.S)
        assert blocks
        for block in blocks:
            system_from_dict(json.loads(block))
