from fractions import Fraction
from math import lcm, prod

import pytest
from hypothesis import strategies as st

from ramlab import even, gensums, verify
from ramlab.arith import factorize
from ramlab.even import EvenFunction
from ramlab.gensums import c_A, c_A_divisor
from ramlab.systems import DIRICHLET, MIX, UNITARY, ExponentOutOfScopeError, system_from_dict

# unitary-default with one non-trivial table entry: types at 5 are
# 1, 2, 3, 2, 5, 6, ... (exponent 4 demoted to type 2)
CUSTOM_OK = {
    "kind": "custom",
    "default": "unitary-default",
    "a_max": 16,
    "types": [{"p": 5, "a": 4, "t": 2}],
}

# Dirichlet default; 2^a of type 1 for a <= 6 and of type a after, 11^a of
# type a for a >= 2. The smallest prime power of type > 1 is 11^2, but the
# pair (2, 2^7) has the smaller sum 130 < 11 + 11^2
SPEC_A = {
    "kind": "custom",
    "default": "dirichlet-default",
    "a_max": 16,
    "types": [{"p": 2, "a": a, "t": a} for a in range(7, 17)]
    + [{"p": 11, "a": a, "t": a} for a in range(2, 17)],
}

# 3^a of type 1 for a <= 2 and of type a after, 5^a of type a for a >= 2:
# the pairs (3, 3^3) and (5, 5^2) tie at sum 30
SPEC_B = {
    "kind": "custom",
    "default": "dirichlet-default",
    "a_max": 16,
    "types": [{"p": 3, "a": a, "t": a} for a in range(3, 17)]
    + [{"p": 5, "a": a, "t": a} for a in range(2, 17)],
}


@pytest.fixture(scope="session")
def custom_system():
    return system_from_dict(CUSTOM_OK, name="T")


@pytest.fixture(scope="session", params=["D", "U", "MIX"])
def any_system(request):
    return {"D": DIRICHLET, "U": UNITARY, "MIX": MIX}[request.param]


@pytest.fixture
def count_calls(monkeypatch):
    """`count_calls(module, name)` rebinds `module.name` to a wrapper that
    calls it and records each call's arguments, and returns that list of
    argument tuples. With `limit`, the call past the limit fails at once,
    so a test of a bound never runs the unbounded loop it guards against."""
    def install(module, name, limit=None):
        calls, real = [], getattr(module, name)

        def counted(*args):
            calls.append(args)
            assert limit is None or len(calls) <= limit, f"more than {limit} calls to {name}"
            return real(*args)

        monkeypatch.setattr(module, name, counted)
        return calls

    return install


def c_A_sum_at(system, r, x):
    """sum_{n<=x} c_A(n, r) at one x, by the x-list `gensums.c_A_sum` read
    through its module, so a test that rebinds it there reaches this too."""
    return gensums.c_A_sum(system, r, [x])[0]


PRIMES = (2, 3, 5, 7)
DEFAULT_TYPE = {"dirichlet-default": lambda a: 1, "unitary-default": lambda a: a}


@st.composite
def valid_specs(draw):
    """A JSON-shaped custom system spec that satisfies the chain rule."""
    a_max = draw(st.integers(min_value=1, max_value=6))
    default = draw(st.sampled_from(sorted(DEFAULT_TYPE)))
    entries = []
    for p in draw(st.lists(st.sampled_from(PRIMES), unique=True, max_size=3)):
        types = {}
        for a in range(1, a_max + 1):
            # t may be the type of p^a once p^t, ..., p^(a-t) all have type t
            allowed = [
                t for t in range(1, a + 1)
                if a % t == 0 and all(types[i * t] == t for i in range(1, a // t))
            ]
            types[a] = draw(st.sampled_from(allowed))
        for a, t in types.items():
            # entries equal to the default rule may be left out or spelled out
            if t != DEFAULT_TYPE[default](a) or draw(st.booleans()):
                entries.append({"p": p, "a": a, "t": t})
    return {"kind": "custom", "default": default, "a_max": a_max, "types": entries}


RATIONAL_VALUES = {
    "int": st.integers(min_value=-10**6, max_value=10**6),
    "fraction": st.fractions(min_value=-1000, max_value=1000, max_denominator=100),
}
RATIONAL_VALUES["int and fraction"] = st.one_of(*RATIONAL_VALUES.values())


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


# Test-side oracles. The package computes phi as phi_A under D and sigma(n)
# as sum(divisors(n)); these are the classical per-prime formulas.
def euler_phi(n):
    """Euler totient, multiplicative with phi(p^a) = p^a - p^(a-1)."""
    return prod(p**a - p ** (a - 1) for p, a in factorize(n))


def sigma(n):
    """Sum of the positive divisors of n, multiplicative with
    sigma(p^a) = (p^(a+1) - 1) / (p - 1)."""
    return prod((p ** (a + 1) - 1) // (p - 1) for p, a in factorize(n))


def coeffs_h(coeffs):
    """The coordinates (d, h(d)) by d, each h(d) = S2(d) / denominator as a
    Fraction, from the integers the `FourierCoeffs` hold."""
    scale = coeffs.denominator
    return tuple(sorted((d, Fraction(s, scale)) for d, s in zip(coeffs.members, coeffs.numerators)))


def coeff(coeffs, q):
    """h(q) as a Fraction."""
    return dict(coeffs_h(coeffs))[q]


def reconstruct(coeffs):
    """The A-even function n -> sum_{d in A(r)} h(d) c_A(n, d) that the
    `FourierCoeffs` describe, tagged with the system they were computed in."""
    def value(n):
        return sum(hd * c_A(coeffs.system, n, d) for d, hd in coeffs_h(coeffs))

    return EvenFunction.from_callable(coeffs.r, value, coeffs.system)


def prop1_fractions(f, xs=()):
    """(mean, bound, tallies, sums): f's Prop 1 quantities as Fractions, from
    the integers the package decides by. The mean M(f) and the x-uniform
    residual bound are M / D and B / D of `even.mean_and_bound`; for each x
    in `xs`, the brute-force sum is S / L of `verify._tally` and the closed
    form T / D of `even.partial_sum_numerators`. Each is read through its
    module, so a test that rebinds one there reaches these values too."""
    mean, bound, denominator = even.mean_and_bound(f)
    tallies, scale = verify._tally(f, xs)
    sums = even.partial_sum_numerators(f, xs) if xs else []
    return (Fraction(mean, denominator), Fraction(bound, denominator),
            [Fraction(s, scale) for s in tallies], [Fraction(t, denominator) for t in sums])


def product_mean(system, r, s, x):
    """(1/x) sum_{n<=x} c_A(n, r) c_A(n, s) as a Fraction, each value read
    pointwise from `c_A_divisor`: the oracle for Prop 3's period tally, with
    no kernel column and no `mean_product_exact`."""
    return Fraction(sum(c_A_divisor(system, n, r) * c_A_divisor(system, n, s)
                        for n in range(1, x + 1)), x)


def orthogonality_row(system, r, s):
    """Prop 3's row for (r, s), composed from `verify.mean_product_exact`
    and the pointwise `product_mean` over one period lcm(r, s); the verdict
    is diagonal at r = s, else violating or orthogonal as the mean is
    nonzero or zero."""
    exact = verify.mean_product_exact(system, r, s)
    verdict = "diagonal" if r == s else "violating" if exact else "orthogonal"
    return [system.label(), r, s, exact, str(product_mean(system, r, s, lcm(r, s))), verdict]


def prop4_row(system, r_max):
    """Prop 4's one row as a dict by its header, with the table's pass flag
    under "passed", from `verify.check_propositions`; None when the system
    has no prime power of type > 1 (the not-applicable row)."""
    ((header, (row,), passed),) = verify.check_propositions(["prop4"], system, r_max, 1)
    return None if header == ["system", "status"] else {**dict(zip(header, row)), "passed": passed}
