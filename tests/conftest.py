from math import prod

import pytest
from hypothesis import strategies as st

from ramlab.arith import factorize
from ramlab.even import EvenFunction
from ramlab.gensums import c_A
from ramlab.systems import DIRICHLET, MIX, UNITARY, system_from_dict

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


# Test-side oracles. The package computes phi as phi_A under D and sigma(n)
# as sum(divisors(n)); these are the classical per-prime formulas.
def euler_phi(n):
    """Euler totient, multiplicative with phi(p^a) = p^a - p^(a-1)."""
    return prod(p**a - p ** (a - 1) for p, a in factorize(n))


def sigma(n):
    """Sum of the positive divisors of n, multiplicative with
    sigma(p^a) = (p^(a+1) - 1) / (p - 1)."""
    return prod((p ** (a + 1) - 1) // (p - 1) for p, a in factorize(n))


def reconstruct(coeffs):
    """The A-even function n -> sum_{d in A(r)} h(d) c_A(n, d) that the
    `FourierCoeffs` describe, tagged with the system they were computed in."""
    def value(n):
        return sum(hd * c_A(coeffs.system, n, d) for d, hd in coeffs.h)

    return EvenFunction.from_callable(coeffs.r, value, coeffs.system)
