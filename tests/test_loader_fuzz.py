"""Fuzz the JSON system loader: every spec loads or raises InvalidSystemError.

The values drawn are JSON-shaped (None, booleans, integers up to 10^18,
floats with inf and nan, text, lists and dicts) at every key a spec may
hold, plus keys it may not. Exponent bounds, exponents and types go up to
10^18, and a per-example deadline fails any path whose cost grows with
them, such as a loop up to a_max.

Primes stay at |p| <= 10^6: validation still tests primality by trial
division, so a p near 10^18 would take minutes to load. That is a known
open limit of the factorizer, not something this test checks.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from ramlab.systems import InvalidSystemError, system_from_dict
from ramlab.verify import additive_closure_witness

from conftest import valid_specs

BIG = 10**18
SMALL = 10**6

FLOATS = st.floats(allow_nan=True, allow_infinity=True)


def json_values(numbers):
    """Any JSON value whose numbers are drawn from `numbers`."""
    scalars = st.none() | st.booleans() | numbers | st.text(max_size=6)
    return st.recursive(
        scalars,
        lambda inner: st.lists(inner, max_size=3)
        | st.dictionaries(st.text(max_size=4), inner, max_size=3),
        max_leaves=8,
    )


ANY = json_values(st.integers(-BIG, BIG) | FLOATS)
# a p that reaches the primality test has |p| <= 10^6 (see the module docstring)
SMALL_NUMBERS = (
    st.integers(-SMALL, SMALL)
    | st.floats(-SMALL, SMALL)
    | st.sampled_from([math.inf, -math.inf, math.nan])
)
PRIMES = st.sampled_from([2, 3, 5, 7, 999983])
EXPONENTS = st.integers(1, 20) | st.integers(1, BIG)

ENTRIES = st.fixed_dictionaries(
    {},
    optional={
        "p": PRIMES | json_values(SMALL_NUMBERS),
        "a": EXPONENTS | ANY,
        "t": EXPONENTS | ANY,
    },
)
TYPES = st.lists(ENTRIES | json_values(SMALL_NUMBERS), max_size=6) | json_values(SMALL_NUMBERS)

SPECS = st.fixed_dictionaries(
    {},
    optional={
        "kind": st.sampled_from(["dirichlet", "unitary", "custom"]) | ANY,
        "default": st.sampled_from(["dirichlet-default", "unitary-default"]) | ANY,
        "a_max": EXPONENTS | ANY,
        "types": TYPES,
    },
)


@st.composite
def specs_with_extra_keys(draw):
    spec = draw(SPECS)
    spec.update(draw(st.dictionaries(st.text(max_size=6), ANY, max_size=2)))
    return spec


@st.composite
def valid_specs_with_raised_bound(draw):
    spec = draw(valid_specs())
    spec["a_max"] = draw(st.integers(spec["a_max"], BIG))
    return spec


def _loads_or_refuses(spec):
    # any exception other than InvalidSystemError fails the test
    try:
        system = system_from_dict(spec)
    except InvalidSystemError:
        return
    # a loaded system answers its structural queries at once, whatever a_max:
    # Prop 4's witness is built or refused for the budget, never scanned for
    try:
        additive_closure_witness(system, r_max=1)
    except ValueError as exc:
        assert "exceeds the witness budget" in str(exc)


@given(SPECS | specs_with_extra_keys() | ANY)
@settings(max_examples=250, deadline=500)
def test_json_shaped_specs_load_or_refuse(spec):
    _loads_or_refuses(spec)


@given(valid_specs_with_raised_bound())
@settings(max_examples=200, deadline=500)
def test_valid_specs_with_bounds_up_to_1e18(spec):
    # raising the bound can break a chain under the Dirichlet default (an
    # entry of type > 1 at the old bound now has type 1 above it), so
    # refusal is allowed; hanging or any other error is not
    _loads_or_refuses(spec)
