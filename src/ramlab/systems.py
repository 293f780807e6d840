"""Regular systems of divisors and the multiplicative functions they induce.

A system assigns to each n a set A(n) of divisors of n, specified per prime
power by a "type" t dividing the exponent: A(p^a) = {1, p^t, p^2t, ..., p^a}.
Every system is a finite type table over a default rule, type 1 (Dirichlet:
the full divisor set) or type a (unitary divisors); D and U are the empty
table under each rule. A declared exponent bound limits only the primes the
table names. Building a system checks every invariant, from the table
entries alone.
"""

from __future__ import annotations

import json
from array import array
from functools import lru_cache
from itertools import count, starmap
from math import prod
from typing import Iterator, Sequence

from .arith import factorize, smallest_prime_powers

__all__ = [
    "RegularSystem",
    "InvalidSystemError",
    "ExponentOutOfScopeError",
    "DIRICHLET",
    "UNITARY",
    "MIX",
    "prime_power_types",
    "divisor_set",
    "gcd_A",
    "mu_A",
    "phi_A",
    "gamma_A",
    "psi_A",
    "prime_power_walk",
    "multiplicative_table",
    "system_from_dict",
    "load_system",
]

DEFAULT_A_MAX = 16


class InvalidSystemError(ValueError):
    """A system spec failed validation; .violations lists every offence."""

    def __init__(self, violations: Sequence[str]):
        super().__init__("invalid regular system: " + "; ".join(violations))
        self.violations = list(violations)


class ExponentOutOfScopeError(ValueError):
    """A system was asked about a prime power beyond its table's declared bound."""


class RegularSystem:
    """A regular system of divisor sets: a prime-power type table over a
    default rule. Construction validates it and raises InvalidSystemError
    listing every offence, so every instance is regular. An instance is
    immutable, and equal and hash equal to another by its four fields."""

    __slots__ = ("types", "default", "a_max", "name", "_rows", "_hash")

    def __init__(self, types: tuple[tuple[int, int, int], ...] = (),  # (prime, exponent, type)
                 default: str = "dirichlet-default",
                 a_max: int = DEFAULT_A_MAX,  # bounds the exponents at the table's primes
                 name: str = ""):
        # the four fields lead the slots, then the rows `_violations` fills
        for field, value in zip(self.__slots__, (types, default, a_max, name, {})):
            object.__setattr__(self, field, value)
        violations = _violations(self)
        if violations:
            raise InvalidSystemError(violations)
        # the cache key of every operation, hashed once a_max is known to be an int
        object.__setattr__(self, "_hash", hash(self._key()))

    def _key(self) -> tuple:
        return self.types, self.default, self.a_max, self.name

    def __setattr__(self, attr, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set or delete {attr!r}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        return self._key() == other._key() if other.__class__ is self.__class__ else NotImplemented

    def __repr__(self) -> str:
        return "RegularSystem(types={!r}, default={!r}, a_max={!r}, name={!r})".format(*self._key())

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # pickle by fields, so the receiving process validates and rehashes
        return (type(self), self._key())

    def type_of(self, p: int, a: int) -> int:
        """The type t of p^a, A(p^a) = {1, p^t, ..., p^a}: the table's entry,
        else the default rule's. Only a table prime has an exponent bound."""
        if a < 1:
            raise ValueError(f"exponent must be >= 1, got {a}")
        row = self._rows.get(p, {})
        if row and a > self.a_max:
            raise ExponentOutOfScopeError(
                f"prime power {p}^{a} exceeds declared exponent bound {self.a_max}"
            )
        return row.get(a, a if self.default == "unitary-default" else 1)

    def high_types(self) -> Iterator[tuple[int, int]]:
        """(p, a) for each prime p that can hold the first prime power of
        type > 1, a its smallest such exponent, of type a (p^a of type t
        forces type t at p^t): each table prime, read from its entries, and
        under the unitary default the smallest prime without an entry, a = 2."""
        unitary = self.default == "unitary-default"
        for p, row in sorted(self._rows.items()):
            high = [a for a, t in row.items() if t > 1]
            gap = next(a for a in count(2) if a not in row)
            if unitary and gap <= self.a_max:
                high.append(gap)
            if high:
                yield p, min(high)
        if unitary:
            yield next(p for p in count(2) if p not in self._rows and _is_prime(p)), 2

    def label(self) -> str:
        return self.name or "custom"


def _is_prime(p: int) -> bool:
    return factorize(p) == ((p, 1),)


def _violations(system: RegularSystem) -> list[str]:
    """Check the regularity conditions, filling `system._rows` (exponent ->
    type per table prime) as each entry passes; empty list means ok.

    The shape comes first: a float, a bool or a str in the table or name
    would otherwise pass the checks below or fail in them as a TypeError.
    Past it, every violation is reported (malformed, non-prime, out-of-bound
    or conflicting entries, a type not dividing its exponent, broken chains)
    rather than the first. By induction on a, the chain rule (type t at p^a
    forces type t at every p^(it), i <= a/t) holds iff each p^a of type
    t < a has p^(a-t) of type t. Off the table only the Dirichlet default
    makes such links, and only p^(a+1) above an entry p^a can break, so the
    cost depends on the entries, not on a_max.
    """
    if type(system.types) is not tuple:
        return [f"types must be a tuple of (p, a, t) entries, got {type(system.types).__name__}"]
    if type(system.name) is not str:
        return [f"name must be a str, got {system.name!r}"]
    malformed = [
        f"malformed entry {entry!r}: must be a tuple (p, a, t) of three integers"
        for entry in system.types
        if type(entry) is not tuple or len(entry) != 3 or any(type(v) is not int for v in entry)
    ]
    if malformed:
        return malformed
    if system.default not in ("dirichlet-default", "unitary-default"):
        return [f"unknown default rule {system.default!r}"]
    if isinstance(system.a_max, bool) or not isinstance(system.a_max, int):
        return [f"declared exponent bound must be an integer, got {system.a_max!r}"]
    if system.a_max < 1:
        return [f"declared exponent bound must be >= 1, got {system.a_max}"]
    violations = []
    rows = system._rows
    for p, a, t in system.types:
        if p < 2 or a < 1:
            violations.append(f"malformed entry (p={p}, a={a}, t={t})")
        elif not _is_prime(p):
            violations.append(f"entry (p={p}, a={a}, t={t}) names {p}, which is not a prime")
        elif a > system.a_max:
            violations.append(
                f"entry exponent {a} at prime {p} exceeds declared bound {system.a_max}"
            )
        elif t < 1 or a % t != 0:
            violations.append(f"type {t} does not divide exponent {a} at prime power {p}^{a}")
        elif rows.setdefault(p, {}).setdefault(a, t) != t:
            violations.append(f"conflicting types for prime power {p}^{a}")
    if violations:
        return violations
    # the rows now hold every entry, which type_of reads
    links = {(p, a) for p, row in rows.items() for a in row}
    if system.default != "unitary-default":
        links |= {(p, a + 1) for p, a in links if a < system.a_max}
    for p, a in sorted(links):
        t = system.type_of(p, a)
        if t < a and system.type_of(p, a - t) != t:
            violations.append(
                f"chain violation at p={p}: type {t} of {p}^{a} forces "
                f"type {t} at {p}^{a - t}, found {system.type_of(p, a - t)}"
            )
    return violations


DIRICHLET = RegularSystem(name="D")
UNITARY = RegularSystem(default="unitary-default", name="U")

# unitary behaviour at p = 2, Dirichlet everywhere else: the smallest
# built-in system outside {D, U}
MIX = RegularSystem(types=tuple((2, a, a) for a in range(1, DEFAULT_A_MAX + 1)), name="MIX")


# bounded: gcd_A, the kernel, every A-function and the divisor route's
# mu_A(r/d) read it, so moduli recur (`bench/run.py --trace 1`, seed 7: hits
# on 97 % of 636 lookups on even-fourier, 92 % of 1992 on verify-sweep and
# 57 % of 7457 on query-stream); a long run of distinct moduli cannot grow it
@lru_cache(maxsize=4096)
def prime_power_types(system: RegularSystem, n: int) -> tuple[tuple[int, ...], ...]:
    """(p, a, t, p^a, p^(a-t)) for each prime power p^a exactly dividing n,
    t its type.

    The one place where a validated system meets a factorization: every
    multiplicative function of the system is a product of local factors,
    each fixed by (p, a, t) and the two powers p^a and p^(a-t).
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    local = []
    for p, a in factorize(n):
        t = system.type_of(p, a)
        local.append((p, a, t, p**a, p ** (a - t)))
    return tuple(local)


def divisor_set(system: RegularSystem, n: int) -> tuple[int, ...]:
    """The set A(n), strictly increasing, built per prime power and
    assembled multiplicatively."""
    if n < 1:
        raise ValueError(f"divisor_set requires n >= 1, got {n}")
    members = [1]
    for p, a, t, _, _ in prime_power_types(system, n):
        chain = [p ** (i * t) for i in range(a // t + 1)]
        members = [d * e for d in members for e in chain]
    return tuple(sorted(members))


def gcd_A(system: RegularSystem, k: int, r: int) -> int:
    """The A-gcd (k, r)_A: the largest element of A(r) dividing k.

    A(r) is the product of the chains {1, p^t, ..., p^a} over p^a || r of
    type t, so (k, r)_A takes at each such p the longest head of its chain
    dividing k: p^(t floor(min(v_p(k), a) / t)). k = 0 counts as divisible
    by everything, so (0, r)_A = r.
    """
    if r < 1 or k < 0:
        raise ValueError(f"gcd_A requires r >= 1, k >= 0, got k={k}, r={r}")
    out = 1
    for p, _, t, high, _ in prime_power_types(system, r):
        step, e = p**t, 1
        while e < high and k % (e * step) == 0:
            e *= step
        out *= e
    return out


# Each A-function is multiplicative: the product, over the prime powers p^a
# exactly dividing r, of one local factor read from the power's entry
# (p, a, t, p^a, p^(a-t)) of `prime_power_types` or `prime_power_walk`. Each
# factor is written here once, keyed by the name `ramlab table --what` gives
# its function, and read both for one modulus and by `multiplicative_table`
_LOCAL_FACTORS = {
    "muA": lambda p, a, t, high, low: -1 if t == a else 0,
    "phiA": lambda p, a, t, high, low: high - low,
    "gammaA": lambda p, a, t, high, low: p * low,
    "psiA": lambda p, a, t, high, low: high + low,
}


def _product(name: str, system: RegularSystem, r: int) -> int:
    return prod(starmap(_LOCAL_FACTORS[name], prime_power_types(system, r)))


def mu_A(system: RegularSystem, n: int) -> int:
    """Generalized Moebius function: -1 on A-primitive prime powers, 0 else."""
    return _product("muA", system, n)


def phi_A(system: RegularSystem, r: int) -> int:
    """Generalized Euler function: counts k mod r with (k, r)_A = 1;
    multiplicative with p^a -> p^a - p^(a-t)."""
    return _product("phiA", system, r)


def gamma_A(system: RegularSystem, r: int) -> int:
    """Generalized core function, multiplicative with p^a -> p^(a - t + 1)."""
    return _product("gammaA", system, r)


def psi_A(system: RegularSystem, r: int) -> int:
    """Generalized Dedekind function, multiplicative with p^a -> p^a + p^(a-t)."""
    return _product("psiA", system, r)


def prime_power_walk(system: RegularSystem, limit: int) -> Iterator[tuple[int, tuple[int, ...]]]:
    """(r1, (p, a, t, p^a, p^(a-t))) for r = 2, 3, ..., limit in turn: r's
    smallest prime power p^a, t its type, and the cofactor r1 = r / p^a,
    from one sieve (`arith.smallest_prime_powers`) with no cache. The entry
    is shaped as in `prime_power_types`. p^a is typed only at moduli it
    exactly divides, first at r = p^a, so the first prime power beyond the
    system's bound is refused at the same r, with the same message, as by
    `prime_power_types` over r = 1, 2, ..., limit."""
    for r1, p, a, high in smallest_prime_powers(limit):
        t = system.type_of(p, a)
        yield r1, (p, a, t, high, p ** (a - t))


def multiplicative_table(system: RegularSystem, name: str, limit: int) -> array:
    """[f(r) for r = 1..limit] as 8-byte ints, f the A-function that
    `ramlab table --what` calls `name`: muA, phiA, gammaA or psiA.

    One product per modulus, f(r1) times the local factor at p^a, along
    `prime_power_walk`: one sieve of 2 bytes per modulus and no
    factorization. |f(r)| <= sigma(r), far below 2^63 at `table`'s row cap."""
    local = _LOCAL_FACTORS[name]
    values = array("q", [1])
    for r1, entry in prime_power_walk(system, limit):
        values.append(values[r1 - 1] * local(*entry))
    return values


def _integral(value):
    # an integral JSON number as its int, else as it is, for the caller to refuse
    return int(value) if type(value) is float and value.is_integer() else value


def _entry(entry: dict) -> tuple[int, int, int]:
    """(p, a, t) of one `types` entry: an object with exactly these keys."""
    if not isinstance(entry, dict) or set(entry) != {"p", "a", "t"}:
        raise ValueError(f"entry {entry!r} must be an object with exactly the keys p, a, t")
    for key in "pat":
        if type(_integral(entry[key])) is not int:
            raise ValueError(f"{key} must be an integer, got {entry[key]!r} in entry {entry!r}")
    return _integral(entry["p"]), _integral(entry["a"]), _integral(entry["t"])


def system_from_dict(spec: dict, name: str = "") -> RegularSystem:
    """Build a system from its JSON-shaped dict.

    `"kind": "dirichlet"` or `"unitary"` names D or U and admits no other
    key; a `"custom"` spec (the default) admits `default`, `a_max` and
    `types`, a list of objects with the keys `p`, `a` and `t`. Any other
    key is refused, never ignored."""
    if not isinstance(spec, dict):
        raise InvalidSystemError([f"system spec must be a JSON object, got {type(spec).__name__}"])
    kind = spec.get("kind", "custom")
    if kind not in ("dirichlet", "unitary", "custom"):
        raise InvalidSystemError([f"unknown kind {kind!r}"])
    keys = ("kind", "default", "a_max", "types") if kind == "custom" else ("kind",)
    unexpected = [f"unexpected key {key!r} for kind {kind!r}" for key in spec if key not in keys]
    if unexpected:
        raise InvalidSystemError(unexpected)
    if kind != "custom":
        return DIRICHLET if kind == "dirichlet" else UNITARY
    entries = spec.get("types", [])
    try:
        if not isinstance(entries, list):
            raise ValueError(f"types must be a list, got {entries!r}")
        types = tuple(sorted(_entry(e) for e in entries))
    except ValueError as exc:
        raise InvalidSystemError([f"malformed types table: {exc}"]) from exc
    default = spec.get("default", "dirichlet-default")
    a_max = _integral(spec.get("a_max", DEFAULT_A_MAX))
    return RegularSystem(types=types, default=default, a_max=a_max, name=name)


def load_system(spec: str) -> RegularSystem:
    """Resolve a builtin name (D, U, MIX) or load a JSON spec file."""
    builtin = {"D": DIRICHLET, "U": UNITARY, "MIX": MIX}
    if spec in builtin:
        return builtin[spec]
    try:
        with open(spec) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise InvalidSystemError([f"cannot read system spec {spec!r}: {exc}"]) from exc
    except json.JSONDecodeError as exc:
        raise InvalidSystemError([f"system spec {spec!r} is not valid JSON: {exc}"]) from exc
    return system_from_dict(data, name=spec)
