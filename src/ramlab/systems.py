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
from dataclasses import dataclass
from functools import lru_cache
from itertools import count
from math import prod
from typing import Iterator, Sequence

from .arith import factorize

__all__ = [
    "RegularSystem",
    "InvalidSystemError",
    "ExponentOutOfScopeError",
    "DIRICHLET",
    "UNITARY",
    "MIX",
    "DEFAULT_A_MAX",
    "prime_power_types",
    "divisor_set",
    "gcd_A",
    "mu_A",
    "phi_A",
    "gamma_A",
    "psi_A",
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


@dataclass(frozen=True)
class RegularSystem:
    """A regular system of divisor sets: a prime-power type table over a
    default rule. Construction validates it and raises InvalidSystemError
    listing every offence, so every instance is regular."""

    types: tuple[tuple[int, int, int], ...] = ()  # (prime, exponent, type)
    default: str = "dirichlet-default"
    a_max: int = DEFAULT_A_MAX  # bounds the exponents at the table's primes
    name: str = ""

    def __post_init__(self):
        # an entry is three exact ints; a float, a bool or a str would
        # otherwise pass the checks below or fail in them as a TypeError
        malformed = [
            f"malformed entry {entry!r}: must be a tuple (p, a, t) of three integers"
            for entry in self.types
            if type(entry) is not tuple or len(entry) != 3 or any(type(v) is not int for v in entry)
        ]
        if malformed:
            raise InvalidSystemError(malformed)
        # compiled once: exponent -> type per table prime, first entry for p^a wins
        rows: dict[int, dict[int, int]] = {}
        for p, a, t in self.types:
            rows.setdefault(p, {}).setdefault(a, t)
        object.__setattr__(self, "_rows", rows)
        violations = _violations(self)
        if violations:
            raise InvalidSystemError(violations)
        # the cache key of every operation, hashed once a_max is known to be an int
        object.__setattr__(self, "_hash", hash((self.types, self.default, self.a_max, self.name)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # pickle by fields, so the receiving process validates and rehashes
        return (type(self), (self.types, self.default, self.a_max, self.name))

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
    """Check the regularity conditions; empty list means ok.

    Reports every violation (malformed, non-prime, out-of-bound or
    conflicting entries, a type not dividing its exponent, broken chains)
    rather than stopping at the first. By induction on a, the chain rule
    (type t at p^a forces type t at every p^(it), i <= a/t) holds iff each
    p^a of type t < a has p^(a-t) of type t. Off the table only the
    Dirichlet default makes such links, and only p^(a+1) above an entry p^a
    can break, so the cost depends on the entries, not on a_max.
    """
    if system.default not in ("dirichlet-default", "unitary-default"):
        return [f"unknown default rule {system.default!r}"]
    if isinstance(system.a_max, bool) or not isinstance(system.a_max, int):
        return [f"declared exponent bound must be an integer, got {system.a_max!r}"]
    if system.a_max < 1:
        return [f"declared exponent bound must be >= 1, got {system.a_max}"]
    violations = []
    table = {}
    for p, a, t in system.types:
        if p < 2 or a < 1:
            violations.append(f"malformed entry (p={p}, a={a}, t={t})")
            continue
        if not _is_prime(p):
            violations.append(f"entry (p={p}, a={a}, t={t}) names {p}, which is not a prime")
            continue
        if a > system.a_max:
            violations.append(
                f"entry exponent {a} at prime {p} exceeds declared bound {system.a_max}"
            )
            continue
        if t < 1 or a % t != 0:
            violations.append(f"type {t} does not divide exponent {a} at prime power {p}^{a}")
            continue
        if (p, a) in table and table[(p, a)] != t:
            violations.append(f"conflicting types for prime power {p}^{a}")
            continue
        table[(p, a)] = t
    if violations:
        return violations
    # the entries now agree with the compiled rows that type_of reads
    links = set(table)
    if system.default != "unitary-default":
        links.update((p, a + 1) for p, a in table if a < system.a_max)
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


# bounded: the divisor route asks for mu_A of every r/d, d in A(r), so the
# same small moduli recur; a long run of distinct moduli cannot grow it
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


@lru_cache(maxsize=4096)
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

    k = 0 counts as divisible by everything, so (0, r)_A = r.
    """
    if r < 1 or k < 0:
        raise ValueError(f"gcd_A requires r >= 1, k >= 0, got k={k}, r={r}")
    if k == 0:
        return r
    for d in reversed(divisor_set(system, r)):
        if k % d == 0:
            return d
    return 1  # unreachable: 1 is always a member


def mu_A(system: RegularSystem, n: int) -> int:
    """Generalized Moebius function: -1 on A-primitive prime powers, 0 else."""
    return prod(-1 if t == a else 0 for _, a, t, _, _ in prime_power_types(system, n))


def phi_A(system: RegularSystem, r: int) -> int:
    """Generalized Euler function: counts k mod r with (k, r)_A = 1."""
    return prod(high - low for _, _, _, high, low in prime_power_types(system, r))


def gamma_A(system: RegularSystem, r: int) -> int:
    """Generalized core function, multiplicative with p^a -> p^(a - t + 1)."""
    return prod(p * low for p, _, _, _, low in prime_power_types(system, r))


def psi_A(system: RegularSystem, r: int) -> int:
    """Generalized Dedekind function, multiplicative with p^a -> p^a + p^(a-t)."""
    return prod(high + low for _, _, _, high, low in prime_power_types(system, r))


def _entry(entry: dict) -> tuple[int, int, int]:
    """(p, a, t) of one `types` entry: an object with exactly these keys."""
    if not isinstance(entry, dict) or set(entry) != {"p", "a", "t"}:
        raise ValueError(f"entry {entry!r} must be an object with exactly the keys p, a, t")
    # int() would truncate 2.5 to 2, read True as 1 and parse "5"; refuse all three
    for key in "pat":
        value = entry[key]
        if type(value) not in (int, float) or (type(value) is float and not value.is_integer()):
            raise ValueError(f"{key} must be an integer, got {value!r} in entry {entry!r}")
    return int(entry["p"]), int(entry["a"]), int(entry["t"])


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
    a_max = spec.get("a_max", DEFAULT_A_MAX)
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
