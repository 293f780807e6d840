"""Regular systems of divisors and the multiplicative functions they induce.

A system assigns to each n a set A(n) of divisors of n, specified per prime
power by a "type" t dividing the exponent: A(p^a) = {1, p^t, p^2t, ..., p^a}.
Type 1 everywhere is the full divisor set (Dirichlet convolution), type a
everywhere gives the unitary divisors. Custom systems carry a finite type
table plus a default rule, bounded by an exponent cap so every invariant is
checkable.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import count
from math import prod
from typing import Callable, Iterator, Optional, Sequence

from .arith import factorize

__all__ = [
    "RegularSystem",
    "InvalidSystemError",
    "ExponentOutOfScopeError",
    "DIRICHLET",
    "UNITARY",
    "MIX",
    "DEFAULT_A_MAX",
    "validate",
    "prime_power_types",
    "divisor_set",
    "gcd_A",
    "convolve_A",
    "mu_A",
    "phi_A",
    "gamma_A",
    "psi_A",
    "system_from_dict",
    "load_system",
]

DEFAULT_A_MAX = 16

DIRICHLET_KIND = "dirichlet"
UNITARY_KIND = "unitary"
CUSTOM_KIND = "custom"


class InvalidSystemError(ValueError):
    """A system spec failed validation; .violations lists every offence."""

    def __init__(self, violations: Sequence[str]):
        super().__init__("invalid regular system: " + "; ".join(violations))
        self.violations = list(violations)


class ExponentOutOfScopeError(ValueError):
    """A custom system was asked about a prime power beyond its declared bound."""


@dataclass(frozen=True)
class RegularSystem:
    """A system of divisor sets, determined by its per-prime-power types."""

    kind: str
    types: tuple[tuple[int, int, int], ...] = ()  # (prime, exponent, type)
    default: str = "dirichlet-default"
    a_max: int = DEFAULT_A_MAX
    name: str = ""

    def __post_init__(self):
        # compiled once: every operation looks types up and hashes the
        # system as a cache key; the first table entry for p^a wins
        table: dict[tuple[int, int], int] = {}
        for p, a, t in self.types:
            table.setdefault((p, a), t)
        object.__setattr__(self, "_table", table)
        object.__setattr__(
            self, "_hash", hash((self.kind, self.types, self.default, self.a_max, self.name))
        )

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # pickle by fields, so the receiving process recomputes the hash
        return (type(self), (self.kind, self.types, self.default, self.a_max, self.name))

    @cached_property
    def _violations(self) -> tuple[str, ...]:
        return tuple(validate(self))

    def type_of(self, p: int, a: int) -> int:
        """The type t of p^a: A(p^a) = {1, p^t, ..., p^a}."""
        if a < 1:
            raise ValueError(f"exponent must be >= 1, got {a}")
        if self.kind == DIRICHLET_KIND:
            return 1
        if self.kind == UNITARY_KIND:
            return a
        if a > self.a_max:
            raise ExponentOutOfScopeError(
                f"prime power {p}^{a} exceeds declared exponent bound {self.a_max}"
            )
        t = self._table.get((p, a))
        if t is not None:
            return t
        return a if self.default == "unitary-default" else 1

    def high_types(self) -> Iterator[tuple[int, int]]:
        """(p, a) for each prime p that can hold the first prime power of
        type > 1, a its smallest such exponent, of type a (p^a of type t
        forces type t at p^t): the table primes and, under the unitary
        default, the smallest prime without an entry, whose p^2 has type 2."""
        _checked(self)
        primes = sorted({p for p, _ in self._table})
        if self.default == "unitary-default":
            primes.append(
                next(p for p in count(2) if p not in primes and factorize(p).factors == ((p, 1),))
            )
        for p in primes:
            for a in range(2, self.a_max + 1):
                if self.type_of(p, a) > 1:
                    yield p, a
                    break

    def smallest_high_type(self) -> Optional[tuple[int, int, int]]:
        """(p, a, t) for the smallest prime power p^a whose type t exceeds 1,
        where t = a; None when every type is 1, so that A(n) is every
        divisor of n."""
        found = [(p**a, p, a, a) for p, a in self.high_types()]
        return min(found)[1:] if found else None

    def label(self) -> str:
        return self.name or self.kind


DIRICHLET = RegularSystem(DIRICHLET_KIND, name="D")
UNITARY = RegularSystem(UNITARY_KIND, default="unitary-default", name="U")

# unitary behaviour at p = 2, Dirichlet everywhere else: the smallest
# built-in system outside {D, U}
MIX = RegularSystem(
    CUSTOM_KIND,
    types=tuple((2, a, a) for a in range(1, DEFAULT_A_MAX + 1)),
    default="dirichlet-default",
    name="MIX",
)


def validate(system: RegularSystem) -> list[str]:
    """Check the regularity conditions; empty list means ok.

    Reports every violation (type not dividing the exponent, broken chains)
    rather than stopping at the first.
    """
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
        if factorize(p).factors != ((p, 1),):
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
    # the entries now agree with the compiled table that type_of reads
    for p in sorted({p for p, _, _ in system.types}):
        for a in range(1, system.a_max + 1):
            t = system.type_of(p, a)
            for i in range(1, a // t + 1):
                if system.type_of(p, i * t) != t:
                    violations.append(
                        f"chain violation at p={p}: type {t} of {p}^{a} forces "
                        f"type {t} at {p}^{i * t}, found {system.type_of(p, i * t)}"
                    )
                    break
    return violations


def _checked(system: RegularSystem) -> RegularSystem:
    if system._violations:
        raise InvalidSystemError(system._violations)
    return system


# bounded: the divisor route asks for mu_A of every r/d, d in A(r), so the
# same small moduli recur; a long run of distinct moduli cannot grow it
@lru_cache(maxsize=4096)
def prime_power_types(system: RegularSystem, n: int) -> tuple[tuple[int, int, int], ...]:
    """(p, a, t) for each prime power p^a exactly dividing n, t its type.

    The one place where a validated system meets a factorization: every
    multiplicative function of the system is a product over these triples.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    _checked(system)
    return tuple((p, a, system.type_of(p, a)) for p, a in factorize(n))


@lru_cache(maxsize=4096)
def divisor_set(system: RegularSystem, n: int) -> tuple[int, ...]:
    """The set A(n), strictly increasing, built per prime power and
    assembled multiplicatively."""
    if n < 1:
        raise ValueError(f"divisor_set requires n >= 1, got {n}")
    members = [1]
    for p, a, t in prime_power_types(system, n):
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


def mu_A(system: RegularSystem, n: int) -> int:
    """Generalized Moebius function: -1 on A-primitive prime powers, 0 else."""
    return prod(-1 if t == a else 0 for _, a, t in prime_power_types(system, n))


def phi_A(system: RegularSystem, r: int) -> int:
    """Generalized Euler function: counts k mod r with (k, r)_A = 1."""
    return prod(p**a - p ** (a - t) for p, a, t in prime_power_types(system, r))


def gamma_A(system: RegularSystem, r: int) -> int:
    """Generalized core function, multiplicative with p^a -> p^(a - t + 1)."""
    return prod(p ** (a - t + 1) for p, a, t in prime_power_types(system, r))


def psi_A(system: RegularSystem, r: int) -> int:
    """Generalized Dedekind function, multiplicative with p^a -> p^a + p^(a-t)."""
    return prod(p**a + p ** (a - t) for p, a, t in prime_power_types(system, r))


def _entry_int(entry: dict, key: str) -> int:
    # int() would truncate 2.5 to 2 and read True as 1; refuse both
    value = entry[key]
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"{key} must be an integer, got {value!r} in entry {entry!r}")
    return int(value)


def system_from_dict(spec: dict, name: str = "") -> RegularSystem:
    """Build a system from its JSON-shaped dict; validates before returning."""
    if not isinstance(spec, dict):
        raise InvalidSystemError([f"system spec must be a JSON object, got {type(spec).__name__}"])
    kind = spec.get("kind", CUSTOM_KIND)
    if kind == DIRICHLET_KIND:
        return DIRICHLET
    if kind == UNITARY_KIND:
        return UNITARY
    if kind != CUSTOM_KIND:
        raise InvalidSystemError([f"unknown kind {kind!r}"])
    default = spec.get("default", "dirichlet-default")
    if default not in ("dirichlet-default", "unitary-default"):
        raise InvalidSystemError([f"unknown default rule {default!r}"])
    a_max = spec.get("a_max", DEFAULT_A_MAX)
    try:
        types = tuple(
            sorted(tuple(_entry_int(e, key) for key in "pat") for e in spec.get("types", []))
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidSystemError([f"malformed types table: {exc}"]) from exc
    return _checked(
        RegularSystem(CUSTOM_KIND, types=types, default=default, a_max=a_max, name=name)
    )


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
