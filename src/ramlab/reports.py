"""Report records shared by the partial-sum and orthogonality checkers.

The records hold results only; the CLI (`cli._emit_rows`) is the one place
that turns them into JSON, CSV or plain text, through `format_value`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

Numeric = Union[int, Fraction, float]


def format_value(v) -> str:
    """Render a value as diffable text: ints plainly, rationals as p/q."""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, Fraction):
        return str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"
    if isinstance(v, int):
        return str(v)
    if isinstance(v, float):
        return f"{v:.12g}"
    return str(v)


@dataclass(frozen=True)
class PartialSumReport:
    """Exact partial sum of a function against its predicted main term.

    The residual and the verdict are derived, so they cannot disagree with
    the sum, the main term and the bound."""

    x: int
    exact_sum: Numeric
    main_term: Numeric
    certified_bound: Numeric

    @property
    def residual(self) -> Numeric:
        return self.exact_sum - self.main_term

    @property
    def passed(self) -> bool:
        return abs(self.residual) <= self.certified_bound


@dataclass(frozen=True)
class OrthogonalityReport:
    """Mean of a product of two generalized Ramanujan sums, exact vs empirical."""

    system: str
    r: int
    s: int
    exact_mean: int
    empirical_mean: Fraction
    verdict: str  # orthogonal | diagonal | violating

    def __post_init__(self):
        if self.verdict == "violating" and (self.r == self.s or self.exact_mean == 0):
            raise ValueError("violating verdict requires r != s and nonzero mean")
