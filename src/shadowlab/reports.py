"""Bound reports: one computed quantity compared against one bound value.

Counts stay exact (int or Fraction); the float side only appears at the
reporting boundary.  When both sides are exact the comparison is exact; a
caller that decided its bound itself (an irrational bound exactly, or a
float identity at its own tolerance) passes its verdict as `holds`;
otherwise the absolute tolerance DEFAULT_TOL applies.  An exact bound beyond
the float range displays as inf, and its ratio comes from the exact quotient.
"""

from __future__ import annotations

import math
from fractions import Fraction
from numbers import Rational
from typing import Mapping

from .record import Record

DEFAULT_TOL = 1e-9

Exactish = int | Fraction | float


def _is_exact(x: Exactish) -> bool:
    return isinstance(x, Rational)


class BoundReport(Record):
    """Outcome of checking a computed quantity against a bound.

    kind is "upper" (computed must be <= bound) or "lower" (>=).  A report
    flagged as a conjecture is informational: exceeding it is never a
    failure.
    """

    quantity: str
    computed: Exactish
    bound: float
    ratio: float
    satisfied: bool
    source: str
    kind: str
    conjecture: bool = False
    extra: Mapping[str, object] = None  # a fresh {} when left out

    def _post_init(self) -> None:
        if self.extra is None:
            object.__setattr__(self, "extra", {})
        if self.kind not in ("upper", "lower"):
            raise ValueError(f"kind must be 'upper' or 'lower', got {self.kind!r}")


def _display(x: Exactish) -> float:
    """float(x), or a signed infinity for an exact value beyond the float range."""
    try:
        return float(x)
    except OverflowError:
        return math.inf if x > 0 else -math.inf


def _ratio(computed: Exactish, bound: Exactish) -> float:
    b = _display(bound)
    if math.isinf(b) and _is_exact(bound):
        return float(Fraction(computed) / Fraction(bound))
    if b == 0.0:
        return float("inf") if float(computed) > 0 else float("nan")
    return float(computed) / b


def upper_report(
    quantity: str,
    computed: Exactish,
    bound: Exactish,
    source: str,
    *,
    conjecture: bool = False,
    holds: bool | None = None,
    extra: Mapping[str, object] | None = None,
) -> BoundReport:
    """Report for computed <= bound; exact comparison when both sides are exact.

    `holds` is the caller's own verdict; `bound` is then for display only.
    """
    if holds is not None:
        ok = holds
    elif _is_exact(computed) and _is_exact(bound):
        ok = Fraction(computed) <= Fraction(bound)
    else:
        ok = float(computed) <= _display(bound) + DEFAULT_TOL
    return BoundReport(
        quantity=quantity,
        computed=computed,
        bound=_display(bound),
        ratio=_ratio(computed, bound),
        satisfied=ok,
        source=source,
        kind="upper",
        conjecture=conjecture,
        extra=dict(extra or {}),
    )


def lower_report(
    quantity: str,
    computed: Exactish,
    bound: Exactish,
    source: str,
    *,
    conjecture: bool = False,
    holds: bool | None = None,
    extra: Mapping[str, object] | None = None,
) -> BoundReport:
    """Report for computed >= bound; exact comparison when both sides are exact.

    `holds` is the caller's own verdict; `bound` is then for display only.
    """
    if holds is not None:
        ok = holds
    elif _is_exact(computed) and _is_exact(bound):
        ok = Fraction(computed) >= Fraction(bound)
    else:
        ok = float(computed) >= _display(bound) - DEFAULT_TOL
    return BoundReport(
        quantity=quantity,
        computed=computed,
        bound=_display(bound),
        ratio=_ratio(computed, bound),
        satisfied=ok,
        source=source,
        kind="lower",
        conjecture=conjecture,
        extra=dict(extra or {}),
    )


class ValidationReport(Record):
    """Outcome of invariant validation; violations are human-readable lines."""

    ok: bool
    violations: tuple[str, ...] = ()
