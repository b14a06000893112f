"""Bound reports: one computed quantity compared against one bound value.

Counts stay exact (int or Fraction); the float side only appears at the
reporting boundary.  When both sides are exact the comparison is exact; a
caller that decided its bound itself (an irrational bound exactly, or a
float identity at its own tolerance) passes its verdict as `holds`;
otherwise the absolute tolerance DEFAULT_TOL applies.  An exact bound beyond
the float range displays as inf, and its ratio comes from the exact quotient.

A command's report is written as canonical JSON (`dumps_canonical`): exact
values are serialized as decimal strings so JSON consumers never truncate them
at 53 bits; reals are fixed at 12 significant digits, which makes
serialization canonical and byte-stable under round-trips.
"""

from __future__ import annotations

import json
import math
from collections.abc import Iterable, Mapping
from fractions import Fraction
from numbers import Rational

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


VIOLATED = "PROVEN BOUND VIOLATED"
VIOLATION_EXIT = 5


def verdict(satisfied: bool, conjecture: bool) -> str:
    """The word a check reads as: only a proven bound that fails is VIOLATED."""
    if satisfied:
        return "ok"
    return "conjecture exceeded (informational)" if conjecture else VIOLATED


def exit_status(reports: Iterable[BoundReport]) -> int:
    """The exit rule: VIOLATION_EXIT when a proven bound fails, else 0; a conjecture never counts."""
    return VIOLATION_EXIT if any(not r.satisfied and not r.conjecture for r in reports) else 0


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


def _report(
    kind: str, quantity: str, computed: Exactish, bound: Exactish, source: str,
    conjecture: bool, holds: bool | None, extra: Mapping[str, object] | None,
) -> BoundReport:
    """The one verdict rule: kind "upper" checks computed <= bound, "lower" computed >= bound.

    `holds` is the caller's own verdict; `bound` is then for display only.
    """
    # compared, never subtracted: an infinite bound must not meet inf - inf = nan
    if holds is None:
        if _is_exact(computed) and _is_exact(bound):
            value, limit = Fraction(computed), Fraction(bound)
        else:
            value, limit = float(computed), _display(bound) + (DEFAULT_TOL if kind == "upper" else -DEFAULT_TOL)
        holds = value <= limit if kind == "upper" else value >= limit
    return BoundReport(
        quantity=quantity,
        computed=computed,
        bound=_display(bound),
        ratio=_ratio(computed, bound),
        satisfied=holds,
        source=source,
        kind=kind,
        conjecture=conjecture,
        extra=dict(extra or {}),
    )


def upper_report(
    quantity: str, computed: Exactish, bound: Exactish, source: str, *,
    conjecture: bool = False, holds: bool | None = None, extra: Mapping[str, object] | None = None,
) -> BoundReport:
    """Report for computed <= bound; exact comparison when both sides are exact."""
    return _report("upper", quantity, computed, bound, source, conjecture, holds, extra)


def lower_report(
    quantity: str, computed: Exactish, bound: Exactish, source: str, *,
    conjecture: bool = False, holds: bool | None = None, extra: Mapping[str, object] | None = None,
) -> BoundReport:
    """Report for computed >= bound; exact comparison when both sides are exact."""
    return _report("lower", quantity, computed, bound, source, conjecture, holds, extra)


def _shadow_check(rep: BoundReport, **first) -> tuple[dict, list[BoundReport], list[str]]:
    """The result of a shadow bound command (kk, qkk, gkk): `first`, then t, the shadow size and the bound."""
    return {**first, "t": rep.extra["t"], "shadow_size": rep.computed, "bound": rep.bound}, [rep], []


def canonical(value: object) -> object:
    """Map a report tree onto JSON-stable types: numbers become strings."""
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return value
    if isinstance(value, int):
        return str(value)
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, float):
        return format(value, ".12g")
    if isinstance(value, dict):
        return {str(k): canonical(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [canonical(v) for v in value]
    raise TypeError(f"cannot canonicalize {type(value).__name__}")


def dumps_canonical(obj: object) -> str:
    return json.dumps(canonical(obj), sort_keys=True, separators=(",", ":"))


class ValidationReport(Record):
    """Outcome of invariant validation; violations are human-readable lines."""

    ok: bool
    violations: tuple[str, ...] = ()
