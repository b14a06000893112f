"""Result records and bound reports: the value base of every layer, and the one verdict rule.

A bound report compares one computed quantity against one bound value.
Counts stay exact (int or Fraction); the float side only appears at the
reporting boundary.  When both sides are exact the comparison is exact; a
caller that decided an irrational bound exactly itself (the checks behind
`kk`, `qkk`, `gkk` and `partial-shadow`) passes its verdict as `holds`;
otherwise the absolute tolerance DEFAULT_TOL applies.  An exact bound beyond
the float range displays as inf, and its ratio comes from the exact quotient.

This module imports no other layer; every layer takes `Record` from here.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Mapping
from fractions import Fraction
from numbers import Rational


class Record:
    """Immutable value record: the base class of every result and value type.

    A record's fields are the annotations of its class, in MRO order, and a
    field's default is the class attribute of the same name.  A record is
    built from its fields positionally or by keyword; it equals a record of
    the same class with equal fields, hashes like the tuple of its fields,
    prints as `Class(field=value, ...)`, and refuses assignment and deletion.
    No code is generated per class, so defining a record costs about what
    defining a class costs.  A class built in a loop declares `__slots__` and
    writes its own `__init__`, which sets each field with `object.__setattr__`.
    """

    __slots__ = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        fields: list[str] = []
        for klass in reversed(cls.__mro__):
            fields += [f for f in vars(klass).get("__annotations__", ()) if f not in fields]
        cls._fields = tuple(fields)

    def __init__(self, *args, **kwargs) -> None:
        cls = type(self)
        if len(args) > len(self._fields):
            raise TypeError(f"{cls.__name__}() takes {len(self._fields)} arguments, got {len(args)}")
        values = dict(zip(self._fields, args))
        for name, value in kwargs.items():
            if name not in self._fields or name in values:
                raise TypeError(f"{cls.__name__}() got an unexpected or repeated argument {name!r}")
            values[name] = value
        for name in self._fields:
            if name not in values and not hasattr(cls, name):
                raise TypeError(f"{cls.__name__}() missing argument {name!r}")
            object.__setattr__(self, name, values[name] if name in values else getattr(cls, name))
        self._post_init()

    def _post_init(self) -> None:
        """Check or normalize the fields once they are set (nothing by default)."""

    def _key(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self) -> tuple:
        # pickle and copy rebuild through __init__; their default restores slots by setattr
        return type(self), self._key()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable: cannot assign {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable: cannot delete {name!r}")


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


class ValidationReport(Record):
    """Outcome of invariant validation; violations are human-readable lines."""

    ok: bool
    violations: tuple[str, ...] = ()
