"""Shared exception types, capacity-cap handling, and the integer lists that options give."""

from __future__ import annotations


class ValidationError(ValueError):
    """Input violates an invariant or a precondition of an operation."""


class CapacityError(RuntimeError):
    """Requested enumeration exceeds the configured desk-scale cap."""


class BoundViolationError(RuntimeError):
    """A proven bound failed: either an implementation bug or a counterexample."""


def check_cap(quantity: str, value: int, cap: int) -> None:
    """Raise CapacityError if value exceeds cap; a value too long to print shows its bit length."""
    if value > cap:
        try:
            shown = str(value)
        except ValueError:  # past the interpreter's limit on the digits of an int it prints
            shown = f"a {value.bit_length()}-bit number"
        raise CapacityError(f"{quantity} = {shown} exceeds cap {cap}")


def parse_ints(text: str) -> list[int]:
    """An option's comma-separated integers; empty items are skipped."""
    try:
        return [int(x) for x in text.split(",") if x != ""]
    except ValueError as exc:
        raise ValidationError(f"expected comma-separated integers, got {text!r}") from exc
