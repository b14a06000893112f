"""Shared exception types and capacity-cap handling."""

from __future__ import annotations


class ValidationError(ValueError):
    """Input violates an invariant or a precondition of an operation."""


class CapacityError(RuntimeError):
    """Requested enumeration exceeds the configured desk-scale cap."""


class BoundViolationError(RuntimeError):
    """A proven bound failed: either an implementation bug or a counterexample."""


def check_cap(quantity: str, value: int, cap: int) -> None:
    """Raise CapacityError if value exceeds cap."""
    if value > cap:
        raise CapacityError(f"{quantity} = {value} exceeds cap {cap}")
