"""Shared exception types, capacity-cap handling, the integer lists that options give, and the one rule
for the options that each mode of a command reads, `mode_options`."""

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


REQUIRED = object()  # the default of an option that its mode cannot run without


def mode_options(args, command: str, mode: str, reads: dict[str, dict]) -> dict:
    """The options that `mode` reads, by argparse dest, with their values; `reads` maps each mode to its defaults.

    In the order the options first appear in `reads`: an option given (not None) that the mode does not read
    is refused, then one it needs (default REQUIRED) that is left out; each other one left out takes its default.
    """
    own = reads[mode]
    for dest in dict.fromkeys(dest for options in reads.values() for dest in options):
        if dest not in own and getattr(args, dest) is not None:
            raise ValidationError(f"--{dest.replace('_', '-')} does not apply to {command} {mode}")
    for dest, default in own.items():
        if getattr(args, dest) is None:
            if default is REQUIRED:
                raise ValidationError(f"{command} {mode} needs --{dest.replace('_', '-')}")
            setattr(args, dest, default)
    return {dest: getattr(args, dest) for dest in own}
