"""Command-line surface: the command table, the input digest, the run, and the report's shape, JSON and text.

Exit codes: 0 success, 2 usage error, 3 invalid input, 4 capacity exceeded,
5 proven-bound violation (a bug or a genuine counterexample, labeled loudly).
Conjecture exceedances never affect the exit status.

This module holds only what every command runs, and imports only `errors`
and `reports`.  A command's handler `_cmd_<name>` and options
`_<name>_options` are in the layer it drives, named in `_COMMANDS`, and are
read only when that command parses.  So a command compiles only the layers it
runs: `kk` never loads `problems`, `qkk` neither it nor `hypergraph`, and
`search` neither `formats` nor `numkit`.  The input digest is the built-in
sha256, which loads without `hashlib`'s OpenSSL binding; a build without it
takes `hashlib`'s, and the digest bytes are the same.

`main` runs with the cyclic garbage collector off, from before it builds the
parser (so also while the layers compile) until it returns, and then restores
the state it found.  A command leaves a few hundred cyclic objects whatever
the size of its input (`tests/test_cli_gc.py` pins that for every command, on
a small and a large input), so a collection frees nothing worth its cost,
while on a large set family the collector's passes cost about 50 ms of `kk`
on C(29, 5) (2-vCPU x86 VM).

As a program (`python -m shadowlab.cli`, the `shadowlab` script), `_program`
flushes stdio once `main` returns and ends the process with `os._exit`: no
module teardown, collection or freeing follows the report, and `atexit`
handlers of other code do not run.  An exception escaping `main`, usage
errors and `--help` too, takes the normal exit.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
from fractions import Fraction

from .errors import BoundViolationError, CapacityError, ValidationError
from .reports import VIOLATED, VIOLATION_EXIT, BoundReport, exit_status, verdict

try:
    from _sha2 import sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10-3.11
    except ImportError:  # builds without the built-in hashes, such as FIPS builds
        from hashlib import sha256

USAGE_EXIT = 2
VALIDATION_EXIT = 3
CAPACITY_EXIT = 4


def _digest_files(paths: list[str]) -> str:
    sha = sha256()
    for path in paths:
        with open(path, "rb") as fh:
            sha.update(fh.read())
    return "sha256:" + sha.hexdigest()


def _digest_params(params: str) -> str:
    return "sha256:" + sha256(params.encode()).hexdigest()


def _bound_obj(r: BoundReport) -> dict:
    return {**{name: getattr(r, name) for name in r._fields}, "extra": dict(r.extra)}


def _real(x: float) -> str:
    """A real as both renderings of a report write it: 12 significant digits."""
    return format(x, ".12g")


def canonical(value: object) -> object:
    """Map a report tree onto JSON-stable types: numbers become strings."""
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return value
    if isinstance(value, int):
        return str(value)
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, float):
        return _real(value)
    if isinstance(value, dict):
        return {str(k): canonical(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [canonical(v) for v in value]
    raise TypeError(f"cannot canonicalize {type(value).__name__}")


def dumps_canonical(obj: object) -> str:
    """The report as canonical JSON: exact values as decimal strings, so JSON consumers never truncate them at
    53 bits, and keys sorted, so a parsed-and-reserialized report is byte-identical."""
    return json.dumps(canonical(obj), sort_keys=True, separators=(",", ":"))


def _render_value(v) -> str:
    if isinstance(v, Fraction):
        return str(v)
    if isinstance(v, float):
        return _real(v)
    if isinstance(v, (list, tuple)):
        if v and all(isinstance(x, (list, tuple)) for x in v):  # a set of vectors, in the --set syntax
            return ";".join(",".join(map(_render_value, x)) for x in v)
        return " ".join(map(_render_value, v))
    return str(v)


def _render_text(report: dict) -> str:
    lines = [f"command: {' '.join(report['command'])}", f"input:   {report['input_digest']}"]
    quantities = report["quantities"]
    width = max((len(k) for k in quantities), default=0)
    for key, value in quantities.items():
        lines.append(f"{key.ljust(width)} = {_render_value(value)}")
    for b in report["bounds"]:
        rel = "<=" if b["kind"] == "upper" else ">="
        lines.append(
            f"check: {b['quantity']} = {_render_value(b['computed'])} {rel} "
            f"{_render_value(b['bound'])}  [{b['source']}]  {verdict(b['satisfied'], b['conjecture'])}"
        )
    for note in report["notes"]:
        lines.append(f"note: {note}")
    lines.append(f"status: {report['status']}")
    return "\n".join(lines) + "\n"


class _Command(argparse.ArgumentParser):
    """One command's parser: on its first parse it reads `_<name>_options` and `_cmd_<name>` from the
    command's layer, adds the options, then `--json` and the handler."""

    def __init__(self, *, command: str, layer: str, **kwargs) -> None:
        super().__init__(**kwargs)
        self._pending = command.replace("-", "_"), layer

    def parse_known_args(self, args=None, namespace=None):
        if self._pending:
            (name, layer), self._pending = self._pending, None
            module = sys.modules[f"{__package__}.{layer}"]
            getattr(module, f"_{name}_options")(self)
            self.add_argument("--json", action="store_true", help="emit a canonical JSON report")
            self.set_defaults(handler=getattr(module, f"_cmd_{name}"))
        return super().parse_known_args(args, namespace)


# each command's name, help line and layer, the module that holds its handler and options
_COMMANDS = (
    ("validate", "check hypergraph invariants", "hypergraph"),
    ("count", "exact counts and ratio: good6/mixed4/covering", "problems"),
    ("kappa", "clique ratio T^{d-1}/(C_1...C_d) with bounds", "problems"),
    ("kk", "shadow bound check for set families", "hypergraph"),
    ("qkk", "shadow bound check for subspace families", "qlinalg"),
    ("entropy", "entropy of exact distributions; shearer/key checks", "entropy"),
    ("forbidding", "forbidding-system operations", "forbidding"),
    ("construct", "generate a named configuration", "constructions"),
    ("search", "exhaustive search or seeded random probe", "search"),
    ("weighted", "geometric-mean weighted clique sum", "checks"),
    ("partial-shadow", "partial shadow bound check", "checks"),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shadowlab",
        description="Exact counting and bound verification for shadow/clique extremal problems",
    )
    sub = parser.add_subparsers(dest="cmd", required=True, parser_class=_Command)
    for name, help_line, layer in _COMMANDS:
        # `count` takes no abbreviated options: `--d`, which the other commands take, would read as `--delta`
        sub.add_parser(name, help=help_line, command=name, layer=layer, allow_abbrev=name != "count")
    # one usage line on every Python, where argparse wraps a long generated one differently from 3.13 on;
    # set after the subparsers are added, since argparse builds their prog from the usage
    parser.usage = "%(prog)s [-h] {" + ",".join(name for name, _, _ in _COMMANDS) + "} ..."
    return parser


def _input_paths(args) -> list[str]:
    return [path for path in (getattr(args, a, None) for a in ("input", "family", "dist", "subspaces")) if path]


def run(argv: list[str]) -> tuple[dict, int]:
    """Execute one command; returns (report dict, exit code)."""
    return _execute(build_parser().parse_args(argv), argv)


def _execute(args: argparse.Namespace, argv: list[str]) -> tuple[dict, int]:
    # the inputs are digested once the handler has read them, so an --out that is an input is refused first
    paths = _input_paths(args)
    out = getattr(args, "out", None)
    if out and os.path.realpath(out) in map(os.path.realpath, paths):
        raise ValidationError(f"--out {out} is an input file")
    quantities, bounds, notes = args.handler(args)
    status = exit_status(bounds)
    report = {
        "command": list(argv),
        "input_digest": _digest_files(paths) if paths else _digest_params(" ".join(argv)),
        "quantities": quantities,
        "bounds": [_bound_obj(b) for b in bounds],
        "notes": notes,
        "status": status,
    }
    return report, status


def main(argv: list[str] | None = None) -> int:
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _main(argv)
    finally:
        if enabled:
            gc.enable()


def _main(argv: list[str] | None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    args = build_parser().parse_args(argv)
    try:
        report, status = _execute(args, argv)
    except (ValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return VALIDATION_EXIT
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return CAPACITY_EXIT
    except BoundViolationError as exc:
        print(f"{VIOLATED}: {exc}", file=sys.stderr)
        return VIOLATION_EXIT
    try:
        if args.json:
            print(dumps_canonical(report))
        else:
            sys.stdout.write(_render_text(report))
        sys.stdout.flush()  # a closed pipe fails here, not at interpreter exit
    except BrokenPipeError:
        # the reader is gone (`shadowlab ... | head`): send what is left to devnull, quietly
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    if status == VIOLATION_EXIT:
        print(f"{VIOLATED}: see the failed checks above", file=sys.stderr)
    return status


def _program() -> None:
    """The `shadowlab` program: `main`, then the process ends at once with its status, its report flushed."""
    status = main()
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(status)


if __name__ == "__main__":
    _program()
