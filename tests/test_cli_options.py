"""Each moded command refuses the options that its mode does not read, and those it needs that are left out.

The five commands with modes declare `_MODE_OPTIONS` in the layer that holds their handler: each mode's
options, by argparse dest, with their defaults, `REQUIRED` for one the mode cannot run without.  The refusals
below are generated from those tables.  A refusal exits 3 before any file is read or written: the files
named do not exist, and no file, `--out` included, is left behind.  The options a command does read keep
their defaults.

A plain command line is read from the command's own declarations without argparse, and any other line by
argparse; the last tests pin that rule against argparse's reading of the same declarations.
"""

import argparse
import importlib
import io
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from golden import CASES
from shadowlab import cli
from shadowlab.errors import REQUIRED

# each command with modes, and the options that its parser requires of every mode
MODED = {
    "search": [],
    "construct": [],
    "forbidding": ["--system", "repeats", "--d", "2"],
    "entropy": [],
    "count": ["--input", "none.json"],
}
# entropy's modes are chosen by options: --key, else --shearer, else the plain mode --dist
ENTROPY_MODES = {"--key": ["--key"], "--shearer": ["--shearer", "0;1"], "--dist": []}
# (command, mode, dest) where giving the option selects another mode
SELECTS_A_MODE = {("entropy", "--dist", "shearer")}


def _layer(command):
    return importlib.import_module(f"shadowlab.{next(layer for name, _, layer in cli._COMMANDS if name == command)}")


def _parser(command):
    parser = argparse.ArgumentParser()
    getattr(_layer(command), f"_{command.replace('-', '_')}_options")(parser)
    return parser


def _flag(dest):
    return f"--{dest.replace('_', '-')}"


def _value(action):
    """A value the parser takes for the option: its first choice, an integer, or a file that does not exist."""
    if action.choices:
        return next(iter(action.choices))
    return "1" if action.type is int else "none.json"


def _refusals():
    """(argv, message) of each option given that a mode does not read, and each required one left out."""
    cases = []
    for command, base in MODED.items():
        parser, table = _parser(command), _layer(command)._MODE_OPTIONS
        actions = {action.dest: action for action in parser._actions}
        out = ["--out", "out.json"] if "out" in actions else []
        for mode, own in table.items():
            argv = [command, *(ENTROPY_MODES[mode] if command == "entropy" else [mode]), *base, *out]
            required = [dest for dest, default in own.items() if default is REQUIRED]
            given = [arg for dest in required for arg in (_flag(dest), _value(actions[dest]))]
            unread = [dest for dest in dict.fromkeys(dest for options in table.values() for dest in options)
                      if dest not in own and (command, mode, dest) not in SELECTS_A_MODE]
            for dest in unread:
                cases.append(([*argv, *given, _flag(dest), _value(actions[dest])],
                              f"{_flag(dest)} does not apply to {command} {mode}"))
            if len(unread) > 1:  # all at once, last first: the refusal names the first in the table
                given += [arg for dest in reversed(unread) for arg in (_flag(dest), _value(actions[dest]))]
                cases.append((argv + given, f"{_flag(unread[0])} does not apply to {command} {mode}"))
            for dest in required:
                cases.append((argv, f"{command} {mode} needs {_flag(dest)}"))
    return cases


REFUSALS = _refusals()

# (argv, message): the refusals that depend on more than the mode, each written beside its handler
OTHER_RULES = [
    ("forbidding gkk --system repeats --universe-size 5 --d 2 --family none.json --subspaces none.json",
     "gkk takes --family or --subspaces, not both"),
    ("forbidding verify --system qlinear:2,3 --universe-size 7 --d 2",
     "--universe-size applies only to the repeats system, not qlinear:2,3"),
    ("forbidding gkk --system repeats --universe-size 5 --d 2", "gkk needs --family or --subspaces"),
    ("entropy --shearer 0;1", "entropy needs --dist (or --key with --family)"),
]


def _refused(tmp_path, monkeypatch, capsys, argv, message):
    monkeypatch.chdir(tmp_path)
    assert cli.main(argv) == 3
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv, message", REFUSALS, ids=[" ".join(argv) for argv, _ in REFUSALS])
def test_mode_refuses_option(tmp_path, monkeypatch, capsys, argv, message):
    _refused(tmp_path, monkeypatch, capsys, argv, message)


@pytest.mark.parametrize("argv, message", OTHER_RULES)
def test_other_rule_refuses(tmp_path, monkeypatch, capsys, argv, message):
    _refused(tmp_path, monkeypatch, capsys, argv.split(), message)


@pytest.mark.parametrize("command", MODED)
def test_tables_name_the_parsers_options_and_modes(command):
    parser, table = _parser(command), _layer(command)._MODE_OPTIONS
    assert {dest for options in table.values() for dest in options} <= {a.dest for a in parser._actions}
    if command == "entropy":
        assert list(table) == list(ENTROPY_MODES) and set(table) <= set(parser._option_string_actions)
    else:
        [positional] = [action for action in parser._actions if not action.option_strings]
        assert list(table) == list(positional.choices)


def run_ok(argv):
    report, status = cli.run(argv)
    assert status == 0
    return report


def test_read_options_keep_their_defaults():
    for name, quantities in [("k4-blowup", {"vertices": 4}), ("tripartite-mixed", {"vertices": 3}),
                             ("rainbow-tripartite", {"vertices": 3}), ("matching", {"vertices": 4}),
                             ("complete-family", {"family_size": 1, "d": 3})]:
        q = run_ok(["construct", name])["quantities"]
        assert {key: q[key] for key in quantities} == quantities, name


COMMANDS = [name for name, _, _ in cli._COMMANDS]


def _declared(command):
    """The option actions of a command, `--json` too, and its positional ones, as argparse reads the declarations."""
    parser = _parser(command)
    parser.add_argument("--json", action="store_true")
    return ([a for a in parser._actions if a.option_strings and a.dest != "help"],
            [a for a in parser._actions if not a.option_strings])


class _LeftToArgparse(Exception):
    pass


def _no_argparse():
    raise _LeftToArgparse


def _taken(argv):
    """`vars` of the namespace `_parse` makes of a line without argparse; None for a line it leaves to argparse."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "build_parser", _no_argparse)
        try:
            return vars(cli._parse(argv))
        except _LeftToArgparse:
            return None


def _argparse(argv):
    """`vars` of argparse's namespace of a line; None for a line it refuses (or answers with help)."""
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        try:
            return vars(cli.build_parser().parse_args(argv))
        except SystemExit:
            return None


def _is_plain(argv):
    """No token after the command that starts with `-` is other than a declared option, and none is given twice:
    no abbreviation, `--opt=value`, `-h`, `--`, repeated option or value starting with `-`."""
    flags = {flag for action in _declared(argv[0])[0] for flag in action.option_strings}
    dashed = [token for token in argv[1:] if token.startswith("-")]
    return set(dashed) <= flags and len(dashed) == len(set(dashed))


def _same_reading(argv):
    """A plain line that argparse accepts is read without it into argparse's namespace; every other is argparse's."""
    slow = _argparse(argv)
    assert _taken(argv) == (slow if _is_plain(argv) else None), argv
    return slow is not None and _is_plain(argv)


TEXT = ["", "x", "none.json", "0,1", "0;1", "repeats", "qlinear:2,3", "a b", "1.5", "nope"]


def _values(action):
    """A value for an action: one of its choices, an int (negative too), or text, the empty string too."""
    return st.one_of(st.sampled_from(list(action.choices or ["none.json"])), st.integers(-3, 40).map(str),
                     st.sampled_from(TEXT))


@st.composite
def command_lines(draw):
    """A command line drawn from a command's declarations, with hostile tokens mixed in: an abbreviation,
    `--opt=value`, `-h`, `--help`, `--`, a repeated option, a value outside `choices` or not an int, a
    required option or positional left out, and an extra positional."""
    command = draw(st.sampled_from(COMMANDS))
    options, positionals = _declared(command)
    items = [[draw(_values(a))] for a in positionals]
    items += [[a.option_strings[0], draw(_values(a))] for a in options if a.required]
    items = [item for item in items if draw(st.integers(0, 7))]  # each left out one time in eight
    for _ in range(draw(st.integers(0, 4))):
        action = draw(st.sampled_from(options))
        flag, value = action.option_strings[0], draw(_values(action))
        given = [flag] if action.nargs == 0 else [flag, value]
        items.append(draw(st.sampled_from([given, given, [flag[:-1], *given[1:]], [f"{flag}={value}"], ["-h"],
                                           ["--help"], ["--"], [flag], ["extra"]])))  # an option given, 2 in 9
    return [command, *(token for item in draw(st.permutations(items)) for token in item)]


@settings(max_examples=400, derandomize=True, deadline=None)
@given(command_lines())
def test_plain_lines_are_read_as_argparse_reads_them(argv):
    _same_reading(argv)


def test_plain_golden_lines_are_read_without_argparse():
    lines = [[*case.split(), *json] for case in CASES for json in ([], ["--json"]) if case.split()[0] in COMMANDS]
    assert sum(map(_same_reading, lines)) == 196  # all that argparse accepts, of 226


@pytest.mark.parametrize("flags, keywords", [
    (["--x"], {"nargs": "?"}), (["--x"], {"action": "count"}), (["--x"], {"action": "store_false"}),
    (["--x"], {"dest": "y"}), (["--x"], {"metavar": "X"}), (["--x"], {"action": "store_const", "const": 1}),
    (["-x"], {}), (["-x", "--x"], {}), (["x"], {"nargs": "?"}), (["x"], {"default": "a", "nargs": "?"})])
def test_other_declarations_leave_the_command_to_argparse(monkeypatch, flags, keywords):
    """A declaration with a keyword or an action not in use sends every line of its command to argparse."""
    layer, declare = _layer("kk"), _layer("kk")._kk_options
    monkeypatch.setattr(layer, "_kk_options", lambda p: (declare(p), p.add_argument(*flags, **keywords)))
    assert _taken(["kk", "--family", "fam.json"]) is None
    assert _argparse(["kk", "--family", "fam.json"])["family"] == "fam.json"
