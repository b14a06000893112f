"""Each moded command refuses the options that its mode does not read, and those it needs that are left out.

The five commands with modes declare `_MODE_OPTIONS` in the layer that holds their handler: each mode's
options, by argparse dest, with their defaults, `REQUIRED` for one the mode cannot run without.  The refusals
below are generated from those tables.  A refusal exits 3 before any file is read or written: the files
named do not exist, and no file, `--out` included, is left behind.  The options a command does read keep
their defaults.
"""

import argparse
import importlib

import pytest

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
    getattr(_layer(command), f"_{command}_options")(parser)
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
