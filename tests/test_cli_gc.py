"""`cli.main` runs with the cyclic garbage collector off and restores it.

The collector may stay off only because a command leaves a bounded amount of
cyclic garbage, whatever the size of its input: the parser's own cycles, a
few hundred objects.  A command whose cyclic garbage grew with its input
would grow the process without bound, so each command below runs on a small
and a large input with the collector off, and the objects a collection then
finds may differ by at most GARBAGE_SLACK.
"""

from __future__ import annotations

import gc
import io
import json
from contextlib import redirect_stderr, redirect_stdout
from itertools import combinations

import pytest
import test_cli_formats

from shadowlab import cli
from shadowlab import constructions as cons
from shadowlab.errors import BoundViolationError
from shadowlab.qlinalg import enumerate_subspaces

# measured: each pair below left equal counts, 328-492 objects by command and Python version
# (3.10-3.13); the slack only absorbs a stray cycle of the interpreter's own
GARBAGE_SLACK = 10


def _write_family(path, m: int, d: int) -> None:
    path.write_text(json.dumps({"n": m, "d": d, "sets": [list(s) for s in combinations(range(m), d)]}))


def _quiet_main(argv: list[str]) -> int:
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        return cli.main(argv)


def _violation(*_):
    raise BoundViolationError("k4_blowup self-check failed")


def _bug(*_):
    raise RuntimeError("a bug in a handler")


# name -> (patched construction, argv, the exit code or the exception that leaves main)
EXITS = {
    "success": (None, ["construct", "k4-blowup", "--n", "2"], 0),
    "usage error": (None, ["construct", "k4-blowup", "--n", "two"], SystemExit),
    "invalid input": (None, ["kk", "--family", "missing.json"], 3),
    "capacity": (None, ["search", "rainbow-triangle", "--max-vertices", "9"], 4),
    "proven bound violated": (_violation, ["construct", "k4-blowup", "--n", "2"], 5),
    "uncaught error": (_bug, ["construct", "k4-blowup", "--n", "2"], RuntimeError),
}


@pytest.fixture
def collector_state():
    """Restore the collector's state after a test that sets it."""
    enabled = gc.isenabled()
    yield
    (gc.enable if enabled else gc.disable)()


@pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
@pytest.mark.parametrize("name", EXITS)
def test_main_restores_the_collector(collector_state, tmp_path, monkeypatch, name, enabled):
    monkeypatch.chdir(tmp_path)
    patch, argv, expected = EXITS[name]
    if patch:
        monkeypatch.setattr(cons, "k4_blowup", patch)
    (gc.enable if enabled else gc.disable)()
    if isinstance(expected, int):
        assert _quiet_main(argv) == expected
    else:
        with pytest.raises(expected) as caught:
            _quiet_main(argv)
        assert expected is not SystemExit or caught.value.code == 2
    assert gc.isenabled() is enabled


def test_main_runs_without_the_collector(collector_state, monkeypatch):
    gc.enable()
    states = []
    monkeypatch.setattr(cons, "k4_blowup", lambda n: states.append(gc.isenabled()) or _violation())
    assert _quiet_main(["construct", "k4-blowup", "--n", "2"]) == 5
    assert states == [False]


RGB = ("red", "green", "blue")


def _write_graph(path, n: int, k: int, colors=RGB, weighted=False) -> None:
    """All k-subsets of [n] as edges, colored by their sum."""
    edges = []
    for i, v in enumerate(combinations(range(n), k)):
        edge = {"v": list(v), "color": colors[sum(v) % len(colors)]}
        if weighted:
            edge["weight"] = 1 + i % 5
        edges.append(edge)
    path.write_text(json.dumps({"vertices": n, "edges": edges}))


def _write_subspaces(path, q: int, n: int, d: int) -> None:
    members = enumerate_subspaces(q, n, d).members
    path.write_text(json.dumps({"q": q, "n": n, "d": d, "members": [[list(row) for row in m] for m in members]}))


def _write_distribution(path, k: int) -> None:
    support = [{"values": [i, j], "p": f"1/{k * k}"} for i in range(k) for j in range(k)]
    path.write_text(json.dumps({"arity": 2, "support": support}))


@pytest.fixture
def inputs(tmp_path, monkeypatch):
    """A small and a large input file for every command that reads one, in the working directory."""
    monkeypatch.chdir(tmp_path)
    for tag, n in (("small", 5), ("large", 14)):
        _write_graph(tmp_path / f"graph2_{tag}.json", n, 2)
        _write_graph(tmp_path / f"weighted_{tag}.json", n, 2, colors=("plain",), weighted=True)
        _write_graph(tmp_path / f"graph3_{tag}.json", n, 3)
        _write_graph(tmp_path / f"graph4_{tag}.json", min(n, 11), 4, colors=("plain",))
    _write_family(tmp_path / "C7_3.json", 7, 3)
    _write_family(tmp_path / "C10_4.json", 10, 4)
    _write_family(tmp_path / "C14_4.json", 14, 4)
    _write_family(tmp_path / "C18_5.json", 18, 5)
    _write_subspaces(tmp_path / "F2_4_2.json", 2, 4, 2)
    _write_subspaces(tmp_path / "F2_6_2.json", 2, 6, 2)
    _write_subspaces(tmp_path / "F2_6_3.json", 2, 6, 3)
    _write_distribution(tmp_path / "dist_small.json", 2)
    _write_distribution(tmp_path / "dist_large.json", 30)


# every command, and every kind of job a command runs, with a small and a large input
GROWING = {
    "validate": ("validate --input graph2_{}.json",),
    "count good6": ("count good6 --input graph4_{}.json",),
    "count mixed4": ("count mixed4 --input graph2_{}.json",),
    "count covering": ("count covering --input graph3_{}.json --delta 1",),
    "kappa": ("kappa --input graph2_{}.json --d 3",),
    "kk": ("kk --family C10_4.json", "kk --family C18_5.json"),
    "kk --out": ("kk --family C7_3.json --out sh.json", "kk --family C14_4.json --out sh.json"),
    "qkk": ("qkk --family F2_4_2.json", "qkk --family F2_6_3.json"),
    "entropy key": ("entropy --key --family C7_3.json", "entropy --key --family C14_4.json"),
    "entropy dist": ("entropy --dist dist_{}.json",),
    "forbidding verify": ("forbidding verify --system repeats --universe-size 6 --d 3",
                          "forbidding verify --system repeats --universe-size 20 --d 3"),
    "forbidding gkk repeats": ("forbidding gkk --system repeats --universe-size 7 --d 3 --family C7_3.json",
                               "forbidding gkk --system repeats --universe-size 14 --d 4 --family C14_4.json"),
    "forbidding gkk qlinear": ("forbidding gkk --system qlinear:2,4 --d 2 --subspaces F2_4_2.json",
                               "forbidding gkk --system qlinear:2,6 --d 2 --subspaces F2_6_2.json"),
    "construct k4-blowup": ("construct k4-blowup --n 2", "construct k4-blowup --n 12"),
    "construct complete-family": ("construct complete-family --m 7 --d 3 --out cf.json",
                                  "construct complete-family --m 16 --d 5 --out cf.json"),
    "search probe": ("search probe --trials 10", "search probe --trials 400"),
    "search rainbow-triangle": ("search rainbow-triangle --max-vertices 3",
                                "search rainbow-triangle --max-vertices 5"),
    "search mixed4": ("search mixed4 --max-vertices 4", "search mixed4 --max-vertices 5"),
    "weighted": ("weighted --input weighted_{}.json --d 3",),
    "partial-shadow": ("partial-shadow --input graph2_{}.json --r 3 --k 1",),
}


@pytest.mark.parametrize("name", GROWING)
def test_cyclic_garbage_does_not_grow_with_the_input(collector_state, inputs, name):
    commands = GROWING[name]
    small, large = (commands[0].format("small"), commands[0].format("large")) if len(commands) == 1 else commands
    gc.disable()
    garbage = []
    for argv in (small, large):
        gc.collect()
        assert _quiet_main([*argv.split(), "--json"]) == 0
        garbage.append(gc.collect())
    assert abs(garbage[1] - garbage[0]) <= GARBAGE_SLACK, garbage


def test_every_command_is_measured():
    assert {name.split()[0] for name in GROWING} == set(test_cli_formats.TestCli.HELP)
