"""The ratio-problem registry: one definition read by checks, search and CLI."""

import json

import pytest

from conftest import fig1_k4
from shadowlab import cli
from shadowlab.constructions import flats_example, tripartite_mixed
from shadowlab.formats import hypergraph_from_obj, hypergraph_to_obj
from shadowlab.hypergraph import PROBLEMS

# (vertices, d, delta) small enough for a fast probe that finds a witness
PROBE_PARAMS = {"rainbow_d": (6, 3, 0), "good6": (7, 3, 0), "mixed4": (5, 3, 0), "covering_delta": (5, 3, 1)}


def _write(path, graph):
    with open(path, "w") as fh:
        json.dump(hypergraph_to_obj(graph), fh)
    return str(path)


def _probe_argv(name, params, out):
    n, d, delta = params
    return ["search", "probe", "--problem", name, "--vertices", str(n), "--d", str(d),
            "--delta", str(delta), "--trials", "40", "--seed", "3", "--out", out]


def test_registry_covers_every_probe_problem():
    assert set(PROBE_PARAMS) == set(PROBLEMS)


@pytest.mark.parametrize("name", sorted(PROBLEMS))
def test_probe_witness_recounts_through_registry(name, tmp_path):
    out = str(tmp_path / "witness.json")
    report, status = cli.run(_probe_argv(name, PROBE_PARAMS[name], out))
    assert status == 0
    with open(out) as fh:
        witness = hypergraph_from_obj(json.load(fh))
    _, d, delta = PROBE_PARAMS[name]
    _, ratio = PROBLEMS[name].exact(witness, d, delta)
    assert ratio == report["quantities"]["best_ratio"]


def _cli_paths(name, tmp_path):
    """Every command that reports the problem's ratio at d = 3, delta = 0."""
    probe = _probe_argv(name, PROBE_PARAMS[name][:2] + (0,), str(tmp_path / "probe.json"))
    if name == "rainbow_d":
        g = _write(tmp_path / "k4.json", fig1_k4())
        return [["kappa", "--input", g, "--d", "3"],
                ["search", "rainbow-triangle", "--max-vertices", "3"], probe]
    if name == "good6":
        g = _write(tmp_path / "flats.json", flats_example().graph)
        return [["count", "good6", "--input", g], probe]
    if name == "mixed4":
        g = _write(tmp_path / "mixed.json", tripartite_mixed(2).graph)
        return [["count", "mixed4", "--input", g], ["search", "mixed4", "--max-vertices", "4"], probe]
    g = _write(tmp_path / "k4.json", fig1_k4())
    return [["count", "covering", "--input", g, "--delta", "0"], probe]


@pytest.mark.parametrize("name", sorted(PROBLEMS))
def test_every_cli_path_reports_the_registry_bounds(name, tmp_path):
    problem = PROBLEMS[name]
    want = [(problem.quantity, float(b), src, conj) for b, src, conj in problem.bounds(3, 0)]
    for argv in _cli_paths(name, tmp_path):
        report, status = cli.run(argv)
        assert status == 0, argv
        got = [(b["quantity"], b["bound"], b["source"], b["conjecture"]) for b in report["bounds"]]
        assert got == want, argv
        assert report["notes"] == list(problem.notes), argv
