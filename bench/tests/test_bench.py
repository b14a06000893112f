"""Tests of the benchmark itself: generators, statistics, oracle and tracer.

Run from the root of a checkout: python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import oracle  # noqa: E402
import reference as ref  # noqa: E402
import run  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402
from workloads import Job  # noqa: E402


def _snapshot(workload: str, seed: int, workdir: Path):
    jobs = workloads.build(workload, seed, str(workdir))
    files = {p.name: p.read_bytes() for p in sorted(workdir.iterdir())}
    return [vars(j) for j in jobs], files


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic_per_seed(workload, tmp_path):
    first = _snapshot(workload, 7, tmp_path / "a")
    assert first == _snapshot(workload, 7, tmp_path / "b")
    other = _snapshot(workload, 8, tmp_path / "c")
    assert other != first
    assert [j["kind"] for j in other[0]] == [j["kind"] for j in first[0]]
    jobs = workloads.build(workload, 0, str(tmp_path / "d"))
    assert {j.kind for j in jobs} <= set(workloads.KINDS)
    assert len({j.name for j in jobs}) == len(jobs)


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    value, pct, n = stats.tail(list(range(40, 0, -1)))
    assert (pct, n) == (75.0, 40)
    assert value == pytest.approx(stats.quantile(range(1, 41), 0.75))
    value, pct, n = stats.tail([5.0] * 10 + [1.0])
    assert n == 11 and pct == pytest.approx(100 / 11)
    with pytest.raises(ValueError):
        stats.tail([1.0] * 10)


def test_quantile_is_the_harrell_davis_estimate():
    # On 1..n the weights' mean position is p, so the estimate is n p + 1/2.
    assert stats.quantile(range(1, 41), 0.75) == pytest.approx(40 * 0.75 + 0.5, abs=1e-6)
    assert stats.quantile(range(1, 12), 0.5) == pytest.approx(6.0)
    assert stats.quantile([3.0] * 7, 0.9) == pytest.approx(3.0)
    # Between two clusters it moves smoothly; the sample median would jump
    # from 1.0 to 2.0 when one sample changes sides.
    assert 1.0 < stats.quantile([1.0] * 11 + [2.0] * 10, 0.5) < 1.5 < stats.quantile([1.0] * 10 + [2.0] * 11, 0.5)


def test_clock_scales_by_the_calibrations_around_a_command(monkeypatch):
    loops = iter([0.08, 0.04, 0.02])
    monkeypatch.setattr(run, "calibrate", lambda: next(loops))
    clock = run.Clock()
    want = [(run.CAL_REF_S / 0.06) ** run.CAL_EXPONENT, (run.CAL_REF_S / 0.03) ** run.CAL_EXPONENT]
    assert [clock.scale(), clock.scale()] == pytest.approx(want)
    assert clock.scales == pytest.approx(want)


def test_self_times_of_a_span_tree_add_up_to_the_root():
    spans = [  # (id, start, end, parent)
        (0, 0.0, 10.0, None),
        (1, 1.0, 4.0, 0),
        (2, 2.0, 3.0, 1),
        (3, 5.0, 9.0, 0),
    ]
    selfs = stats.self_times(spans)
    assert selfs == {0: 3.0, 1: 2.0, 2: 1.0, 3: 4.0}
    assert sum(selfs.values()) == 10.0


def test_self_times_merge_overlapping_children():
    selfs = stats.self_times([(0, 0.0, 10.0, None), (1, 1.0, 5.0, 0), (2, 3.0, 6.0, 0)])
    assert selfs[0] == pytest.approx(5.0)


def _kk_job():
    return Job("kk_C22_6", "kk_complete", ["kk"], quantities={"shadow_size": "26334", "d": "6"})


def _report(shadow: str) -> str:
    return json.dumps({"quantities": {"shadow_size": shadow, "d": "6"}})


def test_oracle_rejects_a_wrong_count(tmp_path):
    problems, wrong = oracle.check(_kk_job(), 0, _report("26333"), "", str(tmp_path))
    assert wrong and problems == ["shadow_size = '26333', expected '26334'"]


def test_oracle_accepts_right_counts_and_flags_a_false_violation(tmp_path):
    assert oracle.check(_kk_job(), 0, _report("26334"), "", str(tmp_path)) == ([], False)
    problems, wrong = oracle.check(_kk_job(), 5, _report("26334"), "", str(tmp_path))
    assert problems == ["exit 5, expected 0"] and not wrong


def test_oracle_rejects_tracebacks_and_wrong_refusals(tmp_path):
    problems, wrong = oracle.check(_kk_job(), 1, "", "Traceback (most recent call last):\nKeyError: 1", str(tmp_path))
    assert wrong and problems
    refused = Job("refused", "refused", ["kk"], exit=4)
    assert oracle.check(refused, 4, "", "capacity error: too big", str(tmp_path)) == ([], False)
    assert oracle.check(refused, 0, _report("1"), "", str(tmp_path))[1]


def test_oracle_recounts_the_witness(tmp_path):
    edges = [{"v": [0, 1], "color": "red"}, {"v": [0, 2], "color": "green"}, {"v": [1, 2], "color": "blue"}]
    (tmp_path / "w.json").write_text(json.dumps({"vertices": 3, "edges": edges}))
    job = Job("scan", "scan_rainbow", ["search"], witness=("rainbow_triangle", "w.json", 3, 0))
    report = json.dumps({"quantities": {"best_ratio": "1/1"}})
    assert oracle.check(job, 0, report, "", str(tmp_path)) == ([], False)
    report = json.dumps({"quantities": {"best_ratio": "2/1"}})
    assert oracle.check(job, 0, report, "", str(tmp_path))[1]
    (tmp_path / "w.json").write_text(json.dumps({"vertices": 3}))
    assert oracle.check(job, 0, report, "", str(tmp_path))[1]


def test_reference_matches_closed_forms():
    assert ref.set_shadow_size(list(combinations(range(22), 6))) == math.comb(22, 5) == 26334
    members = ref.rref_subspaces(2, 7, 3)
    assert len(members) == ref.gaussian_binom(7, 3, 2) == 11811
    assert ref.subspace_shadow_size(members, 2) == ref.gaussian_binom(7, 2, 2) == 2667
    assert ref.subspace_shadow_size(ref.rref_subspaces(5, 4, 2), 5) == ref.gaussian_binom(4, 1, 5)
    assert ref.key_sizes(list(combinations(range(9), 4))) == pytest.approx([9, 8, 7, 6])
    n = 3
    k4 = workloads._k4_blowup(n)
    assert ref.rainbow_count(4 * n, k4, ["red", "green", "blue"], 3) == 4 * n**3
    assert ref.verify_checked(15, 3) == 150


@pytest.mark.parametrize("command, layers, counter", [
    (["kk", "--family", "fam.json", "--json"], {"hypergraph", "numkit"}, "hypergraph.calls"),
    (["entropy", "--key", "--family", "fam.json", "--json"], {"entropy"}, "entropy.marginal_calls"),
])
def test_traced_command_self_times_add_up(command, layers, counter, tmp_path):
    family = {"n": 8, "d": 3, "sets": [list(s) for s in combinations(range(8), 3)]}
    (tmp_path / "fam.json").write_text(json.dumps(family))
    spans_file = tmp_path / "spans.json"
    env = dict(os.environ, PYTHONPATH=str(BENCH.parent / "src"))
    proc = subprocess.run(
        [sys.executable, str(BENCH / "trace_launcher.py"), str(spans_file), "job", "--", *command],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    trace = json.loads(spans_file.read_text())
    spans = trace["spans"]
    # numkit is reached through names hypergraph imported with `from ... import`;
    # entropy through sys.modules, since the package attribute is a function.
    assert {"cli", "formats", "reports"} | layers <= {s[2] for s in spans}
    root = [s for s in spans if s[5] is None]
    assert len(root) == 1 and root[0][1] == "cli.main"
    selfs = stats.self_times([(s[0], s[3], s[4], s[5]) for s in spans])
    assert sum(selfs.values()) == pytest.approx(root[0][4] - root[0][3], abs=1e-9)
    assert trace["counters"]["formats.bytes_in"] == (tmp_path / "fam.json").stat().st_size
    assert trace["counters"][counter] >= 1


def test_metric_names_match_benchmark_json():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    job = Job("scan", "scan_rainbow", ["search"], space=16)
    samples = [run.Sample(job, 1.0 + i / 100, [], False) for i in range(12)]
    e2e, facts = run.end_to_end(samples, 0.2)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {k: u for k, (_, u) in e2e.items()}
    trace = {"job": "scan", "counters": {"search.explored": 16},
             "spans": [[0, "cli.main", "cli", 0.0, 1.0, None], [1, "search.x", "search", 0.1, 0.9, 0]]}
    layer = run.per_layer([job], samples, [trace], 0.02, facts, (0.1, 0.05))
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {k: u for k, (_, u) in layer.items()}
    assert layer["search.self_s"][0] == pytest.approx(0.8)
    assert layer["cli.self_s"][0] == pytest.approx(0.2)
