"""shadowlab benchmark: CLI verdict latency on seeded workloads.

Usage (from the root of a checkout):

    python3 bench/run.py --workload sets|algebra|search|all --seed N \
        --seconds S --trace 0|1

Each job runs the checkout's own `src` as a fresh `python -m shadowlab.cli
... --json` subprocess, closed loop, one client, one command at a time. The
inputs are generated from the seed and written to files before any timing.
A run repeats the workload's pass round(S / nominal pass time) times and
checks every command's exit code and counts against closed forms the
benchmark computes itself.

The runner and every command it starts are pinned to one CPU, and a fixed
pure-Python calibration loop runs on that CPU between commands. Each wall
time is scaled to a CPU as fast as the reference machine, by the ratio of
the reference loop time to the loop times measured just before and after
it, raised to the power CAL_EXPONENT. A shared host's speed can change by
tens of percent within a minute; the scaling takes most of that out, while
every change to shadowlab still shows in full, since the loop does not run
shadowlab.

With --trace 0 the last line of stdout is a JSON object with the end-to-end
metrics. With --trace 1 the timed passes are skipped: one pass runs each job
untraced and then through `trace_launcher.py`, back to back, and the JSON
holds the per-layer metrics. See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import oracle  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402
from trace_launcher import LAYERS  # noqa: E402

ROOT = BENCH.parent
SRC = ROOT / "src"
LAUNCHER = BENCH / "trace_launcher.py"
CLI = [sys.executable, "-m", "shadowlab.cli"]
JOB_TIMEOUT_S = 150
SETUP_SAMPLES = 11
CAL_LOOPS = 100_000
CAL_REF_S = 0.020  # the calibration loop's time on the reference machine
# How a command's time follows the loop's. On a 2-vCPU x86 VM shared with
# other tenants, over 468 `sets` and `algebra` commands, the exponent that
# left the least spread in the mean scaled time of 40 consecutive commands
# was 0.8 (1.6% against 7.6% unscaled; 2.2% with exponent 1), since spawning
# and importing slow down less than the loop when the host is busy.
CAL_EXPONENT = 0.8
IMPORTTIME_SAMPLES = 5
COUNTERS = ("formats.bytes_in", "hypergraph.calls", "hypergraph.edges_in", "entropy.marginal_calls",
            "entropy.atoms", "qlinalg.rref_calls", "qlinalg.members_in", "forbidding.is_good_calls",
            "forbidding.tuples", "numkit.calls", "search.explored")


def _env() -> dict:
    env = dict(os.environ)
    env.pop("SHADOWLAB_CAP", None)  # the caps under test are the defaults
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def pin_to_one_cpu() -> None:
    """Pin this process, and so every command it starts, to one CPU.

    The host's speed changes per CPU, so the calibration loop only tracks the
    speed a command saw if both ran on the same CPU.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def calibrate() -> float:
    """Seconds a fixed pure-Python loop takes on this CPU now."""
    start = time.perf_counter()
    acc, table = 0, {}
    for i in range(CAL_LOOPS):
        key = i & 1023
        table[key] = table.get(key, 0) + i % 7
        acc += i * i % 13
    return time.perf_counter() - start


class Clock:
    """Times commands in reference seconds.

    A command's wall time is scaled by CAL_REF_S over the mean of the
    calibration loops run just before and just after it, to the power
    CAL_EXPONENT.
    """

    def __init__(self) -> None:
        self.last = calibrate()
        self.scales: list[float] = []

    def scale(self) -> float:
        now = calibrate()
        scale = (CAL_REF_S / ((self.last + now) / 2)) ** CAL_EXPONENT
        self.last = now
        self.scales.append(scale)
        return scale


def _spawn(argv: list[str], cwd: Path, env: dict) -> tuple[float, subprocess.CompletedProcess]:
    start = time.perf_counter()
    proc = subprocess.run(argv, cwd=cwd, env=env, capture_output=True, text=True, timeout=JOB_TIMEOUT_S)
    return time.perf_counter() - start, proc


def startup_sample(env: dict, cwd: Path) -> float:
    """Wall time of a fresh interpreter that imports shadowlab.cli and exits."""
    wall, proc = _spawn([sys.executable, "-c", "import shadowlab.cli"], cwd, env)
    if proc.returncode != 0:
        raise RuntimeError(f"import shadowlab.cli failed: {proc.stderr.strip()}")
    return wall


_IMPORTTIME = re.compile(r"import time:\s+\d+\s+\|\s+(\d+)\s+\|\s+(\S+)")


def measure_imports(env: dict, cwd: Path) -> tuple[float, float]:
    """Median cumulative import time of shadowlab.cli and of numpy, from -X importtime."""
    total, numpy = [], []
    for _ in range(IMPORTTIME_SAMPLES):
        _, proc = _spawn([sys.executable, "-X", "importtime", "-c", "import shadowlab.cli"], cwd, env)
        cumulative = {m.group(2): int(m.group(1)) / 1e6 for m in _IMPORTTIME.finditer(proc.stderr)}
        total.append(cumulative["shadowlab.cli"])
        numpy.append(cumulative.get("numpy", 0.0))
    return statistics.median(total), statistics.median(numpy)


@dataclass
class Sample:
    """One timed command and the oracle's findings on it."""

    job: workloads.Job
    wall: float  # reference seconds
    problems: list[str]
    wrong: bool  # a number was wrong or the command crashed
    raw: float = 0.0  # seconds as measured


def run_job(job: workloads.Job, workdir: Path, env: dict, prefix: list[str], clock: Clock) -> Sample:
    if job.witness is not None:
        (workdir / job.witness[1]).unlink(missing_ok=True)
    raw, proc = _spawn(prefix + job.argv, workdir, env)
    wall = raw * clock.scale()
    problems, wrong = oracle.check(job, proc.returncode, proc.stdout, proc.stderr, str(workdir))
    return Sample(job, wall, problems, wrong, raw)


def end_to_end(samples: list[Sample], setup_s: float) -> tuple[dict, dict]:
    """End-to-end metrics, and the facts a reader needs to interpret them."""
    walls = [s.wall for s in samples]
    tail_s, pct, n = stats.tail(walls)
    good = sum(1 for s in samples if not s.problems)
    metrics = {
        "setup_s": (setup_s, "s"),
        "job_p50_s": (stats.quantile(walls, 0.5), "s"),
        "job_tail_s": (tail_s, "s"),
        "jobs_per_s": (good / sum(walls), "1/s"),
    }
    failed = sorted({s.job.name for s in samples if s.problems})
    scans = [s for s in samples if s.job.space]
    probes = [s for s in samples if s.job.trials]
    facts = {
        "samples": n,
        "tail_percentile": pct,
        "fail_share": (len(samples) - good) / len(samples),
        "failed_jobs": {name: next(s.problems for s in samples if s.job.name == name) for name in failed},
        "certified_states_per_s": sum(s.job.space for s in scans) / sum(s.wall for s in scans) if scans else 0.0,
        "trials_per_s": sum(s.job.trials for s in probes) / sum(s.wall for s in probes) if probes else 0.0,
    }
    return metrics, facts


def traced_pass(jobs, workdir: Path, env: dict, clock: Clock) -> tuple[list[Sample], list[Sample], list[dict]]:
    """Each job untraced and then through the launcher, back to back.

    The two commands of a pair see the same machine, so the ratio of their
    times measures the tracing alone. Returns untraced samples, traced
    samples and the traces.
    """
    untraced, traced, traces = [], [], []
    for i, job in enumerate(jobs):
        untraced.append(run_job(job, workdir, env, CLI, clock))
        spans_file = workdir / f"spans-{i}.json"
        prefix = [sys.executable, str(LAUNCHER), str(spans_file), job.name, "--"]
        traced.append(run_job(job, workdir, env, prefix, clock))
        with open(spans_file, encoding="utf-8") as fh:
            traces.append(json.load(fh))
    return untraced, traced, traces


def per_layer(jobs, samples, traces, overhead, facts, imports) -> dict:
    """Per-layer metrics: totals over the traced pass unless named otherwise."""
    self_s = {layer: 0.0 for layer in LAYERS}
    counters: dict[str, int] = {}
    for trace in traces:
        spans = trace["spans"]
        selfs = stats.self_times([(s[0], s[3], s[4], s[5]) for s in spans])
        job_total = 0.0
        for span in spans:
            self_s[span[2]] += selfs[span[0]]
            job_total += selfs[span[0]]
        root = next(s for s in spans if s[5] is None)
        if abs(job_total - (root[4] - root[3])) > 1e-6:
            raise RuntimeError(f"{trace['job']}: module self times do not add up to the traced time")
        for key, value in trace["counters"].items():
            counters[key] = counters.get(key, 0) + value
    metrics = {"startup.import_s": (imports[0], "s"), "startup.numpy_import_s": (imports[1], "s")}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (self_s[layer], "s")
    for key in COUNTERS:
        metrics[key] = (counters.get(key, 0), "count")
    space = sum(job.space for job in jobs)
    metrics["search.explored_share"] = (counters.get("search.explored_exhaustive", 0) / space if space else 0.0,
                                        "share")
    metrics["search.certified_states_per_s"] = (facts["certified_states_per_s"], "1/s")
    metrics["search.trials_per_s"] = (facts["trials_per_s"], "1/s")
    for kind in workloads.KINDS:
        walls = [s.wall for s in samples if s.job.kind == kind]
        metrics[f"kind.{kind}.p50_s"] = (statistics.median(walls) if walls else 0.0, "s")
    metrics["trace.overhead_share"] = (overhead, "share")
    return metrics


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> tuple[dict, dict, list[Sample]]:
    """Metrics (end-to-end, or per-layer when traced), facts, samples.

    A traced run skips the timed passes: its per-layer metrics come from one
    pass of each job untraced and then traced.
    """
    env = _env()
    workdir = ROOT / ".bench_run" / f"{name}-{seed}-{os.getpid()}"
    try:
        jobs = workloads.build(name, seed, str(workdir))
        # Warm-up, untimed: importing shadowlab.cli imports every module, so
        # their bytecode caches exist, as they do for users.
        startup_sample(env, workdir)
        clock = Clock()
        if trace:
            passes = 1
            untraced, traced, traces = traced_pass(jobs, workdir, env, clock)
            _, facts = end_to_end(untraced, 0.0)
            overhead = sum(s.wall for s in traced) / sum(s.wall for s in untraced) - 1.0
            metrics = per_layer(jobs, untraced, traces, overhead, facts, measure_imports(env, workdir))
            samples = untraced + traced
        else:
            passes = max(1, round(seconds / workloads.NOMINAL_PASS_S[name]))
            order = [job for _ in range(passes) for job in jobs]
            # Start-up samples are spread over the run, so setup_s sees the
            # same machine as the jobs rather than the first seconds of the run.
            setup, samples = [], []
            for i, job in enumerate(order):
                if i * SETUP_SAMPLES >= len(setup) * len(order):
                    setup.append(startup_sample(env, workdir) * clock.scale())
                samples.append(run_job(job, workdir, env, CLI, clock))
            metrics, facts = end_to_end(samples, statistics.median(setup))
        facts.update(passes=passes, jobs_per_pass=len(jobs), speed=statistics.median(clock.scales),
                     raw_p50_s=statistics.median(s.raw for s in samples))
        return metrics, facts, samples
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _print_summary(name: str, seed: int, metrics: dict, facts: dict) -> None:
    print(f"== workload {name}, seed {seed}: {facts['passes']} x {facts['jobs_per_pass']} jobs; "
          f"times in reference seconds (median scale {facts['speed']:.4g}, raw job p50 {facts['raw_p50_s']:.4g} s)")
    for key, (value, unit) in metrics.items():
        print(f"  {key:34s} {value:.6g} {unit}")
    print(f"  {'samples':34s} {facts['samples']} (tail = p{facts['tail_percentile']:.1f}, "
          f"{stats.TAIL_BEYOND} samples beyond it)")
    print(f"  {'fail_share':34s} {facts['fail_share']:.6g} share")
    if name == "search":
        print(f"  {'certified_states_per_s':34s} {facts['certified_states_per_s']:.6g} 1/s")
        print(f"  {'trials_per_s':34s} {facts['trials_per_s']:.6g} 1/s")
    for job, problems in facts["failed_jobs"].items():
        print(f"  FAILED {job}: {'; '.join(problems)}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "shadowlab" / "cli.py").is_file():
        print(f"error: {SRC / 'shadowlab' / 'cli.py'} not found; run from a shadowlab checkout", file=sys.stderr)
        return 2
    pin_to_one_cpu()
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        metrics, facts, samples = run_workload(name, args.seed, args.seconds, bool(args.trace))
        _print_summary(name, args.seed, metrics, facts)
        result["correct"] = result["correct"] and not any(s.wrong for s in samples)
        result["attempted"] += len(samples)
        result["failed"] += sum(1 for s in samples if s.problems)
        prefix = f"{name}." if args.workload == "all" else ""
        for key, (value, unit) in metrics.items():
            result["metrics"][prefix + key] = {"value": value, "unit": unit}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
