"""Decide whether one command's exit code and `--json` report are right."""

from __future__ import annotations

import json
import math
import os
from fractions import Fraction

import reference as ref
from workloads import Job

VIOLATION_EXIT = 5  # shadowlab's "PROVEN BOUND VIOLATED"


def _same(got, want) -> bool:
    if isinstance(want, float):
        try:
            return math.isclose(float(got), want, rel_tol=1e-9, abs_tol=1e-9)
        except (TypeError, ValueError):
            return False
    if isinstance(want, list):
        return isinstance(got, list) and len(got) == len(want) and all(map(_same, got, want))
    return got == want


def check(job: Job, code: int, stdout: str, stderr: str, workdir: str) -> tuple[list[str], bool]:
    """Problems with one command's outcome, and whether its numbers were wrong.

    A job fails when any problem is listed. Its numbers count as wrong unless
    the only problem is a false exit 5 on a report whose every count is right:
    a wrong verdict on right numbers.
    """
    if "Traceback" in stderr:
        return [f"traceback: {stderr.strip().splitlines()[-1]}"], True
    problems = []
    if code != job.exit:
        problems.append(f"exit {code}, expected {job.exit}")
    if job.exit != 0:
        return problems, bool(problems)
    if code not in (0, VIOLATION_EXIT):
        return problems, True
    try:
        quantities = json.loads(stdout)["quantities"]
    except (ValueError, KeyError, TypeError):
        return problems + ["no JSON report on stdout"], True
    wrong = False
    for key, want in job.quantities.items():
        if not _same(quantities.get(key), want):
            problems.append(f"{key} = {quantities.get(key)!r}, expected {want!r}")
            wrong = True
    if job.witness is not None:
        mismatch = _check_witness(job.witness, quantities.get("best_ratio"), workdir)
        if mismatch:
            problems.append(mismatch)
            wrong = True
    return problems, wrong


def _check_witness(witness: tuple, best_ratio, workdir: str) -> str | None:
    """The reported best ratio must be the ratio of the written witness."""
    problem, name, d, delta = witness
    try:
        with open(os.path.join(workdir, name), encoding="utf-8") as fh:
            graph = json.load(fh)
        reported = Fraction(best_ratio)
        edges = [(tuple(e["v"]), e["color"]) for e in graph["edges"]]
        recount = ref.probe_ratio(problem, graph["vertices"], edges, d, delta)
    except (OSError, ValueError, TypeError, KeyError, ZeroDivisionError) as exc:
        return f"witness {name}: {exc!r}"
    if recount != reported:
        return f"best_ratio {reported} but the witness recounts to {recount}"
    return None
