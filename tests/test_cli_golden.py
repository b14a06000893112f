"""Golden digests of the command line's output bytes.

Every case of `golden.CASES` runs `cli.main` in-process, in text and in
`--json` mode, inside a fresh directory holding the input files of
`golden.INPUTS` under relative names, so the report's `command` field does not
depend on where the test runs.  tests/cli_golden.json holds the `golden.record`
of each run: its exit code and the sha256 of what it wrote.

A change that moves output on purpose rewrites the digests with

    PYTHONPATH=src python tests/test_cli_golden.py

and says in CHANGES.md which entries moved and why.  Never rewrite them to
hide a difference that has no explanation.

On valid input, exit 5 can only come from a bug or a counterexample, so the
runs of PATCHED reach it, and a conjecture exceeded alone, through the seams
the tests patch: each runs its command under its patch.
"""

from __future__ import annotations

import io
import json
import os
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import replaced
from golden import CASES, GOLDEN, key, record, write_inputs
from shadowlab import cli
from shadowlab import forbidding as forb
from shadowlab.problems import PROBLEMS


def _bounds(*bounds):
    """The rainbow_d problem with only these (bound, source, conjecture) bounds."""
    return lambda mp: mp.setitem(PROBLEMS, "rainbow_d", replaced(PROBLEMS["rainbow_d"], bounds=lambda d, delta: bounds))


def _miscounted(mp):
    """The rainbow_d kernel counting one clique more: a construction's or a scan's recount differs."""
    count = PROBLEMS["rainbow_d"].count
    mp.setitem(PROBLEMS, "rainbow_d", replaced(PROBLEMS["rainbow_d"], count=lambda form: count(form) + 1))


def _misdeclared(mp):
    """The repeats system declaring c_2 = 1 where it is 2: its axioms fail."""
    mp.setattr(forb, "repeats_system", lambda n, d: forb.ForbiddingSystem(
        range(n), d, lambda ms: len(set(ms)) == len(ms), (1, 1), name="repeats"))


# name -> (patch, command, exit code); the golden key is "name: command"
PATCHED = {
    "proven bound failed": (_bounds((Fraction(2), "proven 2", False), (Fraction(1), "proven 1", False)),
                            "kappa --input k4.json --d 3", 5),
    "conjecture exceeded": (_bounds((Fraction(2), "proven 2", False), (Fraction(1), "conjectured 1", True)),
                            "kappa --input k4.json --d 3", 0),
    "construction miscounted": (_miscounted, "construct k4-blowup --n 2", 5),
    "scan miscounted": (_miscounted, "search rainbow-triangle --max-vertices 4", 5),
    "axioms misdeclared": (_misdeclared, "forbidding verify --system repeats --universe-size 4 --d 3", 5),
}


def _run(command: str, json_mode: bool, patch=None) -> tuple[int, str, str, list[str]]:
    """Write the inputs into the current directory and run one command under `patch` with COLUMNS=80:
    its exit code (a usage error's too), stdout, stderr and argv."""
    write_inputs(Path())
    argv = command.split() + (["--json"] if json_mode else [])
    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as mp, redirect_stdout(out), redirect_stderr(err):
        mp.setenv("COLUMNS", "80")
        if patch:
            patch(mp)
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse's exit on a usage error
            code = exc.code
    return code, out.getvalue(), err.getvalue(), argv


def run_case(command: str, json_mode: bool, patch=None) -> dict:
    """Run one command in the current directory and digest what it wrote."""
    code, out, err, argv = _run(command, json_mode, patch)
    return record(code, out.encode(), err.encode(), argv)


# (golden key without --json, patch, command) of every run
RUNS = [(c, None, c) for c in CASES] + [(f"{name}: {c}", patch, c) for name, (patch, c, _) in PATCHED.items()]


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_golden_file_lists_every_case(golden):
    assert sorted(golden) == sorted(key(case, m) for case, _, _ in RUNS for m in (False, True))


@pytest.mark.parametrize("json_mode", [False, True], ids=["text", "json"])
@pytest.mark.parametrize("case, patch, command", RUNS, ids=[case for case, _, _ in RUNS])
def test_output_bytes_match_golden(golden, tmp_path, monkeypatch, case, patch, command, json_mode):
    monkeypatch.chdir(tmp_path)
    assert run_case(command, json_mode, patch) == golden[key(case, json_mode)]


@pytest.mark.parametrize("name", PATCHED)
def test_patched_runs_reach_their_verdict(tmp_path, monkeypatch, name):
    monkeypatch.chdir(tmp_path)
    patch, command, status = PATCHED[name]
    (code, text, err, _), (_, canonical, json_err, _) = (_run(command, m, patch) for m in (False, True))
    assert code == status and err == json_err
    if name == "conjecture exceeded":
        assert text.splitlines()[-2].endswith("  conjecture exceeded (informational)") and not err
        assert '"status":"0"' in canonical
    elif name == "proven bound failed":
        assert text.splitlines()[-3].endswith("  ok") and text.splitlines()[-2].endswith("  PROVEN BOUND VIOLATED")
        assert '"status":"5"' in canonical
        assert err == "PROVEN BOUND VIOLATED: see the failed checks above\n"
    else:  # a BoundViolationError: its message alone, and no report
        assert (text, canonical) == ("", "") and err.startswith("PROVEN BOUND VIOLATED: ")


def _rewrite() -> None:
    records = {}
    for case, patch, command in RUNS:
        for json_mode in (False, True):
            with tempfile.TemporaryDirectory() as workdir:
                cwd = os.getcwd()
                os.chdir(workdir)
                try:
                    records[key(case, json_mode)] = run_case(command, json_mode, patch)
                finally:
                    os.chdir(cwd)
    GOLDEN.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(records)} digests to {GOLDEN}", file=sys.stderr)


if __name__ == "__main__":
    _rewrite()
