"""The `shadowlab` program path, `python -m shadowlab.cli` and the console script.

Once `main` returns, the program flushes stdout and stderr and ends the
process with `os._exit`.  These tests run the program as a child process in
a directory holding the golden inputs, and check that it writes the bytes
that tests/cli_golden.json pins for `cli.main` in-process: exit code, stdout,
stderr and the `--out` file.  Exit-time code (`atexit`) does not run after
a returned status, and still runs after an exception escapes `main`.
"""

from __future__ import annotations

import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest

from conftest import run_program
from golden import GOLDEN, key, record, sha, write_inputs
from shadowlab import cli

# the digests are of UTF-8 bytes, and COLUMNS fixes argparse's help width in both processes; stdout is
# buffered, as a shell gives it, whatever PYTHONUNBUFFERED the tests inherit
ENV = {"PYTHONUNBUFFERED": None, "PYTHONIOENCODING": "utf-8", "COLUMNS": "80"}
MARKER = "atexit marker"
# the program, as `runpy` runs it for `python -m`, in a process that registered an exit handler first
MARKER_CHILD = (f"import atexit, runpy; atexit.register(print, {MARKER!r}); "
                "runpy.run_module('shadowlab.cli', run_name='__main__')")

# one golden case per command, and `kk` with its shadow file, (command, --json); exit 3 and 4 end in a
# message and no report
PROGRAM_CASES = [
    ("validate --input bad.json", False),  # exit 3
    ("count good6 --input flats.txt", True),
    ("kappa --input k4.json --d 3", False),
    ("kk --family fam.json", False),
    ("kk --family fam.json --out shadow-out.json", True),
    ("qkk --family subs-float.json", True),  # exit 3
    ("entropy --dist dist.json --shearer 0,1;1,2;0,2", False),
    ("forbidding gkk --system repeats --universe-size 5 --d 3 --family fam.json", True),
    ("construct k4-blowup --n 17", False),  # exit 4
    ("search probe --problem rainbow_d --vertices 13 --trials 40 --seed 5 --out p11.json", True),
    ("weighted --input w.json", False),
    ("partial-shadow --input star.txt --r 3 --k 1", True),
]
# a report (exit 0), invalid input (exit 3) and a capacity refusal (exit 4)
STATUS_CASES = [("kk --family fam.json", True), ("validate --input bad.json", False),
                ("construct k4-blowup --n 17", True)]


def _ids(cases):
    return [key(command, json_mode) for command, json_mode in cases]


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    """A directory holding the golden inputs under their relative names, made the current one."""
    write_inputs(tmp_path)
    monkeypatch.chdir(tmp_path)
    return tmp_path


def _program(argv: list[str], prefix=("-m", "shadowlab.cli")):
    return run_program(argv, prefix=prefix, env=ENV).done


@pytest.mark.parametrize("command, json_mode", PROGRAM_CASES, ids=_ids(PROGRAM_CASES))
def test_program_bytes_match_golden(golden, workdir, command, json_mode):
    argv = command.split() + ["--json"] * json_mode
    done = _program(argv)
    assert record(done.returncode, done.stdout, done.stderr, argv) == golden[key(command, json_mode)]


def test_block_buffered_report_is_whole(golden, workdir):
    # the runner's stdout is a regular file, so block-buffered: nothing reaches it unless the program flushes
    argv = ["weighted", "--input", "huge.json", "--json"]
    done = _program(argv)
    assert (done.returncode, done.stderr) == (0, b"")
    assert sha(done.stdout) == golden[key(" ".join(argv[:-1]), True)]["stdout"]


@pytest.mark.parametrize("command, json_mode", STATUS_CASES, ids=_ids(STATUS_CASES))
def test_returned_status_ends_the_program_before_exit_handlers(golden, workdir, command, json_mode):
    argv = command.split() + ["--json"] * json_mode
    done = _program(argv, ["-c", MARKER_CHILD])
    assert MARKER.encode() not in done.stdout
    assert record(done.returncode, done.stdout, done.stderr, argv) == golden[key(command, json_mode)]
    # in-process, main returns the same status, so callers such as the benchmark's trace launcher go on
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    assert (code, out.getvalue().encode(), err.getvalue().encode()) == (done.returncode, done.stdout, done.stderr)


@pytest.mark.parametrize("command, status", [("kk --family", 2), ("kk --size 3", 2), ("kk --help", 0)])
def test_usage_errors_and_help_take_the_normal_exit(workdir, monkeypatch, command, status):
    # argparse's SystemExit escapes main: the child writes what main writes in-process, then runs exit handlers
    monkeypatch.setenv("COLUMNS", ENV["COLUMNS"])
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err), pytest.raises(SystemExit) as exit_info:
        cli.main(command.split())
    done = _program(command.split(), ["-c", MARKER_CHILD])
    assert exit_info.value.code == done.returncode == status
    assert (done.stdout.decode(), done.stderr.decode()) == (out.getvalue() + MARKER + "\n", err.getvalue())
