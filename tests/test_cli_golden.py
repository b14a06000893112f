"""Golden digests of the command line's output bytes.

Every case runs `cli.main` in-process, in text and in `--json` mode, inside a
fresh directory that holds the fixed input files below under relative names,
so the report's `command` field does not depend on where the test runs.  For
each run, tests/cli_golden.json records the exit code, the sha256 of stdout
and of stderr, and the sha256 of the `--out` file when the case names one.

A change that moves output on purpose rewrites the digests with

    PYTHONPATH=src python tests/test_cli_golden.py

and says in CHANGES.md which entries moved and why.  Never rewrite them to
hide a difference that has no explanation.

On valid input, exit 5 can only come from a bug or a counterexample, so the
runs of PATCHED reach it, and a conjecture exceeded alone, through the seams
the tests patch: each runs its command under its patch.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest

from conftest import replaced
from shadowlab import cli
from shadowlab import forbidding as forb
from shadowlab.problems import PROBLEMS

GOLDEN = Path(__file__).with_name("cli_golden.json")


def _graph(n, edges):
    return {"vertices": n, "edges": [dict(v=list(v), color=c, **({"weight": w} if w else {}))
                                     for v, c, w in edges]}


_FLATS = ["plain 0 1 2 3", "plain 4 5 6 7"] + [
    "plain " + " ".join(map(str, ij + tuple(4 + k for k in kl)))
    for ij in combinations(range(4), 2)
    for kl in (ij, tuple(sorted(set(range(4)) - set(ij))))
]

# name -> file content; JSON objects are dumped, strings written as they are
INPUTS = {
    "k4.json": _graph(4, [((0, 1), "red", 0), ((2, 3), "red", 0), ((0, 3), "blue", 0),
                          ((1, 2), "blue", 0), ((0, 2), "green", 0), ((1, 3), "green", 0)]),
    "bad.json": {"vertices": 1, "edges": [{"v": [0, 5], "color": "red"}]},
    "flats.txt": "\n".join(_FLATS) + "\n",
    "mixed.txt": "plain 0 1\nplain 2 3\nplain 0 1 2\nplain 0 1 3\nplain 0 2 3\nplain 1 2 3\nplain 2 3 4\n",
    "triples.txt": "plain 0 1 2\nplain 0 1 3\n",
    "cover.txt": "red 0 1 2\ngreen 0 1 3\nblue 0 2 3\nred 1 2 3\n",
    "star.txt": "plain 0 1\nplain 0 2\nplain 0 3\n",
    "w.json": _graph(4, [(p, "plain", 1 + i) for i, p in enumerate(combinations(range(4), 2))]),
    # weights near 10^15: the trace identities hold to the last float digit, not to 10^-6 absolute
    "huge.json": _graph(12, [((i, j), "plain", 10**15 + 7 * i + j) for i, j in combinations(range(12), 2)]),
    "fam.json": {"n": 5, "d": 3, "sets": [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3], [0, 1, 4]]},
    "subs.json": {"q": 2, "n": 3, "d": 2, "members": [[[1, 0, 0], [0, 1, 0]], [[1, 0, 0], [0, 0, 1]]]},
    # malformed family files, each with more than one bad entry where the first one named matters
    "fam-true.json": {"n": 5, "d": 3, "sets": [[0, 1, 2], [0, 1, True], [0, 1, "2"]]},
    "fam-string.json": {"n": 5, "d": 3, "sets": [[0, 1, 2], [0, "1", 3], [0, 1, True]]},
    "fam-nonlist.json": {"n": 5, "d": 3, "sets": [[0, 1, 2], 7, [0, 1, "x"]]},
    "fam-repeat.json": {"n": 5, "d": 3, "sets": [[2, 3, 4], [1, 3, 3], [0, 0, 4]]},
    "fam-range.json": {"n": 5, "d": 3, "sets": [[0, 1, 2], [3, 1, 6], [2, 5, 1], [0, -1, 2]]},
    "fam-size.json": {"n": 5, "d": 3, "sets": [[0, 1, 2], [3, 4], [1, 2, 3, 4], [0, 4]]},
    "fam-dup.json": {"n": 5, "d": 3, "sets": [[0, 1, 2], [1, 2, 3], [2, 1, 0]]},
    "fam-unsorted.json": {"n": 6, "d": 3, "sets": [[2, 0, 1], [5, 3, 4], [0, 1, 3], [4, 1, 2]]},
    "subs-float.json": {"q": 2, "n": 3, "d": 2, "members": [[[1, 0, 0], [0, 1, 0]], [[1, 0, 0], [0, 1.0, 1]]]},
    "subs-short.json": {"q": 2, "n": 3, "d": 2, "members": [[[1, 0, 0], [0, 1, 0]], [[1, 0, 1], [0, 1]]]},
    "subs-echelon.json": {"q": 2, "n": 3, "d": 2, "members": [[[1, 0, 0], [0, 1, 0]], [[0, 1, 0], [1, 0, 0]]]},
    "subs-modq.json": {"q": 3, "n": 3, "d": 2, "members": [[[4, 0, -3], [0, 1, 5]], [[1, -3, 0], [3, 0, 7]],
                                                           [[1, 2, 0], [0, 0, 1]]]},
    # q = 7 with coefficients above 1, lines (d = 1), the whole space (d = n), and members the
    # readers refuse or reorder: out of order, repeated, a nonzero entry above a later pivot
    "subs-q7.json": {"q": 7, "n": 4, "d": 2, "members": [[[1, 0, 3, 5], [0, 1, 6, 2]], [[1, 2, 0, 4], [0, 0, 1, 3]],
                                                         [[0, 1, 0, 6], [0, 0, 1, 2]], [[1, 0, 5, 0], [0, 1, 4, 0]]]},
    "subs-lines.json": {"q": 3, "n": 3, "d": 1, "members": [[[1, 2, 0]], [[0, 1, 1]], [[0, 0, 1]]]},
    "subs-whole.json": {"q": 5, "n": 3, "d": 3, "members": [[[1, 0, 0], [0, 1, 0], [0, 0, 1]]]},
    "subs-unsorted.json": {"q": 2, "n": 4, "d": 2, "members": [[[1, 0, 1, 1], [0, 1, 0, 1]],
                                                               [[0, 1, 0, 0], [0, 0, 1, 0]],
                                                               [[1, 0, 0, 0], [0, 0, 1, 1]]]},
    "subs-dup.json": {"q": 3, "n": 3, "d": 2, "members": [[[1, 0, 2], [0, 1, 1]], [[1, 2, 0], [0, 0, 1]],
                                                          [[1, 0, 2], [0, 1, 1]]]},
    "subs-above.json": {"q": 3, "n": 4, "d": 2, "members": [[[1, 0, 2, 0], [0, 1, 1, 0]], [[1, 2, 0, 1], [0, 0, 1, 1]],
                                                            [[1, 1, 0, 2], [0, 1, 0, 1]]]},
    "dist.json": {"arity": 3, "support": [{"values": [0, 0, 1], "p": "1/4"}, {"values": [0, 1, 1], "p": "1/4"},
                                          {"values": [1, 0, 0], "p": "1/3"}, {"values": [1, 1, 0], "p": "1/6"}]},
}

CASES = [
    "validate --input k4.json",
    "validate --input bad.json",
    "count good6 --input flats.txt",
    "count mixed4 --input mixed.txt",
    "count mixed4 --input triples.txt",
    "count covering --input cover.txt --delta 1",
    "count good6 --input flats.txt --delta 1",  # refused: --delta is covering's alone
    "count good6 --input missing.json --delta 1",  # refused before the file is read
    "kappa --input k4.json --d 3",
    "kappa --input k4.json --d 3 --colors red,green,yellow",
    "shadow --family fam.json --out shadow-out.json",
    "shadow --family fam.json --out ./fam.json",  # refused: the output would overwrite its input
    "kk --family fam.json",
    "qkk --family subs.json",
    "kk --family fam-true.json",
    "kk --family fam-string.json",
    "kk --family fam-nonlist.json",
    "kk --family fam-repeat.json",
    "kk --family fam-range.json",
    "kk --family fam-size.json",
    "kk --family fam-dup.json",
    "kk --family fam-unsorted.json",
    "shadow --family fam-unsorted.json --out shadow-unsorted.json",
    "qkk --family subs-float.json",
    "qkk --family subs-short.json",
    "qkk --family subs-echelon.json",
    "qkk --family subs-modq.json",
    "qkk --family subs-q7.json",
    "qkk --family subs-lines.json",
    "qkk --family subs-whole.json",
    "qkk --family subs-unsorted.json",
    "qkk --family subs-dup.json",
    "qkk --family subs-above.json",
    "entropy --dist dist.json",
    "entropy --dist dist.json --coords 0,2",
    "entropy --dist dist.json --shearer 0,1;1,2;0,2 --k 2",
    "entropy --key --family fam.json",
    "entropy --key",
    "entropy",
    "forbidding verify --system repeats --universe-size 4 --d 3",
    "forbidding verify --system qlinear:2,3 --d 2",
    "forbidding verify --system repeats --universe-size 100 --d 5",  # the spot check, at seed 0
    "forbidding compatible --system repeats --universe-size 6 --d 3 --set 0,1,2",
    "forbidding compatible --system repeats --universe-size 6 --d 3",
    "forbidding compatible --system qlinear:2,3 --d 3 --set 1,0,0;0,1,0",  # incompatible, with a witness
    "forbidding sd --system repeats --universe-size 6 --d 3 --set 0,1,2,3",
    "forbidding sd --system qlinear:2,3 --d 2 --set 1,0,0;0,1,0;0,0,1",
    "forbidding gkk --system repeats --universe-size 5 --d 3 --family fam.json",
    "forbidding gkk --system qlinear:2,3 --d 2 --subspaces subs.json",
    "forbidding gkk --system qlinear:3,3 --d 2 --subspaces subs.json",  # subspaces of F_2^3: refused
    "construct k4-blowup --n 2 --out k4-out.json",
    "construct k4-blowup --n 17",
    "construct rainbow-tripartite --a 1 --b 2 --c 3",
    "construct matching --d 5",
    "construct lift --input k4.json --out lift-out.json",
    "construct lift",
    "construct k4-blowup --n 2 --input missing.json --out g.json",  # only lift reads --input: exit 3, g.json unwritten
    "construct tetrahedra8",
    "construct flats",
    "construct tripartite-mixed --n 2",
    "construct complete-family --m 5 --d 3 --out family-out.json",
    "search rainbow-triangle --max-vertices 4 --out witness-out.json",
    "search rainbow-triangle --max-vertices 6",
    "search mixed4 --max-vertices 4",
    # each mode refuses the other's options: exit 3, before any scan or draw
    "search rainbow-triangle --max-vertices 4 --d 4 --problem good6",
    "search probe --max-vertices 5",
    "search probe --problem rainbow_d --vertices 5 --trials 20 --seed 3 --out probe-out.json",
    "search probe --problem rainbow_d --d 4 --vertices 6 --trials 20",
    "search probe --problem good6 --vertices 7 --trials 5",
    "search probe --problem mixed4 --vertices 5 --trials 10 --seed 1",
    "search probe --problem covering_delta --vertices 5 --delta 1 --trials 10",
    "search probe --problem mixed4 --trials 0",
    # the benchmark's ten probe shapes, a fifth of its trials each, every witness pinned
    "search probe --problem rainbow_d --vertices 8 --d 3 --delta 0 --trials 160 --seed 11 --out p1.json",
    "search probe --problem rainbow_d --vertices 10 --d 3 --delta 0 --trials 80 --seed 12 --out p2.json",
    "search probe --problem rainbow_d --vertices 7 --d 4 --delta 0 --trials 60 --seed 13 --out p3.json",
    "search probe --problem good6 --vertices 9 --d 3 --delta 0 --trials 10 --seed 14 --out p4.json",
    "search probe --problem good6 --vertices 8 --d 3 --delta 0 --trials 30 --seed 15 --out p5.json",
    "search probe --problem mixed4 --vertices 7 --d 3 --delta 0 --trials 60 --seed 16 --out p6.json",
    "search probe --problem mixed4 --vertices 6 --d 3 --delta 0 --trials 160 --seed 1729 --out p7.json",
    "search probe --problem covering_delta --vertices 8 --d 3 --delta 0 --trials 120 --seed 18 --out p8.json",
    "search probe --problem covering_delta --vertices 10 --d 3 --delta 0 --trials 40 --seed 2147483646 --out p9.json",
    "search probe --problem covering_delta --vertices 7 --d 3 --delta 1 --trials 70 --seed 20 --out p10.json",
    # C(13, 3) = 286 size-sets: a count can need two bytes
    "search probe --problem rainbow_d --vertices 13 --trials 40 --seed 5 --out p11.json",
    # C(37, 4) = 66,045 size-sets: a count can need three bytes
    "search probe --problem covering_delta --delta 1 --vertices 37 --trials 2 --seed 9 --out p12.json",
    # C(45, 6) x 45 literals: refused before any draw
    "search probe --problem good6 --vertices 45 --trials 1",
    "weighted --input w.json",
    "weighted --input w.json --spectral",
    "weighted --input huge.json --spectral",
    "weighted --input missing.json --spectral --d 4",  # refused before the file is read
    "partial-shadow --input star.txt --r 3 --k 1",
    # usage errors, whose message argparse wraps at COLUMNS
    "kk",
    "qkk --family",
]


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


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run(command: str, json_mode: bool, patch=None) -> tuple[int, str, str, list[str]]:
    """Write the inputs into the current directory and run one command under `patch` with COLUMNS=80:
    its exit code (a usage error's too), stdout, stderr and argv."""
    for name, content in INPUTS.items():
        Path(name).write_text(content if isinstance(content, str) else json.dumps(content))
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
    record = {"exit": code, "stdout": _sha(out.encode()), "stderr": _sha(err.encode())}
    if "--out" in argv:
        out_file = Path(argv[argv.index("--out") + 1])
        record["out"] = _sha(out_file.read_bytes()) if out_file.exists() else None
    return record


def _key(command: str, json_mode: bool) -> str:
    return command + (" --json" if json_mode else "")


# (golden key without --json, patch, command) of every run
RUNS = [(c, None, c) for c in CASES] + [(f"{name}: {c}", patch, c) for name, (patch, c, _) in PATCHED.items()]


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_golden_file_lists_every_case(golden):
    assert sorted(golden) == sorted(_key(key, m) for key, _, _ in RUNS for m in (False, True))


@pytest.mark.parametrize("json_mode", [False, True], ids=["text", "json"])
@pytest.mark.parametrize("key, patch, command", RUNS, ids=[key for key, _, _ in RUNS])
def test_output_bytes_match_golden(golden, tmp_path, monkeypatch, key, patch, command, json_mode):
    monkeypatch.chdir(tmp_path)
    assert run_case(command, json_mode, patch) == golden[_key(key, json_mode)]


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
    for key, patch, command in RUNS:
        for json_mode in (False, True):
            with tempfile.TemporaryDirectory() as workdir:
                cwd = os.getcwd()
                os.chdir(workdir)
                try:
                    records[_key(key, json_mode)] = run_case(command, json_mode, patch)
                finally:
                    os.chdir(cwd)
    GOLDEN.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(records)} digests to {GOLDEN}", file=sys.stderr)


if __name__ == "__main__":
    _rewrite()
