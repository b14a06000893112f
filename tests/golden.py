"""The golden command-line cases, their input files, and the record of one run that tests/cli_golden.json pins.

A record is the exit code, the sha256 of stdout and of stderr, and the sha256 of the `--out` file when the
command names one (None when it names one and writes nothing).  `test_cli_golden` runs CASES in-process,
`test_cli_program` some of them as the program, and `reach.py` all of them under a line tracer; each writes
INPUTS with `write_inputs` first.  A plain module, so that `reach.py` can import it without pytest.
"""

from __future__ import annotations

import hashlib
import json
from itertools import combinations
from pathlib import Path

from shadowlab import cli

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
    # weights near 10^15: the terms and N^{3/2} are floats far past 2^53
    "huge.json": _graph(12, [((i, j), "plain", 10**15 + 7 * i + j) for i, j in combinations(range(12), 2)]),
    "fam.json": {"n": 5, "d": 3, "sets": [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3], [0, 1, 4]]},
    "empty.json": {"n": 5, "d": 3, "sets": []},
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
    "a0.json": {"arity": 0, "support": [{"values": [], "p": "1"}]},  # one empty tuple: refused by its arity
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
    "kk --family fam.json",
    "kk --family fam.json --out shadow-out.json",
    "kk --family fam.json --out ./fam.json",  # refused: the output would overwrite its input
    "kk --family empty.json --out e.json",  # refused: e.json unwritten
    "qkk --family subs.json",
    "kk --family fam-true.json",
    "kk --family fam-string.json",
    "kk --family fam-nonlist.json",
    "kk --family fam-repeat.json",
    "kk --family fam-range.json",
    "kk --family fam-size.json",
    "kk --family fam-dup.json",
    "kk --family fam-unsorted.json",
    "kk --family fam-unsorted.json --out shadow-unsorted.json",
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
    "entropy --dist dist.json --shearer 0,1;1,2;0,2",
    "entropy --dist a0.json",
    "entropy --key --family fam.json",
    "entropy --key",
    "entropy",
    # each mode refuses the options it does not read: exit 3, before any file is read
    "entropy --key --family fam.json --dist dist.json",
    "entropy --dist dist.json --family fam.json",
    "entropy --dist dist.json --shearer 0,1;1,2;0,2 --coords 0,2",
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
    # each action refuses the options it does not read: exit 3, before any file is read
    "forbidding verify --system repeats --universe-size 5 --d 2 --family fam.json",
    "forbidding gkk --system repeats --universe-size 5 --d 3 --family fam.json --subspaces subs.json",
    "forbidding verify --system repeats --universe-size 4 --d 3 --set 0,1",
    "forbidding sd --system repeats --universe-size 6 --d 3 --set 0,1,2,3 --seed 1",
    "forbidding verify --system qlinear:2,3 --universe-size 7 --d 2",
    "construct k4-blowup --n 2 --out k4-out.json",
    "construct k4-blowup --n 17",
    "construct rainbow-tripartite --a 1 --b 2 --c 3",
    "construct matching --d 5",
    "construct lift --input k4.json --out lift-out.json",
    "construct lift",
    "construct k4-blowup --n 2 --input missing.json --out g.json",  # only lift reads --input: exit 3, g.json unwritten
    "construct k4-blowup --n 2 --a 5 --m 9 --out g.json",  # only rainbow-tripartite reads --a: exit 3, g.json unwritten
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
    "weighted --input w.json --spectral",  # a usage error: weighted takes no --spectral
    "weighted --input huge.json",
    "partial-shadow --input star.txt --r 3 --k 1",
    # usage errors, whose message argparse wraps at COLUMNS
    "kk",
    "qkk --family",
    # the help of the program and of each command, wrapped at COLUMNS too
    "--help",
    *(f"{name} --help" for name, _, _ in cli._COMMANDS),
]


def write_input(directory: Path, name: str, content) -> str:
    """Write one input file into `directory`, a JSON object dumped and a string as it is, and return its path."""
    path = directory / name
    path.write_text(content if isinstance(content, str) else json.dumps(content))
    return str(path)


def write_inputs(directory: Path, inputs: dict = INPUTS) -> None:
    for name, content in inputs.items():
        write_input(directory, name, content)


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def record(code: int, stdout: bytes, stderr: bytes, argv: list[str]) -> dict:
    """The golden record of one run of argv in the current directory that ended with `code`."""
    entry = {"exit": code, "stdout": sha(stdout), "stderr": sha(stderr)}
    if "--out" in argv:
        out_file = Path(argv[argv.index("--out") + 1])
        entry["out"] = sha(out_file.read_bytes()) if out_file.exists() else None
    return entry


def key(command: str, json_mode: bool) -> str:
    """The golden key of a command, in text or `--json` mode."""
    return command + (" --json" if json_mode else "")
