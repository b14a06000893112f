"""The program at and past its caps, each run a child process under an address-space limit and a time budget.

A refused run exits 3 or 4 with its message on stderr, nothing on stdout and no traceback; a run at a cap exits
0 with its report on stdout (a `--json` one parses) and nothing on stderr.  The caps' own boundaries (the draws,
literals and recount facets one more vertex would pass) are checked in-process in tests/test_search.py.
"""

import json
import math
import random
from itertools import combinations
from typing import NamedTuple

import pytest

from conftest import run_program
from golden import write_inputs


def _weighted_graph(n, weights):
    return {"vertices": n, "edges": [{"v": v, "color": "plain", "weight": w} for v, w in weights]}


def _weighted_cap() -> str:
    """156,250 seeded 4-edges of 64 vertices: 10^7 coface visits at d = 5, the cap itself."""
    rng = random.Random(18)
    chosen = set(rng.sample(range(math.comb(64, 4)), 156_250))
    lines = [f"plain {' '.join(map(str, c))}" for i, c in enumerate(combinations(range(64), 4)) if i in chosen]
    return "\n".join(["vertices 64", *lines]) + "\n"


# inputs whose caps or float evaluation once ended in a traceback (exit 1)
INPUTS = {
    "huge.json": _weighted_graph(3, [([0, 1], 10**400)]),
    "triangle.json": _weighted_graph(3, [([0, 1], 10**103), ([0, 2], 10**103), ([1, 2], 10**103)]),
    "points.json": _weighted_graph(2, [([0], 10**200)]),
    "f.json": {"n": 3, "d": 2, "sets": [[1, 2]]},
    "wide.json": {"n": 15000, "d": 15000, "sets": [list(range(15000))]},
    "space20.json": {"q": 2, "n": 20, "d": 20, "members": [[[int(i == j) for j in range(20)] for i in range(20)]]},
    "space18.json": {"q": 2, "n": 100, "d": 18, "members": [[[int(i == j) for j in range(100)] for i in range(18)]]},
    "huge_p.json": {"arity": 1, "support": [{"values": [0], "p": "1e400000000"}]},
    "tiny_p.json": {"arity": 1, "support": [{"values": [0], "p": "1e-400000000"}]},
    "edgeless.json": _weighted_graph(3, []),
    "big_q.json": {"q": 10**400 + 1, "n": 2, "d": 1, "members": [[[1, 0]]]},
    "q999983.json": {"q": 999983, "n": 2, "d": 1, "members": [[[1, 0]]]},
    "plane999983.json": {"q": 999983, "n": 2, "d": 2, "members": [[[1, 0], [0, 1]]]},
}
# numbers too long for a row's id, named in its argv and texts in braces
BIG = {"{big}": str(10**400 + 1), "{prime}": str(2**61 - 1)}
GIB2, MIB256 = 2 << 30, 1 << 28


class Run(NamedTuple):
    """A row: the texts its output holds, its bytes of address space, the seconds its wall time stays under (it
    is killed there) and, where one is set, the bytes its peak resident set stays under."""
    argv: str
    code: int
    texts: tuple[str, ...]
    limit: int = GIB2
    budget: float = 5.0
    rss: int | None = None


def _spelled(text: str) -> str:
    for name, number in BIG.items():
        text = text.replace(name, number)
    return text


def _nothing_drawn(argv: str, trials: int) -> Run:
    """A probe that draws nothing: every trial explored, no ratio."""
    return Run(f"search probe {argv} --json", 0, ('"best_ratio":"none"', f'"explored":"{trials}"'), budget=2.0)


def _refused_at_once(argv: str, code: int, text: str) -> Run:
    return Run(argv, code, (text,), budget=2.0)


RUNS = [
    # q^n and C(m, d) are refused without being formed, and d < 0 is refused as input
    Run("forbidding verify --system qlinear:2,100000 --d 2", 4, ("field size q^n = 2^100000 exceeds cap 65536",)),
    Run("forbidding gkk --system qlinear:3,1000000 --d 2 --family f.json", 4, ("q^n = 3^1000000 exceeds",)),
    Run("construct complete-family --m 100000 --d 50000", 4, ("C(m, d) = C(100000, 50000) exceeds cap 1000000",)),
    Run("construct complete-family --m 1000000 --d 500000", 4, ("C(m, d) = C(1000000, 500000) exceeds",)),
    Run("construct complete-family --m 4000000 --d 2000000", 4, ("C(m, d) = C(4000000, 2000000) exceeds",)),
    Run("construct complete-family --m 3 --d -1", 3, ("need 0 <= d <= m, got m=3, d=-1",)),
    # a negative dimension, which reached itertools.product; from depth 1 on it met the depth cap first
    Run("forbidding verify --system qlinear:2,-1 --d 0", 3, ("n must be nonnegative, got -1",)),
    Run("forbidding verify --system qlinear:2,-1 --d 1", 3, ("n must be nonnegative, got -1",)),
    Run("forbidding verify --system repeats --universe-size -5 --d 1", 3,
        ("universe size must be nonnegative, got -5",)),
    # the matching construction's d + 1 vertices are capped before its C(d + 1, 2) edges are built
    Run("construct matching --d 2001", 4, ("vertex count = 2002 exceeds cap 64",)),
    # a cap's value too long to print: 2^15000 subset visits
    Run("entropy --key --family wide.json", 4, ("(members x 2^d) = a 15001-bit number exceeds cap 10000000",)),
    # weights whose float evaluation overflows: one weight, a triangle's product, N^2 at d = 2
    Run("weighted --input huge.json", 3, ("edge weights too large",)),
    Run("weighted --input triangle.json", 3, ("a term or the bound N^{d/(d-1)} overflows a float",)),
    Run("weighted --input points.json --d 2", 3, ("a term or the bound N^{d/(d-1)} overflows a float",)),
    # the q-analog shadow's work, refused before any row is combined: the 2^20 - 1 hyperplanes of
    # F_2^20, and 2^18 - 1 hyperplanes of one 18-space of F_2^100, 100 entries each
    Run("qkk --family space20.json", 4, ("hyperplanes of a member [d, 1]_q = 1048575 exceeds cap 1000000",)),
    Run("qkk --family space18.json", 4, ("(members x [d, 1]_q x n) = 26214300 exceeds cap 20000000",)),
    # a negative vertex count, which reached math.comb
    Run("search probe --vertices -1", 3, ("vertex count must be nonnegative, got -1",)),
    # a probability whose exponent Fraction would expand to 400,000,000 digits
    Run("entropy --dist huge_p.json", 3, ("support item 0: bad probability '1e400000000'",)),
    Run("entropy --dist tiny_p.json", 3, ("support item 0: bad probability '1e-400000000'",)),
    # q = 10^400 + 1 overflowed is_prime's float square root, and the prime 2^61 - 1 kept trial division busy for
    # over 20 s; an edgeless graph at d = 10^8 formed (d - 1)!, and at d = 200 overflowed a float on a weight of 0
    _refused_at_once("qkk --family big_q.json", 4, "field order q = {big} exceeds cap 1000000"),
    _refused_at_once("forbidding verify --system qlinear:{big},1 --d 1", 4, "field order q = {big} exceeds cap 65536"),
    _refused_at_once("forbidding verify --system qlinear:{prime},1 --d 1", 4,
                     "field order q = {prime} exceeds cap 65536"),
    _refused_at_once("forbidding verify --system qlinear:{prime},0 --d 1", 4,
                     "field order q = {prime} exceeds cap 65536"),
    _refused_at_once("weighted --input edgeless.json --d 100000000", 4,
                     "weighted edge size d - 1 = 99999999 exceeds cap 64"),
    _refused_at_once("weighted --input edgeless.json --d 200", 4, "weighted edge size d - 1 = 199 exceeds cap 64"),
    # gkk --subspaces built the 10^12 points of this plane under any system, and was still running at 20 s
    *(_refused_at_once(f"forbidding gkk --system {system} --d 2 --subspaces plane999983.json", 3,
                       f"subspaces of F_999983^2 need --system qlinear:999983,2, got {system.split()[0]}")
      for system in ["qlinear:2,2", "repeats --universe-size 4"]),
    # verify at its multiset cap: 988,259 multisets of size 1..3 over 179 elements, 1.8-2.5 s on a 2-vCPU x86 VM;
    # 180 elements need 1,004,730, and qlinear:2,8 at d = 3 needs 2,829,055
    Run("forbidding verify --system repeats --universe-size 179 --d 3 --json", 0,
        ('"checked":"16468"', '"exhaustive":true'), budget=10.0),
    _refused_at_once("forbidding verify --system repeats --universe-size 180 --d 3", 4,
                     "multisets of size 1..d = 1004730 exceeds cap 1000000"),
    _refused_at_once("forbidding verify --system qlinear:2,8 --d 3", 4,
                     "multisets of size 1..d = 2829055 exceeds cap 1000000"),
    # the largest field order a file may have
    Run("qkk --family q999983.json --json", 0, ('"q":"999983"',), budget=10.0),
    # 10^7 coface visits, the cap itself
    Run("weighted --input cap.txt --d 5", 0, ("weighted clique sum",), budget=10.0, rss=400 * 10**6),
    # edge sizes past the vertex cap: 2^31 colour names, or combinations' index array of 2^31 + 2
    _nothing_drawn("--d 2147483648 --vertices 4 --trials 2", 2),
    _nothing_drawn("--problem covering_delta --delta 2147483648 --vertices 4 --trials 2", 2),
    # no subset of [n] has the drawn size, so trials x draws is 0 and the cap never applies
    _nothing_drawn("--problem good6 --vertices 3 --trials 1000000", 1000000),
    _nothing_drawn("--d 1000000 --vertices 4", 1000),
    # of every problem's probes at the most vertices and trials the three caps admit (rainbow_d and covering_delta
    # to d = delta = 40), one trial of covering_delta with delta = 3 on 30 vertices is among the slowest: 3.6-4.6 s
    # and 141 MB peak RSS on a 2-vCPU x86 VM with Python 3.11
    Run("search probe --problem covering_delta --delta 3 --vertices 30 --trials 1 --json", 0, (), MIB256, 10.0),
    # of the same probes, one trial of rainbow_d with d = 28 on 31 vertices takes the most memory: 849,555 facets
    # to recount, 2.4-3.0 s and 215 MB peak RSS on the same VM
    Run("search probe --d 28 --vertices 31 --trials 1 --json", 0, (), MIB256, 10.0),
]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("caps")
    write_inputs(directory, {**INPUTS, "cap.txt": _weighted_cap()})
    return directory


@pytest.mark.parametrize("run", RUNS, ids=[run.argv for run in RUNS])
def test_run_at_the_caps(workdir, run):
    finished = run_program(_spelled(run.argv).split(), workdir, limit=run.limit, timeout=run.budget, text=True)
    done = finished.done
    assert done.returncode == run.code, done.stderr
    written, silent = (done.stdout, done.stderr) if run.code == 0 else (done.stderr, done.stdout)
    assert silent == "" and "Traceback" not in written
    assert all(_spelled(text) in written for text in run.texts), written
    if run.code == 0 and "--json" in run.argv:
        json.loads(done.stdout)
    assert finished.wall < run.budget
    assert run.rss is None or finished.peak_rss < run.rss
