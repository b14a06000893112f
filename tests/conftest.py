"""Shared builders, seeded-random generators and brute-force references for the test suite, and the one
runner of the program as a child process.

`ref` is `bench/reference.py`, the benchmark's counts from the definitions; it imports nothing of shadowlab.
"""

import importlib.util
import math
import os
import random
import resource
import subprocess
import sys
import tempfile
import threading
import time
from collections import Counter
from fractions import Fraction
from itertools import combinations, product
from pathlib import Path
from typing import NamedTuple

from shadowlab import hypergraph
from shadowlab.constructions import round_robin_matchings
from shadowlab.entropy import ExactDistribution
from shadowlab.hypergraph import ColoredHypergraph, SetFamily
from shadowlab.problems import PROBLEMS, Problem

RGB = ("red", "green", "blue")

REFERENCE = Path(__file__).resolve().parents[1] / "bench" / "reference.py"
# not `reference`: bench/tests puts a module of that name on sys.path
_spec = importlib.util.spec_from_file_location("bench_reference", REFERENCE)
ref = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ref)
SRC = REFERENCE.parents[1] / "src"


class Finished(NamedTuple):
    """A child that ran to its end: the process, its wall time in seconds and its peak RSS in bytes."""
    done: subprocess.CompletedProcess
    wall: float
    peak_rss: int


def run_program(argv, cwd=None, *, prefix=("-m", "shadowlab.cli"), limit=None, timeout=60.0, env=None,
                stdout=None, text=False) -> Finished:
    """`python -m shadowlab.cli *argv`, or `python *prefix *argv`, as a child in `cwd` with `src` on its path.

    `limit` caps its address space in bytes (RLIMIT_AS, from before the interpreter starts); one still running after
    `timeout` seconds is killed, and raises `subprocess.TimeoutExpired`.  Each entry of `env` overrides the inherited
    environment, and one whose value is None is removed.  stdout goes to `stdout` if given, else like stderr to a
    regular file, as a shell's redirection gives it (so block-buffered), read back as bytes or, with `text`, as text.
    The peak RSS is the child's own, from `os.wait4` (whose `ru_maxrss` Linux counts in KiB).
    """
    environ = {**os.environ, "PYTHONPATH": str(SRC), **(env or {})}
    cap = (lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit))) if limit else None
    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
        start = time.perf_counter()
        child = subprocess.Popen([sys.executable, *prefix, *argv], cwd=cwd, preexec_fn=cap,
                                 env={k: v for k, v in environ.items() if v is not None},
                                 stdout=out if stdout is None else stdout, stderr=err)
        ended = []  # the wait status, usage and wall time, once the child exits
        waiter = threading.Thread(target=lambda: ended.extend([*os.wait4(child.pid, 0)[1:],
                                                               time.perf_counter() - start]))
        waiter.start()
        waiter.join(timeout)
        if waiter.is_alive():
            child.kill()
        waiter.join()
        status, usage, wall = ended
        child.returncode = os.waitstatus_to_exitcode(status)  # reaped here, so Popen must not wait for it
        if wall >= timeout:
            raise subprocess.TimeoutExpired(child.args, timeout)
        for stream in out, err:
            stream.seek(0)
        captured = [stream.read().decode() if text else stream.read() for stream in (out, err)]
        if stdout is not None:
            captured[0] = None
        done = subprocess.CompletedProcess(child.args, child.returncode, *captured)
    return Finished(done, wall, usage.ru_maxrss * 1024)


def edge_list(h: ColoredHypergraph) -> list:
    """h's edges as the (verts, color) pairs the reference counts read."""
    return [(e.verts, e.color) for e in h.edges]


def span(rows, q: int, n: int) -> frozenset:
    """All F_q linear combinations of rows, as a frozenset of n-tuples (the zero vector included)."""
    return frozenset(tuple(sum(c * row[i] for c, row in zip(coeffs, rows)) % q for i in range(n))
                     for coeffs in product(range(q), repeat=len(rows)))


def subspaces_by_span(q: int, n: int, d: int) -> set:
    """The d-subspaces of F_q^n as point sets: spans of d-tuples of nonzero vectors, deduplicated."""
    if d == 0:
        return {frozenset({(0,) * n})}
    vectors = [v for v in product(range(q), repeat=n) if any(v)]
    spans = (span(gens, q, n) for gens in combinations(vectors, d))
    return {s for s in spans if len(s) == q**d}


def gl_order(q: int, k: int) -> int:
    """|GL_k(F_q)|: the ordered bases of a k-dimensional space over F_q."""
    return math.prod(q**k - q**i for i in range(k))


def problem_count(name: str, h: ColoredHypergraph, d: int = 3, delta: int = 0, colors=None) -> int:
    """The registry problem's count on h (T, or J), as the command line and the checks read it."""
    problem = PROBLEMS[name]
    return problem.exact(h, d, delta, colors)[0][problem.names[0]]


def leave_one_out(n: int) -> tuple[tuple[int, ...], ...]:
    """The n subsets of [n] that each leave one index out, covering every index n - 1 times."""
    return tuple(tuple(j for j in range(n) if j != i) for i in range(n))


def is_opposite_edge_k4(h: ColoredHypergraph) -> bool:
    """Whether h's color classes are the three perfect matchings of [4]: exactly when h is isomorphic,
    up to vertex and color relabeling, to k4_blowup(1), the K4 whose opposite edges share a color."""
    classes = {frozenset(e.verts for e in h.edges if e.color == c) for c in h.colors()}
    return h.n == 4 and classes == set(map(frozenset, round_robin_matchings(2)))


def orderings(ms) -> int:
    """Distinct orderings of a multiset: d! / prod(m_i!)."""
    return math.factorial(len(ms)) // math.prod(map(math.factorial, Counter(ms).values()))


def replaced(problem: Problem, **fields) -> Problem:
    """The registry problem with the given fields replaced."""
    return Problem(**{**{f: getattr(problem, f) for f in Problem._fields}, **fields})


def one_facet_short(mp) -> None:
    """Patch the shadow count that `kk` and `check_kruskal_katona` run to miss one facet: every family that meets
    Kruskal-Katona with equality then fails it."""
    mp.setattr(hypergraph, "_shadow_keys", lambda fam, whole=hypergraph._shadow_keys: set(sorted(whole(fam))[1:]))


def one_subset_short(mp) -> None:
    """Patch the shadow that `shadow` builds, the one `kk --out` writes and counts, to miss one (d-1)-subset: every
    family that meets Kruskal-Katona with equality then fails it there, where `one_facet_short` reaches no count."""
    mp.setattr(hypergraph, "_shadow", lambda fam, whole=hypergraph._shadow: set(sorted(whole(fam))[1:]))


def fig1_k4() -> ColoredHypergraph:
    """K4 with opposite edges sharing a color: 2 edges per color, 4 rainbow triangles."""
    return ColoredHypergraph.from_edges(
        4,
        [
            ((0, 1), "red"),
            ((2, 3), "red"),
            ((0, 3), "blue"),
            ((1, 2), "blue"),
            ((0, 2), "green"),
            ((1, 3), "green"),
        ],
    )


def random_colored_graph(rng: random.Random, n: int, colors=RGB) -> ColoredHypergraph:
    """Each pair independently gets no color or a uniform color."""
    edges = []
    for pair in combinations(range(n), 2):
        pick = rng.randrange(len(colors) + 1)
        if pick:
            edges.append((pair, colors[pick - 1]))
    return ColoredHypergraph.from_edges(n, edges)


def random_uniform_hypergraph(rng: random.Random, n: int, size: int, p: float = 0.5,
                              color: str = "plain") -> ColoredHypergraph:
    edges = []
    for verts in combinations(range(n), size):
        if rng.random() < p:
            edges.append((verts, color))
    return ColoredHypergraph.from_edges(n, edges)


def random_set_family(rng: random.Random, n: int, d: int, max_members: int) -> SetFamily:
    """Nonempty random family of d-subsets of [n]."""
    pool = list(combinations(range(n), d))
    count = rng.randint(1, min(max_members, len(pool)))
    return SetFamily.make(n, rng.sample(pool, count), d=d)


def random_weighted_complete(rng: random.Random, n: int, d: int, wmax: int = 9,
                             color: str = "plain") -> ColoredHypergraph:
    """Weighted complete (d-1)-uniform graph; zero-weight facets are omitted."""
    edges = []
    for verts in combinations(range(n), d - 1):
        w = rng.randint(0, wmax)
        if w:
            edges.append((verts, color, w))
    return ColoredHypergraph.from_edges(n, edges)


def random_distribution(rng: random.Random, arity: int, max_support: int = 40,
                        value_range: int = 4) -> ExactDistribution:
    """Random exact distribution with integer-weight probabilities."""
    tuples = set()
    count = rng.randint(1, min(max_support, value_range**arity))
    while len(tuples) < count:
        tuples.add(tuple(rng.randrange(value_range) for _ in range(arity)))
    weights = {t: rng.randint(1, 9) for t in tuples}
    total = sum(weights.values())
    return ExactDistribution.from_pairs(
        arity, [(t, Fraction(w, total)) for t, w in weights.items()]
    )
