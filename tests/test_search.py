"""Exhaustive searches and the seeded random probe."""

import random
import subprocess
import sys
from fractions import Fraction
from itertools import combinations, islice, product
from math import comb
from pathlib import Path

import pytest

from shadowlab import search
from shadowlab.constructions import k4_blowup
from shadowlab.errors import BoundViolationError, CapacityError, ValidationError
from shadowlab.hypergraph import (PROBLEMS, ColoredHypergraph, Problem, check_ratio, color_isomorphic,
                                  good_4subsets_mixed)
from shadowlab.search import (PROBE_CAP, _best_in_blocks, _draws, random_probe, search_mixed_4subsets,
                              search_rainbow_triangle)

SRC = Path(__file__).resolve().parent.parent / "src"

RGB = ("red", "green", "blue")


def reference_rainbow(n):
    """The scan one state at a time: best T^2/(RGB), states explored, and the witness's edges."""
    pairs = list(combinations(range(n), 2))
    index = {p: i for i, p in enumerate(pairs)}
    triangles = [(index[(a, b)], index[(a, c)], index[(b, c)]) for a, b, c in combinations(range(n), 3)]
    best_num, best_den, best_state, explored = 0, 1, None, 0
    for state in product((0, 1, 2, 3), repeat=len(pairs)):
        explored += 1
        r = state.count(1)
        g = state.count(2)
        b = state.count(3)
        if not (r and g and b):
            continue
        t = 0
        for i, j, k in triangles:
            ci = state[i]
            if ci:
                cj = state[j]
                if cj and cj != ci:
                    ck = state[k]
                    if ck and ck != ci and ck != cj:
                        t += 1
        if t and t * t * best_den > best_num * r * g * b:
            best_num, best_den, best_state = t * t, r * g * b, state
    edges = sorted((pairs[i], RGB[c - 1]) for i, c in enumerate(best_state) if c)
    return Fraction(best_num, best_den), explored, edges


def reference_mixed(n):
    """The scan one state at a time: best J^2/(N2 N3^2), states explored, and the witness's edges."""
    pairs = list(combinations(range(n), 2))
    triples = list(combinations(range(n), 3))
    pair_idx = {p: i for i, p in enumerate(pairs)}
    triple_idx = {t: i for i, t in enumerate(triples)}
    quad_checks = []
    for quad in combinations(range(n), 4):
        splits = []
        for v3, v4 in combinations(quad, 2):
            v1, v2 = (x for x in quad if x not in (v3, v4))
            splits.append((pair_idx[(v3, v4)], triple_idx[tuple(sorted((v1, v2, v3)))],
                           triple_idx[tuple(sorted((v1, v2, v4)))]))
        quad_checks.append(splits)
    best_num, best_den, best_bits, explored = 0, 1, None, 0
    for bits2 in range(1, 1 << len(pairs)):
        n2 = bits2.bit_count()
        for bits3 in range(1, 1 << len(triples)):
            explored += 1
            j = 0
            for splits in quad_checks:
                for p, t1, t2 in splits:
                    if bits2 >> p & 1 and bits3 >> t1 & 1 and bits3 >> t2 & 1:
                        j += 1
                        break
            n3 = bits3.bit_count()
            if j and j * j * best_den > best_num * n2 * n3 * n3:
                best_num, best_den, best_bits = j * j, n2 * n3 * n3, (bits2, bits3)
    bits2, bits3 = best_bits
    edges = sorted([(p, "plain") for i, p in enumerate(pairs) if bits2 >> i & 1]
                   + [(t, "plain") for i, t in enumerate(triples) if bits3 >> i & 1])
    return Fraction(best_num, best_den), explored, edges


@pytest.mark.parametrize("scan, reference, n", [
    (search_rainbow_triangle, reference_rainbow, 3),
    (search_rainbow_triangle, reference_rainbow, 4),
    (search_rainbow_triangle, reference_rainbow, 5),
    (search_mixed_4subsets, reference_mixed, 4),
    (search_mixed_4subsets, reference_mixed, 5),
])
def test_block_scan_matches_the_state_by_state_scan(scan, reference, n):
    res = scan(n)
    assert (res.best, res.explored, sorted((e.verts, e.color) for e in res.witness.edges)) == reference(n)


def test_n5_witnesses():
    res = search_rainbow_triangle(5)
    assert res.best == 2
    assert sorted((e.verts, e.color) for e in res.witness.edges) == [
        ((1, 2), "red"), ((1, 3), "green"), ((1, 4), "blue"), ((2, 3), "blue"), ((2, 4), "green"), ((3, 4), "red")]
    res = search_mixed_4subsets(5)
    assert res.best == Fraction(1, 2)
    assert sorted(e.verts for e in res.witness.edges) == [(0, 1, 4), (0, 2, 4), (0, 3), (1, 2), (1, 3, 4), (2, 3, 4)]


def test_tied_groups_keep_the_first_state_in_product_order():
    # inner states 0, 1, 2 fall in groups 1, 0, 2, so the layout visits them as 1, 0, 2;
    # each counts one structure under the same denominator, and state (0, 0) comes first
    shares = {"o": 0, 0: 1, 1: 0, 2: 2}
    best = _best_in_blocks(["o"], [0, 1, 2], shares.__getitem__, lambda x, y: 1,
                           [(lambda o: None, lambda i: None)], lambda op, ip: True)
    assert best == (1, 1, "o", 0)


class TestRainbowSearch:
    def test_n3_single_triangle(self):
        res = search_rainbow_triangle(3)
        assert res.best == 1
        assert res.explored == 4**3
        assert res.exhaustive

    def test_n4_tight_and_isomorphic_to_opposite_coloring(self):
        res = search_rainbow_triangle(4)
        assert res.best == 2
        assert res.explored == 4**6
        assert color_isomorphic(res.witness, k4_blowup(1).graph)

    def test_witness_recounts_exactly(self):
        res = search_rainbow_triangle(4)
        rep = check_ratio("rainbow_d", res.witness, 3, colors=RGB)
        t = rep.counts["T"]
        assert Fraction(t * t, rep.counts["C"][0] * rep.counts["C"][1] * rep.counts["C"][2]) == res.best

    def test_never_exceeds_proven_cap(self):
        for n in (3, 4):
            assert search_rainbow_triangle(n).best <= 2

    def test_cap(self):
        for n in (6, 8):
            with pytest.raises(CapacityError):
                search_rainbow_triangle(n)


class TestMixedSearch:
    def test_n4_exhaustive_value(self):
        res = search_mixed_4subsets(4)
        # one good 4-subset with minimal N2 = 1, N3 = 2 is optimal at n=4
        assert res.best == Fraction(1, 4)
        assert res.exhaustive
        assert res.best <= Fraction(9, 2)

    def test_witness_recounts_exactly(self):
        res = search_mixed_4subsets(4)
        h = res.witness
        j = len(good_4subsets_mixed(h))
        n2 = sum(1 for e in h.edges if len(e.verts) == 2)
        n3 = sum(1 for e in h.edges if len(e.verts) == 3)
        assert Fraction(j * j, n2 * n3 * n3) == res.best

    def test_too_few_vertices_rejected(self):
        with pytest.raises(ValidationError):
            search_mixed_4subsets(3)

    def test_cap(self):
        for n in (6, 7):
            with pytest.raises(CapacityError):
                search_mixed_4subsets(n)


class TestRandomProbe:
    def test_deterministic(self):
        a = random_probe("rainbow_d", {"vertices": 6, "d": 3}, 200, seed=7)
        b = random_probe("rainbow_d", {"vertices": 6, "d": 3}, 200, seed=7)
        assert a.best == b.best
        assert a.witness == b.witness

    def test_zero_trials(self):
        res = random_probe("good6", {"vertices": 8}, 0, seed=1)
        assert res.witness is None
        assert res.explored == 0

    def test_rainbow_probe_respects_proven_cap(self):
        res = random_probe("rainbow_d", {"vertices": 7, "d": 3}, 300, seed=5)
        if res.witness is not None:
            assert res.best <= 2

    def test_witness_recounts(self):
        res = random_probe("rainbow_d", {"vertices": 6, "d": 3}, 100, seed=11)
        if res.witness is not None:
            rep = check_ratio("rainbow_d", res.witness, 3, colors=("c1", "c2", "c3"))
            num = rep.counts["T"] ** 2
            den = rep.counts["C"][0] * rep.counts["C"][1] * rep.counts["C"][2]
            assert Fraction(num, den) == res.best

    def test_mixed_probe_within_shearer_cap(self):
        res = random_probe("mixed4", {"vertices": 6}, 200, seed=2)
        if res.witness is not None:
            assert res.best <= Fraction(9, 2)

    def test_covering_probe(self):
        res = random_probe("covering_delta", {"vertices": 5, "delta": 1}, 200, seed=3)
        if res.witness is not None:
            assert res.best <= 6

    def test_vertex_cap_checked_before_drawing(self):
        with pytest.raises(CapacityError):
            random_probe("good6", {"vertices": 65}, 0)

    def test_unknown_problem_rejected(self):
        with pytest.raises(ValidationError):
            random_probe("mystery", {}, 10)


def reference_instance(rng, name, n, d, delta):
    """One random graph of a problem, drawn with random() or randrange() a subset at a time: the reference
    for the probe's bulk draws into compact forms."""
    if name in ("rainbow_d", "covering_delta"):
        size, colors = (d - 1, tuple(f"c{i + 1}" for i in range(d))) if name == "rainbow_d" else (delta + 2, RGB)
        edges = []
        for verts in combinations(range(n), size):
            pick = rng.randrange(len(colors) + 1)
            if pick:
                edges.append((verts, colors[pick - 1]))
        return ColoredHypergraph.from_edges(n, edges)
    sizes = (4,) if name == "good6" else (2, 3)
    return ColoredHypergraph.from_edges(
        n, [(v, "plain") for size in sizes for v in combinations(range(n), size) if rng.random() < 0.5])


def reference_probe(name, n, d, delta, trials, seed):
    """The probe one graph per trial, each counted through the registry: (best, witness, explored).
    The reference for `random_probe`, which builds no graph but the witness."""
    rng = random.Random(seed)
    best_num, best_den, witness = 0, 1, None
    for _ in range(trials):
        h = reference_instance(rng, name, n, d, delta)
        _, num, den = PROBLEMS[name].measure(h, d, delta, None)
        if den and (witness is None or num * best_den > best_num * den):
            best_num, best_den, witness = num, den, h
    return (None if witness is None else Fraction(best_num, best_den)), witness, trials


# (problem, vertices, d, delta, trials): every problem up to the benchmark's probe sizes, and below each edge size
PROBE_GRID = [
    ("rainbow_d", 2, 3, 0, 5), ("rainbow_d", 3, 3, 0, 60), ("rainbow_d", 5, 3, 0, 40), ("rainbow_d", 8, 3, 0, 30),
    ("rainbow_d", 10, 3, 0, 20), ("rainbow_d", 6, 2, 0, 30), ("rainbow_d", 5, 4, 0, 40), ("rainbow_d", 7, 4, 0, 30),
    ("rainbow_d", 7, 5, 0, 20), ("rainbow_d", 3, 5, 0, 5), ("rainbow_d", 5, 300, 0, 3),
    ("good6", 3, 3, 0, 5), ("good6", 6, 3, 0, 60), ("good6", 8, 3, 0, 20), ("good6", 9, 3, 0, 10),
    ("mixed4", 1, 3, 0, 5), ("mixed4", 4, 3, 0, 60), ("mixed4", 6, 3, 0, 40), ("mixed4", 7, 3, 0, 20),
    ("covering_delta", 3, 3, 0, 60), ("covering_delta", 8, 3, 0, 30), ("covering_delta", 10, 3, 0, 20),
    ("covering_delta", 5, 3, 1, 40), ("covering_delta", 7, 3, 1, 30), ("covering_delta", 7, 3, 2, 20),
]


@pytest.mark.parametrize("seed", [0, 7, 2**31 - 1])
@pytest.mark.parametrize("name, n, d, delta, trials", PROBE_GRID)
def test_probe_matches_the_graph_per_trial_probe(name, n, d, delta, trials, seed):
    res = random_probe(name, {"vertices": n, "d": d, "delta": delta}, trials, seed=seed)
    assert (res.best, res.witness, res.explored) == reference_probe(name, n, d, delta, trials, seed)


@pytest.mark.parametrize("colors", [1, *range(2, 66)])  # one color is a fair coin; rainbow_d draws up to 65
def test_draws_read_the_generator_as_random_and_randrange(colors):
    for seed, m in ((0, 0), (1, 1), (2, 7), (3, 200)):
        rng = random.Random(seed)
        if colors == 1:
            expected = [[int(rng.random() < 0.5) for _ in range(m)] for _ in range(4)]
        else:
            expected = [[rng.randrange(colors + 1) for _ in range(m)] for _ in range(4)]
        assert [list(t) for t in islice(_draws(random.Random(seed), colors, m), 4)] == expected


def test_probe_work_capped_before_drawing(monkeypatch):
    def refuse(*args):
        raise AssertionError("a trial was drawn before the cap was checked")

    monkeypatch.setattr(search, "_draws", refuse)
    # good6 on 29 vertices draws C(29, 4) = 23,751 subsets a trial
    with pytest.raises(CapacityError, match=r"probe draws .* = 166257 exceeds cap 150000"):
        random_probe("good6", {"vertices": 29}, 7)
    with pytest.raises(CapacityError, match="= 31465000 exceeds cap"):
        random_probe("good6", {"vertices": 31}, 1000)


def test_costliest_probe_under_the_cap_finishes_within_budget():
    # good6 costs the most a draw, and more the more vertices; from 30 vertices on, the good6 count's own
    # cap refuses about half-full instances.  So six trials on 29 are the costliest probe both caps
    # admit, seven counts with the witness's recount: 3.6-4.9 s on a 2-vCPU x86 VM with Python 3.11,
    # against a budget of 10 s
    assert 6 * comb(29, 4) <= PROBE_CAP < 7 * comb(29, 4)
    argv = [sys.executable, "-m", "shadowlab.cli", "search", "probe", "--problem", "good6", "--vertices", "29",
            "--trials", "6", "--json"]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=10, env={"PYTHONPATH": str(SRC)})
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("name", PROBLEMS)
def test_probe_ratio_differing_from_the_registry_raises(monkeypatch, name):
    problem = PROBLEMS[name]
    wrong = Problem(problem.name, problem.quantity, lambda h, d, delta, colors: ({}, 1, 1000),
                    problem.bounds, problem.notes, problem.draws, problem.tally)
    monkeypatch.setitem(PROBLEMS, name, wrong)
    with pytest.raises(BoundViolationError, match="recounts to 1/1000"):
        random_probe(name, {"vertices": 7}, 20)


@pytest.mark.parametrize("scan, name", [(search_rainbow_triangle, "rainbow_d"), (search_mixed_4subsets, "mixed4")])
def test_scan_ratio_differing_from_the_registry_raises(monkeypatch, scan, name):
    problem = PROBLEMS[name]
    wrong = Problem(problem.name, problem.quantity, lambda h, d, delta, colors: ({}, 1, 1000),
                    problem.bounds, problem.notes, problem.draws, problem.tally)
    monkeypatch.setitem(PROBLEMS, name, wrong)
    with pytest.raises(BoundViolationError, match="recounts to 1/1000"):
        scan(4)
