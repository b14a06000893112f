"""Exhaustive searches and the seeded random probe."""

from fractions import Fraction
from itertools import combinations, product

import pytest

from shadowlab.constructions import k4_blowup
from shadowlab.errors import BoundViolationError, CapacityError, ValidationError
from shadowlab.hypergraph import PROBLEMS, Problem, check_ratio, color_isomorphic, good_4subsets_mixed
from shadowlab.search import _best_in_blocks, random_probe, search_mixed_4subsets, search_rainbow_triangle

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


@pytest.mark.parametrize("scan, name", [(search_rainbow_triangle, "rainbow_d"), (search_mixed_4subsets, "mixed4")])
def test_scan_ratio_differing_from_the_registry_raises(monkeypatch, scan, name):
    problem = PROBLEMS[name]
    wrong = Problem(problem.name, problem.quantity, lambda h, d, delta, colors: ({}, 1, 1000),
                    problem.bounds, problem.notes, problem.instance)
    monkeypatch.setitem(PROBLEMS, name, wrong)
    with pytest.raises(BoundViolationError, match="recounts to 1/1000"):
        scan(4)
