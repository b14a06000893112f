"""Exhaustive searches and the seeded random probe."""

from fractions import Fraction

import pytest

from shadowlab.constructions import k4_blowup
from shadowlab.errors import BoundViolationError, CapacityError, ValidationError
from shadowlab.hypergraph import PROBLEMS, Problem, check_ratio, color_isomorphic, good_4subsets_mixed
from shadowlab.search import random_probe, search_mixed_4subsets, search_rainbow_triangle

RGB = ("red", "green", "blue")


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
