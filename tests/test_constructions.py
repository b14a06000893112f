"""Generated configurations: expected counts, self-checks, and censuses."""

from fractions import Fraction
from itertools import combinations

import pytest

from shadowlab.constructions import (
    complete_family,
    flats_example,
    k4_blowup,
    kappa_lift,
    matching_construction,
    rainbow_tripartite,
    round_robin_matchings,
    tetrahedra8,
    tripartite_mixed,
)
from conftest import fig1_k4, problem_count, replaced
from shadowlab import problems
from shadowlab.errors import BoundViolationError, CapacityError, ValidationError
from shadowlab.hypergraph import ColoredHypergraph, validate
from shadowlab.problems import PROBLEMS, rainbow_cliques

RGB = ("red", "green", "blue")


class TestK4Blowup:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_counts(self, n):
        c = k4_blowup(n)
        assert validate(c.graph).ok
        assert c.expected["R"] == c.expected["G"] == c.expected["B"] == 2 * n * n
        assert c.expected["T"] == 4 * n**3
        assert c.expected["ratio"] == Fraction(2)

    def test_n1_is_fig1(self):
        c = k4_blowup(1)
        assert c.graph.n == 4
        assert len(c.graph.edges) == 6
        assert problem_count("rainbow_d", c.graph, colors=RGB) == 4


class TestRainbowTripartite:
    def test_unit(self):
        c = rainbow_tripartite(1, 1, 1)
        assert c.expected["T"] == 1
        assert c.expected["ratio"] == 1

    def test_222(self):
        c = rainbow_tripartite(2, 2, 2)
        assert c.expected["T"] == 8
        assert c.expected["R"] == c.expected["G"] == c.expected["B"] == 4
        assert c.expected["ratio"] == 1

    def test_234(self):
        c = rainbow_tripartite(2, 3, 4)
        assert c.expected == {"R": 6, "G": 12, "B": 8, "T": 24, "ratio": Fraction(1)}
        assert 24 * 24 == 6 * 12 * 8


class TestMatchingConstruction:
    def test_round_robin_is_a_one_factorization(self):
        for m in (2, 3, 4):
            rounds = round_robin_matchings(m)
            seen = set()
            for matching in rounds:
                flat = [v for pair in matching for v in pair]
                assert sorted(flat) == list(range(2 * m))
                seen.update(matching)
            assert len(seen) == m * (2 * m - 1)

    @pytest.mark.parametrize("d", [3, 5, 7])
    def test_ratio(self, d):
        c = matching_construction(d)
        assert validate(c.graph).ok
        assert c.expected["T"] == d + 1
        assert set(c.expected["C"]) == {(d + 1) // 2}
        assert c.expected["ratio"] == Fraction(2**d, d + 1)

    def test_even_d_rejected(self):
        with pytest.raises(ValidationError):
            matching_construction(4)


class TestKappaLift:
    def test_lift_of_fig1(self):
        c = kappa_lift(k4_blowup(1).graph)
        assert sorted(c.expected["C"]) == [2, 2, 2, 4]
        assert c.expected["T"] == 4
        assert c.expected["ratio"] == Fraction(2)

    def test_lift_preserves_unit_ratio(self):
        c = kappa_lift(rainbow_tripartite(1, 1, 1).graph)
        assert c.expected["ratio"] == Fraction(1)

    def test_double_lift(self):
        once = kappa_lift(k4_blowup(1).graph)
        twice = kappa_lift(once.graph)
        assert twice.expected["ratio"] == Fraction(2)
        assert PROBLEMS["rainbow_d"].exact(twice.graph, 5, colors=twice.graph.colors())[1] == Fraction(2)

    def test_preserves_ratio_on_matching(self):
        base = matching_construction(5)
        lifted = kappa_lift(base.graph)
        assert lifted.expected["ratio"] == base.expected["ratio"]

    def test_wrong_uniformity_rejected(self):
        with pytest.raises(ValidationError):
            kappa_lift(flats_example().graph)

    def test_lift_without_rainbow_clique_has_no_ratio(self):
        # the new color class is empty, so the lifted ratio is undefined
        path = ColoredHypergraph.from_edges(4, [((0, 1), "red"), ((1, 2), "green"), ((2, 3), "blue")])
        c = kappa_lift(path)
        assert c.expected == {"T": 0, "C": (1, 1, 1, 0), "ratio": None}


class TestTetrahedra8:
    def test_counts_and_ratio(self):
        c = tetrahedra8()
        assert validate(c.graph).ok
        counts = c.graph.color_counts()
        assert (counts["red"], counts["blue"], counts["green"], counts["yellow"]) == (16, 16, 12, 12)
        assert c.expected["T"] == 48
        assert c.expected["ratio"] == Fraction(3)
        assert Fraction(48**3, 16 * 16 * 12 * 12) == 3

    def test_rainbow_census(self):
        # the 48 cliques split 16 + 16 + 16 across three listed families
        c = tetrahedra8()
        cliques = set(rainbow_cliques(c.graph, ("red", "blue", "green", "yellow")))
        u, v = list(range(4)), list(range(4, 8))
        fam1 = {tuple(sorted(su + (vi,))) for su in combinations(u, 3) for vi in v}
        fam2 = {tuple(sorted((ui,) + sv)) for ui in u for sv in combinations(v, 3)}
        fam3 = {
            tuple(sorted((u[i], u[(i + 1) % 4], v[j], v[(j + 1) % 4])))
            for i in range(4)
            for j in range(4)
        }
        assert len(fam1) == len(fam2) == len(fam3) == 16
        assert cliques == fam1 | fam2 | fam3

    def test_every_triple_is_an_edge(self):
        c = tetrahedra8()
        assert len(c.graph.edges) == 56
        assert {e.verts for e in c.graph.edges} == set(combinations(range(8), 3))


class TestFlatsExample:
    def test_counts(self):
        c = flats_example()
        assert len(c.graph.edges) == 14
        assert problem_count("good6", c.graph) == 28
        assert c.expected["ratio"] == Fraction(2, 7)


class TestTripartiteMixed:
    def test_n1_no_pairs(self):
        c = tripartite_mixed(1)
        assert c.expected["N2"] == 0
        assert c.expected["J"] == 0

    def test_n2(self):
        c = tripartite_mixed(2)
        assert c.expected["N2"] == 3
        assert c.expected["N3"] == 8
        assert c.expected["J"] == 12  # 3 * binom(2,2)... 3 * 1 * 4
        assert problem_count("mixed4", c.graph) == 12

    @pytest.mark.parametrize("n,expected_ratio", [
        (2, Fraction(144, 3 * 64)), (3, Fraction(1)), (4, Fraction(288**2, 18 * 64 * 64)),
    ])
    def test_ratio_values(self, n, expected_ratio):
        c = tripartite_mixed(n)
        assert c.expected["ratio"] == expected_ratio
        assert c.expected["ratio"] <= Fraction(3, 2)

    def test_ratio_increases_toward_three_halves(self):
        values = [tripartite_mixed(n).expected["ratio"] for n in (2, 3, 4, 5)]
        assert all(a < b for a, b in zip(values, values[1:]))
        assert all(v < Fraction(3, 2) for v in values)


class TestCompleteFamily:
    def test_sizes(self):
        assert len(complete_family(5, 3)) == 10
        assert len(complete_family(4, 2)) == 6
        assert len(complete_family(3, 3)) == 1

    def test_m_below_d_rejected(self):
        with pytest.raises(ValidationError):
            complete_family(2, 3)


def test_generators_capped_before_building():
    # each would build millions of edges or members before a counting kernel refused it
    for build in (lambda: k4_blowup(3000), lambda: rainbow_tripartite(3000, 3000, 3000),
                  lambda: tripartite_mixed(400)):
        with pytest.raises(CapacityError, match="vertex count = (12000|9000|1200) exceeds cap 64"):
            build()
    with pytest.raises(CapacityError, match="vertex count = 68 exceeds cap 64"):
        k4_blowup(17)
    with pytest.raises(CapacityError, match="family members C\\(m, d\\) = 118264581564861424"):
        complete_family(60, 30)
    assert len(complete_family(20, 10)) == 184756


# each generator with the registry problem it recounts through
RECOUNTED = {
    "k4_blowup": (lambda: k4_blowup(2), "rainbow_d"),
    "rainbow_tripartite": (lambda: rainbow_tripartite(1, 2, 3), "rainbow_d"),
    "matching_construction": (lambda: matching_construction(5), "rainbow_d"),
    "kappa_lift": (lambda: kappa_lift(fig1_k4()), "rainbow_d"),
    "tetrahedra8": (tetrahedra8, "rainbow_d"),
    "flats_example": (flats_example, "good6"),
    "tripartite_mixed": (lambda: tripartite_mixed(2), "mixed4"),
}


@pytest.mark.parametrize("name", RECOUNTED)
def test_self_check_fires_on_a_recount_off_by_one(name, monkeypatch):
    build, problem = RECOUNTED[name]
    assert build().name == name
    registered = PROBLEMS[problem]
    monkeypatch.setitem(PROBLEMS, problem, replaced(registered, count=lambda form: registered.count(form) + 1))
    with pytest.raises(BoundViolationError, match=f"{name} self-check failed"):
        build()


@pytest.mark.parametrize("name", [n for n, (_, problem) in RECOUNTED.items() if problem == "rainbow_d"])
def test_self_check_fires_on_a_class_size_off_by_one(name, monkeypatch):
    build, _ = RECOUNTED[name]
    counted = problems._sizes
    monkeypatch.setattr(problems, "_sizes", lambda form: [k + 1 for k in counted(form)])
    with pytest.raises(BoundViolationError, match=f"{name} self-check failed"):
        build()


@pytest.mark.parametrize("name", ["k4_blowup", "rainbow_tripartite", "tetrahedra8"])
def test_self_check_fires_on_class_sizes_that_keep_the_ratio(name, monkeypatch):
    build, _ = RECOUNTED[name]
    counted = problems._sizes

    def moved(form):  # the first class doubled and the last halved keep their product, and so the ratio
        first, *middle, last = counted(form)
        return [2 * first, *middle, last // 2]

    monkeypatch.setattr(problems, "_sizes", moved)
    with pytest.raises(BoundViolationError, match=f"{name} self-check failed: R expected"):
        build()
