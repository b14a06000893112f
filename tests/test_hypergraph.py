"""Counting operations and bound checks on colored hypergraphs."""

import copy
import math
import pickle
import random
import re
import time
from fractions import Fraction
from itertools import combinations, islice

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    RGB,
    edge_list,
    fig1_k4,
    problem_count,
    random_colored_graph,
    random_set_family,
    random_uniform_hypergraph,
    random_weighted_complete,
    ref,
)
from shadowlab import checks, hypergraph, problems
from shadowlab.errors import CapacityError, ValidationError
from shadowlab.hypergraph import ColoredHypergraph, SetFamily, check_kruskal_katona, shadow, validate
from shadowlab.checks import (
    check_partial_shadow_bound,
    count_partial_shadow_targets,
    weighted_joint_sum,
)
from shadowlab.problems import PROBLEMS, rainbow_cliques


def test_graphs_pickle_and_copy():
    h = random_weighted_complete(random.Random(3), 5, 3)
    assert pickle.loads(pickle.dumps(h)) == h
    assert copy.copy(h) == h and copy.deepcopy(h) == h
    assert copy.deepcopy(h.edges[0]) == h.edges[0]


class TestValidate:
    def test_fig1_valid(self):
        assert validate(fig1_k4()).ok

    def test_duplicate_vertex_set(self):
        h = ColoredHypergraph.from_edges(3, [((0, 1), "red"), ((0, 1), "blue")])
        report = validate(h)
        assert not report.ok
        assert any("simplicity" in v for v in report.violations)

    def test_vertex_out_of_range(self):
        h = ColoredHypergraph.from_edges(2, [((0, 2), "red")])
        report = validate(h)
        assert not report.ok
        assert any("out of range" in v for v in report.violations)


class TestRainbowCliques:
    def test_fig1_k4(self):
        assert problem_count("rainbow_d", fig1_k4(), colors=RGB) == 4

    def test_empty_graph(self):
        h = ColoredHypergraph.from_edges(5, [])
        assert problem_count("rainbow_d", h, colors=RGB) == 0

    def test_tripartite_blowup_222(self):
        # red between parts 1-2, green 2-3, blue 1-3; T = 2*2*2
        parts = [(0, 1), (2, 3), (4, 5)]
        edges = []
        for a in parts[0]:
            for b in parts[1]:
                edges.append(((a, b), "red"))
        for b in parts[1]:
            for c in parts[2]:
                edges.append(((b, c), "green"))
        for a in parts[0]:
            for c in parts[2]:
                edges.append(((a, c), "blue"))
        h = ColoredHypergraph.from_edges(6, edges)
        assert problem_count("rainbow_d", h, colors=RGB) == 8
        assert ref.rainbow_count(h.n, edge_list(h), RGB, 3) == 8

    def test_matches_brute_force_on_random_graphs(self):
        rng = random.Random(7)
        for _ in range(300):
            h = random_colored_graph(rng, rng.randint(3, 8))
            assert problem_count("rainbow_d", h, colors=RGB) == ref.rainbow_count(h.n, edge_list(h), RGB, 3)

    def test_invariant_under_relabeling(self):
        rng = random.Random(13)
        for _ in range(50):
            n = rng.randint(3, 7)
            h = random_colored_graph(rng, n)
            perm = list(range(n))
            rng.shuffle(perm)
            relabeled = ColoredHypergraph.from_edges(
                n, [(tuple(perm[v] for v in e.verts), e.color) for e in h.edges]
            )
            shuffled_colors = list(RGB)
            rng.shuffle(shuffled_colors)
            assert problem_count("rainbow_d", h, colors=RGB) == problem_count(
                "rainbow_d", relabeled, colors=shuffled_colors
            )

    def test_uniformity_error(self):
        h = ColoredHypergraph.from_edges(4, [((0, 1, 2), "red"), ((0, 1), "green")])
        with pytest.raises(ValidationError):
            problem_count("rainbow_d", h, colors=RGB)

    def test_d4_matches_brute_force_with_unlisted_colors(self):
        listed = ("c1", "c2", "c3", "c4")
        rng = random.Random(61)
        for _ in range(150):
            h = random_uniform_hypergraph(rng, rng.randint(4, 8), 3, p=0.8)
            h = ColoredHypergraph.from_edges(h.n, [(e.verts, rng.choice(listed + ("x", "y"))) for e in h.edges])
            lookup = {e.verts: e.color for e in h.edges}
            brute = tuple(
                quad for quad in combinations(range(h.n), 4)
                if sorted(lookup.get(f, "") for f in combinations(quad, 3)) == sorted(listed)
            )
            assert rainbow_cliques(h, listed) == brute

    def test_rainbow_cliques_take_d_from_the_colors(self):
        h = fig1_k4()
        assert rainbow_cliques(h, RGB) == ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3))
        for colors, message in [(("red",), "need d >= 2, got 1"), (("red", "red", "blue"), "3 distinct colors")]:
            with pytest.raises(ValidationError, match=message):
                rainbow_cliques(h, colors)

    def test_listed_color_with_no_edges_is_zero(self):
        h = ColoredHypergraph.from_edges(3, [((0, 1), "red"), ((1, 2), "green")])
        assert problem_count("rainbow_d", h, colors=RGB) == 0


class TestKappaRatio:
    def test_fig1_blowup_n2(self):
        # blowup of fig1 by 2: 8 vertices, 8 edges per color, 32 rainbow triangles
        base = fig1_k4()
        edges = []
        for e in base.edges:
            u, v = e.verts
            for i in range(2):
                for j in range(2):
                    edges.append(((2 * u + i, 2 * v + j), e.color))
        h = ColoredHypergraph.from_edges(8, edges)
        counts, ratio = PROBLEMS["rainbow_d"].exact(h, 3, colors=RGB)
        assert counts == {"T": 32, "C": [8, 8, 8]}
        assert ratio == Fraction(2)
        reports = PROBLEMS["rainbow_d"].reports(ratio)
        assert all(r.satisfied for r in reports)
        thm = [r for r in reports if r.source.startswith("rainbow triangles")][0]
        assert thm.computed == thm.bound == 2  # T^2 = 32^2 = 2 * 8^3: tight

    def test_single_rainbow_triangle(self):
        h = ColoredHypergraph.from_edges(
            3, [((0, 1), "red"), ((1, 2), "green"), ((0, 2), "blue")]
        )
        _, ratio = PROBLEMS["rainbow_d"].exact(h, 3, colors=RGB)
        assert ratio == 1
        assert all(r.satisfied for r in PROBLEMS["rainbow_d"].reports(ratio))

    def test_empty_color_class_has_no_ratio(self):
        # `kappa` refuses it with exit 3, which a golden case pins
        h = ColoredHypergraph.from_edges(3, [((0, 1), "red"), ((1, 2), "green")])
        counts, ratio = PROBLEMS["rainbow_d"].exact(h, 3, colors=RGB)
        assert counts == {"T": 0, "C": [1, 1, 0]}
        assert ratio is None

    def test_thm11_on_random_graphs(self):
        rng = random.Random(2024)
        for _ in range(500):
            h = random_colored_graph(rng, rng.randint(3, 8))
            counts = h.color_counts()
            if any(counts.get(c, 0) == 0 for c in RGB):
                continue
            t = problem_count("rainbow_d", h, colors=RGB)
            r, g, b = (counts[c] for c in RGB)
            assert t * t <= 2 * r * g * b


class TestShadow:
    def test_single_simplex(self):
        fam = SetFamily.make(3, [(0, 1, 2)])
        assert shadow(fam).sets == ((0, 1), (0, 2), (1, 2))

    def test_two_triangles(self):
        fam = SetFamily.make(4, [(0, 1, 2), (0, 1, 3)])
        assert len(shadow(fam)) == 5

    def test_complete_family(self):
        fam = SetFamily.make(5, combinations(range(5), 3))
        assert len(shadow(fam)) == 10

    def test_iterated_shadow_chain(self):
        # |shadow(shadow(A))| >= binom(t, d-2) = binom(t, 1) = t with t from the first application
        rng = random.Random(3)
        for _ in range(100):
            fam = random_set_family(rng, rng.randint(3, 9), 3, 15)
            t = check_kruskal_katona(fam).extra["t"]
            second = shadow(shadow(fam))
            assert len(second) >= t - 1e-6


class TestKruskalKatona:
    def test_complete_family_tight(self):
        fam = SetFamily.make(5, combinations(range(5), 3))
        rep = check_kruskal_katona(fam)
        assert rep.satisfied
        assert rep.extra["t"] == pytest.approx(5.0, abs=1e-9)
        assert rep.computed == 10
        assert rep.bound == pytest.approx(10.0, abs=1e-9)

    def test_two_sets(self):
        fam = SetFamily.make(4, [(0, 1, 2), (0, 1, 3)])
        rep = check_kruskal_katona(fam)
        assert rep.satisfied
        assert rep.extra["t"] == pytest.approx(3.434841368216901, abs=1e-6)
        assert rep.bound == pytest.approx(4.18164, abs=1e-3)
        assert rep.computed == 5

    def test_single_set_tight(self):
        fam = SetFamily.make(3, [(0, 1, 2)])
        rep = check_kruskal_katona(fam)
        assert rep.satisfied
        assert rep.extra["t"] == pytest.approx(3.0, abs=1e-9)
        assert rep.computed == 3
        assert rep.bound == pytest.approx(3.0, abs=1e-9)

    def test_random_families(self):
        rng = random.Random(99)
        for _ in range(200):
            d = rng.randint(1, 4)
            n = rng.randint(d, 10)
            fam = random_set_family(rng, n, d, 30)
            assert check_kruskal_katona(fam).satisfied

    def test_singletons_bound_is_one(self):
        # d = 1: the shadow is the empty set alone, and binom(t, 0) = 1 whatever t is
        rep = check_kruskal_katona(SetFamily.make(3, [(0,), (1,), (2,)]))
        assert rep.extra["t"] == pytest.approx(3.0, abs=1e-9)
        assert (rep.computed, rep.bound, rep.satisfied) == (1, 1.0, True)

    def test_one_60_set_is_tight(self):
        # 60! * 1 is inside the float range but far past 2^200 times the bisection width
        rep = check_kruskal_katona(SetFamily.make(60, [tuple(range(60))]))
        assert (rep.computed, rep.satisfied) == (60, True)
        assert rep.extra["t"] == pytest.approx(60.0, abs=1e-9)
        assert rep.bound == pytest.approx(60.0, rel=1e-9)

    def test_one_180_set_stays_in_float_range(self):
        # 180! * 1 is past the float range; the displayed t and bound are not
        rep = check_kruskal_katona(SetFamily.make(180, [tuple(range(180))]))
        assert rep.satisfied and rep.computed == 180
        assert rep.extra["t"] == pytest.approx(180.0, abs=1e-6)
        assert rep.bound == pytest.approx(180.0, rel=1e-9)

    @pytest.mark.parametrize("m,d", [(22, 6), (29, 5)])
    def test_tight_complete_family_is_not_a_violation(self, m, d):
        # the float bound exceeds the shadow size by ~2e-9 here; the verdict is exact
        rep = check_kruskal_katona(SetFamily.make(m, combinations(range(m), d)))
        assert rep.computed == math.comb(m, d - 1)
        assert rep.satisfied


# per column width in bytes: the largest n it holds, and the widest d whose d - 1 columns fit one 8-byte word
PACKING_EDGES = [(1, 1 << 8, 9), (2, 1 << 16, 5), (4, 1 << 32, 3), (8, 1 << 64, 2)]


@pytest.mark.parametrize("w, top, fit", PACKING_EDGES)
def test_packing_at_its_edges(w, top, fit):
    # n = top takes columns of w bytes, one more element the next width; past 2^64, or past 8 bytes of facet,
    # the family is kept and counted as tuples
    for n in (top, top + 1):
        members = [tuple(range(fit - 1)) + (n - 1,), tuple(range(1, fit)) + (n - 1,)]
        fam = SetFamily.make(n, members)
        width = w if n == top else 2 * w if w < 8 else None
        assert fam._rows == (b"".join(v.to_bytes(width, "big") for s in members for v in s) if width else None)
        for k in (fit, fit + 1):
            fam = SetFamily.make(n, [tuple(range(k - 1)) + (n - 1,)])
            keys = hypergraph._shadow_keys(fam)
            assert {type(key) for key in keys} == ({int} if width and (k - 1) * width <= 8 else {tuple})
            assert len(keys) == check_kruskal_katona(fam).computed == k


def _made(n, sets, d):
    """`SetFamily.make`'s family, or its refusal's message."""
    try:
        return SetFamily.make(n, sets, d=d)
    except ValidationError as exc:
        return str(exc)


@st.composite
def families_near_packing_edges(draw):
    """(n, members, d): members on both sides of a packing edge, or dense on a small ground set, in order or not,
    then perhaps one defect."""
    w, top, fit = draw(st.sampled_from(PACKING_EDGES))
    d = draw(st.sampled_from([1, 2, 3, fit, fit + 1]))
    n = draw(st.sampled_from([top - 1, top, top + 1, 2 * d + 2]))
    values = sorted({*range(d + 2), *(v for v in (255, 256, 65535, 65536, top - 1, n - 1) if v < n)})
    member = st.lists(st.sampled_from(values), min_size=d, max_size=d, unique=True).map(sorted)
    size = draw(st.sampled_from([0, 1, 2, 3, 4, 6]))
    sets = sorted(draw(st.lists(member, min_size=size, max_size=size, unique_by=tuple)))
    j = draw(st.integers(0, d - 1))
    order = draw(st.sampled_from(["sorted", "shuffled", "by all columns but one"]))
    if order == "shuffled":
        sets = draw(st.permutations(sets))
    elif order == "by all columns but one":
        sets.sort(key=lambda s: s[:j] + s[j + 1:])
    defect = draw(st.sampled_from(["none"] * 6 + ["reversed", "repeat", "duplicate", "bool", "float", "negative",
                                                  "outside", "short", "no d"]))
    if sets and defect != "none":
        i = draw(st.integers(0, len(sets) - 1))
        if defect == "reversed":
            sets[i].reverse()
        elif defect == "repeat" and d > 1:
            sets[i][j] = sets[i][j - 1]
        elif defect == "duplicate":
            sets.insert(i, list(sets[i]))
        elif defect in ("bool", "float", "negative", "outside"):
            value = {"bool": bool(sets[i][j] & 1), "float": float(sets[i][j]), "negative": -1, "outside": n}
            sets[i][j] = value[defect]
        elif defect == "short":
            del sets[i][j]
    return n, sets, None if defect == "no d" else d


@settings(max_examples=300, derandomize=True, deadline=None)
@given(families_near_packing_edges())
# out of order in ways the draw rarely makes: in order but for the first column, or the middle one, or
# read little-endian
@example((9, [[1, 2], [0, 3]], 2))
@example((7, [[0, 2, 5], [0, 1, 6]], 3))
@example((65536, [[0, 256], [0, 2]], 2))
def test_packed_families_match_the_member_by_member_path(case):
    """`make`'s bulk accept and the packed shadow count against `make` with no bulk accept, which checks every member
    and counts the shadow's tuples, and against the benchmark's count."""
    n, sets, d = case
    fam = _made(n, sets, d)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hypergraph, "_pack", lambda members, k, n: None)
        expected = _made(n, sets, d)
        counted = len(hypergraph._shadow_keys(expected)) if isinstance(expected, SetFamily) and expected.d else None
    assert fam == expected
    if isinstance(fam, SetFamily) and len(fam) and fam.d:
        assert check_kruskal_katona(fam).computed == counted == ref.set_shadow_size(fam.sets)


class TestGood6Subsets:
    def flats(self):
        # the 8-vertex configuration: {x*}, {y*} and the 12 mixed 4-edges
        edges = [((0, 1, 2, 3), "plain"), ((4, 5, 6, 7), "plain")]
        for ij in combinations(range(4), 2):
            for kl in (ij, tuple(sorted(set(range(4)) - set(ij)))):
                verts = tuple(sorted([i for i in ij] + [4 + k for k in kl]))
                edges.append((verts, "plain"))
        return ColoredHypergraph.from_edges(8, edges)

    def test_flats_counts(self):
        h = self.flats()
        assert len(h.edges) == 14
        assert problem_count("good6", h) == 28
        assert ref.good6_count(h.n, edge_list(h)) == 28
        assert Fraction(28 * 28, 14**3) == Fraction(2, 7)

    def test_single_edge(self):
        h = ColoredHypergraph.from_edges(6, [((0, 1, 2, 3), "plain")])
        assert problem_count("good6", h) == 0

    def test_three_edges_partition(self):
        h = ColoredHypergraph.from_edges(
            6, [((0, 1, 2, 3), "plain"), ((0, 1, 4, 5), "plain"), ((2, 3, 4, 5), "plain")]
        )
        assert problem_count("good6", h) == 1
        assert ref.good6_count(h.n, edge_list(h)) == 1

    def test_matches_brute_force_on_random(self):
        rng = random.Random(17)
        for _ in range(40):
            h = random_uniform_hypergraph(rng, 7, 4, p=0.35)
            assert problem_count("good6", h) == ref.good6_count(h.n, edge_list(h))


class TestMixed4Subsets:
    def test_defining_pattern(self):
        h = ColoredHypergraph.from_edges(
            4, [((0, 1, 2), "plain"), ((0, 1, 3), "plain"), ((2, 3), "plain")]
        )
        assert problem_count("mixed4", h) == 1

    def test_matches_brute_force_on_random(self):
        rng = random.Random(19)
        for _ in range(60):
            n = rng.randint(4, 8)
            p = rng.choice((0.3, 0.5, 0.8))
            edges = [(e, "plain") for size in (2, 3) for e in combinations(range(n), size) if rng.random() < p]
            h = ColoredHypergraph.from_edges(n, edges)
            assert problem_count("mixed4", h) == ref.mixed4_count(h.n, edge_list(h))

    def test_no_3edges_is_zero(self):
        h = ColoredHypergraph.from_edges(4, [((0, 1), "plain")])
        assert PROBLEMS["mixed4"].exact(h) == ({"J": 0, "N2": 1, "N3": 0}, None)

    def test_tripartite_n3(self):
        n = 3
        parts = [range(0, 3), range(3, 6), range(6, 9)]
        edges = []
        for part in parts:
            for pair in combinations(part, 2):
                edges.append((pair, "plain"))
        for a in parts[0]:
            for b in parts[1]:
                for c in parts[2]:
                    edges.append(((a, b, c), "plain"))
        h = ColoredHypergraph.from_edges(9, edges)
        counts, ratio = PROBLEMS["mixed4"].exact(h)
        assert counts["N2"] == 9
        assert counts["N3"] == 27
        # brute force over all 4-subsets of the 9 vertices
        expected = ref.mixed4_count(h.n, edge_list(h))
        assert counts["J"] == expected == 81
        assert all(r.satisfied for r in PROBLEMS["mixed4"].reports(ratio))


def covering_sets(h, delta):
    """The covering sets themselves, each sorted, in sorted order, from the registry's form and kernel."""
    pairs = problems._covering(PROBLEMS["covering_delta"].form(h, 3, delta, None))
    return tuple(sorted(hypergraph._members(e | 1 << v) for e, x in pairs for v in hypergraph._members(x)))


class TestColorCovering:
    def test_delta0_equals_rainbow_triangles(self):
        rng = random.Random(31)
        for _ in range(100):
            h = random_colored_graph(rng, rng.randint(3, 8))
            assert problem_count("covering_delta", h, delta=0) == problem_count("rainbow_d", h, colors=RGB)

    @pytest.mark.parametrize("delta", [1, 2])
    def test_matches_brute_force(self, delta):
        rng = random.Random(67 + delta)
        for _ in range(100):
            n = rng.randint(delta + 3, 8)
            h = ColoredHypergraph.from_edges(n, [
                (verts, rng.choice(RGB)) for verts in combinations(range(n), delta + 2) if rng.random() < 0.6
            ])
            lookup = {e.verts: e.color for e in h.edges}
            brute = tuple(
                s for s in combinations(range(n), delta + 3)
                if {lookup.get(f) for f in combinations(s, delta + 2)} >= set(RGB)
            )
            assert covering_sets(h, delta) == brute

    def test_fig1_delta0(self):
        assert problem_count("covering_delta", fig1_k4(), delta=0) == 4

    def test_delta1_example(self):
        h = ColoredHypergraph.from_edges(
            4, [((0, 1, 2), "red"), ((0, 1, 3), "green"), ((0, 2, 3), "blue")]
        )
        assert problem_count("covering_delta", h, delta=1) == 1

    def test_missing_color_counts_zero(self):
        h = ColoredHypergraph.from_edges(4, [((0, 1, 2), "red"), ((0, 1, 3), "green")])
        assert problem_count("covering_delta", h, delta=1) == 0

    def test_check_reports(self):
        h = ColoredHypergraph.from_edges(
            4, [((0, 1, 2), "red"), ((0, 1, 3), "green"), ((0, 2, 3), "blue")]
        )
        counts, ratio = PROBLEMS["covering_delta"].exact(h, delta=1)
        assert counts["J"] == 1
        assert ratio == Fraction(1)
        reports = PROBLEMS["covering_delta"].reports(ratio, delta=1)
        assert all(r.satisfied for r in reports if not r.conjecture)
        assert any(r.conjecture for r in reports)


class TestPartialShadow:
    def test_star(self):
        h = ColoredHypergraph.from_edges(4, [((0, 1), "plain"), ((0, 2), "plain"), ((0, 3), "plain")])
        assert count_partial_shadow_targets(h, 3, 1) == 3
        rep = check_partial_shadow_bound(h, 3, 1)
        assert rep.satisfied
        assert rep.extra["m"] == 3
        assert rep.extra["x"] == pytest.approx(3.0, abs=1e-9)
        assert rep.bound == pytest.approx(3.0, abs=1e-9)
        assert rep.computed == 3

    def test_complete_facets_single_target(self):
        r = 4
        h = ColoredHypergraph.from_edges(r, [(c, "plain") for c in combinations(range(r), r - 1)])
        assert count_partial_shadow_targets(h, r, 0) == 1
        rep = check_partial_shadow_bound(h, r, 0)
        assert rep.satisfied
        assert rep.extra["x"] == pytest.approx(float(r), abs=1e-9)
        assert rep.bound == pytest.approx(float(r), abs=1e-9)

    def test_reduces_to_kk(self):
        h = ColoredHypergraph.from_edges(5, [(c, "plain") for c in combinations(range(5), 2)])
        assert count_partial_shadow_targets(h, 3, 0) == 10
        rep = check_partial_shadow_bound(h, 3, 0)
        assert rep.satisfied
        assert rep.extra["x"] == pytest.approx(5.0, abs=1e-9)
        assert rep.bound == pytest.approx(10.0, abs=1e-9)
        assert rep.computed == 10

    @pytest.mark.parametrize("r,k", [(2, 0), (2, 1), (3, 0), (3, 1), (3, 2), (4, 1), (4, 2), (4, 3), (5, 2)])
    def test_matches_brute_force(self, r, k):
        # 60 graphs on at most 8 vertices, then 20 relabeled onto vertices of [64] up to 63,
        # so the high bits are used
        rng = random.Random(71 + 10 * r + k)
        for spread in [False] * 60 + [True] * 20:
            small = random_uniform_hypergraph(rng, rng.randint(r, 8), r - 1, p=rng.choice((0.2, 0.5, 0.8)))
            labels = sorted(rng.sample(range(63), small.n - 1)) + [63] if spread else range(small.n)
            h = ColoredHypergraph.from_edges(64 if spread else small.n,
                                             [([labels[v] for v in e.verts], e.color) for e in small.edges])
            edges = {e.verts for e in h.edges}
            brute = sum(
                1 for s in combinations(labels, r)
                if sum(f in edges for f in combinations(s, r - 1)) >= r - k
            )
            # an r-set with one vertex off the labels holds at most one edge, and one with two holds none
            brute += (r - k == 1) * (h.n - len(labels)) * len(edges)
            assert count_partial_shadow_targets(h, r, k) == brute

    def test_one_needed_edge_bound_is_one(self):
        # r - k = 1: binom(x, 0) = 1 whatever x is
        h = ColoredHypergraph.from_edges(4, [((0, 1), "plain"), ((2, 3), "plain")])
        rep = check_partial_shadow_bound(h, 3, 2)
        assert rep.extra["m"] == 4
        assert (rep.computed, rep.bound, rep.satisfied) == (2, 1.0, True)

    def test_empty_graph(self):
        h = ColoredHypergraph.from_edges(5, [])
        assert count_partial_shadow_targets(h, 3, 1) == 0
        with pytest.raises(ValidationError):
            check_partial_shadow_bound(h, 3, 1)


class TestWeightedJointSum:
    def k4_unit(self):
        return ColoredHypergraph.from_edges(
            4, [(p, "plain", 1) for p in combinations(range(4), 2)]
        )

    def test_k4_unit_weights(self):
        rep = weighted_joint_sum(self.k4_unit())
        assert rep.value == pytest.approx(4.0, abs=1e-12)
        assert rep.total_weight == 6
        assert rep.report.bound == pytest.approx(math.sqrt(2) / 3 * 6**1.5, abs=1e-9)
        assert rep.report.satisfied

    def test_single_edge(self):
        h = ColoredHypergraph.from_edges(4, [((0, 1), "plain", 5)])
        rep = weighted_joint_sum(h)
        assert rep.value == 0.0
        assert rep.report.satisfied

    @pytest.mark.parametrize("m", [1, 4, 9])
    def test_k3_uniform_weight(self, m):
        h = ColoredHypergraph.from_edges(3, [(p, "plain", m) for p in combinations(range(3), 2)])
        rep = weighted_joint_sum(h)
        assert rep.value == pytest.approx(m**1.5, rel=1e-12)
        assert rep.value <= math.sqrt(2) / 3 * (3 * m) ** 1.5 + 1e-9

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_terms_match_brute_force(self, d):
        # facets are absent, of weight 0, or of weight 1..9, listed in random order;
        # the terms keep combinations order.  Then the same on vertices of [64] up to 63, so the
        # high bits are used
        rng = random.Random(73 + d)
        for spread in [False] * 80 + [True] * 20:
            n = rng.randint(d, 8)
            labels = sorted(rng.sample(range(63), n - 1)) + [63] if spread else range(n)
            edges = [(f, "plain", rng.choice((0, 0, 1, 2, 3, 9))) for f in combinations(labels, d - 1)
                     if rng.random() < 0.8]
            rng.shuffle(edges)
            h = ColoredHypergraph.from_edges(64 if spread else n, edges)
            table = {e.verts: e.weight for e in h.edges}
            brute = []
            for s in combinations(labels, d):
                prod = math.prod(table.get(f, 0) for f in combinations(s, d - 1))
                if prod:
                    brute.append(prod)
            rep = weighted_joint_sum(h)
            assert rep.d == d and rep.terms == tuple(brute)
            assert rep.value == float(sum(p ** (1.0 / (d - 1)) for p in brute))

    def test_no_edge_refused_after_the_graph_checks(self):
        # d is one more than the edge size, so a graph with no edge has none
        for n in (0, 3, 64):
            with pytest.raises(ValidationError, match="^weighted counting needs at least one edge$"):
                weighted_joint_sum(ColoredHypergraph.from_edges(n, []))
        with pytest.raises(CapacityError, match="vertex count = 65 exceeds cap 64"):
            weighted_joint_sum(ColoredHypergraph.from_edges(65, []))
        with pytest.raises(ValidationError, match="vertex count -1 is negative"):
            weighted_joint_sum(ColoredHypergraph.from_edges(-1, []))

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_scaled_weights_scale_the_sum_and_the_bound_alike(self, d):
        # each term is a product of d weights, so S and N^{d/(d-1)} are both of degree d/(d-1) in the weights
        rng = random.Random(19 + d)
        for _ in range(30):
            h = random_weighted_complete(rng, rng.randint(d, 7), d, wmax=9)
            c = rng.choice((2, 3, 10))
            scaled = ColoredHypergraph.from_edges(h.n, [(e.verts, e.color, c * e.weight) for e in h.edges])
            rep, big = weighted_joint_sum(h), weighted_joint_sum(scaled)
            assert big.terms == tuple(c**d * t for t in rep.terms)
            assert big.value == pytest.approx(c ** (d / (d - 1)) * rep.value, rel=1e-12)
            assert big.report.bound == pytest.approx(c ** (d / (d - 1)) * rep.report.bound, rel=1e-12)
            assert big.report.satisfied

    def test_negative_weight_rejected(self):
        h = ColoredHypergraph.from_edges(3, [((0, 1), "plain", -2)])
        with pytest.raises(ValidationError):
            weighted_joint_sum(h)

    def test_cap_counts_coface_visits_not_d_subsets(self):
        # the 5-subsets of [7]: 21 edges x 64 vertices visits, although C(64, 6) > 10^7
        edges = [(f, "plain", 1) for f in combinations(range(7), 5)]
        for n in (40, 64):
            assert weighted_joint_sum(ColoredHypergraph.from_edges(n, edges)).value == 7.0

    def test_cap_refuses_before_counting(self, monkeypatch):
        def no_counting(*args):
            raise AssertionError("the form was built before the cap check")

        monkeypatch.setattr(checks, "_form", no_counting)
        # 156,251 edges x 64 vertices > 10^7 visits
        edges = [(f, "plain", 1) for f in islice(combinations(range(64), 4), 156_251)]
        with pytest.raises(CapacityError, match="coface visits"):
            weighted_joint_sum(ColoredHypergraph.from_edges(64, edges))


class TestCapacity:
    def test_vertex_cap(self):
        from shadowlab.errors import CapacityError

        h = ColoredHypergraph.from_edges(70, [((0, 1), "red"), ((1, 2), "green"), ((0, 2), "blue")])
        with pytest.raises(CapacityError):
            problem_count("rainbow_d", h, colors=RGB)

    def test_good6_link_steps_capped_before_lookups(self):
        class Untouched(dict):
            def __getitem__(self, key):
                raise AssertionError("a link was looked up before the cap was checked")

        # complete 4-graph on 26 vertices: N = C(26, 4) edges, sqrt(6 N^3) + 3 N (26 - 4) steps
        h = ColoredHypergraph.from_edges(26, [(e, "plain") for e in combinations(range(26), 4)])
        edges, masks = hypergraph._form(1, ((0, hypergraph._facets(e.verts)) for e in h.edges))
        with pytest.raises(CapacityError, match=r"\) = 5464218 exceeds cap 5000000"):
            problems._good6((edges, Untouched(masks)))
        with pytest.raises(CapacityError, match=r"\) = 5464218 exceeds cap 5000000"):
            problem_count("good6", h)

    def test_complete_mixed_graph_within_vertex_cap(self):
        edges = [(e, "plain") for size in (2, 3) for e in combinations(range(64), size)]
        assert problem_count("mixed4", ColoredHypergraph.from_edges(64, edges)) == math.comb(64, 4)

    # each count, with the edge size it reads and one size it refuses
    ENTRIES = {
        "rainbow": (lambda h: problem_count("rainbow_d", h, colors=RGB), 2, 3),
        "good6": (lambda h: problem_count("good6", h), 4, 3),
        "mixed4": (lambda h: problem_count("mixed4", h), 3, 4),
        "covering": (lambda h: problem_count("covering_delta", h, delta=1), 3, 2),
        "partial": (lambda h: count_partial_shadow_targets(h, 3, 1), 2, 3),
        "weighted": (weighted_joint_sum, 2, 3),
        "weighted2": (weighted_joint_sum, 1, 2),
        "weighted4": (weighted_joint_sum, 3, 2),
    }

    @pytest.mark.parametrize("entry", ENTRIES)
    def test_every_count_refuses_bad_graphs(self, entry):
        count, size, wrong = self.ENTRIES[entry]
        edge = tuple(range(size))
        over_cap = ColoredHypergraph.from_edges(hypergraph.VERTEX_CAP + 1, [(edge, "red", 1)])
        with pytest.raises(CapacityError, match="vertex count = 65 exceeds cap 64"):
            count(over_cap)
        out_of_range = ColoredHypergraph.from_edges(6, [(edge, "red", 1), (tuple(range(7 - size, 7)), "green", 1)])
        with pytest.raises(ValidationError, match="out of range"):
            count(out_of_range)
        odd = tuple(range(1, 1 + wrong))
        wrong_size = ColoredHypergraph.from_edges(6, [(edge, "red", 1), (odd, "red", 1)])
        with pytest.raises(ValidationError, match=re.escape(str(odd))):
            count(wrong_size)
        assert count(ColoredHypergraph.from_edges(6, [(edge, "red", 1)])) is not None

    def test_rainbow_d_past_the_vertex_cap_refused_before_naming_colors(self):
        # no edge has d - 1 > VERTEX_CAP vertices; without listed colours, d names and a d-slot form
        # would be built first (d = 10^6 took about 1 s, and d = 2^31 would exhaust memory)
        triangle = ColoredHypergraph.from_edges(4, [((0, 1), "red"), ((0, 2), "green"), ((1, 2), "blue")])
        for d in (10**6, 2**31):
            start = time.perf_counter()
            with pytest.raises(CapacityError, match=f"d - 1 = {d - 1} exceeds cap 64") as refused:
                PROBLEMS["rainbow_d"].exact(triangle, d)
            assert time.perf_counter() - start < 0.1
            assert len(str(refused.value)) < 200
