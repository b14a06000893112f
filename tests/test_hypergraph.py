"""Counting operations and bound checks on colored hypergraphs."""

import copy
import math
import pickle
import random
import re
from fractions import Fraction
from itertools import combinations, islice

import pytest

from conftest import (
    RGB,
    fig1_k4,
    random_colored_graph,
    random_set_family,
    random_uniform_hypergraph,
    random_weighted_complete,
)
from shadowlab import hypergraph
from shadowlab.errors import CapacityError, ValidationError
from shadowlab.hypergraph import (
    ColoredHypergraph,
    SetFamily,
    check_kruskal_katona,
    check_partial_shadow_bound,
    check_ratio,
    color_covering_subsets,
    color_isomorphic,
    count_color_covering_subsets,
    count_good_6subsets,
    count_partial_shadow_targets,
    count_rainbow_cliques,
    good_4subsets_mixed,
    rainbow_cliques,
    shadow,
    spectral_trace_check,
    validate,
    weighted_joint_sum,
)


def brute_rainbow_triangles(h, colors=RGB):
    """Scan every 3-subset directly; independent of the extension algorithm."""
    lookup = {e.verts: e.color for e in h.edges}
    count = 0
    for tri in combinations(range(h.n), 3):
        got = sorted(
            lookup.get(p, "?") for p in combinations(tri, 2)
        )
        if got == sorted(colors):
            count += 1
    return count


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
        assert count_rainbow_cliques(fig1_k4(), 3, RGB) == 4

    def test_empty_graph(self):
        h = ColoredHypergraph.from_edges(5, [])
        assert count_rainbow_cliques(h, 3, RGB) == 0

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
        assert count_rainbow_cliques(h, 3, RGB) == 8
        assert brute_rainbow_triangles(h) == 8

    def test_matches_brute_force_on_random_graphs(self):
        rng = random.Random(7)
        for _ in range(300):
            h = random_colored_graph(rng, rng.randint(3, 8))
            assert count_rainbow_cliques(h, 3, RGB) == brute_rainbow_triangles(h)

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
            assert count_rainbow_cliques(h, 3, RGB) == count_rainbow_cliques(
                relabeled, 3, shuffled_colors
            )

    def test_uniformity_error(self):
        h = ColoredHypergraph.from_edges(4, [((0, 1, 2), "red"), ((0, 1), "green")])
        with pytest.raises(ValidationError):
            count_rainbow_cliques(h, 3, RGB)

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
            assert rainbow_cliques(h, 4, listed) == brute

    def test_listed_color_with_no_edges_is_zero(self):
        h = ColoredHypergraph.from_edges(3, [((0, 1), "red"), ((1, 2), "green")])
        assert count_rainbow_cliques(h, 3, RGB) == 0


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
        rep = check_ratio("rainbow_d", h, 3, colors=RGB)
        assert rep.counts["T"] == 32
        assert rep.counts["C"] == [8, 8, 8]
        assert rep.ratio_exact == Fraction(2)
        assert all(r.satisfied for r in rep.reports)
        thm = [r for r in rep.reports if r.source.startswith("rainbow triangles")][0]
        assert thm.computed == thm.bound == 2  # T^2 = 32^2 = 2 * 8^3: tight

    def test_single_rainbow_triangle(self):
        h = ColoredHypergraph.from_edges(
            3, [((0, 1), "red"), ((1, 2), "green"), ((0, 2), "blue")]
        )
        rep = check_ratio("rainbow_d", h, 3, colors=RGB)
        assert rep.ratio_exact == 1
        assert all(r.satisfied for r in rep.reports)

    def test_empty_color_class_rejected(self):
        h = ColoredHypergraph.from_edges(3, [((0, 1), "red"), ((1, 2), "green")])
        with pytest.raises(ValidationError):
            check_ratio("rainbow_d", h, 3, colors=RGB)

    def test_thm11_on_random_graphs(self):
        rng = random.Random(2024)
        for _ in range(500):
            h = random_colored_graph(rng, rng.randint(3, 8))
            counts = h.color_counts()
            if any(counts.get(c, 0) == 0 for c in RGB):
                continue
            t = count_rainbow_cliques(h, 3, RGB)
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


def brute_good_6subsets(h):
    """Scan all 6-subsets and all pair-partitions directly."""
    edges = {e.verts for e in h.edges}
    count = 0
    for delta in combinations(range(h.n), 6):
        dset = set(delta)
        found = False
        for pairing in _all_pairings(list(delta)):
            if all(tuple(sorted(dset - set(p))) in edges for p in pairing):
                found = True
                break
        if found:
            count += 1
    return count


def _all_pairings(items):
    if not items:
        yield []
        return
    a = items[0]
    for i in range(1, len(items)):
        pair = (a, items[i])
        rest = items[1:i] + items[i + 1:]
        for sub in _all_pairings(rest):
            yield [pair] + sub


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
        assert count_good_6subsets(h) == 28
        assert brute_good_6subsets(h) == 28
        assert Fraction(28 * 28, 14**3) == Fraction(2, 7)

    def test_single_edge(self):
        h = ColoredHypergraph.from_edges(6, [((0, 1, 2, 3), "plain")])
        assert count_good_6subsets(h) == 0

    def test_three_edges_partition(self):
        h = ColoredHypergraph.from_edges(
            6, [((0, 1, 2, 3), "plain"), ((0, 1, 4, 5), "plain"), ((2, 3, 4, 5), "plain")]
        )
        assert count_good_6subsets(h) == 1
        assert brute_good_6subsets(h) == 1

    def test_matches_brute_force_on_random(self):
        rng = random.Random(17)
        for _ in range(40):
            h = random_uniform_hypergraph(rng, 7, 4, p=0.35)
            assert count_good_6subsets(h) == brute_good_6subsets(h)


class TestMixed4Subsets:
    def test_defining_pattern(self):
        h = ColoredHypergraph.from_edges(
            4, [((0, 1, 2), "plain"), ((0, 1, 3), "plain"), ((2, 3), "plain")]
        )
        assert len(good_4subsets_mixed(h)) == 1

    def test_matches_brute_force_on_random(self):
        rng = random.Random(19)
        for _ in range(60):
            n = rng.randint(4, 8)
            p = rng.choice((0.3, 0.5, 0.8))
            edges = [(e, "plain") for size in (2, 3) for e in combinations(range(n), size) if rng.random() < p]
            h = ColoredHypergraph.from_edges(n, edges)
            assert len(good_4subsets_mixed(h)) == brute_mixed_4subsets(h)

    def test_no_3edges_is_zero(self):
        h = ColoredHypergraph.from_edges(4, [((0, 1), "plain")])
        assert len(good_4subsets_mixed(h)) == 0
        with pytest.raises(ValidationError):
            check_ratio("mixed4", h)

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
        rep = check_ratio("mixed4", h)
        assert rep.counts["N2"] == 9
        assert rep.counts["N3"] == 27
        # brute force over all 4-subsets of the 9 vertices
        expected = brute_mixed_4subsets(h)
        assert rep.counts["J"] == expected == 81
        assert all(r.satisfied for r in rep.reports)


def brute_mixed_4subsets(h):
    pairs = {e.verts for e in h.edges if len(e.verts) == 2}
    triples = {e.verts for e in h.edges if len(e.verts) == 3}
    count = 0
    for delta in combinations(range(h.n), 4):
        good = False
        for v3, v4 in combinations(delta, 2):
            v1, v2 = [x for x in delta if x not in (v3, v4)]
            if (
                (v3, v4) in pairs
                and tuple(sorted((v1, v2, v3))) in triples
                and tuple(sorted((v1, v2, v4))) in triples
            ):
                good = True
                break
        if good:
            count += 1
    return count


class TestColorCovering:
    def test_delta0_equals_rainbow_triangles(self):
        rng = random.Random(31)
        for _ in range(100):
            h = random_colored_graph(rng, rng.randint(3, 8))
            assert count_color_covering_subsets(h, 0) == count_rainbow_cliques(h, 3, RGB)

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
            assert color_covering_subsets(h, delta) == brute

    def test_fig1_delta0(self):
        assert count_color_covering_subsets(fig1_k4(), 0) == 4

    def test_delta1_example(self):
        h = ColoredHypergraph.from_edges(
            4, [((0, 1, 2), "red"), ((0, 1, 3), "green"), ((0, 2, 3), "blue")]
        )
        assert count_color_covering_subsets(h, 1) == 1

    def test_missing_color_counts_zero(self):
        h = ColoredHypergraph.from_edges(4, [((0, 1, 2), "red"), ((0, 1, 3), "green")])
        assert count_color_covering_subsets(h, 1) == 0

    def test_check_reports(self):
        h = ColoredHypergraph.from_edges(
            4, [((0, 1, 2), "red"), ((0, 1, 3), "green"), ((0, 2, 3), "blue")]
        )
        rep = check_ratio("covering_delta", h, delta=1)
        assert rep.counts["J"] == 1
        assert rep.ratio_exact == Fraction(1)
        proven = [r for r in rep.reports if not r.conjecture]
        assert all(r.satisfied for r in proven)
        assert any(r.conjecture for r in rep.reports)


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
        rng = random.Random(71 + 10 * r + k)
        for _ in range(60):
            h = random_uniform_hypergraph(rng, rng.randint(r, 8), r - 1, p=rng.choice((0.2, 0.5, 0.8)))
            edges = {e.verts for e in h.edges}
            brute = sum(
                1 for s in combinations(range(h.n), r)
                if sum(f in edges for f in combinations(s, r - 1)) >= r - k
            )
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
        rep = weighted_joint_sum(self.k4_unit(), 3)
        assert rep.value == pytest.approx(4.0, abs=1e-12)
        assert rep.total_weight == 6
        assert rep.report.bound == pytest.approx(math.sqrt(2) / 3 * 6**1.5, abs=1e-9)
        assert rep.report.satisfied

    def test_single_edge(self):
        h = ColoredHypergraph.from_edges(4, [((0, 1), "plain", 5)])
        rep = weighted_joint_sum(h, 3)
        assert rep.value == 0.0
        assert rep.report.satisfied

    @pytest.mark.parametrize("m", [1, 4, 9])
    def test_k3_uniform_weight(self, m):
        h = ColoredHypergraph.from_edges(3, [(p, "plain", m) for p in combinations(range(3), 2)])
        rep = weighted_joint_sum(h, 3)
        assert rep.value == pytest.approx(m**1.5, rel=1e-12)
        assert rep.value <= math.sqrt(2) / 3 * (3 * m) ** 1.5 + 1e-9

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_terms_match_brute_force(self, d):
        # facets are absent, of weight 0, or of weight 1..9, listed in random order;
        # the terms keep combinations order
        rng = random.Random(73 + d)
        for _ in range(80):
            n = rng.randint(d, 8)
            edges = [(f, "plain", rng.choice((0, 0, 1, 2, 3, 9))) for f in combinations(range(n), d - 1)
                     if rng.random() < 0.8]
            rng.shuffle(edges)
            h = ColoredHypergraph.from_edges(n, edges)
            table = {e.verts: e.weight for e in h.edges}
            brute = []
            for s in combinations(range(n), d):
                prod = math.prod(table.get(f, 0) for f in combinations(s, d - 1))
                if prod:
                    brute.append(prod)
            rep = weighted_joint_sum(h, d)
            assert rep.terms == tuple(brute)
            assert rep.value == float(sum(p ** (1.0 / (d - 1)) for p in brute))

    def test_negative_weight_rejected(self):
        h = ColoredHypergraph.from_edges(3, [((0, 1), "plain", -2)])
        with pytest.raises(ValidationError):
            weighted_joint_sum(h, 3)

    def test_cap_counts_coface_visits_not_d_subsets(self):
        # the 5-subsets of [7]: 21 edges x 64 vertices visits, although C(64, 6) > 10^7
        edges = [(f, "plain", 1) for f in combinations(range(7), 5)]
        for n in (40, 64):
            assert weighted_joint_sum(ColoredHypergraph.from_edges(n, edges), 6).value == 7.0

    def test_cap_refuses_before_counting(self, monkeypatch):
        def no_counting(*args):
            raise AssertionError("cofaces were visited before the cap check")

        monkeypatch.setattr(hypergraph, "_cofaces", no_counting)
        # 156,251 edges x 64 vertices > 10^7 visits
        edges = [(f, "plain", 1) for f in islice(combinations(range(64), 4), 156_251)]
        with pytest.raises(CapacityError, match="coface visits"):
            weighted_joint_sum(ColoredHypergraph.from_edges(64, edges), 5)


class TestSpectralTrace:
    def test_k4_unit(self):
        h = ColoredHypergraph.from_edges(4, [(p, "plain", 1) for p in combinations(range(4), 2)])
        rep = spectral_trace_check(h)
        assert rep.trace2 == pytest.approx(12.0, abs=1e-9)
        assert rep.trace3 == pytest.approx(24.0, abs=1e-9)
        assert rep.ok
        assert 12.0**3 >= 24.0**2

    def test_zero_graph(self):
        h = ColoredHypergraph.from_edges(4, [])
        rep = spectral_trace_check(h)
        assert rep.trace2 == 0.0
        assert rep.trace3 == 0.0
        assert rep.ok

    def test_random_instances_match_combinatorial_sum(self):
        rng = random.Random(55)
        for _ in range(100):
            h = random_weighted_complete(rng, 6, 3, wmax=9)
            rep = spectral_trace_check(h)
            ws = weighted_joint_sum(h, 3)
            assert rep.trace3 == pytest.approx(6 * ws.value, abs=1e-6)
            assert rep.trace2**3 >= rep.trace3**2 - 1e-6 * max(1.0, rep.trace2**3)
            assert rep.ok
            assert spectral_trace_check(h, ws) == rep

    def test_given_weighted_sum_must_be_d3(self):
        h = ColoredHypergraph.from_edges(4, [((i, j), "plain", 2) for i, j in combinations(range(4), 2)])
        points = ColoredHypergraph.from_edges(4, [((0,), "plain")])
        with pytest.raises(ValidationError, match="d = 3 weighted sum, got d = 2"):
            spectral_trace_check(h, weighted_joint_sum(points, 2))

    def test_identities_scaled_by_their_magnitude(self):
        # weights near 10^15: tr(M^3) misses 6S in float by far more than 10^-6, far less than 10^-6 of 6S
        h = ColoredHypergraph.from_edges(12, [
            ((i, j), "plain", (31 * i + 17 * j) % 97 * 10**13 + i * j + 1) for i, j in combinations(range(12), 2)
        ])
        rep = spectral_trace_check(h)
        two_n, six_s = rep.checks[0], rep.checks[1]
        assert six_s.computed > 1.0
        assert two_n.bound == hypergraph.TRACE_TOL * 2 * rep.total_weight
        assert six_s.bound == pytest.approx(hypergraph.TRACE_TOL * rep.trace3)
        assert rep.ok


class TestCapacity:
    def test_vertex_cap(self):
        from shadowlab.errors import CapacityError

        h = ColoredHypergraph.from_edges(70, [((0, 1), "red"), ((1, 2), "green"), ((0, 2), "blue")])
        with pytest.raises(CapacityError):
            count_rainbow_cliques(h, 3, RGB)

    def test_good6_link_steps_capped_before_lookups(self):
        class Untouched(dict):
            def __getitem__(self, key):
                raise AssertionError("a link was looked up before the cap was checked")

        # complete 4-graph on 26 vertices: N = C(26, 4) edges, sqrt(6 N^3) + 3 N (26 - 4) steps
        h = ColoredHypergraph.from_edges(26, [(e, "plain") for e in combinations(range(26), 4)])
        edges, masks = hypergraph._form(1, ((0, hypergraph._facets(e.verts)) for e in h.edges))
        with pytest.raises(CapacityError, match=r"\) = 5464218 exceeds cap 5000000"):
            hypergraph._good6((edges, Untouched(masks)))
        with pytest.raises(CapacityError, match=r"\) = 5464218 exceeds cap 5000000"):
            count_good_6subsets(h)

    def test_complete_mixed_graph_within_vertex_cap(self):
        edges = [(e, "plain") for size in (2, 3) for e in combinations(range(64), size)]
        assert len(good_4subsets_mixed(ColoredHypergraph.from_edges(64, edges))) == math.comb(64, 4)

    # each count and the spectral check, with the edge size it reads and one size it refuses
    ENTRIES = {
        "rainbow": (lambda h: count_rainbow_cliques(h, 3, RGB), 2, 3),
        "good6": (count_good_6subsets, 4, 3),
        "mixed4": (hypergraph.count_good_4subsets_mixed, 3, 4),
        "covering": (lambda h: count_color_covering_subsets(h, 1), 3, 2),
        "partial": (lambda h: count_partial_shadow_targets(h, 3, 1), 2, 3),
        "weighted": (lambda h: weighted_joint_sum(h, 3), 2, 3),
        "spectral": (spectral_trace_check, 2, 1),
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

    def test_isomorphism_vertex_cap(self):
        h = ColoredHypergraph.from_edges(9, [((0, 1), "red")])
        with pytest.raises(CapacityError, match="isomorphism check vertices \\(brute force\\) = 9 exceeds cap 8"):
            color_isomorphic(h, h)


class TestColorIsomorphic:
    def test_relabeled_fig1(self):
        h = fig1_k4()
        perm = (2, 0, 3, 1)
        relabeled = ColoredHypergraph.from_edges(
            4, [(tuple(perm[v] for v in e.verts), {"red": "green", "green": "blue", "blue": "red"}[e.color]) for e in h.edges]
        )
        assert color_isomorphic(h, relabeled)

    def test_not_isomorphic(self):
        h = fig1_k4()
        other = ColoredHypergraph.from_edges(
            4,
            [
                ((0, 1), "red"),
                ((0, 2), "red"),
                ((0, 3), "blue"),
                ((1, 2), "blue"),
                ((1, 3), "green"),
                ((2, 3), "green"),
            ],
        )
        assert not color_isomorphic(h, other)
