"""Entropy identities and inequalities on exact finite distributions."""

import importlib
import math
import random
from fractions import Fraction
from itertools import combinations, permutations

import pytest

from conftest import fig1_k4, random_distribution, random_set_family
from shadowlab.entropy import (
    CoverSpec,
    ExactDistribution,
    check_cregular_corollary,
    check_key_inequality,
    check_lemma_disjoint_support,
    check_shearer,
    conditional_entropy,
    entropy,
)
from shadowlab.errors import CapacityError, ValidationError
from shadowlab.hypergraph import SetFamily, rainbow_cliques


def conditional_entropy_defining_sum(dist, target, given):
    """The defining sum H(X|Y) = sum_y p(y) H(X | Y=y); cross-check oracle."""
    gset = tuple(sorted(given))
    tset = tuple(sorted(target))
    py = dist.marginal(gset)
    joint = dist.marginal(tuple(sorted(set(tset) | set(gset))))
    merged = sorted(set(tset) | set(gset))
    pos_g = [merged.index(i) for i in gset]
    pos_t = [merged.index(i) for i in tset]
    total = 0.0
    for yval, p_y in py.items():
        cond = []
        for values, p in joint.items():
            if tuple(values[i] for i in pos_g) == yval:
                cond.append(p / p_y)
        h = -sum(float(c) * math.log2(float(c)) for c in cond if c != 1)
        total += float(p_y) * h
    return total


def ordered_tuple_sizes(fam):
    """s_k from all d!|F| ordered tuples as one exact distribution; brute-force reference."""
    dist = ExactDistribution.uniform(fam.d, [t for s in fam.sets for t in permutations(s)])
    return [2.0 ** conditional_entropy(dist, [k - 1], list(range(k - 1))) for k in range(1, fam.d + 1)]


class TestEntropy:
    def test_uniform_four_tuples(self):
        dist = ExactDistribution.uniform(2, [(0, 0), (0, 1), (1, 0), (1, 1)])
        assert entropy(dist) == pytest.approx(2.0, abs=1e-12)

    def test_fair_bit(self):
        dist = ExactDistribution.uniform(1, [(0,), (1,)])
        assert entropy(dist) == pytest.approx(1.0, abs=1e-12)

    def test_bernoulli_quarter(self):
        dist = ExactDistribution.from_pairs(1, [((1,), Fraction(1, 4)), ((0,), Fraction(3, 4))])
        expected = 2 - Fraction(3, 4) * math.log2(3)
        assert entropy(dist) == pytest.approx(float(expected), abs=1e-12)

    def test_empty_coords_rejected(self):
        dist = ExactDistribution.uniform(1, [(0,)])
        with pytest.raises(ValidationError):
            entropy(dist, [])

    def test_uniform_bound_with_equality_iff_uniform(self):
        rng = random.Random(4)
        for _ in range(200):
            dist = random_distribution(rng, rng.randint(1, 3), max_support=30)
            h = entropy(dist)
            assert h <= math.log2(len(dist.support)) + 1e-9
            probs = {p for _, p in dist.support}
            if len(probs) == 1:
                assert h == pytest.approx(math.log2(len(dist.support)), abs=1e-9)
            else:
                assert h < math.log2(len(dist.support)) - 1e-12


class TestConditionalEntropy:
    def test_perfectly_correlated(self):
        dist = ExactDistribution.uniform(2, [(0, 0), (1, 1)])
        assert conditional_entropy(dist, [0], [1]) == pytest.approx(0.0, abs=1e-12)

    def test_independent_bits(self):
        dist = ExactDistribution.uniform(2, [(a, b) for a in (0, 1) for b in (0, 1)])
        assert conditional_entropy(dist, [0], [1]) == pytest.approx(1.0, abs=1e-12)

    def test_triangle_graph_ordered_pairs(self):
        pairs = [(a, b) for a, b in permutations(range(3), 2)]
        dist = ExactDistribution.uniform(2, pairs)
        assert conditional_entropy(dist, [1], [0]) == pytest.approx(1.0, abs=1e-12)

    def test_overlap_rejected(self):
        dist = ExactDistribution.uniform(2, [(0, 0), (1, 1)])
        with pytest.raises(ValidationError):
            conditional_entropy(dist, [0], [0])

    def test_matches_defining_sum(self):
        rng = random.Random(8)
        for _ in range(100):
            arity = rng.randint(2, 4)
            dist = random_distribution(rng, arity, max_support=40)
            coords = list(range(arity))
            rng.shuffle(coords)
            cut = rng.randint(1, arity - 1)
            target, given = coords[:cut], coords[cut:]
            assert conditional_entropy(dist, target, given) == pytest.approx(
                conditional_entropy_defining_sum(dist, target, given), abs=1e-9
            )


class TestShearer:
    def test_independent_bits_equality(self):
        dist = ExactDistribution.uniform(3, [(a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1)])
        cover = CoverSpec(3, ((0, 1), (1, 2), (0, 2)), 2)
        rep = check_shearer(dist, cover)
        assert rep.satisfied
        assert rep.extra["slack"] == pytest.approx(0.0, abs=1e-9)

    def test_fig1_ordered_rainbow_triangles(self):
        h = fig1_k4()
        tris = rainbow_cliques(h, 3, ("red", "green", "blue"))
        tuples = [perm for tri in tris for perm in permutations(tri)]
        assert len(tuples) == 24
        dist = ExactDistribution.uniform(3, tuples)
        cover = CoverSpec(3, ((0, 1), (1, 2), (0, 2)), 2)
        rep = check_shearer(dist, cover)
        assert rep.satisfied
        # pair marginals are uniform over the 12 ordered K4 edges, so the
        # slack is 3 log2(12) - 2 log2(24) = log2(3); not tight
        assert rep.extra["slack"] == pytest.approx(math.log2(3), abs=1e-9)

    def test_deterministic_tuple(self):
        dist = ExactDistribution.uniform(3, [(1, 2, 3)])
        cover = CoverSpec.leave_one_out(3)
        rep = check_shearer(dist, cover)
        assert rep.satisfied
        assert rep.extra["slack"] == pytest.approx(0.0, abs=1e-12)

    def test_random_distributions(self):
        rng = random.Random(21)
        for _ in range(200):
            arity = rng.randint(2, 4)
            dist = random_distribution(rng, arity, max_support=50)
            rep = check_shearer(dist, CoverSpec.leave_one_out(arity))
            assert rep.satisfied

    def test_invalid_cover(self):
        with pytest.raises(ValidationError):
            CoverSpec(3, ((0, 1),), 2)


class TestKeyInequality:
    def test_complete_family_equality(self):
        fam = SetFamily.make(4, combinations(range(4), 3))
        rep = check_key_inequality(fam)
        assert rep.sizes == pytest.approx((4.0, 3.0, 2.0), abs=1e-9)
        assert all(abs(g) < 1e-9 for g in rep.gaps)
        assert rep.ok

    def test_single_set(self):
        fam = SetFamily.make(3, [(0, 1, 2)])
        rep = check_key_inequality(fam)
        assert rep.sizes == pytest.approx((3.0, 2.0, 1.0), abs=1e-9)
        assert rep.ok

    def test_random_families(self):
        rng = random.Random(5)
        for _ in range(150):
            fam = random_set_family(rng, 8, 3, 20)
            rep = check_key_inequality(fam)
            assert rep.ok

    def test_telescoped_consequence(self):
        # s_k >= s_d + (d - k), the telescoped form feeding the shadow bound
        rng = random.Random(6)
        for _ in range(100):
            d = rng.randint(2, 4)
            fam = random_set_family(rng, rng.randint(d, 8), d, 15)
            rep = check_key_inequality(fam)
            s_d = rep.sizes[-1]
            for k, s_k in enumerate(rep.sizes, start=1):
                assert s_k >= s_d + (rep.d - k) - 1e-9

    def test_matches_ordered_tuple_reference(self):
        rng = random.Random(7)
        for _ in range(60):
            d = rng.randint(1, 5)
            fam = random_set_family(rng, rng.randint(d, 9), d, 25)
            assert check_key_inequality(fam).sizes == pytest.approx(ordered_tuple_sizes(fam), abs=1e-9)

    def test_complete_family_tight_at_scale(self):
        # C(32, 4): s_k = 33 - k, so every gap is 0
        rep = check_key_inequality(SetFamily.make(32, combinations(range(32), 4)))
        assert rep.sizes == pytest.approx((32.0, 31.0, 30.0, 29.0), abs=1e-9)
        assert all(abs(g) < 1e-9 for g in rep.gaps)
        assert rep.ok

    def test_cap_refuses_before_counting(self, monkeypatch):
        def no_counting(*args):
            raise AssertionError("subsets were visited before the cap check")

        monkeypatch.setattr(importlib.import_module("shadowlab.entropy"), "combinations", no_counting)
        # one member at d = 30 is 2^30 subset visits
        with pytest.raises(CapacityError, match="subset visits"):
            check_key_inequality(SetFamily.make(30, [tuple(range(30))]))

    def test_empty_family_rejected(self):
        with pytest.raises(ValidationError):
            check_key_inequality(SetFamily.make(4, [], d=3))


class TestDisjointSupportLemma:
    def test_two_point_equality(self):
        # Y a fair bit; X1 = a iff Y = 0, X2 = a iff Y = 1
        dist = ExactDistribution.uniform(3, [("a", "b", 0), ("b", "a", 1)])
        d1 = {("a", 0), ("b", 1)}
        d2 = {("b", 0), ("a", 1)}
        rep = check_lemma_disjoint_support(dist, d1, d2)
        assert rep.satisfied
        assert rep.extra["lhs"] == pytest.approx(2.0, abs=1e-9)
        assert rep.extra["rhs"] == pytest.approx(2.0, abs=1e-9)

    def test_unequal_laws_rejected(self):
        dist = ExactDistribution.uniform(3, [("a", "b", 0), ("a", "c", 1)])
        d1 = {("a", 0), ("a", 1), ("b", 0), ("c", 0)}
        d2 = {("b", 1), ("c", 1)}
        with pytest.raises(ValidationError):
            check_lemma_disjoint_support(dist, d1, d2)

    def test_overlapping_partition_rejected(self):
        dist = ExactDistribution.uniform(3, [("a", "b", 0)])
        with pytest.raises(ValidationError):
            check_lemma_disjoint_support(dist, {("a", 0), ("b", 0)}, {("b", 0)})

    def test_corollary_instance(self):
        # diagonal bad cells on [3]x[3]: X uniform off-diagonal, X2 = Y
        tuples = [(x, y, y) for y in range(3) for x in range(3) if x != y]
        dist = ExactDistribution.uniform(3, tuples)
        d2 = {(y, y) for y in range(3)}
        d1 = {(x, y) for x in range(3) for y in range(3) if x != y}
        rep = check_lemma_disjoint_support(dist, d1, d2)
        assert rep.satisfied
        assert rep.extra["lhs"] == pytest.approx(3.0, abs=1e-9)
        assert rep.extra["rhs"] == pytest.approx(3.0, abs=1e-9)


class TestCRegularCorollary:
    def test_diagonal_equality(self):
        bad = [(i, i) for i in range(3)]
        rep = check_cregular_corollary(3, 3, bad, [(range(3), range(3), 1)])
        assert rep.satisfied
        assert rep.extra["c"] == 1
        assert rep.computed == pytest.approx(1.0, abs=1e-9)

    def test_no_bad_cells(self):
        rep = check_cregular_corollary(3, 3, [], [(range(3), range(3), 1)])
        assert rep.satisfied
        assert rep.extra["c"] == 0

    def test_repeats_on_four(self):
        bad = [(i, i) for i in range(4)]
        rep = check_cregular_corollary(4, 4, bad, [(range(4), range(4), 1)])
        assert rep.satisfied
        assert rep.computed == pytest.approx(4.0 - 3.0, abs=1e-9)

    def test_unbalanced_rectangle_rejected(self):
        bad = [(i, i) for i in range(3)]
        with pytest.raises(ValidationError):
            check_cregular_corollary(3, 3, bad, [((0, 1), (0, 1, 2), 1)])

    def test_weighted_rectangles(self):
        bad = [(i, i) for i in range(4)]
        rects = [(range(4), range(4), 2), ((0, 1), (0, 1), 1)]
        rep = check_cregular_corollary(4, 4, bad, rects)
        assert rep.satisfied


class TestIdentities:
    def test_chain_rule(self):
        rng = random.Random(9)
        for _ in range(150):
            arity = rng.randint(2, 4)
            dist = random_distribution(rng, arity, max_support=50)
            total = sum(
                conditional_entropy(dist, [k], list(range(k))) if k else entropy(dist, [0])
                for k in range(arity)
            )
            assert total == pytest.approx(entropy(dist), abs=1e-9)

    def test_dropping_a_condition_monotone(self):
        rng = random.Random(10)
        for _ in range(150):
            dist = random_distribution(rng, 3, max_support=50)
            assert conditional_entropy(dist, [0], [1, 2]) <= conditional_entropy(dist, [0], [2]) + 1e-9

    def test_determined_coordinate_adds_nothing(self):
        # Z = f(X, Y) on the support: H(X, Z | Y) = H(X | Y), checked on the
        # exact rational marginals (multisets of probabilities coincide)
        rng = random.Random(12)
        for _ in range(100):
            base = random_distribution(rng, 2, max_support=30)
            f = {(x, y): (x + 2 * y) % 3 for (x, y), _ in base.support}
            dist = ExactDistribution.from_pairs(
                3, [((x, y, f[(x, y)]), p) for (x, y), p in base.support]
            )
            lhs_marginal = sorted(dist.marginal([0, 1, 2]).values())
            rhs_marginal = sorted(dist.marginal([0, 1]).values())
            assert lhs_marginal == rhs_marginal
            assert conditional_entropy(dist, [0, 2], [1]) == pytest.approx(
                conditional_entropy(dist, [0], [1]), abs=1e-9
            )
