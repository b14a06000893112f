"""Forbidding-system axioms, compatible sets, S^(d), and the shadow bound."""

import random
from itertools import combinations, combinations_with_replacement, permutations

import pytest

from conftest import random_set_family
from shadowlab.errors import ValidationError
from shadowlab.forbidding import (
    ForbiddingSystem,
    TupleFamily,
    check_generalized_kk,
    enumerate_sd,
    is_compatible,
    qlinear_system,
    repeats_system,
    system_from_name,
    tuple_shadow,
    verify_forbidding_axioms,
)
from shadowlab.hypergraph import check_kruskal_katona


def span_f2(vectors, n):
    """All F_2 linear combinations; test-local oracle."""
    from itertools import product as iproduct

    out = set()
    vecs = list(vectors)
    for coeffs in iproduct((0, 1), repeat=len(vecs)):
        v = [0] * n
        for c, g in zip(coeffs, vecs):
            if c:
                v = [(a + b) % 2 for a, b in zip(v, g)]
        out.add(tuple(v))
    return out


class TestAxiomVerification:
    def test_repeats_valid(self):
        report = verify_forbidding_axioms(repeats_system(5, 3))
        assert report.ok and report.exhaustive

    def test_qlinear_valid(self):
        report = verify_forbidding_axioms(qlinear_system(2, 3, 2))
        assert report.ok and report.exhaustive

    def test_wrong_declaration_detected(self):
        sys = ForbiddingSystem(
            universe=range(5),
            d=3,
            classify_good=lambda ms: len(set(ms)) == len(ms),
            c_vector=(1, 1),
            name="repeats-misdeclared",
        )
        report = verify_forbidding_axioms(sys)
        assert not report.ok
        assert "c_2" in report.violation

    def test_single_misclassified_multiset_detected(self):
        # flipping any one multiset classification must break an axiom
        rng = random.Random(44)
        all_multisets = [
            ms for k in range(1, 4) for ms in combinations_with_replacement(range(4), k)
        ]
        for _ in range(10):
            flipped = rng.choice(all_multisets)
            mutant = ForbiddingSystem(
                universe=range(4),
                d=3,
                classify_good=lambda ms, f=flipped: (len(set(ms)) == len(ms)) ^ (ms == f),
                c_vector=(1, 2),
                name="mutant",
            )
            assert not verify_forbidding_axioms(mutant).ok

    def test_spot_mode_flags_not_exhaustive(self):
        report = verify_forbidding_axioms(repeats_system(5, 3), mode="spot", trials=200, seed=1)
        assert report.ok and not report.exhaustive

    def test_builtin_names(self):
        assert system_from_name("repeats", 3, universe_size=5).name == "repeats"
        assert system_from_name("qlinear:2,3", 2).name == "qlinear:2,3"
        with pytest.raises(ValidationError):
            system_from_name("mystery", 3)


class TestCompatibility:
    def test_repeats_any_subset(self):
        sys = repeats_system(6, 3)
        for s in [(0,), (1, 3), (0, 2, 4, 5)]:
            assert is_compatible(sys, s).ok

    def test_qlinear_subspace_minus_zero(self):
        sys = qlinear_system(2, 3, 2)
        plane = span_f2([(1, 0, 0), (0, 1, 0)], 3) - {(0, 0, 0)}
        assert is_compatible(sys, plane).ok

    def test_qlinear_two_vectors_incompatible(self):
        # at tuple length 3 the pair {v, w} is a good 2-multiset whose bad
        # extension v + w escapes the set; at length 2 only singletons matter
        sys = qlinear_system(2, 3, 3)
        result = is_compatible(sys, [(1, 0, 0), (0, 1, 0)])
        assert not result.ok
        ms, x = result.witness
        assert x == (1, 1, 0)
        assert is_compatible(qlinear_system(2, 3, 2), [(1, 0, 0), (0, 1, 0)]).ok


class TestEnumerateSd:
    def test_repeats_five_choose_ordered_three(self):
        sys = repeats_system(5, 3)
        fam = enumerate_sd(sys, range(5))
        assert len(fam) == 60  # 5 * 4 * 3

    def test_repeats_all_orderings(self):
        sys = repeats_system(3, 3)
        fam = enumerate_sd(sys, range(3))
        assert set(fam.tuples) == set(permutations(range(3)))

    def test_qlinear_ordered_bases(self):
        sys = qlinear_system(2, 4, 2)
        plane = span_f2([(1, 0, 0, 0), (0, 1, 0, 0)], 4) - {(0, 0, 0, 0)}
        fam = enumerate_sd(sys, plane)
        assert len(fam) == 6  # 3 * (3 - 1) ordered bases

    def test_symmetric_under_permutation(self):
        sys = repeats_system(5, 3)
        fam = enumerate_sd(sys, (0, 2, 3, 4))
        tuples = set(fam.tuples)
        for t in tuples:
            for p in permutations(t):
                assert p in tuples

    def test_prefix_count_law(self):
        # completions of a good k-prefix number (|S| - c_k)...(|S| - c_{d-1})
        sys = repeats_system(6, 3)
        s = (0, 1, 3, 4, 5)
        fam = enumerate_sd(sys, s)
        for k in range(1, 4):
            for prefix in permutations(s, k):
                count = sum(1 for t in fam.tuples if t[:k] == prefix)
                expected = 1
                for c in sys.c_vector.entries[k - 1:]:
                    expected *= len(s) - c
                assert count == expected

    def test_wrong_c_vector_rejected(self):
        # the repeats classifier has c = (1, 2): 5*4*3 = 60 tuples, not the declared 5*4*4 = 80
        sys = ForbiddingSystem(range(5), 3, lambda ms: len(set(ms)) == len(ms), (1, 1))
        with pytest.raises(ValidationError, match="c-vector predicts 80"):
            enumerate_sd(sys, range(5))

    def test_incompatible_set_rejected(self):
        sys = qlinear_system(2, 3, 3)
        with pytest.raises(ValidationError):
            enumerate_sd(sys, [(1, 0, 0), (0, 1, 0)])


class TestTupleShadow:
    def test_shared_prefix_deduplicates(self):
        fam = TupleFamily.make(3, [(0, 1, 2), (0, 1, 3)])
        assert tuple_shadow(fam).tuples == ((0, 1),)

    def test_repeats_shadow_is_ordered_pairs(self):
        sys = repeats_system(3, 3)
        fam = enumerate_sd(sys, range(3))
        shadow = tuple_shadow(fam)
        assert set(shadow.tuples) == set(permutations(range(3), 2))

    def test_empty(self):
        assert len(tuple_shadow(TupleFamily.make(3, []))) == 0


class TestGeneralizedKK:
    def test_matches_set_family_check(self):
        rng = random.Random(77)
        sys = repeats_system(6, 3)
        for _ in range(30):
            fam = random_set_family(rng, 6, 3, 12)
            gkk = check_generalized_kk(sys, fam.sets)
            kk = check_kruskal_katona(fam)
            assert gkk.extra["t"] == pytest.approx(kk.extra["t"], abs=1e-9)
            # |shadow(F)| = (d-1)! |shadow(A)| and the bounds match the same way
            assert gkk.computed == 2 * kk.computed
            assert gkk.bound == pytest.approx(2 * kk.bound, abs=1e-6)
            assert gkk.satisfied == kk.satisfied

    def test_qlinear_full_grassmannian(self):
        sys = qlinear_system(2, 4, 2)
        planes = []
        from shadowlab.qlinalg import enumerate_subspaces

        for member in enumerate_subspaces(2, 4, 2).members:
            planes.append(span_f2(member, 4) - {(0, 0, 0, 0)})
        rep = check_generalized_kk(sys, planes)
        assert rep.extra["family_size"] == 210  # 35 * 3 * 2
        assert rep.extra["t"] == pytest.approx(15.0, abs=1e-6)  # 2^4 - 1
        assert rep.computed == 15  # every nonzero vector appears as a prefix
        assert rep.bound == pytest.approx(15.0, abs=1e-6)
        assert rep.satisfied

    def test_single_set_equality(self):
        sys = repeats_system(6, 3)
        rep = check_generalized_kk(sys, [(0, 1, 2)])
        assert rep.extra["t"] == pytest.approx(3.0, abs=1e-9)
        assert rep.computed == 6  # ordered pairs from a 3-set
        assert rep.bound == pytest.approx(6.0, abs=1e-6)

    def test_tight_repeats_universe10_d6(self):
        rep = check_generalized_kk(repeats_system(10, 6), list(combinations(range(10), 6)))
        assert rep.extra["family_size"] == 151200
        assert rep.computed == 30240
        assert rep.satisfied

    def test_overlapping_families_rejected(self):
        sys = repeats_system(6, 3)
        with pytest.raises(ValidationError):
            check_generalized_kk(sys, [(0, 1, 2), (0, 1, 2)])

    def test_empty_union_rejected(self):
        sys = repeats_system(6, 3)
        with pytest.raises(ValidationError):
            check_generalized_kk(sys, [])
