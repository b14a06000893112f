"""Forbidding-system axioms, compatible sets, S^(d), and the shadow bound."""

import json
import random
import re
from itertools import combinations, combinations_with_replacement, permutations, product
from math import factorial

import pytest

from conftest import orderings, span
from shadowlab import cli, forbidding, qlinalg
from shadowlab.errors import CapacityError, ValidationError
from shadowlab.forbidding import (
    CompatibilityResult,
    ForbiddingSystem,
    check_generalized_kk,
    is_compatible,
    qlinear_system,
    repeats_system,
    sd_orbits,
    system_from_name,
    verify_forbidding_axioms,
)
from shadowlab.hypergraph import SetFamily, check_kruskal_katona
from shadowlab.numkit import shadow_bound
from shadowlab.qlinalg import enumerate_subspaces


def reference_sd(sys, s):
    """S^(d) by the tuple-prefix walk: extend every ordered prefix whose multiset is good."""
    inside = sorted(set(s))
    out = []

    def extend(prefix):
        if len(prefix) == sys.d:
            out.append(prefix)
            return
        for x in inside:
            if sys.is_good(prefix + (x,)):
                extend(prefix + (x,))

    extend(())
    return out


def assert_orbits_match_reference(sys, s):
    """The orbits are the distinct sorted multisets of the tuple-prefix walk, and their orderings add up to it."""
    expected = reference_sd(sys, s)
    [(members, size)] = sd_orbits(sys, [s])
    assert members == sorted({tuple(sorted(t)) for t in expected})
    assert sum(map(orderings, members)) == size == len(expected)


def reference_gkk(sys, sets):
    """(|F|, |shadow(F)|) from the union of the S_i^(d) built as tuples."""
    merged, total = set(), 0
    for s in sets:
        fam = reference_sd(sys, s)
        total += len(fam)
        merged |= set(fam)
        if len(merged) != total:
            raise ValidationError("the S_i^(d) are not mutually disjoint")
    return len(merged), len({t[:-1] for t in merged})


def reference_witness(sys, s):
    """First (good multiset, outside element) with a bad extension, by size then lexicographically."""
    inside = sorted(set(s))
    outside = [x for x in sys.universe if x not in inside]
    for k in range(1, sys.d):
        for ms in combinations_with_replacement(inside, k):
            if sys.is_good(ms):
                for x in outside:
                    if not sys.is_good(ms + (x,)):
                        return ms, x
    return None


def subspace_sets(q, n, k):
    zero = (0,) * n
    return [sorted(span(m, q, n) - {zero}) for m in enumerate_subspaces(q, n, k).members]


def assert_gkk_matches_reference(sys, sets):
    try:
        expected = reference_gkk(sys, sets)
    except ValidationError as exc:
        with pytest.raises(ValidationError, match=re.escape(str(exc))):
            check_generalized_kk(sys, sets)
        return
    if expected[0] == 0:
        with pytest.raises(ValidationError, match="empty"):
            check_generalized_kk(sys, sets)
        return
    rep = check_generalized_kk(sys, sets)
    assert (rep.extra["family_size"], rep.computed) == expected
    assert rep.satisfied == shadow_bound(expected[1], expected[0], sys.c_vector)[0]


def all_good_system(n, d):
    """Every multiset is good, c = (0, ..., 0): S^(d) is every d-tuple over S, repeats included."""
    return ForbiddingSystem(range(n), lambda ms: True, (0,) * (d - 1), name="all-good")


def not_downward_closed():
    """Declared (1, 2) like repeats, but (0, 1) is bad while (0, 1, 2) is good."""
    return ForbiddingSystem(range(4), lambda ms: len(set(ms)) == len(ms) and ms != (0, 1), (1, 2))


class TestAxiomVerification:
    def test_repeats_valid(self):
        report = verify_forbidding_axioms(repeats_system(5, 3))
        assert report.ok and report.checked == 5 + 5 + 15  # the singletons, then every multiset of size 1..2

    def test_qlinear_valid(self):
        report = verify_forbidding_axioms(qlinear_system(2, 3, 2))
        assert report.ok and report.checked == 7 + 7

    def test_wrong_declaration_detected(self):
        sys = ForbiddingSystem(
            universe=range(5),
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
                classify_good=lambda ms, f=flipped: (len(set(ms)) == len(ms)) ^ (ms == f),
                c_vector=(1, 2),
                name="mutant",
            )
            assert not verify_forbidding_axioms(mutant).ok

    def test_multiset_cap_refuses_before_classifying(self, monkeypatch):
        # C(6 + 3, 3) - 1 = 83 multisets of size 1..3 over 6 elements; 7 elements need 119
        monkeypatch.setattr(forbidding, "VERIFY_CAP", 83)
        calls = []

        def classify(ms):
            calls.append(ms)
            return len(set(ms)) == len(ms)

        report = verify_forbidding_axioms(ForbiddingSystem(range(6), classify, (1, 2)))
        assert report.ok and report.checked == 6 + 6 + 21
        assert 0 < len(set(calls)) <= 83
        calls.clear()
        with pytest.raises(CapacityError, match=r"^multisets of size 1\.\.d = 119 exceeds cap 83$"):
            verify_forbidding_axioms(ForbiddingSystem(range(7), classify, (1, 2)))
        assert calls == []

    def test_memo_cap_counts_key_elements(self):
        # 2 elements at d = 300: C(302, 2) - 1 = 45,450 multisets, but of up to 300 elements each
        assert verify_forbidding_axioms(repeats_system(2, 100)).ok
        system, calls = repeats_system(2, 300), []
        classify = system._classify
        system._classify = lambda ms: calls.append(ms) or classify(ms)
        with pytest.raises(CapacityError, match=r"^memo elements \(multisets x d\) = 13635000 exceeds cap 10000000$"):
            verify_forbidding_axioms(system)
        assert calls == []

    def test_memo_cap_refuses_a_deep_system(self):
        calls = []

        def classify(ms):
            calls.append(ms)
            return len(set(ms)) == len(ms)

        # one element at d = 8000: 8000 multisets are within the multiset cap, but each memoized
        # multiset holds up to 8000 elements, 6.4 x 10^7 in all
        system = ForbiddingSystem(range(1), classify, range(1, 8000))
        with pytest.raises(CapacityError, match=r"^memo elements \(multisets x d\) = 64000000 exceeds cap 10000000$"):
            verify_forbidding_axioms(system)
        assert calls == []

    def test_builtin_universe_capped(self):
        with pytest.raises(CapacityError, match="universe size"):
            system_from_name("repeats", 2, universe_size=10**8)
        with pytest.raises(CapacityError, match="field size"):
            system_from_name("qlinear:2,17", 2)

    def test_qlinear_trial_divides_q_once(self):
        # q is trial-divided once, when the system checks its field; no lookup or span asks again
        qlinalg.is_prime.cache_clear()
        plane = ";".join(f"{a},{b}" for a, b in product(range(5), repeat=2) if a or b)
        for action in (["verify"], ["sd", "--set", plane]):
            report, status = cli.run(["forbidding", *action, "--system", "qlinear:5,2", "--d", "3"])
            assert status == 0
        info = qlinalg.is_prime.cache_info()
        assert (info.misses, info.currsize, info.hits) == (1, 1, 1)

    def test_builtin_names(self):
        assert system_from_name("repeats", 3, universe_size=5).name == "repeats"
        assert system_from_name("qlinear:2,3", 2).name == "qlinear:2,3"
        with pytest.raises(ValidationError):
            system_from_name("mystery", 3)

    @pytest.mark.parametrize("system", [["repeats", "--universe-size", "4"], ["qlinear:2,3"]])
    @pytest.mark.parametrize("d", ["0", "-2"])
    def test_depth_below_one_refused(self, system, d):
        # no c-vector has a negative length, so the command line's --d is refused before any system is built
        with pytest.raises(ValidationError, match=f"^d must be positive, got {d}$"):
            cli.run(["forbidding", "verify", "--system", *system, "--d", d])


def good_multisets(sys):
    """Every good sorted multiset of size < d, the empty one included."""
    return [ms for k in range(sys.d) for ms in combinations_with_replacement(sys.universe, k)
            if not ms or sys.is_good(ms)]


def dropping_one(sys):
    """sys with `forbidden` short of its largest element wherever it has one."""
    return ForbiddingSystem(sys.universe, sys._classify, sys.c_vector, sys.name,
                            lambda ms: sorted(sys.forbidden(ms))[:-1] if ms else ())


def classifier_only(sys):
    """sys without `forbidden`: the walk asks the memoized classifier instead."""
    return ForbiddingSystem(sys.universe, sys._classify, sys.c_vector, sys.name)


def walked(sys, inside):
    """The walk's outcome on a set, or the message it refuses with."""
    try:
        return forbidding._walk(sys, tuple(sorted(inside)))
    except ValidationError as exc:
        return str(exc)


@pytest.mark.parametrize("make", [lambda: repeats_system(3, 6), lambda: all_good_system(3, 6),
                                  lambda: repeats_system(2, 9), lambda: qlinear_system(2, 2, 5),
                                  lambda: ForbiddingSystem("abcd", lambda ms: ms.count("b") < 3, (0,) * 4)])
def test_extensions_match_is_good_on_repeated_elements(make):
    # every multiset below size d, most repeating an element: one cut per distinct element, the keys in order
    sys, plain = make(), make()
    multisets = [ms for k in range(sys.d) for ms in combinations_with_replacement(sys.universe, k)]
    assert sum(len(set(ms)) < len(ms) for ms in multisets) > len(multisets) // 2
    for ms in multisets:
        assert forbidding._extensions(sys, ms) == [plain.is_good(ms + (x,)) for x in sys.universe], ms
    assert sys._memo == plain._memo  # is_good sorts its keys: each key went in sorted


BUILT_IN = [(repeats_system, (n, d)) for n in range(1, 6) for d in range(1, min(n + 1, 4) + 1)] + [
    (qlinear_system, (q, n, d)) for q, n in [(2, 3), (3, 2), (2, 4)] for d in range(1, 4)]


class TestForbidden:
    @pytest.mark.parametrize("make, shape", BUILT_IN)
    def test_forbidden_is_the_bad_extensions(self, make, shape):
        sys = make(*shape)
        multisets = good_multisets(sys)
        assert len(multisets) > sys.d - 1
        for ms in multisets:
            bad = {x for x in sys.universe if not sys.is_good(ms + (x,))}
            assert len(sys.forbidden(ms)) == ((0,) + sys.c_vector)[len(ms)]
            assert set(sys.forbidden(ms)) == bad

    @pytest.mark.parametrize("make, shape, inside", [
        (repeats_system, (4, 3), range(4)),
        (qlinear_system, (2, 3, 3), [(0, 1, 0), (1, 0, 0), (1, 1, 0)]),
        (qlinear_system, (3, 2, 2), [(1, 0), (2, 0)]),
    ])
    def test_dropping_one_element_is_refused(self, make, shape, inside):
        sys = make(*shape)
        assert verify_forbidding_axioms(sys).ok and isinstance(walked(sys, inside), tuple)
        mutant = dropping_one(sys)
        report = verify_forbidding_axioms(mutant)
        assert not report.ok and re.fullmatch(r"forbidden\(.*\) and the classifier disagree on its extension by .*",
                                              report.violation)
        assert re.fullmatch(r"forbidden\(.*\) has \d+ elements, declared c_\d = \d+", walked(mutant, inside))
        with pytest.raises(ValidationError, match="forbidden"):
            sd_orbits(mutant, [inside])

    @pytest.mark.parametrize("q, n", [(2, 3), (3, 2)])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_walk_by_forbidden_matches_the_classifier(self, q, n, d):
        # every subset of the universe: the same members, witness and refusal either way
        sys = qlinear_system(q, n, d)
        plain = classifier_only(sys)
        outcomes = set()
        for size in range(len(sys.universe) + 1):
            for inside in combinations(sys.universe, size):
                outcome = walked(sys, inside)
                assert outcome == walked(plain, inside)
                outcomes.add(outcome[0] is None if isinstance(outcome, tuple) else "refused")
        # a set misses a bad extension only where one multiset has two or more: c_{d-1} = q^(d-1) - 1 > 1
        assert True in outcomes and (False in outcomes) == (q ** (d - 1) > 2)


class TestCompatibility:
    def test_repeats_any_subset(self):
        sys = repeats_system(6, 3)
        for s in [(0,), (1, 3), (0, 2, 4, 5)]:
            assert is_compatible(sys, s).ok

    def test_qlinear_subspace_minus_zero(self):
        sys = qlinear_system(2, 3, 2)
        plane = span([(1, 0, 0), (0, 1, 0)], 2, 3) - {(0, 0, 0)}
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

    @pytest.mark.parametrize(
        "q, n, d", [(2, 3, 3), (2, 4, 3), (2, 4, 4), (3, 2, 2), (3, 3, 3), (5, 2, 3)]
    )
    def test_witness_is_first_in_size_then_lex_order(self, q, n, d):
        sys = qlinear_system(q, n, d)
        rng = random.Random(q * 100 + n * 10 + d)
        incompatible = 0
        for trial in range(40):
            s = rng.sample(sys.universe, rng.randint(1, min(6, len(sys.universe))))
            if trial % 2:
                # closed under scalars, so for odd q the witness is a pair with several bad extensions
                s = {tuple(c * x % q for x in v) for v in s for c in range(1, q)}
            expected = reference_witness(qlinear_system(q, n, d), s)
            result = is_compatible(sys, s)
            assert result.ok == (expected is None)
            assert result.witness == expected
            incompatible += expected is not None
        assert incompatible > 0

    def test_walk_assumes_downward_closed(self):
        # (0,) is bad, against the first axiom, so the walk would never reach (0, 1), whose bad
        # extension is (0, 1, 2); the level count catches it at size 1 (one good 1-tuple, not |S| = 2)
        def classify(ms):
            return len(set(ms)) == len(ms) and ms not in {(0,), (0, 1, 2)}

        sys = ForbiddingSystem(range(3), classify, (1, 2))
        assert reference_witness(sys, [0, 1]) == ((0, 1), 2)
        with pytest.raises(ValidationError, match=re.escape("|S^(1)| = 1 but the declared c-vector predicts 2")):
            is_compatible(sys, [0, 1])

    def test_compatible_set_classifies_nothing_outside(self):
        s = (3, 50, 700, 1234, 9999)

        def recording_system():
            seen = []

            def classify(ms):
                seen.append(ms)
                return len(set(ms)) == len(ms)

            return ForbiddingSystem(range(10**4), classify, (1, 2, 3)), seen

        sys, seen = recording_system()
        assert is_compatible(sys, s) == CompatibilityResult(True, None)
        assert seen and all(set(ms) <= set(s) for ms in seen)
        sys, seen = recording_system()
        assert sd_orbits(sys, [s])[0][1] == 5 * 4 * 3 * 2
        assert seen and all(set(ms) <= set(s) for ms in seen)


class TestEnumerateSd:
    def test_repeats_five_choose_ordered_three(self):
        sys = repeats_system(5, 3)
        [(members, size)] = sd_orbits(sys, [range(5)])
        assert members == list(combinations(range(5), 3))
        assert size == 60  # 5 * 4 * 3

    def test_repeats_all_orderings(self):
        sys = repeats_system(3, 3)
        [(members, size)] = sd_orbits(sys, [range(3)])
        assert members == [(0, 1, 2)] and size == len(list(permutations(range(3))))

    def test_qlinear_ordered_bases(self):
        sys = qlinear_system(2, 4, 2)
        plane = span([(1, 0, 0, 0), (0, 1, 0, 0)], 2, 4) - {(0, 0, 0, 0)}
        [(members, size)] = sd_orbits(sys, [plane])
        assert len(members) == 3 and size == 6  # 3 * (3 - 1) ordered bases

    def test_qlinear_skips_rank_tests_that_cannot_succeed(self, monkeypatch, tmp_path):
        # sd and gkk extend each good multiset by the vectors outside its span: no rank test, no reduction
        calls = []
        for name in ("rref", "_echelon", "_reduce"):
            monkeypatch.setattr(qlinalg, name, lambda *args, name=name: calls.append(name))
        vectors = ";".join(",".join(map(str, v)) for v in product(range(2), repeat=5) if any(v))
        report, status = cli.run(["forbidding", "sd", "--system", "qlinear:2,5", "--d", "6", "--set", vectors])
        assert status == 0 and report["quantities"]["tuples"] == 0
        planes = tmp_path / "planes.json"
        planes.write_text(json.dumps({"q": 3, "n": 3, "d": 2, "members": [list(map(list, m)) for m in
                                                                           enumerate_subspaces(3, 3, 2).members]}))
        report, status = cli.run(["forbidding", "gkk", "--system", "qlinear:3,3", "--d", "2",
                                  "--subspaces", str(planes)])
        assert status == 0 and report["quantities"]["family_size"] == 13 * 8 * 6
        assert calls == []

    def test_wrong_c_vector_rejected(self):
        # the repeats classifier has c = (1, 2): 5*4*3 = 60 tuples, not the declared 5*4*4 = 80
        sys = ForbiddingSystem(range(5), lambda ms: len(set(ms)) == len(ms), (1, 1))
        with pytest.raises(ValidationError, match="c-vector predicts 80"):
            sd_orbits(sys, [range(5)])

    def test_bad_c_vector_refused(self):
        def classify(ms):
            return len(set(ms)) == len(ms)

        with pytest.raises(ValidationError, match=r"c-vector entries must be nonnegative integers: \(-1, 2\)"):
            ForbiddingSystem(range(5), classify, [-1, 2])
        with pytest.raises(ValidationError, match=r"c-vector entries must be nondecreasing: \(2, 1\)"):
            ForbiddingSystem(range(5), classify, (2, 1))
        assert ForbiddingSystem(range(5), classify, [1, 2]).c_vector == (1, 2)

    def test_depth_is_one_more_than_the_c_vector(self):
        def classify(ms):
            return len(set(ms)) == len(ms)

        assert ForbiddingSystem(range(4), classify, (1, 2)).d == 3
        assert ForbiddingSystem(range(4), classify, ()).d == 1
        assert (repeats_system(5, 4).d, qlinear_system(2, 3, 2).d) == (4, 2)

    def test_incompatible_set_rejected(self):
        sys = qlinear_system(2, 3, 3)
        with pytest.raises(ValidationError):
            sd_orbits(sys, [[(1, 0, 0), (0, 1, 0)]])

    def test_not_downward_closed_rejected(self):
        # caught at size 2: the good pairs have 10 orderings, not 4 * 3
        with pytest.raises(ValidationError, match="c-vector predicts 12"):
            sd_orbits(not_downward_closed(), [range(4)])
        with pytest.raises(ValidationError, match="c-vector predicts 12"):
            check_generalized_kk(not_downward_closed(), [range(4)])

    @pytest.mark.parametrize("make", [repeats_system, all_good_system])
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_matches_tuple_prefix_walk(self, make, d):
        rng = random.Random(d)
        for _ in range(15):
            assert_orbits_match_reference(make(7, d), rng.sample(range(7), rng.randint(0, 6)))

    @pytest.mark.parametrize("q, n, k, d", [(2, 4, 3, 2), (2, 4, 3, 3), (3, 3, 2, 2)])
    def test_matches_tuple_prefix_walk_qlinear(self, q, n, k, d):
        for s in subspace_sets(q, n, k)[:6]:
            assert_orbits_match_reference(qlinear_system(q, n, d), s)

    def test_caps_refuse_before_classifying(self):
        calls = []

        def classify(ms):
            calls.append(ms)
            return len(set(ms)) == len(ms)

        sys = ForbiddingSystem(range(40), classify, (1, 2, 3, 4, 5))
        with pytest.raises(CapacityError, match="good d-multisets = 593775"):
            check_generalized_kk(sys, [range(30)])  # binom(30, 6)
        with pytest.raises(CapacityError, match="good d-multisets = 593775"):
            sd_orbits(sys, [range(30)])
        with pytest.raises(CapacityError, match="good d-multisets = 593775"):
            is_compatible(sys, range(30))  # the compatibility walk also goes to size d
        pairs = ForbiddingSystem(range(2000), classify, (1,))
        with pytest.raises(CapacityError, match="good d-multisets = 500028"):
            check_generalized_kk(pairs, [range(1000), range(1000, 1033)])  # binom(1000, 2) + binom(33, 2)
        assert calls == []


class TestGeneralizedKK:
    @pytest.mark.parametrize("n, d", [(6, 2), (6, 3), (7, 4), (8, 5)])
    def test_matches_set_family_check(self, n, d):
        # kk(A) against gkk(repeats, A) on random families and the complete one, each given in sorted
        # order (which `SetFamily.make` accepts without a sort) and shuffled
        rng = random.Random(77 + 10 * n + d)
        system, pool = repeats_system(n, d), list(combinations(range(n), d))
        families = [sorted(rng.sample(pool, rng.randint(1, 12))) for _ in range(20)] + [pool]
        for chosen in families:
            for given in (chosen, rng.sample(chosen, len(chosen))):
                kk = check_kruskal_katona(SetFamily.make(n, given, d=d))
                gkk = check_generalized_kk(system, given)
                # |shadow(F)| = (d-1)! |shadow(A)| and t is the same; the float bounds, for display, match
                # the same way up to rounding
                assert gkk.computed == factorial(d - 1) * kk.computed
                assert gkk.extra["t"] == kk.extra["t"]
                assert gkk.bound == pytest.approx(factorial(d - 1) * kk.bound, rel=1e-12)
                assert gkk.satisfied == kk.satisfied

    def test_qlinear_full_grassmannian(self):
        sys = qlinear_system(2, 4, 2)
        planes = []
        from shadowlab.qlinalg import enumerate_subspaces

        for member in enumerate_subspaces(2, 4, 2).members:
            planes.append(span(member, 2, 4) - {(0, 0, 0, 0)})
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

    def test_large_family_counted_without_tuples(self):
        rep = check_generalized_kk(repeats_system(20, 6), [range(20)])
        assert rep.extra["family_size"] == 27907200  # 20 * 19 * ... * 15
        assert rep.computed == 1860480  # 20 * 19 * ... * 16
        assert rep.satisfied

    @pytest.mark.parametrize("make", [repeats_system, all_good_system])
    @pytest.mark.parametrize("n, d", [(6, 2), (7, 3), (7, 4)])
    def test_matches_tuple_prefix_walk(self, make, n, d):
        rng = random.Random(n * 10 + d)
        for _ in range(25):
            sets = [rng.sample(range(n), rng.randint(d - 1, n)) for _ in range(rng.randint(1, 4))]
            assert_gkk_matches_reference(make(n, d), sets)

    @pytest.mark.parametrize("q, n, k, d", [(2, 4, 2, 2), (2, 4, 3, 2), (2, 4, 3, 3), (3, 3, 2, 2)])
    def test_matches_tuple_prefix_walk_qlinear(self, q, n, k, d):
        # k-dimensional subspaces with k > d share d-dimensional ones, so some families overlap
        rng = random.Random(q * 1000 + n * 100 + k * 10 + d)
        pool = subspace_sets(q, n, k)
        for _ in range(10):
            sets = rng.sample(pool, rng.randint(1, min(4, len(pool))))
            assert_gkk_matches_reference(qlinear_system(q, n, d), sets)

    def test_planes_of_a_large_space(self):
        # five planes among the 65,535 nonzero vectors of F_2^16, decided without classifying a vector outside them
        basis = [tuple(int(j == i) for j in range(16)) for i in range(10)]
        planes = [span([basis[i], basis[i + 5]], 2, 16) - {(0,) * 16} for i in range(5)]
        rep = check_generalized_kk(qlinear_system(2, 16, 2), planes)
        assert rep.extra["family_size"] == 5 * 3 * 2
        assert rep.computed == 15
        assert rep.extra["t"] == pytest.approx(6.0, abs=1e-9)
        assert rep.satisfied

    def test_overlapping_families_rejected(self):
        sys = repeats_system(6, 3)
        with pytest.raises(ValidationError):
            check_generalized_kk(sys, [(0, 1, 2), (0, 1, 2)])

    def test_empty_union_rejected(self):
        sys = repeats_system(6, 3)
        with pytest.raises(ValidationError):
            check_generalized_kk(sys, [])
