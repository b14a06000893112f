"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest -v -s tests/test_acceptance.py` to see the per-criterion
lines.  Every tolerance is pinned here; exact quantities are compared as
big integers or Fractions, real-valued bounds at the stated tolerance.
"""

import math
import random
import time
from fractions import Fraction
import pytest

from conftest import (
    RGB,
    is_opposite_edge_k4,
    leave_one_out,
    orderings,
    problem_count,
    random_colored_graph,
    random_distribution,
    random_set_family,
    random_uniform_hypergraph,
    random_weighted_complete,
    span,
)
from shadowlab.constructions import (
    complete_family,
    flats_example,
    k4_blowup,
    kappa_lift,
    matching_construction,
    tetrahedra8,
    tripartite_mixed,
)
from shadowlab.entropy import (
    ExactDistribution,
    check_key_inequality,
    check_shearer,
    conditional_entropy,
    entropy,
)
from shadowlab.forbidding import check_generalized_kk, qlinear_system, repeats_system, sd_orbits
from shadowlab.hypergraph import ColoredHypergraph, check_kruskal_katona
from shadowlab.checks import (
    check_partial_shadow_bound,
    count_partial_shadow_targets,
    weighted_joint_sum,
)
from shadowlab.numkit import product_falling
from shadowlab.qlinalg import check_q_kruskal_katona, enumerate_subspaces
from shadowlab.search import search_rainbow_triangle

TOL = 1e-9


def passed(num: int, text: str) -> None:
    print(f"criterion {num:02d}: PASS - {text}")


def test_criterion_01_fig1_family():
    start = time.perf_counter()
    for n in (1, 2, 3, 4):
        c = k4_blowup(n)
        counts = c.graph.color_counts()
        assert (counts["red"], counts["green"], counts["blue"]) == (2 * n * n,) * 3
        t = problem_count("rainbow_d", c.graph, colors=RGB)
        assert t == 4 * n**3
        assert t * t == 2 * counts["red"] * counts["green"] * counts["blue"]
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    passed(1, f"blowups n=1..4 give 2n^2/4n^3 with T^2 = 2RGB ({elapsed:.2f}s)")


def test_criterion_02_rainbow_triangle_property():
    start = time.perf_counter()
    rng = random.Random(20240)
    for _ in range(10_000):
        h = random_colored_graph(rng, rng.randint(3, 8))
        counts = h.color_counts()
        t = problem_count("rainbow_d", h, colors=RGB)
        r = counts.get("red", 0)
        g = counts.get("green", 0)
        b = counts.get("blue", 0)
        assert t * t <= 2 * r * g * b
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    passed(2, f"10^4 random 3-colored graphs satisfy T^2 <= 2RGB ({elapsed:.1f}s)")


def test_criterion_03_exhaustive_tightness():
    res4 = search_rainbow_triangle(4)
    assert res4.best == Fraction(2)
    assert is_opposite_edge_k4(res4.witness)
    start = time.perf_counter()
    res5 = search_rainbow_triangle(5)
    elapsed = time.perf_counter() - start
    assert res5.best == Fraction(2)
    assert elapsed < 300.0
    passed(3, f"exhaustive max at n=4 and n=5 is exactly 2, n=4 witness is the opposite-edge K4 ({elapsed:.1f}s)")


def test_criterion_04_tetrahedra8():
    c = tetrahedra8()
    counts = c.graph.color_counts()
    assert (counts["red"], counts["blue"], counts["green"], counts["yellow"]) == (16, 16, 12, 12)
    t = problem_count("rainbow_d", c.graph, 4, colors=("red", "blue", "green", "yellow"))
    assert t == 48
    assert Fraction(t**3, 16 * 16 * 12 * 12) == Fraction(3)
    passed(4, "8-vertex configuration: classes (16,16,12,12), 48 rainbow tetrahedra, ratio 3")


def test_criterion_05_matching_and_lift():
    for d in (3, 5, 7):
        c = matching_construction(d)
        assert c.expected["ratio"] == Fraction(2**d, d + 1)
    for base in (k4_blowup(1), matching_construction(5)):
        lifted = kappa_lift(base.graph)
        assert lifted.expected["ratio"] == base.expected["ratio"]
    passed(5, "matching ratios 2^d/(d+1) for d=3,5,7; lift preserves ratios exactly")


def test_criterion_06_kruskal_katona():
    rng = random.Random(606)
    for _ in range(1000):
        d = rng.randint(1, 4)
        n = rng.randint(d, 10)
        fam = random_set_family(rng, n, d, 40)
        assert check_kruskal_katona(fam).satisfied
    for d in (2, 3, 4):
        for m in range(d, 9):
            rep = check_kruskal_katona(complete_family(m, d))
            assert rep.satisfied
            assert rep.computed == math.comb(m, d - 1)
            assert abs(rep.computed - rep.bound) <= TOL
    passed(6, "10^3 random families pass; complete families are tight to 1e-9")


def test_criterion_07_q_analog():
    start = time.perf_counter()
    fam = enumerate_subspaces(2, 4, 2)
    assert len(fam) == 35
    rep = check_q_kruskal_katona(fam)
    assert rep.satisfied
    assert rep.extra["t"] == pytest.approx(4.0, abs=1e-6)
    assert rep.computed == 15
    planes = enumerate_subspaces(2, 3, 2).members
    for mask in range(1, 2**7):
        sub = [planes[i] for i in range(7) if mask >> i & 1]
        from shadowlab.qlinalg import SubspaceFamily

        assert check_q_kruskal_katona(SubspaceFamily(2, 3, 2, tuple(sub))).satisfied
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    passed(7, f"Grassmannian of planes in F_2^4 tight at t=4; all 127 subfamilies at n=3 pass ({elapsed:.1f}s)")


def test_criterion_08_key_inequality():
    rng = random.Random(808)
    for _ in range(1000):
        d = rng.randint(2, 4)
        n = rng.randint(d, 8)
        fam = random_set_family(rng, n, d, 25)
        rep = check_key_inequality(fam)
        assert all(g >= -TOL for g in rep.gaps)
    for d in (2, 3, 4):
        for m in range(d, 7):
            rep = check_key_inequality(complete_family(m, d))
            assert all(abs(g) <= TOL for g in rep.gaps)
    passed(8, "telescoping gaps >= 1 on 10^3 random families, equality on complete families")


def test_criterion_09_generalized_kk_cross_oracle():
    rng = random.Random(909)
    sys3 = repeats_system(8, 3)
    for _ in range(100):
        fam = random_set_family(rng, 8, 3, 20)
        gkk = check_generalized_kk(sys3, fam.sets)
        kk = check_kruskal_katona(fam)
        assert abs(gkk.extra["t"] - kk.extra["t"]) <= TOL
        assert abs(gkk.bound / math.factorial(2) - kk.bound) <= TOL
        assert gkk.computed == math.factorial(2) * kk.computed
        assert gkk.satisfied == kk.satisfied
    qsys = qlinear_system(2, 4, 2)
    grass = enumerate_subspaces(2, 4, 2)
    zero = (0, 0, 0, 0)
    sets = [sorted(span(m, 2, 4) - {zero}) for m in grass.members]
    gkk = check_generalized_kk(qsys, sets)
    qkk = check_q_kruskal_katona(grass)
    # the tuple-family parameter is t = q^{t_q} - 1, and at d = 2 the shadow
    # translation factor (q^{d-1} - 1) is 1, so the bounds coincide
    assert gkk.extra["t"] == pytest.approx(2 ** qkk.extra["t"] - 1, abs=1e-5)
    assert gkk.bound == pytest.approx(qkk.bound, abs=1e-5)
    assert gkk.computed == qkk.computed == 15
    assert gkk.satisfied == qkk.satisfied
    passed(9, "repeats system matches the set-family check on 100 families; qlinear matches the q-analog")


def test_criterion_10_sd_product_formula():
    def sd_size(sys, s):
        # S^(d) is closed under permutation: it is the orderings of its good d-multisets
        [(members, _)] = sd_orbits(sys, [s])
        return sum(map(orderings, members))

    for size in range(3, 9):
        for d in (2, 3, 4):
            assert sd_size(repeats_system(10, d), range(size)) == product_falling(size, tuple(range(1, d)))
    plane = enumerate_subspaces(2, 4, 2).members[0]
    pts = sorted(span(plane, 2, 4) - {(0, 0, 0, 0)})
    assert sd_size(qlinear_system(2, 4, 2), pts) == 3 * (3 - 1)
    passed(10, "|S^(d)| equals |S|(|S|-c_1)...(|S|-c_{d-1}) for repeats and qlinear systems")


def test_criterion_11_section5_examples():
    c = flats_example()
    assert len(c.graph.edges) == 14
    assert c.expected["J"] == 28
    assert c.expected["ratio"] == Fraction(2, 7)
    for n in (2, 3, 4):
        tm = tripartite_mixed(n)
        ratio = tm.expected["ratio"]
        assert ratio <= Fraction(9, 2)
        assert ratio <= Fraction(3)
    rng = random.Random(111)
    for _ in range(100):
        h = random_colored_graph(rng, rng.randint(3, 8))
        assert problem_count("covering_delta", h) == problem_count("rainbow_d", h, colors=RGB)
    passed(11, "flats example gives 28/14 = ratio 2/7; tripartite ratios within caps; delta=0 matches rainbow counting")


def test_criterion_12_weighted_bound():
    rng = random.Random(1212)
    for _ in range(1000):
        d = rng.choice((3, 4))
        n = rng.randint(d, 7)
        h = random_weighted_complete(rng, n, d, wmax=9)
        assert weighted_joint_sum(h).report.satisfied
    passed(12, "10^3 weighted instances obey the geometric-mean cap")


def test_criterion_13_entropy_identities():
    rng = random.Random(1313)
    for _ in range(1000):
        arity = rng.randint(2, 4)
        dist = random_distribution(rng, arity, max_support=200, value_range=4)
        # chain rule
        total = entropy(dist, [0])
        for k in range(1, arity):
            total += conditional_entropy(dist, [k], list(range(k)))
        assert abs(total - entropy(dist)) <= TOL
        # dropping a condition can only raise entropy
        if arity >= 3:
            assert conditional_entropy(dist, [0], [1, 2]) <= conditional_entropy(dist, [0], [2]) + TOL
        # appending a coordinate determined by (X_0, X_1) adds nothing
        f = {values: (values[0] + 2 * values[1]) % 3 for values, _ in dist.support}
        ext = ExactDistribution.from_pairs(
            arity + 1, [(values + (f[values],), p) for values, p in dist.support]
        )
        assert abs(
            conditional_entropy(ext, [0, arity], [1]) - conditional_entropy(ext, [0], [1])
        ) <= TOL
        # uniform bound, equality exactly for the uniform version
        assert entropy(dist) <= math.log2(len(dist.support)) + TOL
        uniform = ExactDistribution.uniform([v for v, _ in dist.support])
        assert abs(entropy(uniform) - math.log2(len(uniform.support))) <= TOL
        # shearer with the leave-one-out cover
        assert check_shearer(dist, leave_one_out(arity)).satisfied
    passed(13, "chain rule, monotonicity, determined-coordinate identity, uniform bound, shearer on 10^3 distributions")


def test_criterion_14_partial_shadow():
    rng = random.Random(1414)
    checked = 0
    while checked < 1000:
        r = rng.choice((3, 4))
        k = rng.choice((0, 1))
        h = random_uniform_hypergraph(rng, rng.randint(r, 7), r - 1, p=0.55)
        if count_partial_shadow_targets(h, r, k) < 1:
            continue
        assert check_partial_shadow_bound(h, r, k).satisfied
        checked += 1
    star = ColoredHypergraph.from_edges(4, [((0, v), "plain") for v in (1, 2, 3)])
    rep = check_partial_shadow_bound(star, 3, 1)
    assert rep.satisfied
    assert rep.extra["m"] == 3
    assert abs(rep.extra["x"] - 3.0) <= TOL
    assert abs(rep.computed - rep.bound) <= TOL
    passed(14, "10^3 random instances pass for r in {3,4}, k in {0,1}; the 3-star is exactly tight")
