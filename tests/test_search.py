"""Exhaustive searches and the seeded random probe."""

import random
from fractions import Fraction
from functools import cache
from itertools import combinations, permutations, product
from math import comb

import pytest

from conftest import is_opposite_edge_k4, problem_count, replaced
from shadowlab import search
from shadowlab.errors import BoundViolationError, CapacityError, ValidationError
from shadowlab.hypergraph import ColoredHypergraph
from shadowlab.problems import PROBLEMS, Problem
from shadowlab.search import (LITERAL_CAP, PROBE_CAP, RECOUNT_CAP, _best_in_blocks, _draws, _orbit_least, _vertex_maps,
                              random_probe, search_mixed_4subsets, search_rainbow_triangle)

RGB = ("red", "green", "blue")


def reference_rainbow(n, numerator=lambda t: t * t, denominator=lambda r, g, b: r * g * b):
    """The scan one state at a time: best numerator(T) / denominator(R, G, B), states explored, and the
    witness's edges."""
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
        if t and numerator(t) * best_den > best_num * denominator(r, g, b):
            best_num, best_den, best_state = numerator(t), denominator(r, g, b), state
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


def orbit_count(n, slots, values, colors):
    """The orbits of the states over `slots`, vertex tuples each taking a value in `values`, under the
    permutations of [n] that map the set of slots onto itself, each with every value permutation in
    `colors`: the number of distinct least images, by brute force over the group."""
    index = {s: i for i, s in enumerate(slots)}
    group = []
    for p in permutations(range(n)):
        image = [tuple(sorted(p[v] for v in s)) for s in slots]
        if set(image) == set(slots):
            group.append([index[s] for s in image])
    least = set()
    for state in product(values, repeat=len(slots)):
        images = []
        for slot_map in group:
            for c in colors:
                image = [0] * len(slots)
                for i, v in enumerate(state):
                    image[slot_map[i]] = c[v]
                images.append(tuple(image))
        least.add(min(images))
    return len(least)


COLORINGS = [(0, *c) for c in permutations((1, 2, 3))]  # every colour permutation, absent fixed


@pytest.mark.parametrize("scan, n, orbits", [
    (search_rainbow_triangle, 4, 7), (search_rainbow_triangle, 5, 83),
    (search_mixed_4subsets, 4, 11), (search_mixed_4subsets, 5, 34),
])
def test_scans_visit_one_outer_state_per_orbit(monkeypatch, scan, n, orbits):
    visited = []

    def spy(outers, *args):
        visited.append(len(outers))
        return _best_in_blocks(outers, *args)

    monkeypatch.setattr(search, "_best_in_blocks", spy)
    scan(n)
    pairs = list(combinations(range(n), 2))
    if scan is search_rainbow_triangle:  # the first half of the pair slots, with the colours
        assert orbit_count(n, pairs[:len(pairs) // 2], range(4), COLORINGS) == orbits
    else:  # every pair slot, the graph with no pair among them
        assert orbit_count(n, pairs, range(2), [(0, 1)]) == orbits
    assert visited == [orbits]


def test_rainbow_n6_keeps_971_outer_states():
    maps = _vertex_maps(6, list(combinations(range(6), 2))[:7])
    kept = _orbit_least(product(range(4), repeat=7),
                        lambda s: [m(tuple(map(c.__getitem__, s))) for c in COLORINGS for m in maps])
    assert len(kept) == 971


@pytest.mark.parametrize("exponents", [(2, (1, 2, 3)), (3, (3, 1, 1))])
def test_color_symmetry_follows_the_registry(monkeypatch, exponents):
    # with unequal class exponents a colour permutation changes the ratio, so the scan may not use it.
    # Under T^3 / (R^3 G B) the first best state at n = 4 has an outer part that a colour swap makes
    # smaller; under T^2 / (R G^2 B^3) it is a lone triangle with no outer edge, which hides the swap
    problem = replaced(PROBLEMS["rainbow_d"], exponents=lambda d: exponents)
    monkeypatch.setitem(PROBLEMS, "rainbow_d", problem)
    res = search_rainbow_triangle(4)
    expected = reference_rainbow(4, lambda t: problem.numerator(t, 3), lambda *sizes: problem.denominator(sizes, 3))
    assert (res.best, res.explored, sorted((e.verts, e.color) for e in res.witness.edges)) == expected


def colour_symmetric(problem, d, delta):
    """Whether every permutation of the drawn colours maps the groups of structures(d, delta) onto themselves."""
    groups = {frozenset(group) for group in problem.structures(d, delta)[2]}
    return all({frozenset((s, sigma[p - 1]) for s, p in group) for group in groups} == groups
               for sigma in permutations(range(1, len(problem.draws(d, delta)[1]) + 1)))


# (problem, d, delta) of the problems whose ratio weighs its classes alike, so that `_scan` permutes their colours
ALIKE = [("rainbow_d", d, 0) for d in range(2, 6)] + [("covering_delta", 3, delta) for delta in range(3)]


@pytest.mark.parametrize("name, d, delta", ALIKE)
def test_colour_permutations_map_the_structures_onto_themselves(name, d, delta):
    problem = PROBLEMS[name]
    assert len(set(problem.exponents(d)[1])) == 1
    assert colour_symmetric(problem, d, delta)
    # one literal dropped from one group: the colour of that group is no longer interchangeable
    assert not colour_symmetric(keeping_groups(lambda groups: [groups[0][1:], *groups[1:]])(problem), d, delta)


def test_tied_groups_keep_the_first_state_in_product_order():
    # one slot, the 1-set {0}, absent or drawn in one of two colors, and a 1-set counted where either
    # color is drawn: inner states 1 and 2 fall in groups (1, 0) and (0, 1), so the layout visits
    # state 2 before state 1; each counts one structure under the same denominator, and state 1 comes first
    unit = replaced(PROBLEMS["rainbow_d"], draws=lambda d, delta: ((1,), ("a", "b")),
                    structures=lambda d, delta: (1, True, [[((0,), 1), ((0,), 2)]]),
                    exponents=lambda d: (2, ()))  # every denominator is 1
    assert _best_in_blocks([()], [b"\0", b"\1", b"\2"], [(0,)], 1, unit, 3, 0) == (1, 1, (1,))


def test_states_without_an_outer_slot_give_the_scans_best_and_witness():
    # every state of the pairs of [4] inner: the size-sets with no outer literal are the whole count,
    # which the scan splits into outer states and the size-sets tabled by their outer slots
    pairs = list(combinations(range(4), 2))
    states = list(map(bytes, product(range(4), repeat=len(pairs))))
    num, den, state = _best_in_blocks([()], states, pairs, 4, PROBLEMS["rainbow_d"], 3, 0)
    witness = ColoredHypergraph.from_edges(4, [(v, RGB[c - 1]) for v, c in zip(pairs, state) if c])
    res = search_rainbow_triangle(4)
    assert (Fraction(num, den), witness) == (res.best, res.witness)


# (problem, d, delta, n): every registered problem, rainbow_d at three edge sizes and covering_delta at two
ENGINE_CASES = [("rainbow_d", 2, 0, 3), ("rainbow_d", 3, 0, 4), ("rainbow_d", 4, 0, 4), ("mixed4", 3, 0, 4),
                ("covering_delta", 3, 0, 4), ("covering_delta", 3, 1, 4), ("good6", 3, 0, 6)]


def engine_slots(name, d, delta, n):
    """The subsets of [n] of each size the problem draws, size by size, and the number of its drawn values."""
    sizes, colors = PROBLEMS[name].draws(d, delta)
    return [v for size in sizes for v in combinations(range(n), size)], len(colors)


@cache
def first_best(name, d, delta, n):
    """The first state of the largest ratio in product order, one graph at a time through `Problem.exact`,
    as (ratio, state), (None, None) where no state has one.  A state is not counted where its ratio,
    with every size-set of [n] counted, could not pass the best so far."""
    prob = PROBLEMS[name]
    (sizes, colors), slots = prob.draws(d, delta), engine_slots(name, d, delta, n)[0]
    most = prob.numerator(comb(n, prob.structures(d, delta)[0]), d)
    best, witness = None, None
    for state in product(range(len(colors) + 1), repeat=len(slots)):
        shares = [sum(len(v) == size and p == c for v, p in zip(slots, state))
                  for size in sizes for c in range(1, len(colors) + 1)]
        den = prob.denominator(shares, d)
        if not den or best is not None and most * best.denominator <= best.numerator * den:
            continue
        h = ColoredHypergraph.from_edges(n, [(v, colors[p - 1]) for v, p in zip(slots, state) if p])
        _, ratio = prob.exact(h, d, delta, colors)
        if ratio is not None and (best is None or ratio > best):
            best, witness = ratio, state
    return best, witness


def engine_best(prob, name, d, delta, n, cut):
    """The lane engine's best over every state, the first `cut` slots its outer part, as (ratio, state)."""
    slots, k = engine_slots(name, d, delta, n)
    outers = list(product(range(k + 1), repeat=cut))
    inners = list(map(bytes, product(range(k + 1), repeat=len(slots) - cut)))
    num, den, state = _best_in_blocks(outers, inners, slots, n, prob, d, delta)
    return (None if state is None else Fraction(num, den)), state


@pytest.mark.parametrize("name, d, delta, n", ENGINE_CASES)
def test_every_outer_cut_gives_the_state_by_state_best(name, d, delta, n):
    # the scans cut only rainbow_d at d = 3 and mixed4 into outer and inner parts: here every problem is cut
    # with no outer slot, one, half, all but one and all of them
    m = len(engine_slots(name, d, delta, n)[0])
    for cut in (0, 1, m // 2, m - 1, m):
        assert engine_best(PROBLEMS[name], name, d, delta, n, cut) == first_best(name, d, delta, n), cut


@pytest.mark.parametrize("name, d, delta, n", [case for case in ENGINE_CASES
                                              if case not in (("rainbow_d", 4, 0, 4), ("covering_delta", 3, 1, 4))])
def test_outer_cuts_see_a_dropped_structure_group(name, d, delta, n):
    # without its last group each problem counts another best; at n = 4, rainbow_d with d = 4 and
    # covering_delta with delta = 1 have one size-set, whose best state keeps the same ratio
    dropped = keeping_groups(lambda groups: groups[:-1])(PROBLEMS[name])
    m = len(engine_slots(name, d, delta, n)[0])
    assert engine_best(dropped, name, d, delta, n, m // 2) != first_best(name, d, delta, n)


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
        assert is_opposite_edge_k4(res.witness)

    def test_witness_recounts_exactly(self):
        res = search_rainbow_triangle(4)
        counts, _ = PROBLEMS["rainbow_d"].exact(res.witness, 3, colors=RGB)
        t = counts["T"]
        assert Fraction(t * t, counts["C"][0] * counts["C"][1] * counts["C"][2]) == res.best

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
        j = problem_count("mixed4", h)
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
            counts, _ = PROBLEMS["rainbow_d"].exact(res.witness, 3, colors=("c1", "c2", "c3"))
            num = counts["T"] ** 2
            den = counts["C"][0] * counts["C"][1] * counts["C"][2]
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

    def test_unknown_parameter_refused(self):
        # a misspelt key would otherwise run its default: delta 0, or 8 vertices
        with pytest.raises(ValidationError, match="^unknown probe parameter 'detla': probes take vertices, d, delta$"):
            random_probe("covering_delta", {"vertices": 6, "detla": 1}, 5)
        with pytest.raises(ValidationError, match="^unknown probe parameter 'n', 'trials': "):
            random_probe("covering_delta", {"n": 6, "trials": 5}, 5)

    def test_defaults_are_the_commands(self):
        # a key left out takes the value `search probe` gives the option left out
        assert random_probe("rainbow_d", {}, 3, seed=4) == random_probe("rainbow_d", {"vertices": 8, "d": 3}, 3, seed=4)


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
    best, witness = None, None
    for _ in range(trials):
        h = reference_instance(rng, name, n, d, delta)
        # the colours it was drawn with: past the vertex cap, rainbow_d refuses to name d colours itself
        colors = tuple(f"c{i + 1}" for i in range(d)) if name == "rainbow_d" else None
        _, ratio = PROBLEMS[name].exact(h, d, delta, colors)
        if ratio is not None and (best is None or ratio > best):
            best, witness = ratio, h
    return best, witness, trials


# (problem, vertices, d, delta, trials): every problem up to the benchmark's probe sizes, and below each edge size;
# each problem with more literals than draws, and covering_delta on 37 vertices, whose counts need 3-byte lanes
PROBE_GRID = [
    ("rainbow_d", 2, 3, 0, 5), ("rainbow_d", 3, 3, 0, 60), ("rainbow_d", 5, 3, 0, 40), ("rainbow_d", 8, 3, 0, 30),
    ("rainbow_d", 10, 3, 0, 20), ("rainbow_d", 6, 2, 0, 30), ("rainbow_d", 5, 4, 0, 40), ("rainbow_d", 7, 4, 0, 30),
    ("rainbow_d", 7, 5, 0, 20), ("rainbow_d", 3, 5, 0, 5), ("rainbow_d", 5, 300, 0, 3),
    ("good6", 3, 3, 0, 5), ("good6", 6, 3, 0, 60), ("good6", 8, 3, 0, 20), ("good6", 9, 3, 0, 10),
    ("mixed4", 1, 3, 0, 5), ("mixed4", 4, 3, 0, 60), ("mixed4", 6, 3, 0, 40), ("mixed4", 7, 3, 0, 20),
    ("covering_delta", 3, 3, 0, 60), ("covering_delta", 8, 3, 0, 30), ("covering_delta", 10, 3, 0, 20),
    ("covering_delta", 5, 3, 1, 40), ("covering_delta", 7, 3, 1, 30), ("covering_delta", 7, 3, 2, 20),
    ("rainbow_d", 10, 3, 0, 24), ("rainbow_d", 30, 3, 0, 30), ("rainbow_d", 30, 3, 0, 90),
    ("good6", 12, 3, 0, 20), ("good6", 12, 3, 0, 100), ("mixed4", 7, 3, 0, 11), ("mixed4", 20, 3, 0, 50),
    ("mixed4", 20, 3, 0, 66), ("covering_delta", 10, 3, 0, 24), ("covering_delta", 37, 3, 1, 2),
]


@pytest.mark.parametrize("seed", [0, 7, 2**31 - 1])
@pytest.mark.parametrize("name, n, d, delta, trials", PROBE_GRID)
def test_probe_matches_the_graph_per_trial_probe(name, n, d, delta, trials, seed):
    res = random_probe(name, {"vertices": n, "d": d, "delta": delta}, trials, seed=seed)
    assert (res.best, res.witness, res.explored) == reference_probe(name, n, d, delta, trials, seed)


@pytest.mark.parametrize("n", [10, 12, 38])  # C(n, 4) = 210, 495 and 73,815 need lanes of one, two and three bytes
def test_lanes_hold_the_count_of_every_size_set(monkeypatch, n):
    # every trial draws every pair and triple, so each trial counts all C(n, 4) size-sets
    monkeypatch.setattr(search, "_draws", lambda rng, colors, m, trials: [b"\1" * m] * trials)
    res = random_probe("mixed4", {"vertices": n}, 2)
    assert res.best == Fraction(comb(n, 4) ** 2, comb(n, 2) * comb(n, 3) ** 2)
    complete = [(v, "plain") for size in (2, 3) for v in combinations(range(n), size)]
    assert res.witness == ColoredHypergraph.from_edges(n, complete)


def literal_count(name, n, d, delta):
    """The literals of a problem's structures over every size-set of [n], in closed form."""
    return {"rainbow_d": comb(n, d) * d * d,  # a color on one of d facets, for each of d colors
            "good6": comb(n, 6) * 15 * 3,  # three complements for each of 15 perfect matchings
            "mixed4": comb(n, 4) * 6 * 3,  # a pair and two triples for each of 6 pairs
            "covering_delta": comb(n, delta + 3) * 3 * (delta + 3)}[name]


def draws(name, n, d, delta):
    sizes, _ = PROBLEMS[name].draws(d, delta)
    return sum(comb(n, size) for size in sizes)


def facet_count(name, n, d, delta):
    """The facets of every subset of [n] a trial draws, the most its witness's recount reads, in closed form."""
    return {"rainbow_d": comb(n, d - 1) * (d - 1), "good6": comb(n, 4) * 4, "mixed4": comb(n, 2) * 2 + comb(n, 3) * 3,
            "covering_delta": comb(n, delta + 2) * (delta + 2)}[name]


DRAWING_ROWS = [row for row in PROBE_GRID if draws(*row[:4]) * row[4]]  # the grid rows that draw a subset


@pytest.mark.parametrize("seed", [0, 7, 2**31 - 1])
@pytest.mark.parametrize("name, n, d, delta, trials", DRAWING_ROWS)
def test_lanes_count_each_trial_as_the_registry_counts_its_graph(name, n, d, delta, trials, seed):
    # the probe keeps only its best trial, so a wrong count in a trial that does not win would not show there:
    # each of the first 20 trials alone on the lanes, against its graph counted through the registry
    prob = PROBLEMS[name]
    sizes, colors = prob.draws(d, delta)
    subsets = [v for size in sizes for v in combinations(range(n), size)]
    picks = _draws(random.Random(seed), len(colors), len(subsets), trials)[:20]
    rng, named = random.Random(seed), tuple(f"c{i + 1}" for i in range(d)) if name == "rainbow_d" else None
    for picked in picks:
        num, den, state = _best_in_blocks([()], [picked], subsets, n, prob, d, delta)
        _, ratio = prob.exact(reference_instance(rng, name, n, d, delta), d, delta, named)
        assert (Fraction(num, den) if state is not None else None) == ratio


@pytest.mark.parametrize("name, d, delta", [("rainbow_d", 3, 0), ("rainbow_d", 6, 0), ("good6", 3, 0),
                                            ("mixed4", 3, 0), ("covering_delta", 3, 0), ("covering_delta", 3, 2)])
def test_literal_cap_counts_the_structures_literals_over_every_size_set(monkeypatch, name, d, delta):
    monkeypatch.setattr(search, "LITERAL_CAP", 0)
    for n in (7, 12):
        literals = literal_count(name, n, d, delta)
        with pytest.raises(CapacityError, match=rf"probe literals \(.*\) = {literals} exceeds cap 0$"):
            random_probe(name, {"vertices": n, "d": d, "delta": delta}, 1)


class Drawn(Exception):
    """A probe passed every cap and began to draw."""


def drawn(*args):
    raise Drawn


@pytest.mark.parametrize("name, n, d, delta, trials", DRAWING_ROWS)
def test_literal_cap_admits_its_own_count_and_refuses_one_more(monkeypatch, name, n, d, delta, trials):
    monkeypatch.setattr(search, "_draws", drawn)
    literals = literal_count(name, n, d, delta)
    monkeypatch.setattr(search, "LITERAL_CAP", literals)
    with pytest.raises(Drawn):
        random_probe(name, {"vertices": n, "d": d, "delta": delta}, trials)
    monkeypatch.setattr(search, "LITERAL_CAP", literals - 1)
    with pytest.raises(CapacityError, match=rf"probe literals \(.*\) = {literals} exceeds cap {literals - 1}$"):
        random_probe(name, {"vertices": n, "d": d, "delta": delta}, trials)


@pytest.mark.parametrize("name, n, d, delta, trials", DRAWING_ROWS)
def test_recount_cap_admits_its_own_count_and_refuses_one_more(monkeypatch, name, n, d, delta, trials):
    monkeypatch.setattr(search, "_draws", drawn)
    facets = facet_count(name, n, d, delta)
    monkeypatch.setattr(search, "RECOUNT_CAP", facets)
    with pytest.raises(Drawn):
        random_probe(name, {"vertices": n, "d": d, "delta": delta}, trials)
    monkeypatch.setattr(search, "RECOUNT_CAP", facets - 1)
    with pytest.raises(CapacityError, match=rf"probe recount facets \(.*\) = {facets} exceeds cap {facets - 1}$"):
        random_probe(name, {"vertices": n, "d": d, "delta": delta}, trials)


# the benchmark's probe shapes, as bench/workloads.py lists them
BENCH_PROBES = [("rainbow_d", 8, 3, 0, 800), ("rainbow_d", 10, 3, 0, 400), ("rainbow_d", 7, 4, 0, 300),
                ("good6", 9, 3, 0, 50), ("good6", 8, 3, 0, 150), ("mixed4", 7, 3, 0, 300), ("mixed4", 6, 3, 0, 800),
                ("covering_delta", 8, 3, 0, 600), ("covering_delta", 10, 3, 0, 200), ("covering_delta", 7, 3, 1, 350)]


@pytest.mark.parametrize("name, n, d, delta, trials", BENCH_PROBES)
def test_bench_probes_pass_both_caps(monkeypatch, name, n, d, delta, trials):
    monkeypatch.setattr(search, "_draws", drawn)
    with pytest.raises(Drawn):
        random_probe(name, {"vertices": n, "d": d, "delta": delta}, trials)


@pytest.mark.parametrize("colors", [1, *range(2, 66)])  # one color is a fair coin; rainbow_d draws up to 65
def test_draws_read_the_generator_as_random_and_randrange(colors):
    for seed, m in ((0, 0), (1, 1), (2, 7), (3, 200)):
        rng = random.Random(seed)
        if colors == 1:
            expected = [[int(rng.random() < 0.5) for _ in range(m)] for _ in range(4)]
        else:
            expected = [[rng.randrange(colors + 1) for _ in range(m)] for _ in range(4)]
        assert [list(t) for t in _draws(random.Random(seed), colors, m, 4)] == expected


@pytest.mark.parametrize("colors, m, trials, seed, requests", [
    (1, 56, 1000, 0, 1), (3, 28, 1000, 0, 1),  # a probe's draws: one request for every trial
    (3, 100, 1, 115, 2),  # rejections leave the first request short, about one seed in a thousand
])
def test_draws_take_one_request_and_more_only_where_short(colors, m, trials, seed, requests):
    class Counted(random.Random):
        requests = 0

        def getrandbits(self, k):
            assert k % 32 == 0  # whole words, so the words are those of one long request
            self.requests += 1
            return super().getrandbits(k)

    rng, reference = Counted(seed), random.Random(seed)
    if colors == 1:
        expected = [[int(reference.random() < 0.5) for _ in range(m)] for _ in range(trials)]
    else:
        expected = [[reference.randrange(colors + 1) for _ in range(m)] for _ in range(trials)]
    assert [list(t) for t in _draws(rng, colors, m, trials)] == expected
    assert rng.requests == requests


def test_probe_work_capped_before_drawing(monkeypatch):
    def refuse(*args):
        raise AssertionError("a trial was drawn before the cap was checked")

    monkeypatch.setattr(search, "_draws", refuse)
    # good6 on 29 vertices draws C(29, 4) = 23,751 subsets a trial
    with pytest.raises(CapacityError, match=r"probe draws .* = 166257 exceeds cap 150000"):
        random_probe("good6", {"vertices": 29}, 7)
    with pytest.raises(CapacityError, match="= 31465000 exceeds cap"):
        random_probe("good6", {"vertices": 31}, 1000)
    # one trial on 45 vertices passes that cap, but its structures have C(45, 6) x 45 literals
    with pytest.raises(CapacityError, match=r"probe literals .* = 366527700 exceeds cap 12000000"):
        random_probe("good6", {"vertices": 45}, 1)
    # one trial of rainbow_d with d = 24 on 28 vertices passes both, but its witness's recount would read the
    # 23 facets of each of C(28, 23) subsets; d = 18 on 23 vertices, C(23, 17) x 17
    with pytest.raises(CapacityError, match=r"probe recount facets .* = 2260440 exceeds cap 1000000"):
        random_probe("rainbow_d", {"vertices": 28, "d": 24}, 1)
    with pytest.raises(CapacityError, match=r"probe recount facets .* = 1716099 exceeds cap 1000000"):
        random_probe("rainbow_d", {"vertices": 23, "d": 18}, 1)


def test_costliest_probe_under_the_cap_is_at_the_draw_and_literal_caps():
    # one trial of covering_delta with delta = 3 on 30 vertices, a run of tests/test_caps.py: one more vertex
    # passes neither cap, and a second trial not PROBE_CAP
    assert draws("covering_delta", 30, 3, 3) <= PROBE_CAP < 2 * draws("covering_delta", 30, 3, 3)
    assert draws("covering_delta", 31, 3, 3) > PROBE_CAP
    assert literal_count("covering_delta", 30, 3, 3) <= LITERAL_CAP < literal_count("covering_delta", 31, 3, 3)


def test_largest_recount_under_the_cap_is_at_the_facet_cap():
    # one trial of rainbow_d with d = 28 on 31 vertices, a run of tests/test_caps.py: one more vertex passes not
    # RECOUNT_CAP
    assert facet_count("rainbow_d", 31, 28, 0) <= RECOUNT_CAP < facet_count("rainbow_d", 32, 28, 0)


@pytest.mark.parametrize("name", PROBLEMS)
def test_probe_ratio_differing_from_the_registry_raises(monkeypatch, name):
    # a trial and the witness's recount share the formula, but only the recount reads the graph entry and
    # runs the kernel, so one that loses the witness's first edge must change its count
    problem = PROBLEMS[name]
    lossy = replaced(problem, form=lambda h, *args: problem.form(ColoredHypergraph(h.n, h.edges[1:]), *args))
    monkeypatch.setitem(PROBLEMS, name, lossy)
    with pytest.raises(BoundViolationError, match="witness recounts to"):
        random_probe(name, {"vertices": 7}, 20)


SCANS = [(search_rainbow_triangle, "rainbow_d"), (search_mixed_4subsets, "mixed4")]


def counting_one_more(problem):
    return replaced(problem, count=lambda form: problem.count(form) + 1)


def keeping_groups(keep):
    """The patch that keeps only keep(groups) of a problem's structure groups."""
    def patch(problem):
        def structures(d, delta):
            size, every, groups = problem.structures(d, delta)
            return size, every, keep(groups)
        return replaced(problem, structures=structures)
    return patch


@pytest.mark.parametrize("scan, name, n, patch, message", [
    (*SCANS[0], 4, counting_one_more, "recounts to 25/8, the search counted 16/8"),
    (*SCANS[1], 4, counting_one_more, "recounts to 1, the search counted 1/4"),
    # a scan counts the registry's structures: here without rainbow_d's last colour or mixed4's first pair
    (*SCANS[0], 5, keeping_groups(lambda groups: groups[:-1]), "recounts to 1, the search counted 49/9"),
    (*SCANS[1], 5, keeping_groups(lambda groups: groups[1:]), "recounts to 1/2, the search counted 9/32"),
])
def test_scan_ratio_differing_from_the_registry_raises(monkeypatch, scan, name, n, patch, message):
    monkeypatch.setitem(PROBLEMS, name, patch(PROBLEMS[name]))
    with pytest.raises(BoundViolationError, match=message):
        scan(n)


class Doubled(Problem):
    """A problem whose ratio has twice the registry's denominator."""

    def denominator(self, sizes, d):
        return 2 * super().denominator(sizes, d)


@pytest.mark.parametrize("scan, name", SCANS)
def test_scans_and_probes_take_the_ratio_from_the_registry(monkeypatch, scan, name):
    scanned, probed = scan(4), random_probe(name, {"vertices": 6}, 30, seed=1)
    monkeypatch.setitem(PROBLEMS, name, Doubled(*PROBLEMS[name]._key()))
    for before, after in ((scanned, scan(4)), (probed, random_probe(name, {"vertices": 6}, 30, seed=1))):
        assert after.best == before.best / 2
        assert after.witness == before.witness
