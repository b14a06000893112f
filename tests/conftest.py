"""Shared builders and seeded-random generators for the test suite."""

import math
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations

from shadowlab.entropy import ExactDistribution
from shadowlab.hypergraph import ColoredHypergraph, SetFamily

RGB = ("red", "green", "blue")


def orderings(ms) -> int:
    """Distinct orderings of a multiset: d! / prod(m_i!)."""
    return math.factorial(len(ms)) // math.prod(map(math.factorial, Counter(ms).values()))


def fig1_k4() -> ColoredHypergraph:
    """K4 with opposite edges sharing a color: 2 edges per color, 4 rainbow triangles."""
    return ColoredHypergraph.from_edges(
        4,
        [
            ((0, 1), "red"),
            ((2, 3), "red"),
            ((0, 3), "blue"),
            ((1, 2), "blue"),
            ((0, 2), "green"),
            ((1, 3), "green"),
        ],
    )


def random_colored_graph(rng: random.Random, n: int, colors=RGB) -> ColoredHypergraph:
    """Each pair independently gets no color or a uniform color."""
    edges = []
    for pair in combinations(range(n), 2):
        pick = rng.randrange(len(colors) + 1)
        if pick:
            edges.append((pair, colors[pick - 1]))
    return ColoredHypergraph.from_edges(n, edges)


def random_uniform_hypergraph(rng: random.Random, n: int, size: int, p: float = 0.5,
                              color: str = "plain") -> ColoredHypergraph:
    edges = []
    for verts in combinations(range(n), size):
        if rng.random() < p:
            edges.append((verts, color))
    return ColoredHypergraph.from_edges(n, edges)


def random_set_family(rng: random.Random, n: int, d: int, max_members: int) -> SetFamily:
    """Nonempty random family of d-subsets of [n]."""
    pool = list(combinations(range(n), d))
    count = rng.randint(1, min(max_members, len(pool)))
    return SetFamily.make(n, rng.sample(pool, count), d=d)


def random_weighted_complete(rng: random.Random, n: int, d: int, wmax: int = 9,
                             color: str = "plain") -> ColoredHypergraph:
    """Weighted complete (d-1)-uniform graph; zero-weight facets are omitted."""
    edges = []
    for verts in combinations(range(n), d - 1):
        w = rng.randint(0, wmax)
        if w:
            edges.append((verts, color, w))
    return ColoredHypergraph.from_edges(n, edges)


def random_distribution(rng: random.Random, arity: int, max_support: int = 40,
                        value_range: int = 4) -> ExactDistribution:
    """Random exact distribution with integer-weight probabilities."""
    tuples = set()
    count = rng.randint(1, min(max_support, value_range**arity))
    while len(tuples) < count:
        tuples.add(tuple(rng.randrange(value_range) for _ in range(arity)))
    weights = {t: rng.randint(1, 9) for t in tuples}
    total = sum(weights.values())
    return ExactDistribution.from_pairs(
        arity, [(t, Fraction(w, total)) for t, w in weights.items()]
    )
