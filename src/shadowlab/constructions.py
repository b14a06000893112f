"""Generators for the explicit extremal configurations used as witnesses.

Every generator recounts its graph through `hypergraph.PROBLEMS`, which also
gives its exact ratio, and checks the counts and the ratio against their
closed forms before returning, so a returned Construction is already
verified; a mismatch raises BoundViolationError because it can only mean an
implementation bug.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations

from .errors import BoundViolationError, ValidationError, check_cap
from .hypergraph import PROBLEMS, RGB, VERTEX_CAP, ColoredHypergraph, SetFamily, rainbow_cliques
from .record import Record

PLAIN = "plain"


class Construction(Record):
    """A generated hypergraph together with its verified expected counts."""

    name: str
    graph: ColoredHypergraph
    expected: dict[str, object]


def _self_check(name: str, pairs: dict[str, tuple[object, object]]) -> None:
    for key, (want, got) in pairs.items():
        if want != got:
            raise BoundViolationError(
                f"{name} self-check failed: {key} expected {want}, counted {got}"
            )


def k4_blowup(n: int) -> Construction:
    """Blowup of the K4 whose opposite edges share a color.

    Four groups of n vertices; between-group pairs are complete, colored by
    which of the three opposite-edge pairs of the K4 they project to.  Gives
    2n^2 edges per color and 4n^3 rainbow triangles, so T^2 = 2RGB exactly.
    """
    if n < 1:
        raise ValidationError(f"n must be positive, got {n}")
    check_cap("vertex count", 4 * n, VERTEX_CAP)
    group = {g: range(g * n, (g + 1) * n) for g in range(4)}
    pair_color = {
        (0, 1): "red",
        (2, 3): "red",
        (0, 3): "blue",
        (1, 2): "blue",
        (0, 2): "green",
        (1, 3): "green",
    }
    edges = []
    for (ga, gb), color in pair_color.items():
        for a in group[ga]:
            for b in group[gb]:
                edges.append(((a, b), color))
    graph = ColoredHypergraph.from_edges(4 * n, edges)
    counts, ratio = PROBLEMS["rainbow_d"].exact(graph, 3, 0, RGB)
    _self_check(
        "k4_blowup",
        {
            "class sizes": ((2 * n * n,) * 3, tuple(counts["C"])),
            "T": (4 * n**3, counts["T"]),
            "T^2 = 2RGB": (2, ratio),
        },
    )
    expected = {"R": 2 * n * n, "G": 2 * n * n, "B": 2 * n * n, "T": 4 * n**3, "ratio": ratio}
    return Construction("k4_blowup", graph, expected)


def rainbow_tripartite(a: int, b: int, c: int) -> Construction:
    """Complete tripartite blowup of a rainbow triangle: T^2 = RGB exactly."""
    if min(a, b, c) < 1:
        raise ValidationError("part sizes must be positive")
    check_cap("vertex count", a + b + c, VERTEX_CAP)
    parts = [range(0, a), range(a, a + b), range(a + b, a + b + c)]
    edges = []
    for x in parts[0]:
        for y in parts[1]:
            edges.append(((x, y), "red"))
    for y in parts[1]:
        for z in parts[2]:
            edges.append(((y, z), "green"))
    for x in parts[0]:
        for z in parts[2]:
            edges.append(((x, z), "blue"))
    graph = ColoredHypergraph.from_edges(a + b + c, edges)
    counts, ratio = PROBLEMS["rainbow_d"].exact(graph, 3, 0, RGB)
    _self_check(
        "rainbow_tripartite",
        {
            "class sizes": ((a * b, b * c, a * c), tuple(counts["C"])),
            "T": (a * b * c, counts["T"]),
            "T^2 = RGB": (1, ratio),
        },
    )
    expected = {"R": a * b, "G": b * c, "B": a * c, "T": a * b * c, "ratio": ratio}
    return Construction("rainbow_tripartite", graph, expected)


def round_robin_matchings(m: int) -> list[list[tuple[int, int]]]:
    """Circle-method 1-factorization of the complete graph on 2m vertices."""
    n = 2 * m
    rounds = []
    for r in range(n - 1):
        pairs = [tuple(sorted((n - 1, r)))]
        for i in range(1, m):
            x = (r + i) % (n - 1)
            y = (r - i) % (n - 1)
            pairs.append(tuple(sorted((x, y))))
        rounds.append(sorted(pairs))
    return rounds


def matching_construction(d: int) -> Construction:
    """(d-1)-uniform coloring of the complete hypergraph on d+1 vertices.

    A hyperedge takes color i when its 2-element complement lies in the i-th
    perfect matching of the round-robin 1-factorization; d must be odd so
    that the complete graph on d+1 vertices decomposes into d matchings.
    Every d-subset is a rainbow clique: T = d+1 and C_i = (d+1)/2, giving
    ratio 2^d / (d+1).
    """
    if d < 3 or d % 2 == 0:
        raise ValidationError(f"d must be odd and >= 3, got {d}")
    vertices = range(d + 1)
    matchings = round_robin_matchings((d + 1) // 2)
    colors = [f"c{i + 1}" for i in range(d)]
    pair_to_color = {}
    for color, matching in zip(colors, matchings):
        for pair in matching:
            pair_to_color[pair] = color
    edges = []
    for pair, color in sorted(pair_to_color.items()):
        complement = tuple(v for v in vertices if v not in pair)
        edges.append((complement, color))
    graph = ColoredHypergraph.from_edges(d + 1, edges)
    counts, ratio = PROBLEMS["rainbow_d"].exact(graph, d, 0, colors)
    _self_check(
        "matching_construction",
        {
            "T": (d + 1, counts["T"]),
            "per-color edges": ((d + 1) // 2, min(counts["C"])),
            "classes equal": (min(counts["C"]), max(counts["C"])),
            "ratio": (Fraction(2**d, d + 1), ratio),
        },
    )
    expected = {"T": d + 1, "C": tuple((d + 1) // 2 for _ in colors), "ratio": ratio}
    return Construction("matching_construction", graph, expected)


def kappa_lift(h: ColoredHypergraph) -> Construction:
    """Ratio-preserving lift: add a distinguished vertex to every edge and
    turn each rainbow clique into an edge of a fresh color.

    Input must be (d-1)-uniform, simple, and colored with exactly d colors;
    the output is d-uniform with d+1 colors and the same clique count, so
    T'^d / (C'_1 ... C'_{d+1}) equals the input ratio.
    """
    colors = h.colors()
    d = len(colors)
    if d < 2:
        raise ValidationError("lift needs at least 2 colors")
    if h.uniformity() != d - 1:
        raise ValidationError(
            f"lift needs a (d-1)-uniform graph for d = {d} colors, got size {h.uniformity()}"
        )
    new_color = f"lift{d + 1}"
    if new_color in colors:
        raise ValidationError(f"new color {new_color!r} already used")
    cliques = rainbow_cliques(h, d, colors)
    v = h.n
    edges = [(e.verts + (v,), e.color) for e in h.edges]
    edges.extend((delta, new_color) for delta in cliques)
    graph = ColoredHypergraph.from_edges(h.n + 1, edges)
    counts, ratio = PROBLEMS["rainbow_d"].exact(graph, d + 1, 0, colors + (new_color,))
    old_counts = h.color_counts()
    _self_check(
        "kappa_lift",
        {
            "T preserved": (len(cliques), counts["T"]),
            "new class size": (len(cliques), counts["C"][-1]),
            "old classes": (tuple(old_counts[c] for c in colors), tuple(counts["C"][:-1])),
        },
    )
    expected = {"T": counts["T"], "C": tuple(counts["C"]), "ratio": ratio}
    return Construction("kappa_lift", graph, expected)


def tetrahedra8() -> Construction:
    """The 8-vertex 4-colored 3-uniform configuration with 48 rainbow tetrahedra.

    Vertices u_1..u_4 are 0..3 and v_1..v_4 are 4..7, with wraparound index
    arithmetic u_5 = u_1, v_5 = v_1.  Edge classes sized (16, 16, 12, 12)
    give ratio 48^3 / (16^2 12^2) = 3.
    """
    def u(i):
        return (i - 1) % 4

    def v(j):
        return 4 + (j - 1) % 4

    edges = []
    for i in range(1, 5):
        for j in range(1, 5):
            if i % 2 == j % 2:
                edges.append(((u(i), u(i + 1), v(j)), "red"))
            else:
                edges.append(((u(i), u(i + 1), v(j)), "green"))
    for i in range(1, 5):
        for j in range(1, 3):
            edges.append(((u(i), v(j), v(j + 2)), "red"))
    for i in range(1, 5):
        for j in range(1, 5):
            if i % 2 == j % 2:
                edges.append(((u(i), v(j), v(j + 1)), "blue"))
            else:
                edges.append(((u(i), v(j), v(j + 1)), "yellow"))
    for i in range(1, 3):
        for j in range(1, 5):
            edges.append(((u(i), u(i + 2), v(j)), "blue"))
    for subset in combinations(range(4, 8), 3):
        edges.append((subset, "green"))
    for subset in combinations(range(4), 3):
        edges.append((subset, "yellow"))
    graph = ColoredHypergraph.from_edges(8, edges)
    counts, ratio = PROBLEMS["rainbow_d"].exact(graph, 4, 0, ("red", "blue", "green", "yellow"))
    _self_check(
        "tetrahedra8",
        {"class sizes": ((16, 16, 12, 12), tuple(counts["C"])), "T": (48, counts["T"]), "ratio": (3, ratio)},
    )
    expected = {"R": 16, "B": 16, "G": 12, "Y": 12, "T": 48, "ratio": ratio}
    return Construction("tetrahedra8", graph, expected)


def flats_example() -> Construction:
    """The 14-edge 4-uniform configuration in which all 28 6-subsets are good.

    Vertices x_1..x_4 are 0..3 and y_1..y_4 are 4..7; edges are the two pure
    quadruples plus the mixed {x_i, x_j, y_k, y_l} with {i,j}, {k,l} equal or
    disjoint.  Gives J^2/N^3 = 2/7.
    """
    edges = [((0, 1, 2, 3), PLAIN), ((4, 5, 6, 7), PLAIN)]
    for ij in combinations(range(4), 2):
        complement = tuple(sorted(set(range(4)) - set(ij)))
        for kl in (ij, complement):
            verts = tuple(sorted(ij + tuple(4 + k for k in kl)))
            edges.append((verts, PLAIN))
    graph = ColoredHypergraph.from_edges(8, edges)
    counts, ratio = PROBLEMS["good6"].exact(graph)
    _self_check("flats_example", {"N": (14, counts["N"]), "J": (28, counts["J"]), "ratio": (Fraction(2, 7), ratio)})
    expected = {"N": 14, "J": 28, "ratio": ratio}
    return Construction("flats_example", graph, expected)


def tripartite_mixed(n: int) -> Construction:
    """Three parts of size n: 2-edges inside parts, 3-edges across all parts.

    The good 4-subsets are exactly those meeting every part, so
    J = 3 binom(n,2) n^2 exactly, and J^2/(N2 N3^2) increases to 3/2.
    """
    if n < 1:
        raise ValidationError(f"n must be positive, got {n}")
    check_cap("vertex count", 3 * n, VERTEX_CAP)
    parts = [range(k * n, (k + 1) * n) for k in range(3)]
    edges = []
    for part in parts:
        for pair in combinations(part, 2):
            edges.append((pair, PLAIN))
    for x in parts[0]:
        for y in parts[1]:
            for z in parts[2]:
                edges.append(((x, y, z), PLAIN))
    graph = ColoredHypergraph.from_edges(3 * n, edges)
    counts, ratio = PROBLEMS["mixed4"].exact(graph)
    n2, n3, j = 3 * math.comb(n, 2), n**3, 3 * math.comb(n, 2) * n * n
    _self_check("tripartite_mixed", {"N2": (n2, counts["N2"]), "N3": (n3, counts["N3"]), "J": (j, counts["J"])})
    expected = {"N2": n2, "N3": n3, "J": j, "ratio": ratio}
    return Construction("tripartite_mixed", graph, expected)


def complete_family(m: int, d: int) -> SetFamily:
    """All d-subsets of [m]; the tightness witness for the shadow bound."""
    if m < d:
        raise ValidationError(f"need m >= d, got m={m}, d={d}")
    check_cap("family members C(m, d)", math.comb(m, d), 10**6)  # measured 735,471 members in 3.4 s and 201 MB
    return SetFamily.make(m, combinations(range(m), d), d=d)
