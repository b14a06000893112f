"""Generators for the explicit extremal configurations used as witnesses.

Every generator states its closed forms once, as the expected counts it
returns, recounts its graph through `problems.PROBLEMS`, which also gives
its exact ratio, and checks each count against its closed form before
returning, so a returned Construction is already verified; a mismatch raises
BoundViolationError because it can only mean an implementation bug.  The
`construct` command is here; `complete-family` compiles no `problems`.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from itertools import combinations, product

from . import formats
from . import problems as pb
from .errors import BoundViolationError, CapacityError, ValidationError, check_cap
from .hypergraph import VERTEX_CAP, ColoredHypergraph, SetFamily, _dump, hypergraph_to_obj, set_family_to_obj
from .record import Record

PLAIN = "plain"


class Construction(Record):
    """A generated hypergraph together with its verified expected counts."""

    name: str
    graph: ColoredHypergraph
    expected: dict[str, object]


def _checked(name: str, graph: ColoredHypergraph, problem: str, expected: dict[str, object], d: int = 3,
             colors: tuple[str, ...] | None = None, letters: str = "") -> Construction:
    """The construction, once each closed form in `expected`, in its order, equals the graph's recount
    through the registry problem.  rainbow_d's class sizes are counted under `letters`, one a class,
    or else as the tuple "C"; where the ratio has no closed form, the recount's is the last key."""
    counted, ratio = pb.PROBLEMS[problem].exact(graph, d, 0, colors)
    if "C" in counted:
        sizes = tuple(counted.pop("C"))
        counted.update(zip(letters, sizes) if letters else [("C", sizes)])
    counted["ratio"] = ratio
    expected.setdefault("ratio", ratio)
    for key, value in expected.items():
        if value != counted[key]:
            raise BoundViolationError(f"{name} self-check failed: {key} expected {value}, counted {counted[key]}")
    return Construction(name, graph, expected)


def _blowup(sizes: tuple[int, ...], template: list[tuple[tuple[int, ...], str]]) -> ColoredHypergraph:
    """The blowup of a colored template over consecutive vertex parts of the given sizes.

    A template edge `(parts, color)` becomes every edge that takes k vertices from each part it
    names k times, `combinations` order inside a part and product order across parts: `((0, 1), c)`
    is every pair between parts 0 and 1, `((0, 0), c)` every pair inside part 0.  The vertex count
    is capped before any edge is built.
    """
    check_cap("vertex count", sum(sizes), VERTEX_CAP)
    blocks = [range(sum(sizes[:i]), sum(sizes[:i + 1])) for i in range(len(sizes))]
    edges = []
    for parts, color in template:
        picks = [combinations(blocks[p], parts.count(p)) for p in sorted(set(parts))]
        edges.extend((sum(pick, ()), color) for pick in product(*picks))
    return ColoredHypergraph.from_edges(sum(sizes), edges)


def k4_blowup(n: int) -> Construction:
    """Blowup of the K4 whose opposite edges share a color.

    Four groups of n vertices; between-group pairs are complete, colored by
    which of the three opposite-edge pairs of the K4 they project to.  Gives
    2n^2 edges per color and 4n^3 rainbow triangles, so T^2 = 2RGB exactly.
    """
    if n < 1:
        raise ValidationError(f"n must be positive, got {n}")
    graph = _blowup((n,) * 4, [((0, 1), "red"), ((2, 3), "red"), ((0, 3), "blue"), ((1, 2), "blue"),
                               ((0, 2), "green"), ((1, 3), "green")])
    expected = {"R": 2 * n * n, "G": 2 * n * n, "B": 2 * n * n, "T": 4 * n**3, "ratio": Fraction(2)}
    return _checked("k4_blowup", graph, "rainbow_d", expected, colors=pb.RGB, letters="RGB")


def rainbow_tripartite(a: int, b: int, c: int) -> Construction:
    """Complete tripartite blowup of a rainbow triangle: T^2 = RGB exactly."""
    if min(a, b, c) < 1:
        raise ValidationError("part sizes must be positive")
    graph = _blowup((a, b, c), [((0, 1), "red"), ((1, 2), "green"), ((0, 2), "blue")])
    expected = {"R": a * b, "G": b * c, "B": a * c, "T": a * b * c, "ratio": Fraction(1)}
    return _checked("rainbow_tripartite", graph, "rainbow_d", expected, colors=pb.RGB, letters="RGB")


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
    check_cap("vertex count", d + 1, VERTEX_CAP)
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
    expected = {"T": d + 1, "C": tuple((d + 1) // 2 for _ in colors), "ratio": Fraction(2**d, d + 1)}
    return _checked("matching_construction", graph, "rainbow_d", expected, d, colors)


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
    new_color = f"lift{d + 1}"
    if new_color in colors:
        raise ValidationError(f"new color {new_color!r} already used")
    # every edge carries a listed color, so this refuses any edge not of size d - 1, after the vertex cap
    cliques = pb.rainbow_cliques(h, d, colors)
    v = h.n
    edges = [(e.verts + (v,), e.color) for e in h.edges]
    edges.extend((delta, new_color) for delta in cliques)
    graph = ColoredHypergraph.from_edges(h.n + 1, edges)
    old_counts = h.color_counts()
    # the lift keeps T and the old classes, and its new class has one edge per clique
    expected = {"T": len(cliques), "C": (*(old_counts[c] for c in colors), len(cliques))}
    return _checked("kappa_lift", graph, "rainbow_d", expected, d + 1, colors + (new_color,))


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
    expected = {"R": 16, "B": 16, "G": 12, "Y": 12, "T": 48, "ratio": Fraction(3)}
    return _checked("tetrahedra8", graph, "rainbow_d", expected, 4, ("red", "blue", "green", "yellow"), "RBGY")


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
    return _checked("flats_example", graph, "good6", {"N": 14, "J": 28, "ratio": Fraction(2, 7)})


def tripartite_mixed(n: int) -> Construction:
    """Three parts of size n: 2-edges inside parts, 3-edges across all parts.

    The good 4-subsets are exactly those meeting every part, so
    J = 3 binom(n,2) n^2 exactly, and J^2/(N2 N3^2) increases to 3/2.
    """
    if n < 1:
        raise ValidationError(f"n must be positive, got {n}")
    graph = _blowup((n,) * 3, [((0, 0), PLAIN), ((1, 1), PLAIN), ((2, 2), PLAIN), ((0, 1, 2), PLAIN)])
    expected = {"N2": 3 * math.comb(n, 2), "N3": n**3, "J": 3 * math.comb(n, 2) * n * n}
    return _checked("tripartite_mixed", graph, "mixed4", expected)


def complete_family(m: int, d: int) -> SetFamily:
    """All d-subsets of [m]; the tightness witness for the shadow bound."""
    if not 0 <= d <= m:
        raise ValidationError(f"need 0 <= d <= m, got m={m}, d={d}")
    # measured at 735,471 members (C(24, 8)) on a 2-vCPU x86 VM: about 1.1-1.4 s and 161 MB, or 1.9-2.7 s
    # and 246 MB with --out, which holds the whole JSON text before writing it
    cap = 10**6
    # C(m, i) grows up to i = min(d, m - d); once it leaves the float range, C(m, d) is refused by its formula
    size = 1
    for i in range(min(d, m - d)):
        size = size * (m - i) // (i + 1)
        if size > sys.float_info.max:
            raise CapacityError(f"family members C(m, d) = C({m}, {d}) exceeds cap {cap}")
    check_cap("family members C(m, d)", size, cap)
    return SetFamily.make(m, combinations(range(m), d), d=d)


def _lift(args) -> Construction:
    if not args.input:
        raise ValidationError("lift needs --input")
    return kappa_lift(formats.load_hypergraph(args.input))


# the graph constructions by name; each entry looks its generator up when called, so a
# generator rebound on the module after import is the one that runs
_CONSTRUCTIONS = {
    "k4-blowup": lambda args: k4_blowup(args.n),
    "rainbow-tripartite": lambda args: rainbow_tripartite(args.a, args.b, args.c),
    "matching": lambda args: matching_construction(args.d),
    "lift": _lift,
    "tetrahedra8": lambda args: tetrahedra8(),
    "flats": lambda args: flats_example(),
    "tripartite-mixed": lambda args: tripartite_mixed(args.n),
}


def _construct_options(p) -> None:
    p.add_argument("name", choices=[*_CONSTRUCTIONS, "complete-family"])
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--a", type=int, default=1)
    p.add_argument("--b", type=int, default=1)
    p.add_argument("--c", type=int, default=1)
    p.add_argument("--d", type=int, default=3)
    p.add_argument("--m", type=int, default=3)
    p.add_argument("--input")
    p.add_argument("--out")


def _cmd_construct(args) -> tuple[dict, list, list[str]]:
    if args.input and args.name != "lift":  # refused before any --out is written
        raise ValidationError(f"--input applies only to lift, not {args.name}")
    if args.name == "complete-family":  # a set family, not a graph
        fam = complete_family(args.m, args.d)
        if args.out:
            _dump(args.out, set_family_to_obj(fam))
        return {"name": args.name, "family_size": len(fam), "d": fam.d, "self_check": "passed"}, [], []
    c = _CONSTRUCTIONS[args.name](args)
    if args.out:
        _dump(args.out, hypergraph_to_obj(c.graph))
    q = {"name": c.name, "vertices": c.graph.n, "edges": len(c.graph.edges), "self_check": "passed"}
    for key, value in c.expected.items():
        q[f"expected_{key}"] = value
    return q, [], []
