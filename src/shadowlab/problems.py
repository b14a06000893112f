"""The ratio problems on colored hypergraphs: their counting kernels, `PROBLEMS`,
the one registry of the problems, and the `count` and `kappa` commands.

Counts are exact big integers; ratios become floats only inside reports.
Every count reads its edges through `hypergraph._edges`, the one entry check,
and counts on the compact form of bitmasks that `hypergraph._form` builds.
`PROBLEMS` holds each problem's graph entry, count, formula, bounds, note,
random instances and the structures its count counts; the constructions,
the search and the command line all read it.  The graph checks that no
problem reads are in `checks`, which does not read this module.
"""

from __future__ import annotations

import math
from collections import defaultdict
from collections.abc import Callable, Iterable, Iterator, Sequence
from fractions import Fraction
from functools import cache
from itertools import combinations

from . import formats
from .errors import ValidationError, check_cap, mode_options
from .hypergraph import VERTEX_CAP, ColoredHypergraph, Form, _edges, _facets, _form, _members
from .reports import BoundReport, Record, upper_report


def _count(pairs: Iterable[tuple[int, int]]) -> int:
    return sum(x.bit_count() for _, x in pairs)


def _rainbow(form: Form) -> Iterator[tuple[int, int]]:
    """Each edge of the rarest slot, with the vertices completing it to a rainbow clique: met once, from
    its one facet there.  ANDing the masks of the base's facets over each assignment of the other
    slots to them leaves the new vertices of that assignment, disjoint from the others'."""
    edges, masks = form
    rare = min(range(len(edges)), key=lambda s: len(edges[s]))
    for facets in edges[rare]:
        states = [(-1, 1 << rare)]  # (vertices still possible, slots assigned) of each partial assignment
        for f, _ in facets:
            m = masks[f]
            states = [(c & m[s], used | 1 << s) for c, used in states for s in range(len(edges))
                      if not used >> s & 1 and c & m[s]]
        yield facets[0][0] | facets[0][1], sum(c for c, _ in states)


def _rainbow_form(h: ColoredHypergraph, d: int, colors: Sequence[str]) -> Form:
    if d < 2:
        raise ValidationError(f"rainbow cliques need d >= 2, got {d}")
    slot = {c: i for i, c in enumerate(colors)}
    if len(colors) != d or len(slot) != d:
        raise ValidationError(f"expected {d} distinct colors, got {list(colors)}")
    items = []
    for e in _edges(h):
        if e.color in slot:
            if len(e.verts) != d - 1:
                raise ValidationError(
                    f"edge {e.verts} with listed color {e.color!r} has {len(e.verts)} vertices, expected {d - 1}"
                )
            items.append((slot[e.color], _facets(e.verts)))
    return _form(d, items)


def rainbow_cliques(h: ColoredHypergraph, colors: Sequence[str]) -> tuple[tuple[int, ...], ...]:
    """All d-subsets, for d listed colors, whose d facets are edges carrying the listed colors once each."""
    pairs = _rainbow(_rainbow_form(h, len(colors), tuple(colors)))  # each base edge with the vertices completing it
    return tuple(sorted(_members(e | 1 << v) for e, x in pairs for v in _members(x)))


GOOD6_CAP = 5 * 10**6  # link steps; measured 0.13-0.26 µs a step, so at most about 1.3 s


def _good6(form: Form) -> set[int]:
    """The good 6-sets of a 4-uniform form, as bitmasks: the 6-sets admitting three 4-edges inside whose
    complements partition the set.  Each is p + q + r, a triangle of pairs joined by the splits of the
    4-edges, met once, from p + q with r = {x, y} above p's and q's least vertices.
    M 4-edges make 3M joins and at most sqrt(2) (3M)^1.5 / 3 triangles (Kruskal-Katona)."""
    (edges,), masks = form
    m, n = len(edges), max((d for *_, (_, d) in edges), default=0).bit_length()  # every vertex is below n
    steps = math.isqrt(6 * m**3) + 3 * m * max(n - 4, 0)
    check_cap("link steps (sqrt(6 N^3) triangles and 3 N (n - 4) lookups)", steps, GOOD6_CAP)
    reach: defaultdict[int, int] = defaultdict(int)  # per pair, the vertices completing it to a facet
    for (_, a), (_, b), (_, c), (_, d) in edges:
        for p, q in ((a | b, c | d), (a | c, b | d), (a | d, b | c)):
            reach[p] |= q
            reach[q] |= p
    found = set()
    for (_, a), (_, b), (_, c), (_, d) in edges:
        e = a | b | c | d
        for p, q, top in ((a | b, c | d, c), (a | c, b | d, b), (a | d, b | c, b)):
            xs = reach[p] & reach[q] & -(top << 1)
            while xs:
                x = xs & -xs
                xs ^= x
                ys = masks[p | x][0] & masks[q | x][0] & -(x << 1)
                while ys:
                    y = ys & -ys
                    ys ^= y
                    found.add(e | x | y)
    return found


def _good6_form(h: ColoredHypergraph) -> Form:
    return _form(1, ((0, _facets(e.verts)) for e in _edges(h, 4, what="good 6-subset counting")))


def _mixed4(form: Form) -> set[int]:
    """The good 4-sets of a form of 2-edges (slot 0) and 3-edges, as bitmasks: the 4-sets {v1..v4} with
    3-edges {v1,v2,v3}, {v1,v2,v4} and 2-edge {v3,v4}, each met from that 2-edge in the link of {v1, v2}.
    No cap beyond the vertex cap: C(64, 2) links of C(62, 2) pairs."""
    masks = form[1]
    found = set()
    for r, (_, link) in masks.items():
        xs = link
        while xs:
            x = xs & -xs
            xs ^= x
            ys = link & masks.get(x, (0,))[0] & -(x << 1)
            while ys:
                y = ys & -ys
                ys ^= y
                found.add(r | x | y)
    return found


def _mixed4_form(h: ColoredHypergraph) -> Form:
    return _form(2, ((len(e.verts) - 2, _facets(e.verts)) for e in _edges(h, 2, 3, what="mixed counting")))


RGB = ("red", "green", "blue")  # the colors of rainbow triangles and of covering sets


def _covering(form: Form) -> Iterator[tuple[int, int]]:
    """The covering sets of a (delta+2)-uniform 3-slot form: the (delta+3)-sets whose (delta+2)-subsets
    that are edges meet every slot.  Yields each edge with the vertices v whose set edge + v is one, met from
    the set minus its largest vertex that leaves an edge: v is dropped where edge - u + v is one, u > v."""
    edges, masks = form
    for s, slot in enumerate(edges):
        b, c = (t for t in range(3) if t != s)
        for facets in slot:
            below = has_b = has_c = 0
            for f, u in facets:
                m = masks[f]
                below |= (m[0] | m[1] | m[2]) & u - 1
                has_b |= m[b]
                has_c |= m[c]
            yield facets[0][0] | facets[0][1], has_b & has_c & ~below


def _covering_form(h: ColoredHypergraph, delta: int) -> Form:
    if delta < 0:
        raise ValidationError(f"delta must be nonnegative, got {delta}")
    items = []
    for e in _edges(h, delta + 2, what="color covering counting"):
        if e.color not in RGB:
            raise ValidationError(f"edge color {e.color!r} not among {RGB}")
        items.append((RGB.index(e.color), _facets(e.verts)))
    return _form(3, items)


Bound = tuple[Fraction, str, bool]  # (upper bound on the ratio, source, conjecture)
Literal = tuple[tuple[int, ...], int]  # (subset, drawn value)
Structures = tuple[int, bool, Sequence[Sequence[Literal]]]  # (size, every, groups), as Problem.structures gives them


def _sizes(form: Form) -> list[int]:  # the class sizes: each slot's edge count
    return [len(slot) for slot in form[0]]


class Problem(Record):
    """One ratio problem: its counts and exact ratio, its bounds, its notes and its random instances.

    form(h, d, delta, colors) checks h and builds the form whose slots are the classes; count(form)
    is the kernel's J, and the ratio is J^p / prod size_s^e_s with (p, e) = exponents(d).  names
    are J's and each class's, or one for the list of class sizes.  bounds(d, delta) lists every
    proven and conjectured upper bound.  draws(d, delta) gives the sizes and colors of random edges:
    each subset of [n] of each size is an edge with probability 1/2 under one color, else none or
    one of a uniform color, in form slot size index * colors + color index; an exhaustive scan gives
    each such subset a slot valued the same way.  Only rainbow_d reads colors; d and delta are
    ignored where the problem has none.

    structures(d, delta) is what count(form) counts, written once on [size] as literals (subset,
    drawn value): a subset drawn with value p is an edge of draws' color p (1 for the one color).
    It gives (size, every, groups); a size-subset Q of [n] is counted when, each literal's subset
    read through Q's vertices in order, every group holds a drawn literal (every) or some group has
    all its literals drawn (not every).  The exhaustive scans and the random probes count with it on
    one lane engine, each lane the fewest bytes that hold C(n, size); the kernel recounts each
    witness, which checks the two against each other.
    """

    name: str
    quantity: str
    form: Callable[[ColoredHypergraph, int, int, Sequence[str] | None], Form]
    count: Callable[[Form], int]
    exponents: Callable[[int], tuple[int, tuple[int, ...]]]
    names: tuple[str, str | tuple[str, ...]]
    bounds: Callable[[int, int], tuple[Bound, ...]]
    notes: tuple[str, ...]
    draws: Callable[[int, int], tuple[tuple[int, ...], tuple[str, ...]]]
    structures: Callable[[int, int], Structures]

    def numerator(self, j: int, d: int) -> int:
        """J^p, the ratio's numerator."""
        return j ** self.exponents(d)[0]

    def denominator(self, sizes: Iterable[int], d: int) -> int:
        """prod size_s^e_s, the ratio's denominator: 0 when a class is empty."""
        return math.prod(map(pow, sizes, self.exponents(d)[1]))

    def exact(
        self, h: ColoredHypergraph, d: int = 3, delta: int = 0, colors: Sequence[str] | None = None
    ) -> tuple[dict, Fraction | None]:
        """The named counts and the exact ratio, None when a class in the denominator is empty."""
        form = self.form(h, d, delta, colors)
        j, sizes = self.count(form), _sizes(form)
        den = self.denominator(sizes, d)
        name, classes = self.names
        named = {classes: sizes} if isinstance(classes, str) else dict(zip(classes, sizes))
        return {name: j, **named}, Fraction(self.numerator(j, d), den) if den else None

    def reports(self, value: Fraction, d: int = 3, delta: int = 0) -> list[BoundReport]:
        """A ratio value checked against every bound of the problem."""
        return [
            upper_report(self.quantity, value, bound, source, conjecture=conjecture)
            for bound, source, conjecture in self.bounds(d, delta)
        ]


def _rainbow_colors(d: int) -> tuple[str, ...]:
    check_cap("rainbow_d edge size d - 1", d - 1, VERTEX_CAP)  # before d names: no edge is that large
    return tuple(f"c{i + 1}" for i in range(d))


def _rainbow_bounds(d, delta):
    # labels name the formula only: its value is the bound, and (39!)^40 alone has 1,853 digits
    bounds = [(Fraction(math.factorial(d - 1) ** d), "shearer ((d-1)!)^d", False)]
    if d >= 3:
        bounds.append((Fraction(math.prod(i**i for i in range(1, d)), 2), "induction (1/2) prod i^i", False))
    bounds.append((Fraction(math.factorial(d)), "joints d!", False))
    if d == 3:
        bounds.append((Fraction(2), "rainbow triangles T^2 <= 2 C1 C2 C3", False))
    return tuple(bounds)


def _colored(size: int, colors: int) -> Structures:
    """A size-set each of whose colors is drawn on one of its facets, by color."""
    facets = list(combinations(range(size), size - 1))
    return size, True, [[(f, c) for f in facets] for c in range(1, colors + 1)]


def _without(size: int, e: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(v for v in range(size) if v not in e)


@cache  # sifts 455 triples of pairs, and a probe on lanes reads it twice; tuples, as every caller shares them
def _matchings() -> Structures:
    """A 6-set with a perfect matching {p, q, r} whose complements [6] - p, [6] - q and [6] - r are drawn."""
    pairs = list(combinations(range(6), 2))
    return 6, False, tuple(tuple((_without(6, e), 1) for e in m)
                           for m in combinations(pairs, 3) if len({*sum(m, ())}) == 6)


def _covering_bounds(d, delta):
    # at delta = 0 the covering 3-sets are exactly the rainbow triangles
    two = (Fraction(2), "rainbow triangles 2", False) if delta == 0 else (Fraction(2), "conjectured 2", True)
    return ((Fraction(6), "joints 6", False), two)


PROBLEMS: dict[str, Problem] = {
    p.name: p
    for p in (
        Problem(
            "rainbow_d", "clique ratio",
            lambda h, d, delta, colors: _rainbow_form(h, d, _rainbow_colors(d) if colors is None else tuple(colors)),
            lambda form: _count(_rainbow(form)), lambda d: (d - 1, (1,) * d), ("T", "C"),
            # no subset of [n] has d - 1 > VERTEX_CAP vertices, so those probes draw nothing and need no colors
            _rainbow_bounds, (), lambda d, delta: ((d - 1,), _rainbow_colors(d) if d <= VERTEX_CAP + 1 else ()),
            lambda d, delta: _colored(d, d),
        ),
        Problem(
            "good6", "good6 ratio", lambda h, d, delta, colors: _good6_form(h),
            lambda form: len(_good6(form)), lambda d: (2, (3,)), ("J", ("N",)), lambda d, delta: (),
            ("conjectured optimum for J^2/N^3 is 2/7; exceeding it is not a failure",),
            lambda d, delta: ((4,), ("plain",)), lambda d, delta: _matchings(),
        ),
        Problem(
            "mixed4", "mixed ratio", lambda h, d, delta, colors: _mixed4_form(h),
            lambda form: len(_mixed4(form)), lambda d: (2, (1, 2)), ("J", ("N2", "N3")),
            lambda d, delta: ((Fraction(9, 2), "shearer 9/2", False), (Fraction(3), "joints 3", False)),
            ("conjectured optimum for J^2/(N2 N3^2) is 3/2, in the known window [3/2, 3]; "
             "exceeding it is not a failure",),
            lambda d, delta: ((2, 3), ("plain",)),
            # a pair {a, b} drawn with the triples [4] - a and [4] - b
            lambda d, delta: (4, False, [[(e, 1), (_without(4, e[:1]), 1), (_without(4, e[1:]), 1)]
                                         for e in combinations(range(4), 2)]),
        ),
        Problem(
            "covering_delta", "covering ratio", lambda h, d, delta, colors: _covering_form(h, delta),
            lambda form: _count(_covering(form)), lambda d: (2, (1, 1, 1)), ("J", ("R", "G", "B")),
            _covering_bounds, (), lambda d, delta: ((delta + 2,), RGB), lambda d, delta: _colored(delta + 3, 3),
        ),
    )
}


def get_problem(name: str) -> Problem:
    if name not in PROBLEMS:
        raise ValidationError(f"problem must be one of {tuple(PROBLEMS)}, got {name!r}")
    return PROBLEMS[name]


# the count kinds by name, each a ratio problem of the registry, and the options each reads, by argparse dest,
# with their defaults as `mode_options` reads them
_COUNT_PROBLEMS = {"good6": "good6", "mixed4": "mixed4", "covering": "covering_delta"}
_MODE_OPTIONS = {"good6": {}, "mixed4": {}, "covering": {"delta": 0}}


def _count_options(p) -> None:
    p.add_argument("kind", choices=list(_COUNT_PROBLEMS))
    p.add_argument("--input", required=True)
    p.add_argument("--delta", type=int)  # None when left out, and covering's default in `_cmd_count`


def _cmd_count(args) -> tuple[dict, list[BoundReport], list[str]]:
    read = mode_options(args, "count", args.kind, _MODE_OPTIONS)  # refused before the file is read
    h = formats.load_hypergraph(args.input)
    problem = PROBLEMS[_COUNT_PROBLEMS[args.kind]]
    q, ratio = problem.exact(h, **read)
    bounds, notes = [], []
    if ratio is not None:  # the ratio, its bounds and its note exist only with every class nonempty
        q["ratio"] = ratio
        bounds = problem.reports(ratio, **read)
        notes = list(problem.notes)
    return {**q, **read}, bounds, notes


def _kappa_options(p) -> None:
    p.add_argument("--input", required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--colors")


def _cmd_kappa(args) -> tuple[dict, list[BoundReport], list[str]]:
    h = formats.load_hypergraph(args.input)
    colors = tuple(x.strip() for x in args.colors.split(",") if x.strip()) if args.colors else h.colors()
    problem = PROBLEMS["rainbow_d"]
    q, ratio = problem.exact(h, args.d, colors=colors)
    if ratio is None:
        raise ValidationError(f"the rainbow_d ratio needs every class nonempty, got {q}")
    q.update(ratio=ratio, ratio_real=float(ratio))
    return q, problem.reports(ratio, args.d), list(problem.notes)
