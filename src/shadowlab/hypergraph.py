"""Colored hypergraphs of possibly mixed uniformity and all counting ops.

Counts are exact big integers; ratios become floats only inside reports.
Graphs are immutable after construction, so every operation here is safe to
call concurrently.  `PROBLEMS` at the bottom is the one registry of the ratio
problems (formula, bounds, note, random instances) that the checks, the
constructions, the search and the command line all read.
"""

from __future__ import annotations

import math
import random
from collections import Counter, defaultdict
from fractions import Fraction
from itertools import combinations
from typing import Callable, Iterable, Iterator, Sequence

from .errors import ValidationError, check_cap
from .numkit import shadow_bound
from .record import Record
from .reports import BoundReport, ValidationReport, lower_report, upper_report

VERTEX_CAP = 64
TRACE_TOL = 1e-6  # relative float slack of the spectral trace checks, scaled by each identity's magnitude
_set = object.__setattr__  # fills a record's field; one lookup fewer in the hot constructors


class Edge(Record):
    __slots__ = ("verts", "color", "weight")
    verts: tuple[int, ...]
    color: str
    weight: int | None

    def __init__(self, verts: tuple[int, ...], color: str, weight: int | None = None) -> None:
        _set(self, "verts", verts)
        _set(self, "color", color)
        _set(self, "weight", weight)


class ColoredHypergraph(Record):
    """Vertices 0..n-1 plus color-labeled hyperedges (mixed sizes allowed)."""

    __slots__ = ("n", "edges")
    n: int
    edges: tuple[Edge, ...]

    def __init__(self, n: int, edges: tuple[Edge, ...]) -> None:
        _set(self, "n", n)
        _set(self, "edges", edges)

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple]) -> "ColoredHypergraph":
        """Build from (verts, color) or (verts, color, weight) items; sorts verts."""
        built = []
        for item in edges:
            verts, color = item[0], item[1]
            weight = item[2] if len(item) > 2 else None
            built.append(Edge(tuple(sorted(verts)), str(color), weight))
        return cls(n=n, edges=tuple(built))

    def colors(self) -> tuple[str, ...]:
        return tuple(sorted({e.color for e in self.edges}))

    def color_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for e in self.edges:
            counts[e.color] = counts.get(e.color, 0) + 1
        return counts

    def uniformity(self) -> int:
        """Common edge size; raises if edges are absent or of mixed size."""
        sizes = {len(e.verts) for e in self.edges}
        if len(sizes) != 1:
            raise ValidationError(f"expected uniform edges, got sizes {sorted(sizes)}")
        return sizes.pop()


class SetFamily(Record):
    """A family of d-subsets of [ground_size]."""

    n: int
    d: int
    sets: tuple[tuple[int, ...], ...]

    @classmethod
    def make(cls, n: int, sets: Iterable[Iterable[int]], d: int | None = None) -> "SetFamily":
        members = sorted(tuple(sorted(s)) for s in sets)
        if d is None:
            if not members:
                raise ValidationError("d is required for an empty family")
            d = len(members[0])
        for s in members:
            if len(s) != d:
                raise ValidationError(f"member {s} has cardinality {len(s)}, expected {d}")
            if len(set(s)) != len(s):
                raise ValidationError(f"member {s} repeats an element")
            if s and (s[0] < 0 or s[-1] >= n):
                raise ValidationError(f"member {s} outside ground set [0, {n})")
        if len(set(members)) != len(members):
            raise ValidationError("duplicate member sets")
        return cls(n=n, d=d, sets=tuple(members))

    def __len__(self) -> int:
        return len(self.sets)


def validate(h: ColoredHypergraph) -> ValidationReport:
    """Check all hypergraph invariants; report violations with edge indices."""
    violations = []
    if h.n < 0:
        violations.append(f"vertex count {h.n} is negative")
    seen: dict[tuple[int, ...], int] = {}
    for i, e in enumerate(h.edges):
        if len(e.verts) == 0:
            violations.append(f"edge {i} is empty")
        if tuple(sorted(e.verts)) != e.verts or len(set(e.verts)) != len(e.verts):
            violations.append(f"edge {i} vertex list {e.verts} is not sorted and duplicate-free")
        for v in e.verts:
            if not (0 <= v < h.n):
                violations.append(f"edge {i} vertex {v} out of range [0, {h.n})")
        if e.weight is not None and (not isinstance(e.weight, int) or e.weight < 0):
            violations.append(f"edge {i} weight {e.weight} is not a nonnegative integer")
        if e.verts in seen:
            violations.append(
                f"edges {seen[e.verts]} and {i} share vertex set {e.verts} (simplicity violation)"
            )
        else:
            seen[e.verts] = i
    return ValidationReport(ok=not violations, violations=tuple(violations))


def _require_valid(h: ColoredHypergraph) -> None:
    report = validate(h)
    if not report.ok:
        raise ValidationError("; ".join(report.violations))


def _cofaces(
    lookup: dict, bases: Iterable[tuple[int, ...]], n: int
) -> Iterator[tuple[tuple[int, ...], list]]:
    """Each set made of a base plus one vertex of [n] outside it, once, with its facets' values.

    Bases are sorted tuples of one size k of vertices in [n].  Yields (coface, values):
    the coface sorted, and the lookup values of its k-subsets in
    `combinations` order, None where a k-subset is not a key of lookup.
    """
    seen = set()
    for base in bases:
        k = len(base)
        i = 0  # base[:i] are the base's vertices below v
        for v in range(n):
            if i < k and base[i] == v:
                i += 1
                continue
            coface = base[:i] + (v,) + base[i:]
            if coface not in seen:
                seen.add(coface)
                yield coface, list(map(lookup.get, combinations(coface, k)))


def rainbow_cliques(
    h: ColoredHypergraph, d: int, colors: Sequence[str]
) -> tuple[tuple[int, ...], ...]:
    """All d-subsets whose d facets are edges carrying the d listed colors once each."""
    if d < 2:
        raise ValidationError(f"rainbow cliques need d >= 2, got {d}")
    color_list = list(colors)
    if len(color_list) != d or len(set(color_list)) != d:
        raise ValidationError(f"expected {d} distinct colors, got {color_list}")
    check_cap("vertex count", h.n, VERTEX_CAP)
    _require_valid(h)
    listed = set(color_list)
    for e in h.edges:
        if e.color in listed and len(e.verts) != d - 1:
            raise ValidationError(
                f"edge {e.verts} with listed color {e.color!r} has {len(e.verts)} vertices, expected {d - 1}"
            )
    lookup = {e.verts: e.color for e in h.edges if len(e.verts) == d - 1}
    by_color: dict[str, list[tuple[int, ...]]] = {c: [] for c in color_list}
    for e in h.edges:
        if e.color in listed:
            by_color[e.color].append(e.verts)
    rarest = min(by_color.values(), key=len)
    # d facets carry the d listed colors once each iff their colors are exactly the listed set
    return tuple(sorted(c for c, got in _cofaces(lookup, rarest, h.n) if set(got) == listed))


def count_rainbow_cliques(h: ColoredHypergraph, d: int, colors: Sequence[str]) -> int:
    return len(rainbow_cliques(h, d, colors))


def shadow(fam: SetFamily) -> SetFamily:
    """All (d-1)-subsets contained in some member."""
    if fam.d < 1:
        raise ValidationError("shadow needs d >= 1")
    out = set()
    for s in fam.sets:
        for f in combinations(s, fam.d - 1):
            out.add(f)
    return SetFamily(n=fam.n, d=fam.d - 1, sets=tuple(sorted(out)))


def _binom_bound(shadow_size: int, family_size: int, d: int) -> tuple[bool, float, Fraction]:
    """`shadow_bound` in binomials: (holds, t, binom(t, d-1)) where binom(t, d) = family_size."""
    f = math.factorial(d - 1)
    holds, t, bound = shadow_bound(f * shadow_size, f * d * family_size, range(1, d))
    return holds, t, bound / f


def check_kruskal_katona(fam: SetFamily) -> BoundReport:
    """|shadow| >= binom(t, d-1) where binom(t, d) = |family|, t real >= d.

    The verdict is exact; t and the bound are for display.
    """
    if len(fam) < 1:
        raise ValidationError("family must be nonempty")
    shadow_size = len(shadow(fam))
    holds, t, bound = _binom_bound(shadow_size, len(fam), fam.d)
    return lower_report(
        "shadow size",
        shadow_size,
        bound,
        "kruskal-katona (lovasz form)",
        holds=holds,
        extra={"t": t, "family_size": len(fam)},
    )


def _edges_of_size(h: ColoredHypergraph, size: int, what: str) -> set[tuple[int, ...]]:
    for e in h.edges:
        if len(e.verts) != size:
            raise ValidationError(f"{what} requires {size}-uniform edges, got {e.verts}")
    return {e.verts for e in h.edges}


def _links(edges: Iterable[tuple[int, ...]], size: int) -> defaultdict[tuple[int, ...], set[tuple[int, ...]]]:
    """For every size-subset T of an edge, the sorted complements S with T + S an edge."""
    links: defaultdict[tuple[int, ...], set[tuple[int, ...]]] = defaultdict(set)
    for e in edges:
        # the complements of the size-subsets, in combinations order, are the rest in reverse order
        for t, rest in zip(combinations(e, size), reversed(list(combinations(e, len(e) - size)))):
            links[t].add(rest)
    return links


def _splits(e: tuple[int, ...]) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """The 3 splits of a 4-set into two pairs."""
    pairs = list(combinations(e, 2))
    return zip(pairs[:3], pairs[:2:-1])


def good_6subsets(h: ColoredHypergraph) -> tuple[tuple[int, ...], ...]:
    """6-sets admitting three 4-edges inside whose complements partition the set.

    Such a set is p + q + r for disjoint pairs p, q, r with p + q, p + r and
    q + r edges: each 4-edge split into pairs p, q gives one for every pair r
    that completes both p and q to an edge.
    """
    check_cap("vertex count", h.n, VERTEX_CAP)
    _require_valid(h)
    edges = _edges_of_size(h, 4, "good 6-subset counting")
    degree = Counter(p for e in edges for p in combinations(e, 2))
    work = sum(min(degree[p], degree[q]) for e in edges for p, q in _splits(e))
    # a split costs one step per edge through its smaller pair; measured about 0.3 µs a step
    check_cap("link steps (smaller pair degree, summed over 4-edge splits)", work, 10**7)
    links = _links(edges, 2)
    good = {tuple(sorted(e + r)) for e in edges for p, q in _splits(e) for r in links[p] & links[q]}
    return tuple(sorted(good))


def count_good_6subsets(h: ColoredHypergraph) -> int:
    return len(good_6subsets(h))


def good_4subsets_mixed(h: ColoredHypergraph) -> tuple[tuple[int, ...], ...]:
    """4-sets {v1..v4} with 3-edges {v1,v2,v3}, {v1,v2,v4} and 2-edge {v3,v4}.

    Each 2-edge {v3, v4} gives one for every pair {v1, v2} that completes both
    v3 and v4 to a 3-edge.
    """
    check_cap("vertex count", h.n, VERTEX_CAP)
    _require_valid(h)
    pairs = []
    triples = []
    for e in h.edges:
        if len(e.verts) == 2:
            pairs.append(e.verts)
        elif len(e.verts) == 3:
            triples.append(e.verts)
        else:
            raise ValidationError(f"mixed counting allows only 2- and 3-edges, got {e.verts}")
    # no cap beyond the vertex cap: at most C(64, 2) 2-edges, each intersecting two sets of at most C(63, 2) pairs
    links = _links(triples, 1)
    good = {tuple(sorted(r + (v3, v4))) for v3, v4 in pairs for r in links[(v3,)] & links[(v4,)]}
    return tuple(sorted(good))


def count_good_4subsets_mixed(h: ColoredHypergraph) -> int:
    return len(good_4subsets_mixed(h))


RGB = ("red", "green", "blue")  # the colors of rainbow triangles and of covering sets


def color_covering_subsets(h: ColoredHypergraph, delta: int) -> tuple[tuple[int, ...], ...]:
    """(delta+3)-sets of a (delta+2)-uniform 3-colored graph containing all colors."""
    if delta < 0:
        raise ValidationError(f"delta must be nonnegative, got {delta}")
    check_cap("vertex count", h.n, VERTEX_CAP)
    _require_valid(h)
    size = delta + 2
    lookup = {}
    for e in h.edges:
        if len(e.verts) != size:
            raise ValidationError(f"edge {e.verts} has size {len(e.verts)}, expected {size}")
        if e.color not in RGB:
            raise ValidationError(f"edge color {e.color!r} not among {RGB}")
        lookup[e.verts] = e.color
    covering = (c for c, got in _cofaces(lookup, lookup, h.n) if set(got).issuperset(RGB))
    return tuple(sorted(covering))


def count_color_covering_subsets(h: ColoredHypergraph, delta: int) -> int:
    return len(color_covering_subsets(h, delta))


def count_partial_shadow_targets(h: ColoredHypergraph, r: int, k: int) -> int:
    """Number of r-subsets containing at least r-k edges of an (r-1)-uniform h."""
    if r < 1 or k < 0 or k > r:
        raise ValidationError(f"need r >= 1 and 0 <= k <= r, got r={r}, k={k}")
    check_cap("vertex count", h.n, VERTEX_CAP)
    _require_valid(h)
    edges = _edges_of_size(h, r - 1, "partial shadow counting")
    needed = r - k
    if needed <= 0:
        return math.comb(h.n, r)
    lookup = dict.fromkeys(edges, True)
    return sum(1 for _, got in _cofaces(lookup, edges, h.n) if len(got) - got.count(None) >= needed)


def check_partial_shadow_bound(h: ColoredHypergraph, r: int, k: int) -> BoundReport:
    """e(h) >= binom(x, r-k-1) where binom(x, r-k) = m, x real >= r-k.

    The verdict is exact; x and the bound are for display.
    """
    if not (0 <= k < r):
        raise ValidationError(f"bound check needs 0 <= k < r, got r={r}, k={k}")
    m = count_partial_shadow_targets(h, r, k)
    if m < 1:
        raise ValidationError("no r-subsets meet the threshold (m = 0)")
    holds, x, bound = _binom_bound(len(h.edges), m, r - k)
    return lower_report(
        "edge count",
        len(h.edges),
        bound,
        "partial shadow",
        holds=holds,
        extra={"m": m, "x": x, "r": r, "k": k},
    )


def _weights(h: ColoredHypergraph, size: int) -> dict[tuple[int, ...], int]:
    table = {}
    for e in h.edges:
        if len(e.verts) != size:
            raise ValidationError(f"weighted ops require {size}-uniform edges, got {e.verts}")
        w = 1 if e.weight is None else e.weight
        if not isinstance(w, int) or w < 0:
            raise ValidationError(f"weight of {e.verts} must be a nonnegative integer, got {w}")
        table[e.verts] = w
    return table


class WeightedSumReport(Record):
    """Sum of geometric-mean weights to the d/(d-1) power, with its cap."""

    d: int
    total_weight: int
    terms: tuple[int, ...]  # nonzero facet-weight products, one per d-subset
    value: float
    report: BoundReport


def weighted_joint_sum(h: ColoredHypergraph, d: int) -> WeightedSumReport:
    """Sum over d-subsets of (geometric mean of facet weights)^{d/(d-1)}.

    The term for a d-subset equals (product of its d facet weights)^{1/(d-1)},
    so each term is an exact integer raised to a fixed real power.
    """
    if d < 2:
        raise ValidationError(f"need d >= 2, got {d}")
    check_cap("vertex count", h.n, VERTEX_CAP)
    _require_valid(h)
    table = _weights(h, d - 1)
    total = sum(table.values())
    bases = [f for f, w in table.items() if w]
    check_cap("coface visits (nonzero edges x n)", len(bases) * h.n, 10**7)  # measured 0.65-1.6 µs a visit
    # sorted, the terms and the float sum keep the combinations(range(n), d) order
    cliques = sorted((c, math.prod(got)) for c, got in _cofaces(table, bases, h.n) if all(got))
    terms = [p for _, p in cliques]
    value = float(sum(p ** (1.0 / (d - 1)) for p in terms))
    bound = (math.factorial(d - 1) ** (1.0 / (d - 1)) / d) * float(total) ** (d / (d - 1))
    report = upper_report(
        "weighted clique sum",
        value,
        bound,
        "geometric-mean weight bound ((d-1)!)^{1/(d-1)}/d * N^{d/(d-1)}",
        extra={"total_weight": total},
    )
    return WeightedSumReport(d=d, total_weight=total, terms=tuple(terms), value=value, report=report)


class SpectralReport(Record):
    trace2: float
    trace3: float
    total_weight: int
    checks: tuple[BoundReport, ...]

    @property
    def ok(self) -> bool:
        return all(c.satisfied for c in self.checks)


def spectral_trace_check(h: ColoredHypergraph) -> SpectralReport:
    """d=3 trace identities for M = entrywise sqrt of the weight matrix.

    tr(M^2) = 2N, tr(M^3) = 6 * sum of w(triangle)^{3/2}, and
    tr(M^2)^3 >= tr(M^3)^2.  Each identity holds to TRACE_TOL times its
    right side (at least 1), the inequality to TRACE_TOL times tr(M^2)^3.
    """
    check_cap("vertex count", h.n, VERTEX_CAP)
    _require_valid(h)
    table = _weights(h, 2)
    total = sum(table.values())
    # M is symmetric with a zero diagonal: traces are sums over closed walks
    adj: dict[int, dict[int, float]] = {v: {} for v in range(h.n)}
    for (i, j), w in table.items():
        adj[i][j] = adj[j][i] = math.sqrt(w)
    # fsum rounds each sum once, so the traces do not depend on how the Python version sums floats
    tr2 = math.fsum(x * x for row in adj.values() for x in row.values())
    tr3 = math.fsum(
        mij * mjk * adj[k].get(i, 0.0)
        for i, row in adj.items()
        for j, mij in row.items()
        for k, mjk in adj[j].items()
    )
    sum_w32 = math.fsum(math.sqrt(p) for p in weighted_joint_sum(h, 3).terms)
    diff2, diff3, power = abs(tr2 - 2 * total), abs(tr3 - 6 * sum_w32), tr2**3 - tr3**2
    tol2, tol3 = TRACE_TOL * max(1.0, 2 * total), TRACE_TOL * max(1.0, 6 * sum_w32)
    checks = (
        upper_report("|tr(M^2) - 2N|", diff2, tol2, "trace identity 2N", holds=diff2 <= tol2),
        upper_report("|tr(M^3) - 6 sum w^{3/2}|", diff3, tol3, "trace identity 6S", holds=diff3 <= tol3),
        lower_report(
            "tr(M^2)^3 - tr(M^3)^2",
            power,
            0.0,
            "trace power inequality",
            holds=power >= -TRACE_TOL * max(1.0, tr2**3),
        ),
    )
    return SpectralReport(trace2=tr2, trace3=tr3, total_weight=total, checks=checks)


def color_isomorphic(h1: ColoredHypergraph, h2: ColoredHypergraph) -> bool:
    """True if some vertex bijection plus color bijection maps h1 onto h2.

    Brute force over permutations; intended for small witnesses only.
    """
    from itertools import permutations

    if h1.n != h2.n or len(h1.edges) != len(h2.edges):
        return False
    check_cap("isomorphism check vertices (brute force)", h1.n, 8)
    c1, c2 = h1.colors(), h2.colors()
    if len(c1) != len(c2):
        return False
    edges2 = {(e.verts, e.color) for e in h2.edges}
    for vperm in permutations(range(h1.n)):
        for cperm in permutations(c2):
            cmap = dict(zip(c1, cperm))
            mapped = {
                (tuple(sorted(vperm[v] for v in e.verts)), cmap[e.color]) for e in h1.edges
            }
            if mapped == edges2:
                return True
    return False


Bound = tuple[Fraction, str, bool]  # (upper bound on the ratio, source, conjecture)


class Problem(Record):
    """One ratio problem: its exact ratio, its bounds, its notes and its random instances.

    measure(h, d, delta, colors) gives the named counts and the ratio as
    (numerator, denominator), the denominator 0 when a class is empty;
    exact() turns that into a Fraction, or None.  bounds(d, delta) lists
    every proven and conjectured upper bound on the ratio;
    instance(rng, n, d, delta) draws one seeded random graph on n
    vertices.  Only rainbow_d reads colors; d and delta are ignored where
    the problem has no such parameter.
    """

    name: str
    quantity: str
    measure: Callable[[ColoredHypergraph, int, int, Sequence[str] | None], tuple[dict, int, int]]
    bounds: Callable[[int, int], tuple[Bound, ...]]
    notes: tuple[str, ...]
    instance: Callable[[random.Random, int, int, int], ColoredHypergraph]

    def exact(
        self, h: ColoredHypergraph, d: int = 3, delta: int = 0, colors: Sequence[str] | None = None
    ) -> tuple[dict, Fraction | None]:
        """The named counts and the exact ratio, None when a class in the denominator is empty."""
        counts, num, den = self.measure(h, d, delta, colors)
        return counts, Fraction(num, den) if den else None

    def reports(self, value: Fraction, d: int = 3, delta: int = 0) -> list[BoundReport]:
        """A ratio value checked against every bound of the problem."""
        return [
            upper_report(self.quantity, value, bound, source, conjecture=conjecture)
            for bound, source, conjecture in self.bounds(d, delta)
        ]


def _rainbow_colors(d: int) -> tuple[str, ...]:
    return tuple(f"c{i + 1}" for i in range(d))


def _random_colored(rng: random.Random, n: int, size: int, colors: Sequence[str]) -> ColoredHypergraph:
    """Each size-subset of [n] is no edge or an edge of a uniformly drawn color."""
    edges = []
    for verts in combinations(range(n), size):
        pick = rng.randrange(len(colors) + 1)
        if pick:
            edges.append((verts, colors[pick - 1]))
    return ColoredHypergraph.from_edges(n, edges)


def _random_plain(rng: random.Random, n: int, sizes: Sequence[int]) -> ColoredHypergraph:
    """Each subset of [n] of each listed size is an edge with probability 1/2."""
    edges = [(v, "plain") for size in sizes for v in combinations(range(n), size) if rng.random() < 0.5]
    return ColoredHypergraph.from_edges(n, edges)


def _rainbow_measure(h, d, delta, colors):
    colors = _rainbow_colors(d) if colors is None else tuple(colors)
    t = count_rainbow_cliques(h, d, colors)
    counts = h.color_counts()
    sizes = [counts.get(c, 0) for c in colors]
    return {"T": t, "C": sizes}, t ** (d - 1), math.prod(sizes)


def _rainbow_bounds(d, delta):
    # labels name the formula only: its value is the bound, and (39!)^40 alone has 1,853 digits
    bounds = [(Fraction(math.factorial(d - 1) ** d), "shearer ((d-1)!)^d", False)]
    if d >= 3:
        bounds.append((Fraction(math.prod(i**i for i in range(1, d)), 2), "induction (1/2) prod i^i", False))
    bounds.append((Fraction(math.factorial(d)), "joints d!", False))
    if d == 3:
        bounds.append((Fraction(2), "rainbow triangles T^2 <= 2 C1 C2 C3", False))
    return tuple(bounds)


def _good6_measure(h, d, delta, colors):
    j = count_good_6subsets(h)
    n = len(h.edges)
    return {"J": j, "N": n}, j * j, n**3


def _mixed4_measure(h, d, delta, colors):
    j = count_good_4subsets_mixed(h)
    n2 = sum(1 for e in h.edges if len(e.verts) == 2)
    n3 = sum(1 for e in h.edges if len(e.verts) == 3)
    return {"J": j, "N2": n2, "N3": n3}, j * j, n2 * n3 * n3


def _covering_measure(h, d, delta, colors):
    j = count_color_covering_subsets(h, delta)
    counts = h.color_counts()
    r, g, b = (counts.get(c, 0) for c in RGB)
    return {"J": j, "R": r, "G": g, "B": b}, j * j, r * g * b


def _covering_bounds(d, delta):
    # at delta = 0 the covering 3-sets are exactly the rainbow triangles
    two = (Fraction(2), "rainbow triangles 2", False) if delta == 0 else (Fraction(2), "conjectured 2", True)
    return ((Fraction(6), "joints 6", False), two)


PROBLEMS: dict[str, Problem] = {
    p.name: p
    for p in (
        Problem(
            "rainbow_d", "clique ratio", _rainbow_measure, _rainbow_bounds, (),
            lambda rng, n, d, delta: _random_colored(rng, n, d - 1, _rainbow_colors(d)),
        ),
        Problem(
            "good6", "good6 ratio", _good6_measure, lambda d, delta: (),
            ("conjectured optimum for J^2/N^3 is 2/7; exceeding it is not a failure",),
            lambda rng, n, d, delta: _random_plain(rng, n, (4,)),
        ),
        Problem(
            "mixed4", "mixed ratio", _mixed4_measure,
            lambda d, delta: ((Fraction(9, 2), "shearer 9/2", False), (Fraction(3), "joints 3", False)),
            ("conjectured optimum for J^2/(N2 N3^2) is 3/2, in the known window [3/2, 3]; "
             "exceeding it is not a failure",),
            lambda rng, n, d, delta: _random_plain(rng, n, (2, 3)),
        ),
        Problem(
            "covering_delta", "covering ratio", _covering_measure, _covering_bounds, (),
            lambda rng, n, d, delta: _random_colored(rng, n, delta + 2, RGB),
        ),
    )
}


def get_problem(name: str) -> Problem:
    if name not in PROBLEMS:
        raise ValidationError(f"problem must be one of {tuple(PROBLEMS)}, got {name!r}")
    return PROBLEMS[name]


class RatioReport(Record):
    """A problem's named counts and exact ratio on one graph, with its bound reports."""

    counts: dict
    ratio_exact: Fraction
    reports: tuple[BoundReport, ...]

    @property
    def ratio(self) -> float:
        return float(self.ratio_exact)


def check_ratio(
    name: str, h: ColoredHypergraph, d: int = 3, delta: int = 0, colors: Sequence[str] | None = None
) -> RatioReport:
    """The problem's exact ratio on h, checked against every bound it has.

    Raises ValidationError when a class in the denominator is empty.
    """
    problem = get_problem(name)
    counts, ratio = problem.exact(h, d, delta, colors)
    if ratio is None:
        raise ValidationError(f"the {name} ratio needs every class nonempty, got {counts}")
    return RatioReport(counts, ratio, tuple(problem.reports(ratio, d, delta)))
