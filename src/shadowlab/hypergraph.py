"""Colored hypergraphs of possibly mixed uniformity and all counting ops.

Counts are exact big integers; ratios become floats only inside reports.
Graphs are immutable after construction, so every operation here is safe to
call concurrently.  `PROBLEMS` at the bottom is the one registry of the ratio
problems (formula, bounds, note, random instances) that the checks, the
constructions, the search and the command line all read.
"""

from __future__ import annotations

import math
from collections import defaultdict
from fractions import Fraction
from itertools import chain, combinations, repeat
from operator import lt
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


def _canonical(members: list[tuple], k: int | None, n: int) -> bool:
    """True iff every member is k strictly increasing elements of [0, n), decided in bulk."""
    flat = list(chain.from_iterable(members))
    return (k is not None and set(map(len, members)) <= {k} and set(map(type, flat)) <= {int}
            and min(flat, default=0) >= 0 and max(flat, default=-1) < n
            and all(all(map(lt, flat[j::k], flat[j + 1::k])) for j in range(k - 1)))


class SetFamily(Record):
    """A family of d-subsets of [ground_size]."""

    n: int
    d: int
    sets: tuple[tuple[int, ...], ...]

    @classmethod
    def make(cls, n: int, sets: Iterable[Iterable[int]], d: int | None = None) -> "SetFamily":
        members = list(map(tuple, sets))
        k = len(members[0]) if d is None and members else d
        if not _canonical(members, k, n):
            for v in chain.from_iterable(members):  # named as the family readers name it
                if isinstance(v, bool) or not isinstance(v, int):
                    raise ValidationError(f"element must be an integer, got {v!r}")
            members = sorted(map(tuple, map(sorted, members)))
            if not _canonical(members, k, n):  # name the first bad member in sorted order
                if k is None:
                    raise ValidationError("d is required for an empty family")
                d = len(members[0]) if d is None else d
                for s in members:
                    if len(s) != d:
                        raise ValidationError(f"member {s} has cardinality {len(s)}, expected {d}")
                    if len(set(s)) != len(s):
                        raise ValidationError(f"member {s} repeats an element")
                    if s and (s[0] < 0 or s[-1] >= n):
                        raise ValidationError(f"member {s} outside ground set [0, {n})")
        if len(set(members)) != len(members):
            raise ValidationError("duplicate member sets")
        return cls(n=n, d=k, sets=tuple(sorted(members)))

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


def _edges(h: ColoredHypergraph, *sizes: int, what: str = "") -> tuple[Edge, ...]:
    """The edges of h, after the one entry check of the counts: the vertex cap, validity, and
    every edge of one of sizes (any, if none), `what` naming the count in that refusal."""
    check_cap("vertex count", h.n, VERTEX_CAP)
    report = validate(h)
    if not report.ok:
        raise ValidationError("; ".join(report.violations))
    if sizes:
        for e in h.edges:
            if len(e.verts) not in sizes:
                raise ValidationError(f"{what} requires {'- or '.join(map(str, sizes))}-uniform edges, got {e.verts}")
    return h.edges


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


Form = tuple[list[list[tuple[tuple[int, int], ...]]], dict[int, list[int]]]  # built by _form


def _facets(verts: Iterable[int]) -> tuple[tuple[int, int], ...]:
    edge = sum(1 << v for v in verts)
    return tuple((edge ^ 1 << v, 1 << v) for v in verts)


def _form(slots: int, items: Iterable[tuple[int, tuple[tuple[int, int], ...]]]) -> Form:
    """What every counting kernel reads, of (slot, `_facets`) edge items, slots being colors or edge sizes:
    each slot's edges, and per facet a bitmask per slot of the vertices completing it to an edge."""
    edges: list[list] = [[] for _ in range(slots)]
    masks: defaultdict[int, list[int]] = defaultdict(([0] * slots).copy)
    for s, facets in items:
        edges[s].append(facets)
        for f, b in facets:
            masks[f][s] |= b
    return edges, masks


def _members(mask: int) -> tuple[int, ...]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def _listed(sets: Iterable[int]) -> tuple[tuple[int, ...], ...]:
    return tuple(sorted(map(_members, sets)))


def _joined(pairs: Iterable[tuple[int, int]]) -> Iterator[int]:  # each edge plus each of its vertices
    return (e | 1 << v for e, x in pairs for v in _members(x))


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


def rainbow_cliques(h: ColoredHypergraph, d: int, colors: Sequence[str]) -> tuple[tuple[int, ...], ...]:
    """All d-subsets whose d facets are edges carrying the d listed colors once each."""
    return _listed(_joined(_rainbow(_rainbow_form(h, d, tuple(colors)))))


def count_rainbow_cliques(h: ColoredHypergraph, d: int, colors: Sequence[str]) -> int:
    return _count(_rainbow(_rainbow_form(h, d, tuple(colors))))


def _shadow(fam: SetFamily) -> set[tuple[int, ...]]:
    """The (d-1)-subsets contained in some member, unsorted."""
    if fam.d < 1:
        raise ValidationError("shadow needs d >= 1")
    return set(chain.from_iterable(map(combinations, fam.sets, repeat(fam.d - 1))))


def shadow(fam: SetFamily) -> SetFamily:
    """All (d-1)-subsets contained in some member."""
    return SetFamily(n=fam.n, d=fam.d - 1, sets=tuple(sorted(_shadow(fam))))


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
    shadow_size = len(_shadow(fam))
    holds, t, bound = _binom_bound(shadow_size, len(fam), fam.d)
    return lower_report("shadow size", shadow_size, bound, "kruskal-katona (lovasz form)", holds=holds,
                        extra={"t": t, "family_size": len(fam)})


GOOD6_CAP = 5 * 10**6  # link steps; measured 0.13-0.26 µs a step, so at most about 1.3 s


def _good6(form: Form) -> set[int]:
    """The good 6-sets p + q + r of a 4-uniform form, as bitmasks: each is a triangle of pairs joined by
    the splits of the 4-edges, met once, from p + q with r = {x, y} above p's and q's least vertices.
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


def count_good_6subsets(h: ColoredHypergraph) -> int:
    """6-sets admitting three 4-edges inside whose complements partition the set."""
    return len(_good6(_form(1, ((0, _facets(e.verts)) for e in _edges(h, 4, what="good 6-subset counting")))))


def _mixed4(form: Form) -> set[int]:
    """The good 4-sets of a form of 2-edges (slot 0) and 3-edges, as bitmasks: a 2-edge {v3, v4} in the
    link of {v1, v2} gives one.  No cap beyond the vertex cap: C(64, 2) links of C(62, 2) pairs."""
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


def good_4subsets_mixed(h: ColoredHypergraph) -> tuple[tuple[int, ...], ...]:
    """4-sets {v1..v4} with 3-edges {v1,v2,v3}, {v1,v2,v4} and 2-edge {v3,v4}."""
    return _listed(_mixed4(_mixed4_form(h)))


def count_good_4subsets_mixed(h: ColoredHypergraph) -> int:
    return len(_mixed4(_mixed4_form(h)))


RGB = ("red", "green", "blue")  # the colors of rainbow triangles and of covering sets


def _covering(form: Form) -> Iterator[tuple[int, int]]:
    """Each edge of a 3-slot form with the vertices v whose set edge + v meets every slot, met from the
    set minus its largest vertex that leaves an edge: v is dropped where edge - u + v is one, u > v."""
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


def color_covering_subsets(h: ColoredHypergraph, delta: int) -> tuple[tuple[int, ...], ...]:
    """(delta+3)-sets of a (delta+2)-uniform 3-colored graph containing all colors."""
    return _listed(_joined(_covering(_covering_form(h, delta))))


def count_color_covering_subsets(h: ColoredHypergraph, delta: int) -> int:
    return _count(_covering(_covering_form(h, delta)))


def count_partial_shadow_targets(h: ColoredHypergraph, r: int, k: int) -> int:
    """Number of r-subsets containing at least r-k edges of an (r-1)-uniform h."""
    if r < 1 or k < 0 or k > r:
        raise ValidationError(f"need r >= 1 and 0 <= k <= r, got r={r}, k={k}")
    edges = [e.verts for e in _edges(h, r - 1, what="partial shadow counting")]
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


class WeightedSumReport(Record):
    """Sum of geometric-mean weights to the d/(d-1) power, with its cap."""

    d: int
    total_weight: int
    terms: tuple[int, ...]  # nonzero facet-weight products, one per d-subset
    value: float
    report: BoundReport
    weights: dict[tuple[int, ...], int]  # each facet's weight, 1 where the edge has none


def weighted_joint_sum(h: ColoredHypergraph, d: int) -> WeightedSumReport:
    """Sum over d-subsets of (geometric mean of facet weights)^{d/(d-1)}.

    The term for a d-subset equals (product of its d facet weights)^{1/(d-1)},
    so each term is an exact integer raised to a fixed real power.
    """
    if d < 2:
        raise ValidationError(f"need d >= 2, got {d}")
    table = {e.verts: 1 if e.weight is None else e.weight for e in _edges(h, d - 1, what="weighted counting")}
    total = sum(table.values())
    bases = [f for f, w in table.items() if w]
    check_cap("coface visits (nonzero edges x n)", len(bases) * h.n, 10**7)  # measured 0.65-1.6 µs a visit
    # sorted, the terms and the float sum keep the combinations(range(n), d) order
    cliques = sorted((c, math.prod(got)) for c, got in _cofaces(table, bases, h.n) if all(got))
    terms = [p for _, p in cliques]
    try:
        value = float(sum(p ** (1.0 / (d - 1)) for p in terms))
        bound = (math.factorial(d - 1) ** (1.0 / (d - 1)) / d) * float(total) ** (d / (d - 1))
    except OverflowError:  # exact integer weights, with no bound on their size
        raise ValidationError("edge weights too large: a term or the bound N^{d/(d-1)} overflows a float") from None
    report = upper_report(
        "weighted clique sum",
        value,
        bound,
        "geometric-mean weight bound ((d-1)!)^{1/(d-1)}/d * N^{d/(d-1)}",
        extra={"total_weight": total},
    )
    return WeightedSumReport(d=d, total_weight=total, terms=tuple(terms), value=value, report=report, weights=table)


class SpectralReport(Record):
    trace2: float
    trace3: float
    total_weight: int
    checks: tuple[BoundReport, ...]

    @property
    def ok(self) -> bool:
        return all(c.satisfied for c in self.checks)


def spectral_trace_check(h: ColoredHypergraph, weighted: WeightedSumReport | None = None) -> SpectralReport:
    """d=3 trace identities for M = entrywise sqrt of the weight matrix.

    tr(M^2) = 2N, tr(M^3) = 6 * sum of w(triangle)^{3/2}, and
    tr(M^2)^3 >= tr(M^3)^2.  Each identity holds to TRACE_TOL times its
    right side (at least 1), the inequality to TRACE_TOL times tr(M^2)^3.
    `weighted` is h's d = 3 weighted clique sum when the caller has it.
    """
    if weighted is None:
        weighted = weighted_joint_sum(h, 3)
    elif weighted.d != 3:
        raise ValidationError(f"the spectral check takes the d = 3 weighted sum, got d = {weighted.d}")
    table, total, terms = weighted.weights, weighted.total_weight, weighted.terms
    try:
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
        sum_w32 = math.fsum(math.sqrt(p) for p in terms)
        diff2, diff3, power = abs(tr2 - 2 * total), abs(tr3 - 6 * sum_w32), tr2**3 - tr3**2
        tol2, tol3 = TRACE_TOL * max(1.0, 2 * total), TRACE_TOL * max(1.0, 6 * sum_w32)
        power_tol = TRACE_TOL * max(1.0, tr2**3)
    except OverflowError:
        raise ValidationError("edge weights too large: a trace or tr(M^2)^3 overflows a float") from None
    checks = (
        upper_report("|tr(M^2) - 2N|", diff2, tol2, "trace identity 2N", holds=diff2 <= tol2),
        upper_report("|tr(M^3) - 6 sum w^{3/2}|", diff3, tol3, "trace identity 6S", holds=diff3 <= tol3),
        lower_report("tr(M^2)^3 - tr(M^3)^2", power, 0.0, "trace power inequality", holds=power >= -power_tol),
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
    every proven and conjectured upper bound on the ratio.  draws(d, delta)
    gives the sizes and colors of random edges: each subset of [n] of each
    size is an edge with probability 1/2 under one color, else none or one of
    a uniform color, in form slot size index * colors + color index; tally
    is measure's ratio on that form, by the same kernel.  Only rainbow_d
    reads colors; d and delta are ignored where the problem has none.
    """

    name: str
    quantity: str
    measure: Callable[[ColoredHypergraph, int, int, Sequence[str] | None], tuple[dict, int, int]]
    bounds: Callable[[int, int], tuple[Bound, ...]]
    notes: tuple[str, ...]
    draws: Callable[[int, int], tuple[tuple[int, ...], tuple[str, ...]]]
    tally: Callable[[Form, int, int], tuple[int, int]]

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
            lambda d, delta: ((d - 1,), _rainbow_colors(d)),
            lambda form, d, delta: (_count(_rainbow(form)) ** (d - 1), math.prod(map(len, form[0]))),
        ),
        Problem(
            "good6", "good6 ratio", _good6_measure, lambda d, delta: (),
            ("conjectured optimum for J^2/N^3 is 2/7; exceeding it is not a failure",),
            lambda d, delta: ((4,), ("plain",)),
            lambda form, d, delta: (len(_good6(form)) ** 2, len(form[0][0]) ** 3),
        ),
        Problem(
            "mixed4", "mixed ratio", _mixed4_measure,
            lambda d, delta: ((Fraction(9, 2), "shearer 9/2", False), (Fraction(3), "joints 3", False)),
            ("conjectured optimum for J^2/(N2 N3^2) is 3/2, in the known window [3/2, 3]; "
             "exceeding it is not a failure",),
            lambda d, delta: ((2, 3), ("plain",)),
            lambda form, d, delta: (len(_mixed4(form)) ** 2, len(form[0][0]) * len(form[0][1]) ** 2),
        ),
        Problem(
            "covering_delta", "covering ratio", _covering_measure, _covering_bounds, (),
            lambda d, delta: ((delta + 2,), RGB),
            lambda form, d, delta: (_count(_covering(form)) ** 2, math.prod(map(len, form[0]))),
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
