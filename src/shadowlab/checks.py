"""The graph checks that no ratio problem reads: the partial shadow bound and
the geometric-mean weighted clique sum over d-cliques, d one more than the
size of the graph's edges, with the `partial-shadow` and `weighted` commands.

They read their edges through `hypergraph._edges` and count on the compact
form of `hypergraph._form`, as every graph count does, but read nothing of the
ratio problems: `weighted` and `partial-shadow` never compile `problems`, and
`kappa`, `count`, `construct` and `search` never compile this module.
"""

from __future__ import annotations

import math

from . import formats, numkit
from .errors import ValidationError, check_cap
from .hypergraph import ColoredHypergraph, _edges, _facets, _form, _members
from .reports import BoundReport, Record, lower_report, upper_report


def count_partial_shadow_targets(h: ColoredHypergraph, r: int, k: int) -> int:
    """Number of r-subsets containing at least r-k edges of an (r-1)-uniform h.  Each is met once, from the
    set minus its least vertex v that leaves an edge; its other edges are that edge's facets whose masks hold v."""
    if r < 1 or k < 0 or k > r:
        raise ValidationError(f"need r >= 1 and 0 <= k <= r, got r={r}, k={k}")
    items = [(0, _facets(e.verts)) for e in _edges(h, r - 1, what="partial shadow counting")]
    needed = r - k
    if needed <= 0:
        return math.comb(h.n, r)
    (edges,), masks = _form(1, items)
    total = 0
    for facets in edges:
        above = facets[0][0] | facets[0][1]  # the edge, then each v with edge - u + v an edge, u < v
        held = [(1 << h.n) - 1] + [0] * (needed - 1)  # held[j]: the vertices in j or more facet masks
        for f, u in facets:
            m = masks[f][0]
            above |= m & -(u << 1)
            for j in range(needed - 1, 0, -1):
                held[j] |= held[j - 1] & m
        total += (held[-1] & ~above).bit_count()
    return total


def check_partial_shadow_bound(h: ColoredHypergraph, r: int, k: int) -> BoundReport:
    """e(h) >= binom(x, r-k-1) where binom(x, r-k) = m, x real >= r-k.

    The verdict is exact; x and the bound are for display.
    """
    if not (0 <= k < r):
        raise ValidationError(f"bound check needs 0 <= k < r, got r={r}, k={k}")
    m = count_partial_shadow_targets(h, r, k)
    if m < 1:
        raise ValidationError("no r-subsets meet the threshold (m = 0)")
    holds, x, bound = numkit._member_bound(len(h.edges), m, range(1, r - k + 1))
    return lower_report("edge count", len(h.edges), bound, "partial shadow", holds=holds,
                        extra={"m": m, "x": x, "r": r, "k": k})


class WeightedSumReport(Record):
    """Sum of geometric-mean weights to the d/(d-1) power, with its cap."""

    d: int
    total_weight: int
    terms: tuple[int, ...]  # nonzero facet-weight products, one per d-subset
    value: float
    report: BoundReport


def weighted_joint_sum(h: ColoredHypergraph) -> WeightedSumReport:
    """Sum over d-subsets of (geometric mean of facet weights)^{d/(d-1)}, for the (d-1)-uniform edges of h.

    d is one more than the first edge's size, which every edge must have; a graph with no edge is refused,
    after the vertex cap and the validity checks.
    The term for a d-subset equals (product of its d facet weights)^{1/(d-1)},
    so each term is an exact integer raised to a fixed real power.
    """
    edges = _edges(h, *(len(e.verts) for e in h.edges[:1]), what="weighted counting")
    if not edges:
        raise ValidationError("weighted counting needs at least one edge")
    d = len(edges[0].verts) + 1  # from 2 to the vertex cap + 1: no edge is empty or repeats a vertex
    table = {e.verts: 1 if e.weight is None else e.weight for e in edges}
    total = sum(table.values())
    bases = sorted(f for f, w in table.items() if w)
    check_cap("coface visits (nonzero edges x n)", len(bases) * h.n, 10**7)  # measured 0.11-0.55 µs a visit
    (edges,), masks = _form(1, ((0, _facets(f)) for f in bases))
    weight = {facets[0][0] | facets[0][1]: table[f] for f, facets in zip(bases, edges)}
    # each clique is met once, from its first d - 1 vertices, its top vertex x above theirs and in every facet
    # mask; with the edges sorted and x rising, the terms and the float sum keep combinations(range(n), d) order
    terms = []
    for facets in edges:
        xs = -(facets[-1][1] << 1)
        for f, _ in facets:
            xs &= masks[f][0]
        w = weight[facets[0][0] | facets[0][1]]
        terms.extend(w * math.prod(weight[f | 1 << x] for f, _ in facets) for x in _members(xs))
    try:
        value = float(sum(p ** (1.0 / (d - 1)) for p in terms))
        bound = (math.factorial(d - 1) ** (1.0 / (d - 1)) / d) * float(total) ** (d / (d - 1))
    except OverflowError:  # exact integer weights, with no bound on their size
        raise ValidationError("edge weights too large: a term or the bound N^{d/(d-1)} overflows a float") from None
    report = upper_report("weighted clique sum", value, bound,
                          "geometric-mean weight bound ((d-1)!)^{1/(d-1)}/d * N^{d/(d-1)}",
                          extra={"total_weight": total})
    return WeightedSumReport(d=d, total_weight=total, terms=tuple(terms), value=value, report=report)


def _weighted_options(p) -> None:
    p.add_argument("--input", required=True)


def _cmd_weighted(args) -> tuple[dict, list[BoundReport], list[str]]:
    rep = weighted_joint_sum(formats.load_hypergraph(args.input))
    q = {"d": rep.d, "total_weight": rep.total_weight, "sum": rep.value, "bound": rep.report.bound}
    return q, [rep.report], []


def _partial_shadow_options(p) -> None:
    p.add_argument("--input", required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--k", type=int, required=True)


def _cmd_partial_shadow(args) -> tuple[dict, list[BoundReport], list[str]]:
    h = formats.load_hypergraph(args.input)
    rep = check_partial_shadow_bound(h, args.r, args.k)
    q = {"m": rep.extra["m"], "x": rep.extra["x"], "edges": rep.computed, "bound": rep.bound, "r": args.r, "k": args.k}
    return q, [rep], []
