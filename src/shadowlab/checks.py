"""The graph checks that no ratio problem reads: the partial shadow bound,
the geometric-mean weighted clique sum and its spectral trace identities, with
the `partial-shadow` and `weighted` commands.

They read their edges through `hypergraph._edges` and count on the compact
form of `hypergraph._form`, as every graph count does, but read nothing of the
ratio problems: `weighted` and `partial-shadow` never compile `problems`, and
`kappa`, `count`, `construct` and `search` never compile this module.
"""

from __future__ import annotations

import math

from . import formats, numkit
from .errors import ValidationError, check_cap
from .hypergraph import VERTEX_CAP, ColoredHypergraph, _edges, _facets, _form, _members
from .record import Record
from .reports import BoundReport, lower_report, upper_report

TRACE_TOL = 1e-6  # relative float slack of the spectral trace checks, scaled by each identity's magnitude


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
    weights: dict[tuple[int, ...], int]  # each facet's weight, 1 where the edge has none


def weighted_joint_sum(h: ColoredHypergraph, d: int) -> WeightedSumReport:
    """Sum over d-subsets of (geometric mean of facet weights)^{d/(d-1)}.

    The term for a d-subset equals (product of its d facet weights)^{1/(d-1)},
    so each term is an exact integer raised to a fixed real power.
    """
    if d < 2:
        raise ValidationError(f"need d >= 2, got {d}")
    check_cap("weighted edge size d - 1", d - 1, VERTEX_CAP)  # before (d-1)! is formed: no edge is that large
    table = {e.verts: 1 if e.weight is None else e.weight for e in _edges(h, d - 1, what="weighted counting")}
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
    return WeightedSumReport(d=d, total_weight=total, terms=tuple(terms), value=value, report=report, weights=table)


class SpectralReport(Record):
    trace2: float
    trace3: float
    total_weight: int
    checks: tuple[BoundReport, ...]


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


def _weighted_options(p) -> None:
    p.add_argument("--input", required=True)
    p.add_argument("--d", type=int, default=3)
    p.add_argument("--spectral", action="store_true")


def _cmd_weighted(args) -> tuple[dict, list[BoundReport], list[str]]:
    if args.spectral and args.d != 3:
        raise ValidationError("--spectral applies only to d = 3")
    h = formats.load_hypergraph(args.input)
    rep = weighted_joint_sum(h, args.d)
    bounds = [rep.report]
    q = {"d": args.d, "total_weight": rep.total_weight, "sum": rep.value, "bound": rep.report.bound}
    if args.spectral:
        spec = spectral_trace_check(h, rep)
        q.update(trace_m2=spec.trace2, trace_m3=spec.trace3)
        bounds.extend(spec.checks)
    return q, bounds, []


def _partial_shadow_options(p) -> None:
    p.add_argument("--input", required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--k", type=int, required=True)


def _cmd_partial_shadow(args) -> tuple[dict, list[BoundReport], list[str]]:
    h = formats.load_hypergraph(args.input)
    rep = check_partial_shadow_bound(h, args.r, args.k)
    q = {"m": rep.extra["m"], "x": rep.extra["x"], "edges": rep.computed, "bound": rep.bound, "r": args.r, "k": args.k}
    return q, [rep], []
