"""Colored hypergraphs of possibly mixed uniformity, and set families with their shadows.

Graphs and families are immutable after construction, so every operation
here is safe to call concurrently.  `_edges` is the one entry check of every
graph count and `_form` the compact form it counts on; the counts are in
`problems`, with the registry of the ratio problems, and in `checks`, which
the set-family commands (`kk`, `entropy --key`, `forbidding gkk --family`)
never compile.  The `validate` and `kk` commands, the set-family reader and
the `--out` writers are here; `formats` and `numkit` compile only once a file
is read or a shadow bounded.
"""

from __future__ import annotations

import json
from collections import defaultdict
from collections.abc import Iterable
from itertools import chain, combinations, repeat
from operator import lt

from . import formats, numkit
from .errors import ValidationError, check_cap
from .reports import BoundReport, Record, ValidationReport, _shadow_check, lower_report

VERTEX_CAP = 64
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


def _canonical(members: list[tuple], k: int | None, n: int) -> bool:
    """True iff every member is k strictly increasing elements of [0, n), decided in bulk: once each
    member increases, its least element is its first and its largest its last."""
    flat = list(chain.from_iterable(members))
    return (k is not None and set(map(len, members)) <= {k} and set(map(type, flat)) <= {int}
            and all(all(map(lt, flat[j::k], flat[j + 1::k])) for j in range(k - 1))
            and (not flat or min(flat[::k]) >= 0 and max(flat[k - 1::k]) < n))  # no flat[::0]: d = 0 is empty


class SetFamily(Record):
    """A family of d-subsets of [ground_size]."""

    n: int
    d: int
    sets: tuple[tuple[int, ...], ...]

    @classmethod
    def make(cls, n: int, sets: Iterable[Iterable[int]], d: int | None = None) -> "SetFamily":
        """The members, each sorted, in sorted order.

        A family whose members are already in form is accepted in bulk; any other is checked member
        by member, which names the first bad one in sorted order. A non-int element is named before a
        bad member, as the family reader names it. Members that do not strictly increase are sorted,
        once none repeats.
        """
        members = list(map(tuple, sets))
        k = len(members[0]) if d is None and members else d
        if not _canonical(members, k, n):
            for v in chain.from_iterable(members):  # named as the family reader names it
                formats._int(v, "element")
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
        if not all(map(lt, members, members[1:])):
            if len(set(members)) != len(members):
                raise ValidationError("duplicate member sets")
            members.sort()
        return cls(n=n, d=k, sets=tuple(members))

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


def _shadow(fam: SetFamily) -> set[tuple[int, ...]]:
    """The (d-1)-subsets contained in some member, unsorted."""
    if fam.d < 1:
        raise ValidationError("shadow needs d >= 1")
    return set(chain.from_iterable(map(combinations, fam.sets, repeat(fam.d - 1))))


def shadow(fam: SetFamily) -> SetFamily:
    """All (d-1)-subsets contained in some member."""
    return SetFamily(n=fam.n, d=fam.d - 1, sets=tuple(sorted(_shadow(fam))))


def check_kruskal_katona(fam: SetFamily, counted: SetFamily | None = None) -> BoundReport:
    """|shadow| >= binom(t, d-1) where binom(t, d) = |family|, t real >= d.

    The verdict is exact; t and the bound are for display.  `counted` is
    `shadow(fam)` when the caller has it, so the shadow is counted once.
    """
    if len(fam) < 1:
        raise ValidationError("family must be nonempty")
    shadow_size = len(_shadow(fam) if counted is None else counted)
    holds, t, bound = numkit._member_bound(shadow_size, len(fam), range(1, fam.d + 1))
    return lower_report("shadow size", shadow_size, bound, "kruskal-katona (lovasz form)", holds=holds,
                        extra={"t": t, "family_size": len(fam)})


def hypergraph_to_obj(h: ColoredHypergraph) -> dict:
    edges = []
    for e in h.edges:
        item: dict[str, object] = {"v": list(e.verts), "color": e.color}
        if e.weight is not None:
            item["weight"] = e.weight
        edges.append(item)
    return {"vertices": h.n, "edges": edges}


def set_family_from_obj(obj: object) -> SetFamily:
    """The family of {"n": int, "d": int, "sets": [[ints]]}, unknown fields refused. A refusal names the first
    bad entry in file order, a non-int element before a bad d; only a file that fails the bulk checks here
    (members are lists) and in `make` (types) is read again entry by entry."""
    if not isinstance(obj, dict):
        raise ValidationError("set family JSON must be an object")
    formats._require_keys(obj, {"n", "d", "sets"}, set(), "set family")
    n = formats._int(obj["n"], "n")
    sets = formats._list(obj["sets"], "sets")
    if not (formats._lists(sets) and type(obj["d"]) is int):  # name the first bad entry, before a bad d
        for s in sets:
            for v in formats._list(s, "set"):
                formats._int(v, "element")
    return SetFamily.make(n, sets, d=formats._int(obj["d"], "d"))


def set_family_to_obj(fam: SetFamily) -> dict:
    """The family's JSON object, its members the family's own tuples: `json.dumps` writes a tuple as
    an array, so the text is that of lists, and no list is built per member."""
    return {"n": fam.n, "d": fam.d, "sets": fam.sets}


def _dump(path: str, obj: dict) -> None:
    """Write an `--out` file.  `json.dumps` takes the C encoder, where `json.dump` always takes the
    pure-Python one; the bytes are the same."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(obj))


def _validate_options(p) -> None:
    p.add_argument("--input", required=True)


def _cmd_validate(args) -> tuple[dict, list[BoundReport], list[str]]:
    h = formats.load_hypergraph(args.input)
    report = validate(h)
    if not report.ok:
        raise ValidationError("; ".join(report.violations))
    return {"vertices": h.n, "edges": len(h.edges), "valid": True}, [], []


def _kk_options(p) -> None:
    p.add_argument("--family", required=True)
    p.add_argument("--out")


def _cmd_kk(args) -> tuple[dict, list[BoundReport], list[str]]:
    fam = set_family_from_obj(formats.load_json(args.family))
    sh = shadow(fam) if args.out else None
    report = check_kruskal_katona(fam, sh)  # an empty family is refused here, before the file is written
    if args.out:
        _dump(args.out, set_family_to_obj(sh))
    return _shadow_check(report, family_size=len(fam), d=fam.d)
