"""Colored hypergraphs of possibly mixed uniformity, and set families with their shadows.

Graphs and families are immutable after construction, so every operation
here is safe to call concurrently.  A set family is checked and its shadow
counted on one packed layout, `_pack`'s: each member a row of fixed-width
big-endian columns, bytes below 256 elements and wider words above, so each
check runs on all members at once and each facet (a member less one column)
is one machine word.  `_edges` is the one entry check of every
graph count and `_form` the compact form it counts on; the counts are in
`problems`, with the registry of the ratio problems, and in `checks`, which
the set-family commands (`kk`, `entropy --key`, `forbidding gkk --family`)
never compile.  The `validate` and `kk` commands, the set-family reader and
the `--out` writers are here; `formats` and `numkit` compile only once a file
is read or a shadow bounded.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from collections.abc import Iterable, Sequence
from itertools import chain, combinations, repeat

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


# bytes per word, and the `array` and `memoryview` format of a word of that size
_CODES = {1: "B", 2: "H", 4: "I", 8: "Q"}


def _width(n: int) -> int | None:
    """Bytes per column of a family on [0, n): the fewest of `_CODES` that hold n - 1."""
    return next((w for w in _CODES if n <= 1 << 8 * w), None)


def _lanes(rows: bytes, count: int, row: int, start: int, width: int) -> int:
    """The big-endian number of `count` lanes, each a zero byte then the `width` bytes at `start` of one of the
    rows of `row` bytes, in row order."""
    lanes = bytearray(count * (width + 1))
    for b in range(width):
        lanes[1 + b::width + 1] = rows[start + b::row]
    return int.from_bytes(lanes, "big")


def _exceeds(later: int, earlier: int, count: int, width: int) -> bool:
    """Whether each of the `count` lanes of `later` (as `_lanes` lays them out) exceeds the same lane of `earlier`.
    Each lane of the sum below is 2^(8 width) + later - earlier - 1, between 0 and 2^(8 width + 1), so no lane
    borrows from the next, and the lane's low guard bit is set exactly when later > earlier."""
    guard = int.from_bytes((b"\1" + bytes(width)) * count, "big")
    return (later + guard - earlier - (guard >> 8 * width)) & guard == guard


def _pack(members: Sequence[tuple], k: int | None, n: int) -> bytes | None:
    """The members as rows of k big-endian columns of `_width(n)` bytes each, when every member is k ints (no bool)
    that strictly increase below n; None for any other family.  Each column is compared with the next for all
    members at once, in the lanes of one number each (`_exceeds`); read as one big-endian number, a row orders as
    its member does (`_increasing`)."""
    w = _width(n)
    if k is None or w is None or list(map(len, members)).count(k) != len(members):
        return None
    flat = list(chain.from_iterable(members))  # counted, not collected in a set: about 40% cheaper
    if list(map(type, flat)).count(int) != len(flat) or flat and max(flat[k - 1::k]) >= n:
        return None
    try:  # an element below 0 fails here
        if w == 1:
            rows = bytes(flat)
        else:
            from array import array  # only a family on more than 256 elements compiles it

            words = array(_CODES[w], flat)
            if sys.byteorder == "little":
                words.byteswap()
            rows = words.tobytes()
    except (ValueError, OverflowError):
        return None
    count, row = len(members), k * w
    columns = [_lanes(rows, count, row, j * w, w) for j in range(k)]
    return rows if all(map(_exceeds, columns[1:], columns, repeat(count), repeat(w))) else None


def _increasing(rows: bytes, count: int) -> bool:
    """Whether the `count` rows of `rows`, each read as one big-endian number, strictly increase."""
    if count < 2:
        return True
    row = len(rows) // count
    whole, bits = _lanes(rows, count, row, 0, row), 8 * (row + 1)
    return _exceeds(whole & (1 << bits * (count - 1)) - 1, whole >> bits, count - 1, row)


class SetFamily(Record):
    """A family of d-subsets of [ground_size].

    A family that `make` accepts in bulk keeps its members' rows (`_pack`), from which the Kruskal-Katona check
    counts the shadow; any other family packs them there.  The rows are not a field: equality, hashing, printing
    and pickling read only n, d and sets.
    """

    n: int
    d: int
    sets: tuple[tuple[int, ...], ...]
    _rows = None  # not annotated, so not a field

    @classmethod
    def make(cls, n: int, sets: Iterable[Iterable[int]], d: int | None = None) -> "SetFamily":
        """The members, each sorted, in sorted order.

        A family whose members are already in form is accepted in bulk (`_pack`); any other is checked member
        by member, which names the first bad one in sorted order. A non-int element is named before a
        bad member, as the family reader names it. Members that do not strictly increase are sorted,
        once none repeats.
        """
        members = list(map(tuple, sets))
        k = len(members[0]) if d is None and members else d
        rows = _pack(members, k, n)
        if rows is None:
            for v in chain.from_iterable(members):  # named as the family reader names it
                formats._int(v, "element")
            members = sorted(map(tuple, map(sorted, members)))
            rows = _pack(members, k, n)
            if rows is None:  # name the first bad member in sorted order; int subclasses and n past 2^64 pass
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
        if rows is None or not _increasing(rows, len(members)):
            if len(set(members)) != len(members):
                raise ValidationError("duplicate member sets")
            members.sort()
            rows = None  # those of the members before the sort: the count packs them again
        fam = cls(n=n, d=k, sets=tuple(members))
        _set(fam, "_rows", rows)
        return fam

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


def _shadow_keys(fam: SetFamily) -> set:
    """One key per (d-1)-subset contained in some member: where d-1 columns fit in 8 bytes, the word that the
    member's row leaves without one column, read from the rows through one `memoryview`; else the subset's tuple."""
    k, w = fam.d, _width(fam.n)
    size = next((s for s in _CODES if (k - 1) * w <= s), None) if k >= 1 and w else None
    rows = None if size is None else fam._rows if fam._rows is not None else _pack(fam.sets, k, fam.n)
    if rows is None:
        return _shadow(fam)
    row, words, keys = k * w, bytearray(len(fam) * size), set()
    view = memoryview(words).cast(_CODES[size])
    for i in range(k):  # the facets without column i; the bytes past (k-1) w stay zero
        for at, x in enumerate(x for x in range(row) if x // w != i):
            words[at::size] = rows[x::row]
        keys.update(view)
    return keys


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
    shadow_size = len(_shadow_keys(fam) if counted is None else counted)
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
