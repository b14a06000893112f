"""File formats: JSON schemas for graphs/families and the text edge-list.

JSON schemas (unknown fields are rejected):
  hypergraph      {"vertices": int, "edges": [{"v": [ints], "color": str,
                   "weight": optional int}]}
  set family      {"n": int, "d": int, "sets": [[ints]]}
  subspace family {"q": int, "n": int, "d": int, "members": [[[ints mod q]]]}
  distribution    {"arity": int, "support": [{"values": [...], "p": "num/den"}]}

The text format is one edge per line, `color v1 v2 ...`, with `#` comments
and an optional `vertices N` header; without the header the vertex count is
one past the largest index.

Exact values are serialized as decimal strings so JSON consumers never
truncate them at 53 bits; reals are fixed at 12 significant digits, which
makes serialization canonical and byte-stable under round-trips.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Any

from .entropy import ExactDistribution
from .errors import ValidationError
from .hypergraph import ColoredHypergraph, SetFamily
from .qlinalg import SubspaceFamily


def _require_keys(obj: dict, required: set[str], optional: set[str], what: str) -> None:
    keys = set(obj)
    missing = required - keys
    unknown = keys - required - optional
    if missing:
        raise ValidationError(f"{what}: missing fields {sorted(missing)}")
    if unknown:
        raise ValidationError(f"{what}: unknown fields {sorted(unknown)}")


def _int(value, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(f"{what} must be an integer, got {value!r}")
    return value


def _list(value, what: str) -> list:
    if not isinstance(value, list):
        raise ValidationError(f"{what} must be a list, got {value!r}")
    return value


def hypergraph_to_obj(h: ColoredHypergraph) -> dict:
    edges = []
    for e in h.edges:
        item: dict[str, Any] = {"v": list(e.verts), "color": e.color}
        if e.weight is not None:
            item["weight"] = e.weight
        edges.append(item)
    return {"vertices": h.n, "edges": edges}


def hypergraph_from_obj(obj: Any) -> ColoredHypergraph:
    if not isinstance(obj, dict):
        raise ValidationError("hypergraph JSON must be an object")
    _require_keys(obj, {"vertices", "edges"}, set(), "hypergraph")
    n = _int(obj["vertices"], "vertices")
    edges = []
    for i, item in enumerate(_list(obj["edges"], "edges")):
        if not isinstance(item, dict):
            raise ValidationError(f"edge {i} must be an object")
        _require_keys(item, {"v", "color"}, {"weight"}, f"edge {i}")
        verts = [_int(v, f"edge {i} vertex") for v in _list(item["v"], f"edge {i} vertices")]
        if not isinstance(item["color"], str):
            raise ValidationError(f"edge {i} color must be a string")
        if "weight" in item:
            edges.append((verts, item["color"], _int(item["weight"], f"edge {i} weight")))
        else:
            edges.append((verts, item["color"]))
    return ColoredHypergraph.from_edges(n, edges)


def hypergraph_to_text(h: ColoredHypergraph) -> str:
    lines = [f"vertices {h.n}"]
    for e in h.edges:
        lines.append(e.color + " " + " ".join(str(v) for v in e.verts))
    return "\n".join(lines) + "\n"


def hypergraph_from_text(text: str) -> ColoredHypergraph:
    edges = []
    declared = None
    max_index = -1
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "vertices":
            try:
                [declared] = [int(p) for p in parts[1:]]
            except ValueError as exc:
                raise ValidationError(f"line {lineno}: expected 'vertices N'") from exc
            continue
        if len(parts) < 2:
            raise ValidationError(f"line {lineno}: expected 'color v1 v2 ...'")
        try:
            verts = [int(p) for p in parts[1:]]
        except ValueError as exc:
            raise ValidationError(f"line {lineno}: bad vertex index") from exc
        if any(v < 0 for v in verts):
            raise ValidationError(f"line {lineno}: vertex indices must be nonnegative")
        max_index = max(max_index, *verts)
        edges.append((verts, parts[0]))
    n = declared if declared is not None else max_index + 1
    return ColoredHypergraph.from_edges(n, edges)


def set_family_to_obj(fam: SetFamily) -> dict:
    return {"n": fam.n, "d": fam.d, "sets": [list(s) for s in fam.sets]}


def set_family_from_obj(obj: Any) -> SetFamily:
    if not isinstance(obj, dict):
        raise ValidationError("set family JSON must be an object")
    _require_keys(obj, {"n", "d", "sets"}, set(), "set family")
    return SetFamily.make(
        _int(obj["n"], "n"),
        [[_int(v, "element") for v in _list(s, "set")] for s in _list(obj["sets"], "sets")],
        d=_int(obj["d"], "d"),
    )


def subspace_family_to_obj(fam: SubspaceFamily) -> dict:
    return {
        "q": fam.q,
        "n": fam.n,
        "d": fam.d,
        "members": [[list(row) for row in m] for m in fam.members],
    }


def subspace_family_from_obj(obj: Any) -> SubspaceFamily:
    if not isinstance(obj, dict):
        raise ValidationError("subspace family JSON must be an object")
    _require_keys(obj, {"q", "n", "d", "members"}, set(), "subspace family")
    return SubspaceFamily.make(
        _int(obj["q"], "q"),
        _int(obj["n"], "n"),
        _int(obj["d"], "d"),
        [
            [[_int(x, "subspace entry") for x in _list(row, "member row")] for row in _list(m, "member")]
            for m in _list(obj["members"], "members")
        ],
    )


def distribution_from_obj(obj: Any) -> ExactDistribution:
    if not isinstance(obj, dict):
        raise ValidationError("distribution JSON must be an object")
    _require_keys(obj, {"arity", "support"}, set(), "distribution")
    pairs = []
    for i, item in enumerate(_list(obj["support"], "support")):
        if not isinstance(item, dict):
            raise ValidationError(f"support item {i} must be an object")
        _require_keys(item, {"values", "p"}, set(), f"support item {i}")
        values = tuple(
            v if isinstance(v, str) else _int(v, f"support item {i} value")
            for v in _list(item["values"], f"support item {i} values")
        )
        try:
            p = Fraction(item["p"])
        except (ValueError, ZeroDivisionError) as exc:
            raise ValidationError(f"support item {i}: bad probability {item['p']!r}") from exc
        pairs.append((values, p))
    return ExactDistribution.from_pairs(_int(obj["arity"], "arity"), pairs)


def distribution_to_obj(dist: ExactDistribution) -> dict:
    return {
        "arity": dist.arity,
        "support": [
            {"values": list(values), "p": f"{p.numerator}/{p.denominator}"}
            for values, p in dist.support
        ],
    }


def canonical(value: Any) -> Any:
    """Map a report tree onto JSON-stable types: numbers become strings."""
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return value
    if isinstance(value, int):
        return str(value)
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, float):
        return format(value, ".12g")
    if isinstance(value, dict):
        return {str(k): canonical(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [canonical(v) for v in value]
    raise TypeError(f"cannot canonicalize {type(value).__name__}")


def dumps_canonical(obj: Any) -> str:
    return json.dumps(canonical(obj), sort_keys=True, separators=(",", ":"))


def load_json(path: str) -> Any:
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"{path}: invalid JSON ({exc})") from exc


def load_hypergraph(path: str) -> ColoredHypergraph:
    """JSON for .json paths, the text edge-list otherwise."""
    if path.endswith(".json"):
        return hypergraph_from_obj(load_json(path))
    with open(path, encoding="utf-8") as fh:
        return hypergraph_from_text(fh.read())
