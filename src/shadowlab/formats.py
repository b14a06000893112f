"""The shared JSON entry, the graph readers, and the field checks of every reader.

`load_json` reads any JSON input; `load_hypergraph` reads a graph, from JSON
for a .json path and from the text edge-list otherwise.  Each family reader
is beside its type: `set_family_from_obj` in `hypergraph`,
`subspace_family_from_obj` in `qlinalg`, `distribution_from_obj` in
`entropy`.  Every reader, and the `make` of each family, checks fields with
`_require_keys`, `_int`, `_list` and `_lists` here, so a layer compiles this
module only once it reads a file (or refuses an entry).

Hypergraph JSON (unknown fields are rejected):
  {"vertices": int, "edges": [{"v": [ints], "color": str, "weight": optional int}]}

The text format is one edge per line, `color v1 v2 ...`, with `#` comments
and an optional `vertices N` header; without the header the vertex count is
one past the largest index.  The `--out` writers are in `hypergraph` and the
report's JSON in `cli`, so a command that reads no file never compiles this.
"""

from __future__ import annotations

import json

from . import hypergraph as hg
from .errors import ValidationError


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


def _lists(items) -> bool:
    """True iff every item is a list: `_list` decided in bulk."""
    return set(map(type, items)) <= {list}


def hypergraph_from_obj(obj: object) -> hg.ColoredHypergraph:
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
    return hg.ColoredHypergraph.from_edges(n, edges)


def hypergraph_from_text(text: str) -> hg.ColoredHypergraph:
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
    return hg.ColoredHypergraph.from_edges(n, edges)


def load_json(path: str) -> object:
    with open(path, encoding="utf-8") as fh:
        # ValueError: bad JSON, a byte that is not UTF-8, or an integer past int()'s 4300 digits
        try:
            return json.load(fh)
        except (ValueError, RecursionError) as exc:  # RecursionError: lists or objects nested too deep
            # the digits' message states the limit, then advises raising it, which a file cannot do
            reason = str(exc).partition("; use sys.set_int_max_str_digits()")[0]
            raise ValidationError(f"{path}: invalid JSON ({reason})") from exc


def load_hypergraph(path: str) -> hg.ColoredHypergraph:
    """JSON for .json paths, the text edge-list otherwise."""
    if path.endswith(".json"):
        return hypergraph_from_obj(load_json(path))
    with open(path, encoding="utf-8") as fh:
        return hypergraph_from_text(fh.read())
