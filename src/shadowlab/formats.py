"""File readers: JSON schemas for graphs/families and the text edge-list.

JSON schemas (unknown fields are rejected):
  hypergraph      {"vertices": int, "edges": [{"v": [ints], "color": str,
                   "weight": optional int}]}
  set family      {"n": int, "d": int, "sets": [[ints]]}
  subspace family {"q": int, "n": int, "d": int, "members": [[[ints mod q]]]}
  distribution    {"arity": int, "support": [{"values": [...], "p": "num/den"}]}
                  (p may also be an int, a finite float or a decimal string; an
                  exponent past 4300 is refused before 10^exponent is built)

A reader that refuses a file names the first bad entry in file order, and
a non-int entry before a bad d or q. The set and subspace readers check in
bulk only that members (and a subspace member's rows) are lists; `make`
checks the entries' types, once and in bulk. Only a file that fails is read
again entry by entry. Subspace entries outside [0, q) are reduced mod q.

The text format is one edge per line, `color v1 v2 ...`, with `#` comments
and an optional `vertices N` header; without the header the vertex count is
one past the largest index.  The `--out` writers are in `hypergraph` and the
report's JSON in `reports`, so a command that reads no file never compiles this.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from itertools import chain

from . import hypergraph as hg
from . import qlinalg as ql
from .errors import ValidationError

ent = sys.modules[f"{__package__}.entropy"]  # the package attribute `entropy` is the function


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


def _lists(items) -> bool:
    """True iff every item is a list: `_list` decided in bulk."""
    return set(map(type, items)) <= {list}


def set_family_from_obj(obj: object) -> hg.SetFamily:
    if not isinstance(obj, dict):
        raise ValidationError("set family JSON must be an object")
    _require_keys(obj, {"n", "d", "sets"}, set(), "set family")
    n = _int(obj["n"], "n")
    sets = _list(obj["sets"], "sets")
    if not (_lists(sets) and type(obj["d"]) is int):  # name the first bad entry, before a bad d
        for s in sets:
            for v in _list(s, "set"):
                _int(v, "element")
    return hg.SetFamily.make(n, sets, d=_int(obj["d"], "d"))


def subspace_family_from_obj(obj: object) -> ql.SubspaceFamily:
    if not isinstance(obj, dict):
        raise ValidationError("subspace family JSON must be an object")
    _require_keys(obj, {"q", "n", "d", "members"}, set(), "subspace family")
    q, n, d = _int(obj["q"], "q"), _int(obj["n"], "n"), _int(obj["d"], "d")
    members = _list(obj["members"], "members")
    if not (_lists(members) and _lists(chain.from_iterable(members))):
        for m in members:  # name the first bad entry
            for row in _list(m, "member"):
                for x in _list(row, "member row"):
                    _int(x, "subspace entry")
    return ql.SubspaceFamily.make(q, n, d, members)


def distribution_from_obj(obj: object) -> ent.ExactDistribution:
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
        p = item["p"]
        try:  # Fraction builds 10^|exponent|, so none past the 4300 digits an int string may have
            if isinstance(p, bool) or isinstance(p, str) and abs(int(p.lower().partition("e")[2] or 0)) > 4300:
                raise ValueError
            p = Fraction(p)
        except (TypeError, ValueError, OverflowError, ZeroDivisionError) as exc:
            raise ValidationError(f"support item {i}: bad probability {p!r}") from exc
        pairs.append((values, p))
    return ent.ExactDistribution.from_pairs(_int(obj["arity"], "arity"), pairs)


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
