"""Command-line surface: counting, bound checks, generators, and search.

Exit codes: 0 success, 2 usage error, 3 invalid input, 4 capacity exceeded,
5 proven-bound violation (a bug or a genuine counterexample, labeled loudly).
Conjecture exceedances never affect the exit status.

The parser lists every command's name and help line at once, but adds a
command's options only when that command parses, each from the command's own
options function.  So a command compiles only the layers it runs: `kk` never
loads `problems`, the graph counts and the ratio-problem registry, and `qkk`
loads neither it nor `hypergraph`.  The input digest is the interpreter's
built-in sha256, which loads without `hashlib`'s OpenSSL binding; a build
without it takes `hashlib`'s, and the digest bytes are the same.

`main` runs with the cyclic garbage collector off, from before it builds the
parser (so also while the layers compile) until it returns, and then restores
the state it found.  A command leaves a few hundred cyclic objects whatever
the size of its input (`tests/test_cli_gc.py` pins that for every command, on
a small and a large input), so a collection frees nothing worth its cost,
while on a large set family the collector's passes cost about 50 ms of `kk`
on C(29, 5) (2-vCPU x86 VM).  The `--out` writers encode with `json.dumps`,
which takes the C encoder, where `json.dump` always takes the pure-Python
one; the bytes are the same.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
from fractions import Fraction

from . import constructions as cons
from . import forbidding as forb
from . import formats
from . import hypergraph as hg
from . import problems as pb
from . import qlinalg as ql
from . import search as srch
from .errors import BoundViolationError, CapacityError, ValidationError
from .reports import VIOLATED, VIOLATION_EXIT, BoundReport, exit_status, verdict

try:
    from _sha2 import sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10-3.11
    except ImportError:  # builds without the built-in hashes, such as FIPS builds
        from hashlib import sha256

ent = sys.modules[f"{__package__}.entropy"]  # the package attribute `entropy` is the function

USAGE_EXIT = 2
VALIDATION_EXIT = 3
CAPACITY_EXIT = 4


def _digest_files(paths: list[str]) -> str:
    sha = sha256()
    for path in paths:
        with open(path, "rb") as fh:
            sha.update(fh.read())
    return "sha256:" + sha.hexdigest()


def _digest_params(params: str) -> str:
    return "sha256:" + sha256(params.encode()).hexdigest()


def _bound_obj(r: BoundReport) -> dict:
    return {**{name: getattr(r, name) for name in r._fields}, "extra": dict(r.extra)}


def _render_value(v) -> str:
    if isinstance(v, Fraction):
        return str(v)
    if isinstance(v, float):
        return format(v, ".12g")
    if isinstance(v, (list, tuple)):
        if v and all(isinstance(x, (list, tuple)) for x in v):  # a set of vectors, in the --set syntax
            return ";".join(",".join(map(_render_value, x)) for x in v)
        return " ".join(map(_render_value, v))
    return str(v)


def _render_text(report: dict) -> str:
    lines = [f"command: {' '.join(report['command'])}", f"input:   {report['input_digest']}"]
    quantities = report["quantities"]
    width = max((len(k) for k in quantities), default=0)
    for key, value in quantities.items():
        lines.append(f"{key.ljust(width)} = {_render_value(value)}")
    for b in report["bounds"]:
        rel = "<=" if b["kind"] == "upper" else ">="
        lines.append(
            f"check: {b['quantity']} = {_render_value(b['computed'])} {rel} "
            f"{_render_value(b['bound'])}  [{b['source']}]  {verdict(b['satisfied'], b['conjecture'])}"
        )
    for note in report["notes"]:
        lines.append(f"note: {note}")
    lines.append(f"status: {report['status']}")
    return "\n".join(lines) + "\n"


def _parse_ints(text: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",") if x != ""]
    except ValueError as exc:
        raise ValidationError(f"expected comma-separated integers, got {text!r}") from exc


def _parse_colors(text: str) -> tuple[str, ...]:
    return tuple(x.strip() for x in text.split(",") if x.strip())


def _parse_vector_set(text: str) -> list[tuple[int, ...]]:
    return [tuple(_parse_ints(part)) for part in text.split(";") if part.strip()]


def cmd_validate(args) -> tuple[dict, list[BoundReport], list[str]]:
    h = formats.load_hypergraph(args.input)
    report = hg.validate(h)
    if not report.ok:
        raise ValidationError("; ".join(report.violations))
    return {"vertices": h.n, "edges": len(h.edges), "valid": True}, [], []


# the count kinds by name, each a ratio problem of the registry
_COUNT_PROBLEMS = {"good6": "good6", "mixed4": "mixed4", "covering": "covering_delta"}


def cmd_count(args) -> tuple[dict, list[BoundReport], list[str]]:
    h = formats.load_hypergraph(args.input)
    problem = pb.PROBLEMS[_COUNT_PROBLEMS[args.kind]]
    q, ratio = problem.exact(h, delta=args.delta)
    bounds: list[BoundReport] = []
    notes: list[str] = []
    if ratio is not None:  # the ratio, its bounds and its note exist only with every class nonempty
        q["ratio"] = ratio
        bounds = problem.reports(ratio, delta=args.delta)
        notes = list(problem.notes)
    if args.kind == "covering":
        q["delta"] = args.delta
    return q, bounds, notes


def cmd_kappa(args) -> tuple[dict, list[BoundReport], list[str]]:
    h = formats.load_hypergraph(args.input)
    colors = _parse_colors(args.colors) if args.colors else h.colors()
    rep = pb.check_ratio("rainbow_d", h, args.d, colors=colors)
    q = {**rep.counts, "ratio": rep.ratio_exact, "ratio_real": rep.ratio}
    return q, list(rep.reports), list(pb.PROBLEMS["rainbow_d"].notes)


def cmd_shadow(args) -> tuple[dict, list[BoundReport], list[str]]:
    fam = formats.set_family_from_obj(formats.load_json(args.family))
    sh = hg.shadow(fam)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(formats.set_family_to_obj(sh)))
    return {"family_size": len(fam), "d": fam.d, "shadow_size": len(sh)}, [], []


def _shadow_check(rep: BoundReport, **first) -> tuple[dict, list[BoundReport], list[str]]:
    """The result of a shadow bound check (kk, qkk, gkk): `first`, then t, the shadow size and the bound."""
    return {**first, "t": rep.extra["t"], "shadow_size": rep.computed, "bound": rep.bound}, [rep], []


def cmd_kk(args) -> tuple[dict, list[BoundReport], list[str]]:
    fam = formats.set_family_from_obj(formats.load_json(args.family))
    return _shadow_check(hg.check_kruskal_katona(fam), family_size=len(fam), d=fam.d)


def cmd_qkk(args) -> tuple[dict, list[BoundReport], list[str]]:
    fam = formats.subspace_family_from_obj(formats.load_json(args.family))
    return _shadow_check(ql.check_q_kruskal_katona(fam), family_size=len(fam), q=fam.q, d=fam.d)


def cmd_entropy(args) -> tuple[dict, list[BoundReport], list[str]]:
    if args.key:
        if not args.family:
            raise ValidationError("--key needs --family")
        fam = formats.set_family_from_obj(formats.load_json(args.family))
        rep = ent.check_key_inequality(fam)
        return {"sizes": list(rep.sizes), "gaps": list(rep.gaps), "ok": rep.ok}, [rep.report], []
    if not args.dist:
        raise ValidationError("entropy needs --dist (or --key with --family)")
    dist = formats.distribution_from_obj(formats.load_json(args.dist))
    if args.shearer:
        subsets = tuple(tuple(_parse_ints(part)) for part in args.shearer.split(";") if part.strip())
        cover = ent.CoverSpec(dist.arity, subsets, args.k)
        rep = ent.check_shearer(dist, cover)
        return {"k": args.k, "slack": rep.extra["slack"]}, [rep], []
    coords = _parse_ints(args.coords) if args.coords else None
    value = ent.entropy(dist, coords)
    return {"H": value, "coords": coords if coords else "all", "support": len(dist.support)}, [], []


def _parse_set(sys_name: str, text: str):
    if sys_name.startswith("qlinear"):
        return _parse_vector_set(text)
    return _parse_ints(text)


def _verify(args, system: forb.ForbiddingSystem) -> tuple[dict, list[BoundReport], list[str]]:
    rep = forb.verify_forbidding_axioms(system, seed=args.seed)
    if not rep.ok:
        raise BoundViolationError(f"forbidding axioms failed: {rep.violation}")
    q = {"system": system.name, "ok": rep.ok, "exhaustive": rep.exhaustive, "checked": rep.checked,
         "c_vector": list(system.c_vector.entries)}
    note = [] if rep.exhaustive else ["not exhaustively verified (spot-check mode)"]
    return q, [], note


def _compatible(args, system: forb.ForbiddingSystem) -> tuple[dict, list[BoundReport], list[str]]:
    if args.set is None:
        raise ValidationError("compatible needs --set")
    result = forb.is_compatible(system, _parse_set(args.system, args.set))
    q = {"system": system.name, "compatible": result.ok}
    if result.witness:
        q["witness_multiset"] = list(result.witness[0])
        q["witness_extension"] = result.witness[1]
    return q, [], []


def _sd(args, system: forb.ForbiddingSystem) -> tuple[dict, list[BoundReport], list[str]]:
    if args.set is None:
        raise ValidationError("sd needs --set")
    [(_, size)] = forb.sd_orbits(system, [_parse_set(args.system, args.set)])
    return {"system": system.name, "tuples": size, "d": system.d}, [], []


def _gkk(args, system: forb.ForbiddingSystem) -> tuple[dict, list[BoundReport], list[str]]:
    if args.family:
        sets = formats.set_family_from_obj(formats.load_json(args.family)).sets
    elif args.subspaces:
        sub = formats.subspace_family_from_obj(formats.load_json(args.subspaces))
        zero = tuple([0] * sub.n)
        sets = [sorted(ql.subspace_points(member, sub.q, sub.n) - {zero}) for member in sub.members]
    else:
        raise ValidationError("gkk needs --family or --subspaces")
    rep = forb.check_generalized_kk(system, sets)
    return _shadow_check(rep, system=system.name, family_size=rep.extra["family_size"])


# the forbidding actions by name, each run on the system that --system and --d name
_FORBIDDING_ACTIONS = {"verify": _verify, "compatible": _compatible, "sd": _sd, "gkk": _gkk}


def cmd_forbidding(args) -> tuple[dict, list[BoundReport], list[str]]:
    system = forb.system_from_name(args.system, args.d, universe_size=args.universe_size)
    return _FORBIDDING_ACTIONS[args.action](args, system)


def _lift(args) -> cons.Construction:
    if not args.input:
        raise ValidationError("lift needs --input")
    return cons.kappa_lift(formats.load_hypergraph(args.input))


# the graph constructions by name; each entry looks its generator up when called, so a
# generator rebound on the module after import is the one that runs
_CONSTRUCTIONS = {
    "k4-blowup": lambda args: cons.k4_blowup(args.n),
    "rainbow-tripartite": lambda args: cons.rainbow_tripartite(args.a, args.b, args.c),
    "matching": lambda args: cons.matching_construction(args.d),
    "lift": _lift,
    "tetrahedra8": lambda args: cons.tetrahedra8(),
    "flats": lambda args: cons.flats_example(),
    "tripartite-mixed": lambda args: cons.tripartite_mixed(args.n),
}


def cmd_construct(args) -> tuple[dict, list[BoundReport], list[str]]:
    if args.name == "complete-family":  # a set family, not a graph
        fam = cons.complete_family(args.m, args.d)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(json.dumps(formats.set_family_to_obj(fam)))
        return {"name": args.name, "family_size": len(fam), "d": fam.d, "self_check": "passed"}, [], []
    c = _CONSTRUCTIONS[args.name](args)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(formats.hypergraph_to_obj(c.graph)))
    q = {"name": c.name, "vertices": c.graph.n, "edges": len(c.graph.edges), "self_check": "passed"}
    for key, value in c.expected.items():
        q[f"expected_{key}"] = value
    return q, [], []


# the exhaustive scans by mode: the registry problem they maximize, and the scan, looked up when called
_SCANS = {
    "rainbow-triangle": ("rainbow_d", lambda n: srch.search_rainbow_triangle(n)),
    "mixed4": ("mixed4", lambda n: srch.search_mixed_4subsets(n)),
}


def cmd_search(args) -> tuple[dict, list[BoundReport], list[str]]:
    if args.mode == "probe":
        params = {"vertices": args.vertices, "d": args.d, "delta": args.delta}
        res = srch.random_probe(args.problem, params, args.trials, seed=args.seed)
        name, d, delta = args.problem, args.d, args.delta
    else:
        name, scan = _SCANS[args.mode]
        res = scan(args.max_vertices)
        d, delta = 3, 0
    problem = pb.PROBLEMS[name]
    bounds = problem.reports(res.best, d, delta) if res.best is not None else []
    if args.out and res.witness is not None:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(formats.hypergraph_to_obj(res.witness)))
    q = {
        "problem": res.problem,
        "best_ratio": "none" if res.best is None else res.best,
        "best_ratio_real": "nan" if res.best is None else float(res.best),
        "explored": res.explored,
        "exhaustive": res.exhaustive,
    }
    return q, bounds, list(problem.notes)


def cmd_weighted(args) -> tuple[dict, list[BoundReport], list[str]]:
    h = formats.load_hypergraph(args.input)
    rep = pb.weighted_joint_sum(h, args.d)
    bounds = [rep.report]
    q = {"d": args.d, "total_weight": rep.total_weight, "sum": rep.value, "bound": rep.report.bound}
    if args.spectral:
        if args.d != 3:
            raise ValidationError("--spectral applies only to d = 3")
        spec = pb.spectral_trace_check(h, rep)
        q["trace_m2"] = spec.trace2
        q["trace_m3"] = spec.trace3
        bounds.extend(spec.checks)
    return q, bounds, []


def cmd_partial_shadow(args) -> tuple[dict, list[BoundReport], list[str]]:
    h = formats.load_hypergraph(args.input)
    rep = pb.check_partial_shadow_bound(h, args.r, args.k)
    q = {
        "m": rep.extra["m"],
        "x": rep.extra["x"],
        "edges": rep.computed,
        "bound": rep.bound,
        "r": args.r,
        "k": args.k,
    }
    return q, [rep], []


class _Command(argparse.ArgumentParser):
    """One command's parser: `options(parser)` adds its arguments on its first parse, then `--json`
    and the handler follow."""

    def __init__(self, *, handler, options, **kwargs) -> None:
        super().__init__(**kwargs)
        self._pending = handler, options

    def parse_known_args(self, args=None, namespace=None):
        if self._pending:
            (handler, options), self._pending = self._pending, None
            options(self)
            self.add_argument("--json", action="store_true", help="emit a canonical JSON report")
            self.set_defaults(handler=handler)
        return super().parse_known_args(args, namespace)


def _validate_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--input", required=True)


def _count_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("kind", choices=list(_COUNT_PROBLEMS))
    p.add_argument("--input", required=True)
    p.add_argument("--delta", type=int, default=0)


def _kappa_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--input", required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--colors")


def _shadow_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--family", required=True)
    p.add_argument("--out")


def _family_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--family", required=True)


def _entropy_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--dist")
    p.add_argument("--coords")
    p.add_argument("--shearer", help="cover subsets, e.g. '0,1;1,2;0,2'")
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--key", action="store_true", help="key inequality for a set family")
    p.add_argument("--family")


def _forbidding_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("action", choices=list(_FORBIDDING_ACTIONS))
    p.add_argument("--system", required=True, help="'repeats' or 'qlinear:q,n'")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--universe-size", type=int)
    p.add_argument("--set", help="elements: ints '0,1,2' or vectors '1,0;0,1'")
    p.add_argument("--family")
    p.add_argument("--subspaces")
    p.add_argument("--seed", type=int, default=0, help="seed of verify's spot-check")


def _construct_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("name", choices=[*_CONSTRUCTIONS, "complete-family"])
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--a", type=int, default=1)
    p.add_argument("--b", type=int, default=1)
    p.add_argument("--c", type=int, default=1)
    p.add_argument("--d", type=int, default=3)
    p.add_argument("--m", type=int, default=3)
    p.add_argument("--input")
    p.add_argument("--out")


def _search_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("mode", choices=[*_SCANS, "probe"])
    p.add_argument("--max-vertices", type=int, default=4)
    p.add_argument("--problem", default="rainbow_d", choices=list(pb.PROBLEMS))
    p.add_argument("--vertices", type=int, default=8)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--d", type=int, default=3)
    p.add_argument("--delta", type=int, default=0)
    p.add_argument("--out")
    p.add_argument("--seed", type=int, default=0, help="seed of the random probe")


def _weighted_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--input", required=True)
    p.add_argument("--d", type=int, default=3)
    p.add_argument("--spectral", action="store_true")


def _partial_shadow_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--input", required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--k", type=int, required=True)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shadowlab",
        description="Exact counting and bound verification for shadow/clique extremal problems",
    )
    sub = parser.add_subparsers(dest="cmd", required=True, parser_class=_Command)
    sub.add_parser("validate", help="check hypergraph invariants", handler=cmd_validate, options=_validate_options)
    # no abbreviated options: `--d`, which the other commands take, would read as `--delta`
    sub.add_parser("count", help="exact counts and ratio: good6/mixed4/covering", allow_abbrev=False,
                   handler=cmd_count, options=_count_options)
    sub.add_parser("kappa", help="clique ratio T^{d-1}/(C_1...C_d) with bounds", handler=cmd_kappa,
                   options=_kappa_options)
    sub.add_parser("shadow", help="set-family shadow", handler=cmd_shadow, options=_shadow_options)
    sub.add_parser("kk", help="shadow bound check for set families", handler=cmd_kk, options=_family_options)
    sub.add_parser("qkk", help="shadow bound check for subspace families", handler=cmd_qkk, options=_family_options)
    sub.add_parser("entropy", help="entropy of exact distributions; shearer/key checks", handler=cmd_entropy,
                   options=_entropy_options)
    sub.add_parser("forbidding", help="forbidding-system operations", handler=cmd_forbidding,
                   options=_forbidding_options)
    sub.add_parser("construct", help="generate a named configuration", handler=cmd_construct,
                   options=_construct_options)
    sub.add_parser("search", help="exhaustive search or seeded random probe", handler=cmd_search,
                   options=_search_options)
    sub.add_parser("weighted", help="geometric-mean weighted clique sum", handler=cmd_weighted,
                   options=_weighted_options)
    sub.add_parser("partial-shadow", help="partial shadow bound check", handler=cmd_partial_shadow,
                   options=_partial_shadow_options)
    return parser


def _input_paths(args) -> list[str]:
    paths = []
    for attr in ("input", "family", "dist", "subspaces"):
        value = getattr(args, attr, None)
        if value:
            paths.append(value)
    return paths


def run(argv: list[str]) -> tuple[dict, int]:
    """Execute one command; returns (report dict, exit code)."""
    return _execute(build_parser().parse_args(argv), argv)


def _execute(args: argparse.Namespace, argv: list[str]) -> tuple[dict, int]:
    paths = _input_paths(args)
    digest = _digest_files(paths) if paths else _digest_params(" ".join(argv))
    quantities, bounds, notes = args.handler(args)
    status = exit_status(bounds)
    report = {
        "command": list(argv),
        "input_digest": digest,
        "quantities": quantities,
        "bounds": [_bound_obj(b) for b in bounds],
        "notes": notes,
        "status": status,
    }
    return report, status


def main(argv: list[str] | None = None) -> int:
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _main(argv)
    finally:
        if enabled:
            gc.enable()


def _main(argv: list[str] | None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    args = build_parser().parse_args(argv)
    try:
        report, status = _execute(args, argv)
    except (ValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return VALIDATION_EXIT
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return CAPACITY_EXIT
    except BoundViolationError as exc:
        print(f"{VIOLATED}: {exc}", file=sys.stderr)
        return VIOLATION_EXIT
    try:
        if args.json:
            print(formats.dumps_canonical(report))
        else:
            sys.stdout.write(_render_text(report))
        sys.stdout.flush()  # a closed pipe fails here, not at interpreter exit
    except BrokenPipeError:
        # the reader is gone (`shadowlab ... | head`): send what is left to devnull, quietly
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    if status == VIOLATION_EXIT:
        print(f"{VIOLATED}: see the failed checks above", file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main())
