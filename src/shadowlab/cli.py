"""Command-line surface: counting, bound checks, generators, and search.

Exit codes: 0 success, 2 usage error, 3 invalid input, 4 capacity exceeded,
5 proven-bound violation (a bug or a genuine counterexample, labeled loudly).
Conjecture exceedances never affect the exit status.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from fractions import Fraction

from . import constructions as cons
from . import forbidding as forb
from . import formats
from . import hypergraph as hg
from . import qlinalg as ql
from . import search as srch
from .entropy import CoverSpec, check_key_inequality, check_shearer
from .entropy import entropy as entropy_of
from .errors import BoundViolationError, CapacityError, ValidationError
from .reports import BoundReport, upper_report

USAGE_EXIT = 2
VALIDATION_EXIT = 3
CAPACITY_EXIT = 4
VIOLATION_EXIT = 5


def _digest_files(paths: list[str]) -> str:
    sha = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as fh:
            sha.update(fh.read())
    return "sha256:" + sha.hexdigest()


def _digest_params(params: str) -> str:
    return "sha256:" + hashlib.sha256(params.encode()).hexdigest()


def _bound_obj(r: BoundReport) -> dict:
    return {**{name: getattr(r, name) for name in r._fields}, "extra": dict(r.extra)}


def _render_value(v) -> str:
    if isinstance(v, Fraction):
        return str(v)
    if isinstance(v, float):
        return format(v, ".12g")
    if isinstance(v, (list, tuple)):
        return " ".join(_render_value(x) for x in v)
    return str(v)


def _render_text(report: dict) -> str:
    lines = [f"command: {' '.join(report['command'])}", f"input:   {report['input_digest']}"]
    quantities = report["quantities"]
    width = max((len(k) for k in quantities), default=0)
    for key, value in quantities.items():
        lines.append(f"{key.ljust(width)} = {_render_value(value)}")
    for b in report["bounds"]:
        rel = "<=" if b["kind"] == "upper" else ">="
        if b["satisfied"]:
            verdict = "ok"
        elif b["conjecture"]:
            verdict = "conjecture exceeded (informational)"
        else:
            verdict = "PROVEN BOUND VIOLATED"
        lines.append(
            f"check: {b['quantity']} = {_render_value(b['computed'])} {rel} "
            f"{_render_value(b['bound'])}  [{b['source']}]  {verdict}"
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


def _parse_colors(text: str | None, default=hg.RGB) -> tuple[str, ...]:
    if text is None:
        return tuple(default)
    return tuple(x.strip() for x in text.split(",") if x.strip())


def _parse_vector_set(text: str) -> list[tuple[int, ...]]:
    return [tuple(_parse_ints(part)) for part in text.split(";") if part.strip()]


def cmd_validate(args) -> tuple[dict, list[BoundReport], list[str]]:
    h = formats.load_hypergraph(args.input)
    report = hg.validate(h)
    if not report.ok:
        raise ValidationError("; ".join(report.violations))
    return {"vertices": h.n, "edges": len(h.edges), "valid": True}, [], []


# count kinds that are ratio problems of the registry
_COUNT_PROBLEMS = {"good6": "good6", "mixed4": "mixed4", "covering": "covering_delta"}


def cmd_count(args) -> tuple[dict, list[BoundReport], list[str]]:
    h = formats.load_hypergraph(args.input)
    if args.kind == "rainbow":
        colors = _parse_colors(args.colors)
        t = hg.count_rainbow_cliques(h, args.d, colors)
        return {"T": t, "d": args.d, "colors": list(colors)}, [], []
    if args.kind == "partial":
        m = hg.count_partial_shadow_targets(h, args.r, args.k)
        return {"m": m, "r": args.r, "k": args.k, "edges": len(h.edges)}, [], []
    problem = hg.PROBLEMS[_COUNT_PROBLEMS[args.kind]]
    q, ratio = problem.exact(h, args.d, args.delta)
    bounds: list[BoundReport] = []
    notes: list[str] = []
    if ratio is not None:  # the ratio, its bounds and its note exist only with every class nonempty
        q["ratio"] = ratio
        bounds = problem.reports(ratio, args.d, args.delta)
        notes = list(problem.notes)
    if args.kind == "covering":
        q["delta"] = args.delta
    return q, bounds, notes


def cmd_kappa(args) -> tuple[dict, list[BoundReport], list[str]]:
    h = formats.load_hypergraph(args.input)
    colors = _parse_colors(args.colors) if args.colors else h.colors()
    rep = hg.check_ratio("rainbow_d", h, args.d, colors=colors)
    q = {**rep.counts, "ratio": rep.ratio_exact, "ratio_real": rep.ratio}
    return q, list(rep.reports), list(hg.PROBLEMS["rainbow_d"].notes)


def cmd_shadow(args) -> tuple[dict, list[BoundReport], list[str]]:
    fam = formats.set_family_from_obj(formats.load_json(args.family))
    sh = hg.shadow(fam)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(formats.set_family_to_obj(sh), fh)
    return {"family_size": len(fam), "d": fam.d, "shadow_size": len(sh)}, [], []


def cmd_kk(args) -> tuple[dict, list[BoundReport], list[str]]:
    fam = formats.set_family_from_obj(formats.load_json(args.family))
    rep = hg.check_kruskal_katona(fam)
    q = {
        "family_size": len(fam),
        "d": fam.d,
        "t": rep.extra["t"],
        "shadow_size": rep.computed,
        "bound": rep.bound,
    }
    return q, [rep], []


def cmd_qkk(args) -> tuple[dict, list[BoundReport], list[str]]:
    fam = formats.subspace_family_from_obj(formats.load_json(args.family))
    rep = ql.check_q_kruskal_katona(fam)
    q = {
        "family_size": len(fam),
        "q": fam.q,
        "d": fam.d,
        "t": rep.extra["t"],
        "shadow_size": rep.computed,
        "bound": rep.bound,
    }
    return q, [rep], []


def cmd_entropy(args) -> tuple[dict, list[BoundReport], list[str]]:
    if args.key:
        if not args.family:
            raise ValidationError("--key needs --family")
        fam = formats.set_family_from_obj(formats.load_json(args.family))
        rep = check_key_inequality(fam)
        bound = upper_report(
            "max (s_{k+1} + 1 - s_k)",
            0.0 - min(rep.gaps, default=0.0),  # +0, not -0, when the smallest gap is 0
            0.0,
            "key inequality 2^{H_k} >= 2^{H_{k+1}} + 1",
        )
        return {"sizes": list(rep.sizes), "gaps": list(rep.gaps), "ok": rep.ok}, [bound], []
    if not args.dist:
        raise ValidationError("entropy needs --dist (or --key with --family)")
    dist = formats.distribution_from_obj(formats.load_json(args.dist))
    if args.shearer:
        subsets = tuple(tuple(_parse_ints(part)) for part in args.shearer.split(";") if part.strip())
        cover = CoverSpec(dist.arity, subsets, args.k)
        rep = check_shearer(dist, cover)
        return {"k": args.k, "slack": rep.extra["slack"]}, [rep], []
    coords = _parse_ints(args.coords) if args.coords else None
    value = entropy_of(dist, coords)
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
    q = {
        "system": system.name,
        "family_size": rep.extra["family_size"],
        "t": rep.extra["t"],
        "shadow_size": rep.computed,
        "bound": rep.bound,
    }
    return q, [rep], []


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
                json.dump(formats.set_family_to_obj(fam), fh)
        return {"name": args.name, "family_size": len(fam), "d": fam.d, "self_check": "passed"}, [], []
    c = _CONSTRUCTIONS[args.name](args)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(formats.hypergraph_to_obj(c.graph), fh)
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
    problem = hg.PROBLEMS[name]
    bounds = problem.reports(res.best, d, delta) if res.best is not None else []
    if args.out and res.witness is not None:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(formats.hypergraph_to_obj(res.witness), fh)
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
    rep = hg.weighted_joint_sum(h, args.d)
    bounds = [rep.report]
    q = {"d": args.d, "total_weight": rep.total_weight, "sum": rep.value, "bound": rep.report.bound}
    if args.spectral:
        if args.d != 3:
            raise ValidationError("--spectral applies only to d = 3")
        spec = hg.spectral_trace_check(h)
        q["trace_m2"] = spec.trace2
        q["trace_m3"] = spec.trace3
        bounds.extend(spec.checks)
    return q, bounds, []


def cmd_partial_shadow(args) -> tuple[dict, list[BoundReport], list[str]]:
    h = formats.load_hypergraph(args.input)
    rep = hg.check_partial_shadow_bound(h, args.r, args.k)
    q = {
        "m": rep.extra["m"],
        "x": rep.extra["x"],
        "edges": rep.computed,
        "bound": rep.bound,
        "r": args.r,
        "k": args.k,
    }
    return q, [rep], []


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shadowlab",
        description="Exact counting and bound verification for shadow/clique extremal problems",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    def common(p, handler):
        p.set_defaults(handler=handler)
        p.add_argument("--json", action="store_true", help="emit a canonical JSON report")

    p = sub.add_parser("validate", help="check hypergraph invariants")
    p.add_argument("--input", required=True)
    common(p, cmd_validate)

    p = sub.add_parser("count", help="exact counts: rainbow/good6/mixed4/covering/partial")
    p.add_argument("kind", choices=["rainbow", *_COUNT_PROBLEMS, "partial"])
    p.add_argument("--input", required=True)
    p.add_argument("--d", type=int, default=3)
    p.add_argument("--colors")
    p.add_argument("--delta", type=int, default=0)
    p.add_argument("--r", type=int, default=3)
    p.add_argument("--k", type=int, default=0)
    common(p, cmd_count)

    p = sub.add_parser("kappa", help="clique ratio T^{d-1}/(C_1...C_d) with bounds")
    p.add_argument("--input", required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--colors")
    common(p, cmd_kappa)

    p = sub.add_parser("shadow", help="set-family shadow")
    p.add_argument("--family", required=True)
    p.add_argument("--out")
    common(p, cmd_shadow)

    p = sub.add_parser("kk", help="shadow bound check for set families")
    p.add_argument("--family", required=True)
    common(p, cmd_kk)

    p = sub.add_parser("qkk", help="shadow bound check for subspace families")
    p.add_argument("--family", required=True)
    common(p, cmd_qkk)

    p = sub.add_parser("entropy", help="entropy of exact distributions; shearer/key checks")
    p.add_argument("--dist")
    p.add_argument("--coords")
    p.add_argument("--shearer", help="cover subsets, e.g. '0,1;1,2;0,2'")
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--key", action="store_true", help="key inequality for a set family")
    p.add_argument("--family")
    common(p, cmd_entropy)

    p = sub.add_parser("forbidding", help="forbidding-system operations")
    p.add_argument("action", choices=list(_FORBIDDING_ACTIONS))
    p.add_argument("--system", required=True, help="'repeats' or 'qlinear:q,n'")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--universe-size", type=int)
    p.add_argument("--set", help="elements: ints '0,1,2' or vectors '1,0;0,1'")
    p.add_argument("--family")
    p.add_argument("--subspaces")
    p.add_argument("--seed", type=int, default=0, help="seed of verify's spot-check")
    common(p, cmd_forbidding)

    p = sub.add_parser("construct", help="generate a named configuration")
    p.add_argument("name", choices=[*_CONSTRUCTIONS, "complete-family"])
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--a", type=int, default=1)
    p.add_argument("--b", type=int, default=1)
    p.add_argument("--c", type=int, default=1)
    p.add_argument("--d", type=int, default=3)
    p.add_argument("--m", type=int, default=3)
    p.add_argument("--input")
    p.add_argument("--out")
    common(p, cmd_construct)

    p = sub.add_parser("search", help="exhaustive search or seeded random probe")
    p.add_argument("mode", choices=[*_SCANS, "probe"])
    p.add_argument("--max-vertices", type=int, default=4)
    p.add_argument("--problem", default="rainbow_d", choices=list(hg.PROBLEMS))
    p.add_argument("--vertices", type=int, default=8)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--d", type=int, default=3)
    p.add_argument("--delta", type=int, default=0)
    p.add_argument("--out")
    p.add_argument("--seed", type=int, default=0, help="seed of the random probe")
    common(p, cmd_search)

    p = sub.add_parser("weighted", help="geometric-mean weighted clique sum")
    p.add_argument("--input", required=True)
    p.add_argument("--d", type=int, default=3)
    p.add_argument("--spectral", action="store_true")
    common(p, cmd_weighted)

    p = sub.add_parser("partial-shadow", help="partial shadow bound check")
    p.add_argument("--input", required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    common(p, cmd_partial_shadow)

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
    violated = [b for b in bounds if not b.satisfied and not b.conjecture]
    status = VIOLATION_EXIT if violated else 0
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
        print(f"PROVEN BOUND VIOLATED: {exc}", file=sys.stderr)
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
        print("PROVEN BOUND VIOLATED: see the failed checks above", file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main())
