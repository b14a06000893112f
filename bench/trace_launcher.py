"""Run one shadowlab command with spans around calls into each module.

Usage: python trace_launcher.py SPANS_FILE JOB_ID -- CLI_ARGS...

It imports shadowlab, wraps the public functions and methods of every layer
module, rebinds each wrapped function at every site that imported it by name
(`from .numkit import invert_binom` leaves a second reference in the
importing module), then calls `shadowlab.cli.main`. A span opens only where a
call crosses from one module into another, so a module's self time is the
time spent in its own code. Spans and counters are kept in memory and written
to SPANS_FILE as JSON when the command ends.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time

LAYERS = ("cli", "formats", "hypergraph", "entropy", "qlinalg", "forbidding",
          "numkit", "reports", "search", "constructions")

# Called too often for a span each; their time stays with the calling span
# (always the same module) and only the call count is kept.
COUNT_ONLY = {"qlinalg.rref", "forbidding.ForbiddingSystem.is_good"}


class Tracer:
    """Span stack, finished spans and counters of one traced command."""

    def __init__(self, job: str):
        self.job = job
        self.spans: list[list] = []  # [id, name, module, start, end, parent]
        self.stack: list[tuple[int, str]] = []  # (span id, module) of open spans
        self.counters: dict[str, int] = {}

    def add(self, key: str, amount: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def wrap(self, module: str, qualname: str, func, hook=None):
        name = f"{module}.{qualname}"
        if name in COUNT_ONLY:
            key = f"{module}.{name.rsplit('.', 1)[1]}_calls"
            counters = self.counters
            counters[key] = 0

            @functools.wraps(func)
            def counted(*args, **kwargs):
                counters[key] += 1
                return func(*args, **kwargs)

            return counted

        @functools.wraps(func)
        def traced(*args, **kwargs):
            if self.stack and self.stack[-1][1] == module:
                result = func(*args, **kwargs)
                if hook:
                    hook(self, args, result, False)
                return result
            span_id = len(self.spans)
            parent = self.stack[-1][0] if self.stack else None
            record = [span_id, name, module, 0.0, 0.0, parent]
            self.spans.append(record)
            self.stack.append((span_id, module))
            self.add(f"{module}.calls")
            record[3] = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                record[4] = time.perf_counter()
                self.stack.pop()
            if hook:
                hook(self, args, result, True)
            return result

        return traced

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"job": self.job, "spans": self.spans, "counters": self.counters}, fh)


def _hooks(mods) -> tuple[dict, dict]:
    """Counter hooks by function, and the default hook of each layer.

    A hook runs after every call; `boundary` is true where the call opened a span.
    """
    graph_cls = mods["hypergraph"].ColoredHypergraph
    sub_cls = mods["qlinalg"].SubspaceFamily

    def edges_in(tr, args, result, boundary):
        if boundary:
            tr.add("hypergraph.edges_in", sum(len(a.edges) for a in args if isinstance(a, graph_cls)))

    def members_in(tr, args, result, boundary):
        if boundary:
            tr.add("qlinalg.members_in", sum(len(a.members) for a in args if isinstance(a, sub_cls)))

    def members_made(tr, args, result, boundary):
        if boundary:
            tr.add("qlinalg.members_in", len(result))

    def marginal(tr, args, result, boundary):
        tr.add("entropy.marginal_calls")
        tr.add("entropy.atoms", len(args[0].support))

    def tuples(tr, args, result, boundary):
        tr.add("forbidding.tuples", len(result))

    def explored(tr, args, result, boundary):
        tr.add("search.explored", result.explored)
        if result.exhaustive:
            tr.add("search.explored_exhaustive", result.explored)

    def bytes_in(tr, args, result, boundary):
        tr.add("formats.bytes_in", os.path.getsize(args[0]))

    hooks = {"qlinalg.SubspaceFamily.make": members_made,
             "entropy.ExactDistribution.marginal": marginal,
             "forbidding.enumerate_sd": tuples,
             "search.search_rainbow_triangle": explored,
             "search.search_mixed_4subsets": explored,
             "search.random_probe": explored,
             "formats.load_json": bytes_in,
             "formats.load_hypergraph": bytes_in}
    return hooks, {"hypergraph": edges_in, "qlinalg": members_in}


def install(tracer: Tracer):
    """Wrap every public function and method of the layers; return the wrapped cli.main."""
    import shadowlab.cli  # noqa: F401  (the package imports every layer module)

    mods = {m: sys.modules[f"shadowlab.{m}"] for m in LAYERS}
    hooks, defaults = _hooks(mods)
    replaced = {}
    for layer, mod in mods.items():
        default_hook = defaults.get(layer)
        for name, obj in list(vars(mod).items()):
            if name.startswith("_"):
                continue
            if isinstance(obj, type) and obj.__module__ == mod.__name__:
                for attr, member in list(vars(obj).items()):
                    if attr.startswith("_"):
                        continue
                    qual = f"{name}.{attr}"
                    hook = hooks.get(f"{layer}.{qual}", default_hook)
                    if isinstance(member, classmethod):
                        setattr(obj, attr, classmethod(tracer.wrap(layer, qual, member.__func__, hook)))
                    elif isinstance(member, staticmethod):
                        setattr(obj, attr, staticmethod(tracer.wrap(layer, qual, member.__func__, hook)))
                    elif callable(member) and not isinstance(member, type):
                        setattr(obj, attr, tracer.wrap(layer, qual, member, hook))
            elif callable(obj) and getattr(obj, "__module__", None) == mod.__name__ and not isinstance(obj, type):
                hook = hooks.get(f"{layer}.{name}", default_hook)
                replaced[id(obj)] = tracer.wrap(layer, name, obj, hook)
    binding_sites = [sys.modules["shadowlab"]] + list(mods.values())
    for site in binding_sites:
        for name, obj in list(vars(site).items()):
            if id(obj) in replaced:
                setattr(site, name, replaced[id(obj)])
    return mods["cli"].main


def main(argv: list[str]) -> int:
    spans_path, job = argv[0], argv[1]
    if argv[2] != "--":
        raise SystemExit("usage: trace_launcher.py SPANS_FILE JOB_ID -- CLI_ARGS...")
    tracer = Tracer(job)
    cli_main = install(tracer)
    try:
        return cli_main(argv[3:])
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
