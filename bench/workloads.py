"""Seeded workloads: the commands each one runs and what each must print.

`build(workload, seed, workdir)` writes every input file into `workdir` and
returns the job list of one pass. The same seed gives the same files and the
same jobs. Expected values come from `reference`, never from shadowlab.

Every pass of a workload has the same jobs, of the same sizes, for every
seed. The seed picks members, colors, probe seeds and the order of the
tripartite graph's parts, so the timings of two seeds are comparable.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations

import reference as ref

WORKLOADS = ("sets", "algebra", "search")
# Every job kind of every workload; each has a `kind.<kind>.p50_s` metric.
KINDS = ("kk_complete", "kk_random", "kappa_k4", "kappa_tripartite", "kappa_random", "count",
         "partial_shadow", "key", "construct", "refused", "qkk_q2", "qkk_oddq", "gkk_qlinear",
         "gkk_repeats", "verify", "scan_small", "scan_rainbow", "scan_mixed4", "probe")

# Seconds one pass takes on the reference machine (2-core x86 VM, CPython
# 3.11). A run repeats the pass round(seconds / NOMINAL_PASS_S) times, so the
# sample count, and with it the tail percentile, is the same on every commit.
NOMINAL_PASS_S = {"sets": 13.0, "algebra": 14.0, "search": 12.5}

# (m, d) complete families for `kk`. (29, 5) and (22, 6) are tight families
# that the float bound check reports as violated; they stay in the mix so a
# fix shows as fewer failed jobs.
COMPLETE_FAMILIES = ((40, 3), (20, 4), (29, 5), (22, 6))


@dataclass
class Job:
    """One command of a pass and the outcome the oracle accepts."""

    name: str
    kind: str
    argv: list[str]
    exit: int = 0
    quantities: dict = field(default_factory=dict)
    witness: tuple | None = None  # (problem, file, d, delta): recount --out
    space: int = 0  # closed-form size of the space an exhaustive scan certifies
    trials: int = 0  # random-probe trials


def canon(value):
    """The canonical text shadowlab's `--json` uses for an exact value."""
    if isinstance(value, bool) or isinstance(value, (str, float)):
        return value
    if isinstance(value, int):
        return str(value)
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, (list, tuple)):
        return [canon(v) for v in value]
    raise TypeError(type(value).__name__)


def _write_json(workdir: str, name: str, obj) -> str:
    with open(os.path.join(workdir, name), "w", encoding="utf-8") as fh:
        json.dump(obj, fh)
    return name


def _write_graph(workdir: str, name: str, n: int, edges) -> str:
    if name.endswith(".json"):
        obj = {"vertices": n, "edges": [{"v": list(v), "color": c} for v, c in edges]}
        return _write_json(workdir, name, obj)
    lines = [f"vertices {n}"] + [c + " " + " ".join(map(str, v)) for v, c in edges]
    with open(os.path.join(workdir, name), "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return name


def _sample(rng: random.Random, items, share: float) -> list:
    items = list(items)
    return sorted(rng.sample(items, round(len(items) * share)))


def _kk(workdir, name, kind, n, d, sets) -> Job:
    path = _write_json(workdir, f"{name}.json", {"n": n, "d": d, "sets": [list(s) for s in sets]})
    return Job(name, kind, ["kk", "--family", path, "--json"],
               quantities={"family_size": canon(len(sets)), "d": canon(d),
                           "shadow_size": canon(ref.set_shadow_size(sets))})


def _kappa(workdir, name, kind, n, edges) -> Job:
    path = _write_graph(workdir, f"{name}.json", n, edges)
    counts = ref.color_counts(edges)
    sizes = [counts[c] for c in sorted(counts)]
    t = ref.rainbow_count(n, edges, ["red", "green", "blue"], 3)
    return Job(name, kind, ["kappa", "--input", path, "--d", "3", "--json"],
               quantities={"T": canon(t), "C": canon(sizes),
                           "ratio": canon(Fraction(t * t, math.prod(sizes)))})


def _key(workdir, name, n, d, sets) -> Job:
    path = _write_json(workdir, f"{name}.json", {"n": n, "d": d, "sets": [list(s) for s in sets]})
    return Job(name, "key", ["entropy", "--key", "--family", path, "--json"],
               quantities={"sizes": ref.key_sizes(sets), "ok": True})


def _random_colored(rng, n, size, p, colors=("red", "green", "blue")):
    return [(v, rng.choice(colors)) for v in combinations(range(n), size) if rng.random() < p]


def _k4_blowup(n):
    color = {(0, 1): "red", (2, 3): "red", (0, 3): "blue", (1, 2): "blue", (0, 2): "green", (1, 3): "green"}
    return [((a, b), c) for (ga, gb), c in color.items()
            for a in range(ga * n, ga * n + n) for b in range(gb * n, gb * n + n)]


def sets_jobs(rng: random.Random, workdir: str) -> list[Job]:
    jobs = []
    for m, d in COMPLETE_FAMILIES:
        jobs.append(_kk(workdir, f"kk_C{m}_{d}", "kk_complete", m, d, list(combinations(range(m), d))))
    jobs.append(_kk(workdir, "kk_rand18_4", "kk_random", 18, 4, _sample(rng, combinations(range(18), 4), 0.6)))
    jobs.append(_kk(workdir, "kk_rand26_3", "kk_random", 26, 3, _sample(rng, combinations(range(26), 3), 0.5)))

    n = 14
    jobs.append(_kappa(workdir, f"kappa_k4_blowup{n}", "kappa_k4", 4 * n, _k4_blowup(n)))
    a, b, c = rng.sample((14, 16, 18), 3)
    tri = ([((x, y), "red") for x in range(a) for y in range(a, a + b)]
           + [((y, z), "green") for y in range(a, a + b) for z in range(a + b, a + b + c)]
           + [((x, z), "blue") for x in range(a) for z in range(a + b, a + b + c)])
    jobs.append(_kappa(workdir, f"kappa_tripartite{a}_{b}_{c}", "kappa_tripartite", a + b + c, tri))
    jobs.append(_kappa(workdir, "kappa_random64", "kappa_random", 64, _random_colored(rng, 64, 2, 0.3)))

    edges = _random_colored(rng, 16, 3, 0.5)
    path = _write_graph(workdir, "covering.txt", 16, edges)
    counts = ref.color_counts(edges)
    j = ref.covering_count(16, edges, 1)
    jobs.append(Job("count_covering", "count", ["count", "covering", "--input", path, "--delta", "1", "--json"],
                    quantities={"J": canon(j), "R": canon(counts["red"]), "G": canon(counts["green"]),
                                "B": canon(counts["blue"]),
                                "ratio": canon(Fraction(j * j, counts["red"] * counts["green"] * counts["blue"]))}))
    edges = _random_colored(rng, 11, 4, 0.5, ("plain",))
    path = _write_graph(workdir, "good6.txt", 11, edges)
    j = ref.good6_count(11, edges)
    jobs.append(Job("count_good6", "count", ["count", "good6", "--input", path, "--json"],
                    quantities={"J": canon(j), "N": canon(len(edges)),
                                "ratio": canon(Fraction(j * j, len(edges) ** 3))}))
    edges = _random_colored(rng, 14, 2, 0.5, ("plain",)) + _random_colored(rng, 14, 3, 0.5, ("plain",))
    path = _write_graph(workdir, "mixed4.json", 14, edges)
    j = ref.mixed4_count(14, edges)
    n2 = sum(1 for v, _ in edges if len(v) == 2)
    n3 = len(edges) - n2
    jobs.append(Job("count_mixed4", "count", ["count", "mixed4", "--input", path, "--json"],
                    quantities={"J": canon(j), "N2": canon(n2), "N3": canon(n3),
                                "ratio": canon(Fraction(j * j, n2 * n3 * n3))}))
    edges = _random_colored(rng, 30, 2, 0.3, ("plain",))
    path = _write_graph(workdir, "partial.txt", 30, edges)
    jobs.append(Job("partial_shadow", "partial_shadow",
                    ["partial-shadow", "--input", path, "--r", "3", "--k", "1", "--json"],
                    quantities={"m": canon(ref.partial_shadow_count(30, edges, 3, 1)),
                                "edges": canon(len(edges))}))

    jobs.append(_key(workdir, "key_C12_4", 12, 4, list(combinations(range(12), 4))))
    jobs.append(_key(workdir, "key_rand13_4", 13, 4, _sample(rng, combinations(range(13), 4), 0.7)))
    jobs.append(_key(workdir, "key_C9_5", 9, 5, list(combinations(range(9), 5))))
    jobs.append(_key(workdir, "key_rand10_5", 10, 5, _sample(rng, combinations(range(10), 5), 0.7)))

    n = 10
    jobs.append(Job(f"construct_k4_blowup{n}", "construct",
                    ["construct", "k4-blowup", "--n", str(n), "--out", "built.json", "--json"],
                    quantities={"name": "k4_blowup", "vertices": canon(4 * n), "edges": canon(6 * n * n),
                                "expected_T": canon(4 * n**3), "expected_R": canon(2 * n * n),
                                "self_check": "passed"}))

    with open(os.path.join(workdir, "malformed.json"), "w", encoding="utf-8") as fh:
        fh.write('{"n": 9, "d": 3, "sets": [[0, 1, 2], [0, 1')
    jobs.append(Job("refused_malformed_json", "refused", ["kk", "--family", "malformed.json", "--json"], exit=3))
    path = _write_json(workdir, "unknown_field.json",
                       {"vertices": 8, "edges": [{"v": [0, 1, 2, 3], "colour": "plain"}]})
    jobs.append(Job("refused_unknown_field", "refused", ["count", "good6", "--input", path, "--json"], exit=3))
    path = _write_graph(workdir, "over_cap.json", 65, _random_colored(rng, 65, 2, 0.05))
    jobs.append(Job("refused_65_vertices", "refused", ["kappa", "--input", path, "--d", "3", "--json"], exit=4))
    jobs.append(Job("refused_k4_blowup17", "refused", ["construct", "k4-blowup", "--n", "17", "--json"], exit=4))
    return jobs


def _qkk(workdir, name, kind, q, n, d, members, shadow) -> Job:
    obj = {"q": q, "n": n, "d": d, "members": [[list(r) for r in m] for m in members]}
    path = _write_json(workdir, f"{name}.json", obj)
    return Job(name, kind, ["qkk", "--family", path, "--json"],
               quantities={"family_size": canon(len(members)), "q": canon(q), "d": canon(d),
                           "shadow_size": canon(shadow)})


def _gkk_qlinear(workdir, name, q, n, members) -> Job:
    obj = {"q": q, "n": n, "d": 2, "members": [[list(r) for r in m] for m in members]}
    path = _write_json(workdir, f"{name}.json", obj)
    points = set().union(*(ref.subspace_points(m, q) for m in members))
    return Job(name, "gkk_qlinear",
               ["forbidding", "gkk", "--system", f"qlinear:{q},{n}", "--d", "2", "--subspaces", path, "--json"],
               quantities={"family_size": canon(len(members) * (q * q - 1) * (q * q - q)),
                           "shadow_size": canon(len(points))})


def _gkk_repeats(workdir, name, universe, d, sets) -> Job:
    path = _write_json(workdir, f"{name}.json", {"n": universe, "d": d, "sets": [list(s) for s in sets]})
    return Job(name, "gkk_repeats",
               ["forbidding", "gkk", "--system", "repeats", "--universe-size", str(universe),
                "--d", str(d), "--family", path, "--json"],
               quantities={"family_size": canon(len(sets) * math.factorial(d)),
                           "shadow_size": canon(ref.set_shadow_size(sets) * math.factorial(d - 1))})


def algebra_jobs(rng: random.Random, workdir: str) -> list[Job]:
    jobs = []
    all_f2_7 = ref.rref_subspaces(2, 7, 3)
    jobs.append(_qkk(workdir, "qkk_q2_n7_d3_all", "qkk_q2", 2, 7, 3, all_f2_7, ref.gaussian_binom(7, 2, 2)))
    third = _sample(rng, all_f2_7, 1 / 3)
    jobs.append(_qkk(workdir, "qkk_q2_n7_d3_third", "qkk_q2", 2, 7, 3, third, ref.subspace_shadow_size(third, 2)))
    jobs.append(_qkk(workdir, "qkk_q2_n6_d3_all", "qkk_q2", 2, 6, 3, ref.rref_subspaces(2, 6, 3),
                     ref.gaussian_binom(6, 2, 2)))
    jobs.append(_qkk(workdir, "qkk_q3_n5_d2_all", "qkk_oddq", 3, 5, 2, ref.rref_subspaces(3, 5, 2),
                     ref.gaussian_binom(5, 1, 3)))
    jobs.append(_qkk(workdir, "qkk_q2_n5_d2_all", "qkk_q2", 2, 5, 2, ref.rref_subspaces(2, 5, 2),
                     ref.gaussian_binom(5, 1, 2)))
    jobs.append(_qkk(workdir, "qkk_q3_n4_d2_all", "qkk_oddq", 3, 4, 2, ref.rref_subspaces(3, 4, 2),
                     ref.gaussian_binom(4, 1, 3)))
    third = _sample(rng, ref.rref_subspaces(7, 4, 2), 1 / 3)
    jobs.append(_qkk(workdir, "qkk_q7_n4_d2_third", "qkk_oddq", 7, 4, 2, third, ref.subspace_shadow_size(third, 7)))
    third = _sample(rng, ref.rref_subspaces(5, 4, 2), 1 / 3)
    jobs.append(_qkk(workdir, "qkk_q5_n4_d2_third", "qkk_oddq", 5, 4, 2, third, ref.subspace_shadow_size(third, 5)))

    jobs.append(_gkk_qlinear(workdir, "gkk_qlinear2_6_all", 2, 6, ref.rref_subspaces(2, 6, 2)))
    jobs.append(_gkk_qlinear(workdir, "gkk_qlinear3_4_half", 3, 4, _sample(rng, ref.rref_subspaces(3, 4, 2), 0.5)))
    # Universe 10, d = 6: the tight repeats family the float check rejects.
    jobs.append(_gkk_repeats(workdir, "gkk_repeats10_6_all", 10, 6, list(combinations(range(10), 6))))
    jobs.append(_gkk_repeats(workdir, "gkk_repeats12_5_rand", 12, 5, _sample(rng, combinations(range(12), 5), 0.2)))

    jobs.append(Job("verify_qlinear2_4_d3", "verify",
                    ["forbidding", "verify", "--system", "qlinear:2,4", "--d", "3", "--json"],
                    quantities={"ok": True, "exhaustive": True, "checked": canon(ref.verify_checked(15, 3))}))
    jobs.append(Job("verify_repeats12_d4", "verify",
                    ["forbidding", "verify", "--system", "repeats", "--universe-size", "12", "--d", "4", "--json"],
                    quantities={"ok": True, "exhaustive": True, "checked": canon(ref.verify_checked(12, 4))}))
    return jobs


# (problem, vertices, d, delta, trials): each probe takes about half a second.
PROBES = (
    ("rainbow_d", 8, 3, 0, 800),
    ("rainbow_d", 10, 3, 0, 400),
    ("rainbow_d", 7, 4, 0, 300),
    ("good6", 9, 3, 0, 50),
    ("good6", 8, 3, 0, 150),
    ("mixed4", 7, 3, 0, 300),
    ("mixed4", 6, 3, 0, 800),
    ("covering_delta", 8, 3, 0, 600),
    ("covering_delta", 10, 3, 0, 200),
    ("covering_delta", 7, 3, 1, 350),
)


def search_jobs(rng: random.Random, workdir: str) -> list[Job]:
    jobs = []
    for n in (4, 5):
        space = 4 ** math.comb(n, 2)
        kind = "scan_small" if n == 4 else "scan_rainbow"
        jobs.append(Job(f"scan_rainbow{n}", kind,
                        ["search", "rainbow-triangle", "--max-vertices", str(n), "--out", f"scan_rainbow{n}.json",
                         "--json"],
                        quantities={"best_ratio": canon(Fraction(2)), "explored": canon(space), "exhaustive": True},
                        witness=("rainbow_triangle", f"scan_rainbow{n}.json", 3, 0), space=space))
        space = (2 ** math.comb(n, 2) - 1) * (2 ** math.comb(n, 3) - 1)
        jobs.append(Job(f"scan_mixed4_{n}", "scan_small" if n == 4 else "scan_mixed4",
                        ["search", "mixed4", "--max-vertices", str(n), "--out", f"scan_mixed4_{n}.json", "--json"],
                        quantities={"explored": canon(space), "exhaustive": True},
                        witness=("mixed4", f"scan_mixed4_{n}.json", 3, 0), space=space))
    for problem, n, d, delta, trials in PROBES:
        seed = rng.randrange(2**31)
        name = f"probe_{problem}_n{n}_d{d}_delta{delta}"
        jobs.append(Job(name, "probe",
                        ["search", "probe", "--problem", problem, "--vertices", str(n), "--d", str(d),
                         "--delta", str(delta), "--trials", str(trials), "--seed", str(seed),
                         "--out", f"{name}.json", "--json"],
                        quantities={"explored": canon(trials), "exhaustive": False},
                        witness=(problem, f"{name}.json", d, delta), trials=trials))
    return jobs


_JOB_LISTS = {"sets": sets_jobs, "algebra": algebra_jobs, "search": search_jobs}


def build(workload: str, seed: int, workdir: str) -> list[Job]:
    """Write the inputs of `workload` for `seed` into `workdir`; return one pass."""
    rng = random.Random(f"{workload}/{seed}")
    os.makedirs(workdir, exist_ok=True)
    return _JOB_LISTS[workload](rng, workdir)
