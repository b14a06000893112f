"""Proven bounds as their own oracle: exact Kruskal-Katona on colex initial segments, the sharp
rainbow-triangle bound T^2 <= 2RGB on its tight cases, and the q-analog against the generalized
bound, through the command line; there too, kk on every complete family C([m], d) and qkk on all
d-subspaces of F_q^n, each tight, and one member short of it; the key inequality on C([m], d), Shearer's
inequality on uniform [b]^k and gkk on one whole compatible set, each tight.

By Kruskal (1963) and Katona (1968), the first m d-sets of [n] in colex order
have the least shadow of any m d-sets.  Its size is read from the d-cascade
m = C(a_d, d) + C(a_{d-1}, d-1) + ... + C(a_t, t), a_d > ... > a_t >= t >= 1,
as C(a_d, d-1) + C(a_{d-1}, d-2) + ... + C(a_t, t-1).  The cascade is computed
here, independently of the library, which states only Lovasz's real-t form.

The blowups of the K4 whose opposite edges share a color meet T^2 <= 2RGB
with equality, and complete tripartite blowups of one rainbow triangle sit at
ratio 1.  Each is built by `construct --out`, read back by `kappa`, and
perturbed by one edge removed or recolored: on valid input every proven bound
holds, so `kappa` exits 0 with the ratio at most 2.

A d-subspace V of F_q^n, less its zero vector, is a compatible set of the
system qlinear:q,n whose good ordered d-tuples are the |GL_d(q)| bases of V.
So gkk on the subspaces of a family counts |F| |GL_d(q)| tuples and a shadow
|GL_{d-1}(q)| times qkk's, and its t is y = q^t - 1 for qkk's t.
"""

import importlib
import json
import math
import random
from itertools import combinations, product
from math import comb

import pytest

from conftest import RGB, gl_order, leave_one_out, replaced
from shadowlab import cli, forbidding, hypergraph, qlinalg
from shadowlab.entropy import ExactDistribution
from shadowlab.hypergraph import SetFamily, check_kruskal_katona, shadow
from shadowlab.problems import PROBLEMS
from shadowlab.qlinalg import enumerate_subspaces

SIZES = [(n, d) for n in range(2, 8) for d in range(2, n + 1)]


def cascade_shadow(m: int, d: int) -> int:
    """The least shadow of m d-sets: each greedy cascade term C(a, k) adds C(a, k-1)."""
    size = 0
    for k in range(d, 0, -1):
        if m == 0:
            break
        a = k
        while comb(a + 1, k) <= m:  # the largest a with C(a, k) <= m
            a += 1
        size += comb(a, k - 1)
        m -= comb(a, k)
    return size


def colex(n: int, d: int) -> list[tuple[int, ...]]:
    """The d-subsets of [n] in colex order: by largest element, then the next largest, and so on."""
    return sorted(combinations(range(n), d), key=lambda s: s[::-1])


def test_cascade_of_known_values():
    # 5 = C(3, 2) + C(2, 1) pairs span 3 + 1 vertices; 10 + 1 = C(5, 3) + C(2, 2) triples span 10 + 2 pairs
    assert [cascade_shadow(m, 2) for m in range(1, 7)] == [2, 3, 3, 4, 4, 4]
    assert cascade_shadow(10, 3) == 10 and cascade_shadow(11, 3) == 12


@pytest.mark.parametrize("n, d", SIZES)
def test_colex_segments_meet_the_cascade_exactly(monkeypatch, n, d):
    order = colex(n, d)
    for m in range(1, len(order) + 1):
        fam = SetFamily.make(n, order[:m], d=d)
        least = cascade_shadow(m, d)
        assert len(shadow(fam)) == least, m
        rep = check_kruskal_katona(fam)
        assert rep.computed == least and rep.satisfied and not rep.conjecture, m
        if any(comb(a, d) == m for a in range(d, n + 1)):
            # integer t: Lovasz's form is the cascade's one term, so a shadow one smaller fails it
            with monkeypatch.context() as mp:
                mp.setattr(hypergraph, "_shadow", lambda fam, whole=hypergraph._shadow: sorted(whole(fam))[1:])
                assert not check_kruskal_katona(fam).satisfied, m


@pytest.mark.parametrize("n, d", SIZES)
def test_one_step_off_a_segment_never_beats_it(n, d):
    # the segment with its last set swapped for any later one: no smaller shadow, and kk still holds
    order = colex(n, d)
    for m in range(1, len(order)):
        least = cascade_shadow(m, d)
        for later in order[m:]:
            fam = SetFamily.make(n, [*order[:m - 1], later], d=d)
            rep = check_kruskal_katona(fam)
            assert rep.computed == len(shadow(fam)) >= least and rep.satisfied, (m, later)


def run_kk(path, n: int, d: int, sets) -> tuple[dict, int]:
    """`kk` on the family written to path: its bound report and its status."""
    path.write_text(json.dumps({"n": n, "d": d, "sets": [list(s) for s in sets]}))
    report, status = cli.run(["kk", "--family", str(path)])
    return report["bounds"][0], status


def run_qkk(path, q: int, n: int, d: int, members) -> tuple[dict, int]:
    """`qkk` on the subspace family written to path: its bound report and its status."""
    path.write_text(json.dumps({"q": q, "n": n, "d": d, "members": [list(map(list, m)) for m in members]}))
    report, status = cli.run(["qkk", "--family", str(path)])
    return report["bounds"][0], status


def run_gkk(path, system: str, d: int) -> tuple[dict, dict, int]:
    """`forbidding gkk --system <system>`, its words split into arguments (so `repeats` carries its
    `--universe-size`), on the family file that run_kk or run_qkk last wrote to path."""
    option = "--family" if system.startswith("repeats") else "--subspaces"
    report, status = cli.run(["forbidding", "gkk", "--system", *system.split(), "--d", str(d), option, str(path)])
    return report["quantities"], report["bounds"][0], status


@pytest.mark.parametrize("m, d", SIZES)
def test_kk_on_a_complete_family_through_the_cli(tmp_path, monkeypatch, m, d):
    # C([m], d) meets Lovasz's form with equality at t = m; each family one member short exits 0 too
    path, sets = tmp_path / "fam.json", list(combinations(range(m), d))
    bound, status = run_kk(path, m, d, sets)
    assert status == 0 and bound["satisfied"] and bound["computed"] == comb(m, d - 1)
    for i in range(len(sets) if d < m else 0):
        bound, status = run_kk(path, m, d, sets[:i] + sets[i + 1:])
        assert status == 0 and bound["satisfied"], sets[i]
    monkeypatch.setattr(hypergraph, "_shadow", lambda fam, whole=hypergraph._shadow: set(sorted(whole(fam))[1:]))
    assert run_kk(path, m, d, sets)[1] == 5


def kappa(path) -> tuple[dict, int]:
    """`kappa --d 3` on the graph file: its quantities, with the proven reports under "proven", and its status."""
    report, status = cli.run(["kappa", "--input", str(path), "--d", "3"])
    proven = [b for b in report["bounds"] if not b["conjecture"]]
    assert proven and all(b["satisfied"] for b in proven) == (status == 0)
    return {**report["quantities"], "proven": proven}, status


def constructed(tmp_path, argv: str) -> dict:
    """The graph object `construct ... --out` writes."""
    path = tmp_path / "built.json"
    _, status = cli.run(["construct", *argv.split(), "--out", str(path)])
    assert status == 0
    return json.loads(path.read_text())


def one_step_off(graph: dict):
    """The graph with each edge in turn removed, or recolored with each other color."""
    edges = graph["edges"]
    for i, edge in enumerate(edges):
        yield {**graph, "edges": edges[:i] + edges[i + 1:]}
        for color in RGB:
            if color != edge["color"]:
                yield {**graph, "edges": [*edges[:i], {**edge, "color": color}, *edges[i + 1:]]}


TIGHT = [("k4-blowup --n 1", 2), ("k4-blowup --n 2", 2), ("k4-blowup --n 3", 2), ("k4-blowup --n 4", 2),
         ("rainbow-tripartite --a 1 --b 1 --c 1", 1), ("rainbow-tripartite --a 2 --b 3 --c 4", 1),
         ("rainbow-tripartite --a 3 --b 3 --c 3", 1)]


@pytest.mark.parametrize("argv, ratio", TIGHT)
def test_rainbow_bound_on_its_tight_cases_through_the_cli(tmp_path, argv, ratio):
    path = tmp_path / "g.json"
    path.write_text(json.dumps(constructed(tmp_path, argv)))
    q, status = kappa(path)
    assert status == 0 and q["ratio"] == ratio
    sharp = [b for b in q["proven"] if b["source"].startswith("rainbow triangles")]
    assert [(b["computed"], b["bound"]) for b in sharp] == [(ratio, 2)]


@pytest.mark.parametrize("argv", [argv for argv, _ in TIGHT if argv != "rainbow-tripartite --a 1 --b 1 --c 1"])
def test_rainbow_bound_one_edge_off_its_tight_cases(tmp_path, argv):
    # every class keeps an edge: each has at least two in these graphs
    path = tmp_path / "g.json"
    for graph in one_step_off(constructed(tmp_path, argv)):
        path.write_text(json.dumps(graph))
        q, status = kappa(path)
        assert status == 0 and q["ratio"] <= 2, graph


def test_rainbow_bound_fails_on_a_count_one_too_many(tmp_path, monkeypatch):
    path = tmp_path / "g.json"
    path.write_text(json.dumps(constructed(tmp_path, "k4-blowup --n 2")))
    registered = PROBLEMS["rainbow_d"]
    monkeypatch.setitem(PROBLEMS, "rainbow_d", replaced(registered, count=lambda form: registered.count(form) + 1))
    q, status = kappa(path)
    assert status == 5 and q["T"] == 33 and q["ratio"] > 2


# (q, n, d) of the subspace families that qkk and gkk read: each complete one and three seeded ones
SUBSPACE_SHAPES = [(2, 2, 2), (2, 3, 2), (2, 4, 2), (2, 5, 2), (2, 3, 3), (2, 4, 3), (2, 5, 3),
                   (3, 2, 2), (3, 3, 2), (3, 4, 2), (3, 3, 3)]
# seeded ones only: gkk on the complete families takes 0.7 s and 2.7 s
LARGE_SUBSPACE_SHAPES = [(3, 5, 2), (3, 4, 3)]


def subspace_families(q: int, n: int, d: int, complete: bool = True) -> list[list]:
    """All d-subspaces of F_q^n if `complete`, then three seeded samples of them: of at most 3 members for
    d-spaces of more than 9 points (a 3-space of F_3^n is 1,872 good 3-multisets in gkk), else at most 40."""
    pool = enumerate_subspaces(q, n, d).members
    rng = random.Random(q * 100 + n * 10 + d)
    seeded = [rng.sample(pool, rng.randint(1, min(len(pool), 3 if q**d > 9 else 40))) for _ in range(3)]
    return ([list(pool)] if complete else []) + seeded


def q_analog_disagreements(tmp_path, q: int, n: int, d: int, members) -> list[str]:
    """Where qkk on the family and gkk on qlinear:q,n over its members' points minus zero disagree."""
    path = tmp_path / "subspaces.json"
    path.write_text(json.dumps({"q": q, "n": n, "d": d, "members": members}))
    qkk, qkk_status = cli.run(["qkk", "--family", str(path)])
    gkk, gkk_status = cli.run(["forbidding", "gkk", "--system", f"qlinear:{q},{n}", "--d", str(d),
                               "--subspaces", str(path)])
    a, b = qkk["quantities"], gkk["quantities"]
    checks = {
        "exit code": qkk_status == gkk_status,
        "satisfied": qkk["bounds"][0]["satisfied"] == gkk["bounds"][0]["satisfied"],
        "family size": b["family_size"] == len(members) * gl_order(q, d),
        "shadow size": b["shadow_size"] == a["shadow_size"] * gl_order(q, d - 1),
        "t": math.isclose(a["t"], math.log(b["t"] + 1, q), rel_tol=1e-9),
    }
    return [name for name, agree in checks.items() if not agree]


@pytest.mark.parametrize("q, n, d", SUBSPACE_SHAPES + LARGE_SUBSPACE_SHAPES)
def test_q_analog_matches_the_generalized_bound_on_subspaces(tmp_path, q, n, d):
    for members in subspace_families(q, n, d, complete=(q, n, d) in SUBSPACE_SHAPES):
        assert q_analog_disagreements(tmp_path, q, n, d, members) == [], members


def one_hyperplane_short(fam, whole=qlinalg._subspace_shadow):
    """The q-analog shadow less its least hyperplane, with the row ids."""
    shadow, ids = whole(fam)
    return set(sorted(shadow)[1:]), ids


def test_q_analog_oracle_fails_on_a_shadow_one_hyperplane_short(tmp_path, monkeypatch):
    monkeypatch.setattr(qlinalg, "_subspace_shadow", one_hyperplane_short)
    for q, n, d in [(2, 4, 2), (3, 3, 2), (2, 5, 3)]:
        for members in subspace_families(q, n, d):
            assert "shadow size" in q_analog_disagreements(tmp_path, q, n, d, members), members


@pytest.mark.parametrize("q, n, d", SUBSPACE_SHAPES)
def test_qkk_on_all_subspaces_through_the_cli(tmp_path, monkeypatch, q, n, d):
    # all d-subspaces of F_q^n meet the q-analog with equality; each family one member short exits 0 too
    path, members = tmp_path / "subspaces.json", subspace_families(q, n, d)[0]
    bound, status = run_qkk(path, q, n, d, members)
    assert status == 0 and bound["satisfied"] and bound["computed"] == len(enumerate_subspaces(q, n, d - 1).members)
    for i in range(len(members) if len(members) > 1 else 0):
        bound, status = run_qkk(path, q, n, d, members[:i] + members[i + 1:])
        assert status == 0 and bound["satisfied"], members[i]
    monkeypatch.setattr(qlinalg, "_subspace_shadow", one_hyperplane_short)
    assert run_qkk(path, q, n, d, members)[1] == 5


@pytest.mark.parametrize("m, d", [(m, d) for m in range(1, 9) for d in range(1, m + 1)])
def test_key_inequality_on_a_complete_family_through_the_cli(tmp_path, m, d):
    # each k-subset of a member of C([m], d) lies in C(m - k, d - k) members, so s_k = m - k + 1
    path = tmp_path / "fam.json"
    path.write_text(json.dumps({"n": m, "d": d, "sets": [list(s) for s in combinations(range(m), d)]}))
    report, status = cli.run(["entropy", "--key", "--family", str(path)])
    assert status == 0 and report["bounds"][0]["satisfied"] and report["quantities"]["ok"]
    assert report["quantities"]["sizes"] == pytest.approx([m - k + 1 for k in range(1, d + 1)], abs=1e-12)


@pytest.mark.parametrize("size, gaps", [(1, (0.816, -0.345)), (2, (-0.263, 0.448))])
def test_key_inequality_fails_on_one_degree_one_short(tmp_path, monkeypatch, size, gaps):
    # the first member of C([5], 3) less one of its size-subsets: that subset's degree is one short
    monkeypatch.setattr(importlib.import_module("shadowlab.entropy"), "combinations",
                        lambda s, k, whole=combinations: list(whole(s, k))[k == size and tuple(s) == (0, 1, 2):])
    path = tmp_path / "fam.json"
    path.write_text(json.dumps({"n": 5, "d": 3, "sets": [list(s) for s in combinations(range(5), 3)]}))
    report, status = cli.run(["entropy", "--key", "--family", str(path)])
    assert status == 5 and not report["bounds"][0]["satisfied"] and not report["quantities"]["ok"]
    assert report["quantities"]["gaps"] == pytest.approx(gaps, abs=1e-3)


def run_shearer(path, b: int, k: int) -> tuple[dict, int]:
    """`entropy --shearer` with the leave-one-out cover on the uniform distribution on [b]^k."""
    support = [{"values": list(v), "p": f"1/{b**k}"} for v in product(range(b), repeat=k)]
    path.write_text(json.dumps({"arity": k, "support": support}))
    cover = ";".join(",".join(map(str, subset)) for subset in leave_one_out(k))
    return cli.run(["entropy", "--dist", str(path), "--shearer", cover])


@pytest.mark.parametrize("b, k", [(b, k) for b in range(2, 6) for k in range(2, 6)])
def test_shearer_on_a_uniform_cube_through_the_cli(tmp_path, b, k):
    # each coordinate is left out once: (k - 1) k log2 b on both sides
    report, status = run_shearer(tmp_path / "dist.json", b, k)
    assert status == 0 and report["bounds"][0]["satisfied"] and report["quantities"]["k"] == k - 1
    assert report["bounds"][0]["computed"] == pytest.approx((k - 1) * k * math.log2(b), rel=1e-12)


def test_shearer_fails_on_marginals_one_atom_short(tmp_path, monkeypatch):
    # each marginal of [2]^3 less one of its largest atoms: 2 (7/8) 3 = 5.25 against 3 (3/4) 2 = 4.5
    whole = ExactDistribution.marginal
    monkeypatch.setattr(ExactDistribution, "marginal",
                        lambda dist, coords: dict(sorted(whole(dist, coords).items(), key=lambda a: a[1])[:-1]))
    report, status = run_shearer(tmp_path / "dist.json", 2, 3)
    assert status == 5 and report["bounds"][0]["computed"] == 5.25 and report["bounds"][0]["bound"] == 4.5


def one_sub_multiset_short(ms, k, whole=combinations):
    return list(whole(ms, k))[1:]


def tuples(n: int, q: int | None, k: int) -> int:
    """The good ordered k-tuples of a whole set: n!/(n - k)! of [n] under repeats (q None), and
    (q^n - 1)(q^n - q)...(q^n - q^(k-1)) of F_q^n minus zero under qlinear:q,n."""
    return math.prod(n - i if q is None else q**n - q**i for i in range(k))


def whole_system(n: int, q: int | None) -> str:
    return f"repeats --universe-size {n}" if q is None else f"qlinear:{q},{n}"


# (n, q) of the whole sets: [n] under repeats (q None), and F_q^n under qlinear:q,n
WHOLE_SETS = [(n, None) for n in range(2, 8)] + [(2, 2), (3, 2), (4, 2), (2, 3), (3, 3), (2, 5)]
WHOLE_SET_RUNS = [(n, q, d) for n, q in WHOLE_SETS for d in range(2, n + 1)]


@pytest.mark.parametrize("n, q, d", WHOLE_SET_RUNS, ids=[f"{whole_system(n, q)}-{d}" for n, q, d in WHOLE_SET_RUNS])
def test_gkk_on_one_whole_compatible_set_through_the_cli(tmp_path, monkeypatch, n, q, d):
    # S^(d) is every good ordered d-tuple of S, and its shadow every good (d-1)-tuple: the bound is met exactly
    path = tmp_path / "fam.json"
    if q is None:
        run_kk(path, n, n, [range(n)])
    else:
        run_qkk(path, q, n, n, [[[int(i == j) for j in range(n)] for i in range(n)]])
    quantities, bound, status = run_gkk(path, whole_system(n, q), d)
    assert status == 0 and bound["satisfied"]
    assert (quantities["family_size"], quantities["shadow_size"]) == (tuples(n, q, d), tuples(n, q, d - 1))
    assert quantities["bound"] == pytest.approx(tuples(n, q, d - 1), rel=1e-12)
    monkeypatch.setattr(forbidding, "combinations", one_sub_multiset_short)
    assert run_gkk(path, whole_system(n, q), d)[2] == 5
