"""Every instance of the smallest sizes against the proven bounds, through the command line.

`kk` and `qkk` read a family only through |F| and |shadow F|, and a larger shadow only helps the
bound, so the least shadow over the families of each size decides every family of that size.  A
subset DP finds it for all 2^N families of N candidate members at once: the shadow of a family is
the shadow of the family less one member, or-ed with that member's own shadow, as bitmasks.  The
DP is written here from the definitions (subsets by `combinations`, subspaces as point sets by
`conftest.span`), not from the library's shadow code; each size's least-shadow family, its
minimizer, then goes through `cli.run`.

- `kk`: every family of d-subsets of [n], 2 <= d < n <= 7, wherever C(n, d) <= 21.  The least
  shadow equals Kruskal-Katona's cascade, and where |F| = C(a, d) the bound is met exactly.
- `qkk`: every family of hyperplanes of F_2^4 (2^15 families) and of planes of F_3^3 (2^13).
  The least q-shadow has no closed form in general, so the sizes where the bound is met exactly
  are recorded: the complete family is one of them.
- `forbidding gkk`: each kk minimizer under `repeats`, each d-set one S_i, and each qkk minimizer
  under `qlinear:q,n`.  A member's good d-multisets are its orderings (d! of a d-set) or its ordered
  bases (|GL(d, q)| of a d-subspace), so both sizes scale, and the bound is met where kk's or qkk's is.

The key inequality is not monotone in anything the DP tracks, so it runs on every nonempty family
of 3-subsets of [5] and of 2-subsets of [6].  The rainbow bounds run on every colouring of the
pairs of [4] by red, green, blue or no edge, 4^6 states.
"""

import importlib
import json
from itertools import combinations, product
from math import comb, factorial, inf

import pytest

from conftest import gl_order, one_facet_short, replaced, span, subspaces_by_span
from shadowlab import cli, forbidding, hypergraph, qlinalg
from shadowlab.entropy import check_key_inequality
from shadowlab.hypergraph import ColoredHypergraph, SetFamily
from shadowlab.problems import PROBLEMS, RGB
from shadowlab.qlinalg import enumerate_subspaces
from test_soundness import cascade_shadow, run_gkk, run_kk, run_qkk

KK_SIZES = [(n, d) for n in range(3, 8) for d in range(2, n) if comb(n, d) <= 21]

# (q, n, d) -> the family sizes whose least shadow meets the bound exactly
QKK_TIGHT = {(2, 4, 3): {1, 15}, (3, 3, 2): {1, 13}}


def least_shadows(masks: list[int]) -> list[tuple[int, int]]:
    """For each family size k = 0..N: the least shadow size over the k-member families, and the
    first family, as a bitmask over the members, that has it."""
    shadows, sizes = [0], [0]
    for mask in masks:  # the families holding member i follow, as a block, those that do not
        shadows += [s | mask for s in shadows]
        sizes += [k + 1 for k in sizes]
    least = [(inf, 0)] * (len(masks) + 1)
    for family, (k, s) in enumerate(zip(sizes, map(int.bit_count, shadows))):
        if s < least[k][0]:
            least[k] = (s, family)
    return least


def members_of(family: int, pool: list) -> list:
    return [m for i, m in enumerate(pool) if family >> i & 1]


def subset_pool(n: int, d: int) -> tuple[list, list[int]]:
    """The d-subsets of [n] and each one's shadow mask over the (d-1)-subsets."""
    pool = list(combinations(range(n), d))
    index = {s: i for i, s in enumerate(combinations(range(n), d - 1))}
    return pool, [sum(1 << index[f] for f in combinations(s, d - 1)) for s in pool]


def subspace_pool(q: int, n: int, d: int) -> tuple[list, list[int]]:
    """The d-subspaces of F_q^n in echelon form, as the family files write them, and each one's shadow
    mask over the (d-1)-subspaces: those whose points all lie in its span."""
    pool = list(enumerate_subspaces(q, n, d).members)
    below = list(subspaces_by_span(q, n, d - 1))
    return pool, [sum(1 << j for j, p in enumerate(below) if p <= span(m, q, n)) for m in pool]


def is_tight(bound: dict) -> bool:
    return bound["bound"] == pytest.approx(bound["computed"], rel=1e-12)


@pytest.mark.parametrize("n, d", KK_SIZES)
def test_kk_on_every_family(tmp_path, n, d):
    pool, masks = subset_pool(n, d)
    least = least_shadows(masks)
    assert [s for s, _ in least[1:]] == [cascade_shadow(m, d) for m in range(1, len(pool) + 1)]
    for m, (s, family) in enumerate(least[1:], 1):
        bound, status = run_kk(tmp_path / "fam.json", n, d, members_of(family, pool))
        assert status == 0 and bound["computed"] == s and bound["satisfied"], m
        if any(comb(a, d) == m for a in range(d, n + 1)):
            assert is_tight(bound), m
        q, tuples, status = run_gkk(tmp_path / "fam.json", f"repeats --universe-size {n}", d)
        assert status == 0 and tuples["satisfied"], m
        assert (q["family_size"], q["shadow_size"]) == (m * factorial(d), s * factorial(d - 1)), m
        assert is_tight(tuples) == is_tight(bound), m


@pytest.mark.parametrize("q, n, d", sorted(QKK_TIGHT))
def test_qkk_on_every_family(tmp_path, q, n, d):
    pool, masks = subspace_pool(q, n, d)
    tight = set()
    for m, (s, family) in enumerate(least_shadows(masks)[1:], 1):
        bound, status = run_qkk(tmp_path / "subs.json", q, n, d, members_of(family, pool))
        assert status == 0 and bound["computed"] == s and bound["satisfied"], m
        if is_tight(bound):
            tight.add(m)
        quantities, tuples, status = run_gkk(tmp_path / "subs.json", f"qlinear:{q},{n}", d)
        assert status == 0 and tuples["satisfied"], m
        sizes = quantities["family_size"], quantities["shadow_size"]
        assert sizes == (m * gl_order(q, d), s * gl_order(q, d - 1)), m
        assert is_tight(tuples) == (m in tight), m
    assert tight == QKK_TIGHT[q, n, d] and len(pool) in tight


def test_dp_reads_shadow_masks():
    # three pairs of [3]: the DP's least shadows are 0, 2, 3, 3 vertices; and any shadow mask is read
    assert [s for s, _ in least_shadows(subset_pool(3, 2)[1])] == [0, 2, 3, 3]
    assert least_shadows([0b011, 0b110, 0b100]) == [(0, 0), (1, 0b100), (2, 0b110), (3, 0b111)]


def test_kk_one_short_fails_some_minimizer(tmp_path, monkeypatch):
    n, d = 5, 3
    pool, masks = subset_pool(n, d)
    least = least_shadows(masks)
    one_facet_short(monkeypatch)
    failed = []
    for m, (s, family) in enumerate(least[1:], 1):
        sets = members_of(family, pool)
        if run_kk(tmp_path / "fam.json", n, d, sets)[1] == 5:
            failed.append(m)
            assert len(hypergraph._shadow_keys(SetFamily.make(n, sets, d=d))) != s, m
    assert failed


def test_qkk_one_short_fails_some_minimizer(tmp_path, monkeypatch):
    q, n, d = 3, 3, 2
    pool, masks = subspace_pool(q, n, d)
    least = least_shadows(masks)

    def short(fam, whole=qlinalg._subspace_shadow):
        shadow, ids = whole(fam)
        return set(sorted(shadow)[1:]), ids

    monkeypatch.setattr(qlinalg, "_subspace_shadow", short)
    failed = []
    for m, (s, family) in enumerate(least[1:], 1):
        members = members_of(family, pool)
        if run_qkk(tmp_path / "subs.json", q, n, d, members)[1] == 5:
            failed.append(m)
            fam = qlinalg.SubspaceFamily.make(q, n, d, members)
            assert len(qlinalg._subspace_shadow(fam)[0]) != s, m
    assert failed


def test_gkk_one_short_fails_some_minimizer(tmp_path, monkeypatch):
    n, d = 5, 3
    pool, masks = subset_pool(n, d)
    monkeypatch.setattr(forbidding, "combinations", lambda ms, k: list(combinations(ms, k))[1:])
    failed = []
    for m, (_, family) in enumerate(least_shadows(masks)[1:], 1):
        run_kk(tmp_path / "fam.json", n, d, members_of(family, pool))
        if run_gkk(tmp_path / "fam.json", f"repeats --universe-size {n}", d)[2] == 5:
            failed.append(m)
    assert failed


def key_failures(n: int, d: int) -> tuple[list[list[tuple]], float]:
    """Every nonempty family of d-subsets of [n] through the key inequality: the families it finds
    unsatisfied, and the largest computed slack s_{k+1} + 1 - s_k over all of them."""
    pool = list(combinations(range(n), d))
    failed, worst = [], -inf
    for family in range(1, 1 << len(pool)):
        sets = members_of(family, pool)
        report = check_key_inequality(SetFamily.make(n, sets, d=d)).report
        if not report.satisfied:
            failed.append(sets)
        worst = max(worst, report.computed)
    return failed, worst


@pytest.mark.parametrize("n, d", [(5, 3), (6, 2)])
def test_key_inequality_on_every_family(n, d):
    failed, worst = key_failures(n, d)
    # the slack is a float: its largest value is 2^-50 (8.9e-16), from C([5], 3), where it is exactly 0
    assert not failed and worst <= 2**-50


def test_key_inequality_one_subset_short_fails_some_family(tmp_path, monkeypatch):
    def short(s, k, whole=combinations):  # one k-subset of each member left out of the degrees, k >= 1
        return list(whole(s, k))[1:] if k else whole(s, k)

    monkeypatch.setattr(importlib.import_module("shadowlab.entropy"), "combinations", short)
    failed, _ = key_failures(5, 3)
    assert failed  # 68 of the 1,023 families
    (tmp_path / "fam.json").write_text(json.dumps({"n": 5, "d": 3, "sets": [list(s) for s in failed[0]]}))
    assert cli.run(["entropy", "--key", "--family", str(tmp_path / "fam.json")])[1] == 5


def rainbow_ratios(problem) -> tuple[list, list]:
    """Every colouring of the pairs of [4] with each class nonempty: its ratio, and the colourings
    whose ratio fails a proven bound."""
    ratios, failed = [], []
    for colours in product((None, *RGB), repeat=6):
        h = ColoredHypergraph.from_edges(4, [(e, c) for e, c in zip(combinations(range(4), 2), colours) if c])
        ratio = problem.exact(h, 3, 0, RGB)[1]
        if ratio is not None:
            ratios.append(ratio)
            if not all(r.satisfied for r in problem.reports(ratio) if not r.conjecture):
                failed.append(colours)
    return ratios, failed


def test_rainbow_on_every_colouring():
    ratios, failed = rainbow_ratios(PROBLEMS["rainbow_d"])
    assert len(ratios) == 2100 and not failed and max(ratios) == 2


def test_rainbow_one_clique_more_fails_some_colouring():
    count = PROBLEMS["rainbow_d"].count
    assert rainbow_ratios(replaced(PROBLEMS["rainbow_d"], count=lambda form: count(form) + 1))[1]
