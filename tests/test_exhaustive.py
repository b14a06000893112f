"""Every family of the smallest sizes against the shadow bounds, through the command line.

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
"""

import json
from itertools import combinations
from math import comb, inf

import pytest

from conftest import span, subspaces_by_span
from shadowlab import cli, hypergraph, qlinalg
from shadowlab.hypergraph import SetFamily
from shadowlab.qlinalg import enumerate_subspaces
from test_soundness import cascade_shadow

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


def run_kk(path, n: int, d: int, sets) -> tuple[dict, int]:
    path.write_text(json.dumps({"n": n, "d": d, "sets": [list(s) for s in sets]}))
    report, status = cli.run(["kk", "--family", str(path)])
    return report["bounds"][0], status


def run_qkk(path, q: int, n: int, d: int, members) -> tuple[dict, int]:
    path.write_text(json.dumps({"q": q, "n": n, "d": d, "members": [list(map(list, m)) for m in members]}))
    report, status = cli.run(["qkk", "--family", str(path)])
    return report["bounds"][0], status


@pytest.mark.parametrize("n, d", KK_SIZES)
def test_kk_on_every_family(tmp_path, n, d):
    pool, masks = subset_pool(n, d)
    least = least_shadows(masks)
    assert [s for s, _ in least[1:]] == [cascade_shadow(m, d) for m in range(1, len(pool) + 1)]
    for m, (s, family) in enumerate(least[1:], 1):
        bound, status = run_kk(tmp_path / "fam.json", n, d, members_of(family, pool))
        assert status == 0 and bound["computed"] == s and bound["satisfied"], m
        if any(comb(a, d) == m for a in range(d, n + 1)):
            assert bound["bound"] == pytest.approx(s, rel=1e-12), m


@pytest.mark.parametrize("q, n, d", sorted(QKK_TIGHT))
def test_qkk_on_every_family(tmp_path, q, n, d):
    pool, masks = subspace_pool(q, n, d)
    tight = set()
    for m, (s, family) in enumerate(least_shadows(masks)[1:], 1):
        bound, status = run_qkk(tmp_path / "subs.json", q, n, d, members_of(family, pool))
        assert status == 0 and bound["computed"] == s and bound["satisfied"], m
        if bound["bound"] == pytest.approx(s, rel=1e-12):
            tight.add(m)
    assert tight == QKK_TIGHT[q, n, d] and len(pool) in tight


def test_dp_reads_shadow_masks():
    # three pairs of [3]: the DP's least shadows are 0, 2, 3, 3 vertices; and any shadow mask is read
    assert [s for s, _ in least_shadows(subset_pool(3, 2)[1])] == [0, 2, 3, 3]
    assert least_shadows([0b011, 0b110, 0b100]) == [(0, 0), (1, 0b100), (2, 0b110), (3, 0b111)]


def test_kk_one_short_fails_some_minimizer(tmp_path, monkeypatch):
    n, d = 5, 3
    pool, masks = subset_pool(n, d)
    least = least_shadows(masks)
    monkeypatch.setattr(hypergraph, "_shadow", lambda fam, whole=hypergraph._shadow: set(sorted(whole(fam))[1:]))
    failed = []
    for m, (s, family) in enumerate(least[1:], 1):
        sets = members_of(family, pool)
        if run_kk(tmp_path / "fam.json", n, d, sets)[1] == 5:
            failed.append(m)
            assert len(hypergraph._shadow(SetFamily.make(n, sets, d=d))) != s, m
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
