"""Subspace enumeration, canonical forms, shadows, and the q-analog bound."""

import random
import time
from itertools import product

import pytest

from conftest import span, subspaces_by_span
from shadowlab.errors import CapacityError, ValidationError
from shadowlab.numkit import gaussian_binom
from shadowlab.qlinalg import (
    SubspaceFamily,
    _subspace_shadow,
    check_q_kruskal_katona,
    enumerate_subspaces,
    rref,
)


def subspace_shadow(fam):
    """The shadow as a family: `_subspace_shadow`'s tuples of row ids turned back into rows, sorted."""
    shadow, ids = _subspace_shadow(fam)
    rows = {i: row for row, i in ids.items()}
    members = sorted(tuple(map(rows.__getitem__, h)) for h in shadow)
    return SubspaceFamily(q=fam.q, n=fam.n, d=fam.d - 1, members=tuple(members))


class TestRref:
    def test_idempotent(self):
        rng = random.Random(2)
        for _ in range(200):
            q = rng.choice([2, 3, 5])
            rows = [[rng.randrange(q) for _ in range(4)] for _ in range(rng.randint(1, 4))]
            once = rref(rows, q)
            assert rref(once, q) == once

    def test_span_preserved(self):
        rng = random.Random(3)
        for _ in range(100):
            q = rng.choice([2, 3])
            n = 4
            rows = [[rng.randrange(q) for _ in range(n)] for _ in range(rng.randint(1, 3))]
            reduced = rref(rows, q)
            assert span(rows, q, n) == span(list(reduced), q, n)

    def test_nonprime_rejected(self):
        with pytest.raises(ValidationError):
            rref([[1, 0]], 4)

    def test_field_order_capped_before_its_primality_test(self):
        # trial division of the prime 2^61 - 1 ran past 10 s
        start = time.perf_counter()
        with pytest.raises(CapacityError, match="field order q = 2305843009213693951 exceeds cap 1000000"):
            rref([[1, 2]], 2**61 - 1)
        assert time.perf_counter() - start < 1.0


class TestEnumerateSubspaces:
    def test_lines_of_f2_3(self):
        fam = enumerate_subspaces(2, 3, 1)
        assert len(fam) == 7

    def test_planes_of_f2_4(self):
        fam = enumerate_subspaces(2, 4, 2)
        assert len(fam) == 35
        assert {span(m, 2, 4) for m in fam.members} == subspaces_by_span(2, 4, 2)

    def test_zero_dim(self):
        assert len(enumerate_subspaces(3, 2, 0)) == 1

    @pytest.mark.parametrize("q,n_max", [(2, 4), (3, 3)])
    def test_counts_match_formula(self, q, n_max):
        for n in range(n_max + 1):
            for d in range(n + 1):
                assert len(enumerate_subspaces(q, n, d)) == gaussian_binom(n, d, q)

    def test_capacity(self):
        with pytest.raises(CapacityError):
            enumerate_subspaces(2, 30, 2)
        # q^0 is 1, so the field order has a cap of its own, checked before any primality test
        with pytest.raises(CapacityError, match="field order q = 2305843009213693951 exceeds cap 65536"):
            enumerate_subspaces(2**61 - 1, 0, 0)
        assert len(enumerate_subspaces(65521, 0, 0)) == 1

    def test_nonprime_rejected(self):
        with pytest.raises(ValidationError):
            enumerate_subspaces(4, 3, 1)


class TestSubspaceShadow:
    def test_single_plane_has_three_lines(self):
        fam = SubspaceFamily.make(2, 3, 2, [[[1, 0, 0], [0, 1, 0]]])
        lines = subspace_shadow(fam)
        assert len(lines) == 3
        pts = span([[1, 0, 0], [0, 1, 0]], 2, 3)
        for line in lines.members:
            assert span(line, 2, 3) <= pts

    def test_complete_family(self):
        planes = enumerate_subspaces(2, 3, 2)
        assert len(subspace_shadow(planes)) == 7

    def test_empty_family(self):
        fam = SubspaceFamily(q=2, n=3, d=2, members=())
        assert len(subspace_shadow(fam)) == 0

    @pytest.mark.parametrize("q,n,d", [(2, 4, 2), (2, 5, 3), (3, 4, 2), (3, 4, 3), (5, 3, 2)])
    def test_matches_brute_force(self, q, n, d):
        rng = random.Random(5)
        all_members = enumerate_subspaces(q, n, d).members
        below = subspaces_by_span(q, n, d - 1)
        for _ in range(20):
            members = rng.sample(all_members, rng.randint(1, 10))
            shadow = subspace_shadow(SubspaceFamily.make(q, n, d, members))
            assert all(rref(m, q) == m for m in shadow.members)
            got = {span(m, q, n) for m in shadow.members}
            expected = set()
            for m in members:
                pts = span(m, q, n)
                expected |= {sub for sub in below if sub <= pts}
            assert got == expected

    def test_complete_grassmannian_at_benchmark_scale(self):
        shadow = subspace_shadow(enumerate_subspaces(2, 7, 3))
        assert len(shadow) == gaussian_binom(7, 2, 2) == 2667


def reference_combine_rows(member, terms, q):
    """The row sum of c * member[j] over (j, c) in terms, mod q; a lone leading term selects member[j]."""
    (lead, _), *rest = terms
    acc = member[lead]
    for j, c in rest:
        acc = tuple([(a + c * b) % q for a, b in zip(acc, member[j])])
    return acc


def reference_subspace_shadow(fam):
    """The shadow as it was computed member by member, every hyperplane row built as a tuple."""
    coeff = enumerate_subspaces(fam.q, fam.d, fam.d - 1).members
    vectors = sorted({row for cmat in coeff for row in cmat})
    index = {v: i for i, v in enumerate(vectors)}
    shapes = [tuple(index[row] for row in cmat) for cmat in coeff]
    terms = [[(j, c) for j, c in enumerate(v) if c] for v in vectors]
    out = set()
    for member in fam.members:
        rows = [reference_combine_rows(member, t, fam.q) for t in terms]
        out.update(tuple(rows[i] for i in shape) for shape in shapes)
    return out


class TestShadowAgainstReference:
    """The column-wise shadow against the member-by-member one it replaced."""

    @staticmethod
    def check(fam):
        expected = tuple(sorted(reference_subspace_shadow(fam)))
        assert subspace_shadow(fam).members == expected
        assert check_q_kruskal_katona(fam).computed == len(expected)

    @pytest.mark.parametrize("q,n", [(2, 1), (2, 4), (2, 5), (3, 3), (3, 4), (5, 2), (5, 3), (7, 2), (7, 3)])
    def test_seeded_families(self, q, n):
        rng = random.Random(q * 100 + n)
        for d in sorted({1, max(n - 1, 1), n}):
            pool = enumerate_subspaces(q, n, d).members
            for size in (1, 2, 5, 40):
                self.check(SubspaceFamily.make(q, n, d, rng.sample(pool, min(size, len(pool)))))

    @pytest.mark.parametrize("q,n,d", [(2, 5, 3), (3, 4, 3), (5, 4, 2), (7, 3, 2), (7, 4, 3)])
    def test_members_sharing_rows(self, q, n, d):
        """Families whose members share their first or last row, so pairs of row ids repeat."""
        rng = random.Random(n * d + q)
        pool = enumerate_subspaces(q, n, d).members
        for pick in (0, -1):
            groups = {}
            for m in pool:
                groups.setdefault(m[pick], []).append(m)
            largest = max(groups.values(), key=len)
            self.check(SubspaceFamily.make(q, n, d, largest))
            self.check(SubspaceFamily.make(q, n, d, rng.sample(largest, (len(largest) + 1) // 2)))


class TestQKruskalKatona:
    def test_full_grassmannian_tight(self):
        fam = enumerate_subspaces(2, 4, 2)
        rep = check_q_kruskal_katona(fam)
        assert rep.satisfied
        assert rep.extra["t"] == pytest.approx(4.0, abs=1e-6)
        assert rep.computed == 15
        assert rep.bound == pytest.approx(15.0, abs=1e-5)

    def test_single_plane_tight(self):
        fam = SubspaceFamily.make(2, 3, 2, [[[1, 0, 0], [0, 1, 0]]])
        rep = check_q_kruskal_katona(fam)
        assert rep.satisfied
        assert rep.extra["t"] == pytest.approx(2.0, abs=1e-9)
        assert rep.computed == 3
        assert rep.bound == pytest.approx(3.0, abs=1e-6)

    def test_lines_bound_is_one(self):
        # d = 1: the shadow is the zero subspace alone, and [t, 0]_q = 1 whatever t is
        rep = check_q_kruskal_katona(enumerate_subspaces(2, 3, 1))
        assert rep.extra["t"] == pytest.approx(3.0, abs=1e-9)
        assert (rep.computed, rep.bound, rep.satisfied) == (1, 1.0, True)

    def test_one_15_dim_subspace_is_tight(self):
        # |GL_15(2)| ~ 2^224 scales the inversion target far past 2^200
        n = 15
        identity = [[int(i == j) for j in range(n)] for i in range(n)]
        rep = check_q_kruskal_katona(SubspaceFamily.make(2, n, n, [identity]))
        assert (rep.computed, rep.satisfied) == (32767, True)
        assert rep.extra["t"] == pytest.approx(15.0, abs=1e-9)
        assert rep.bound == pytest.approx(32767.0, rel=1e-12)

    def test_random_families(self):
        rng = random.Random(6)
        all_planes = enumerate_subspaces(2, 4, 2)
        for _ in range(50):
            members = rng.sample(all_planes.members, rng.randint(1, 20))
            fam = SubspaceFamily.make(2, 4, 2, members)
            assert check_q_kruskal_katona(fam).satisfied

    def test_exhaustive_all_subfamilies_f2_3(self):
        planes = enumerate_subspaces(2, 3, 2).members
        assert len(planes) == 7
        count = 0
        for mask in range(1, 2**7):
            members = [planes[i] for i in range(7) if mask >> i & 1]
            fam = SubspaceFamily.make(2, 3, 2, members)
            assert check_q_kruskal_katona(fam).satisfied
            count += 1
        assert count == 127


class TestSubspaceFamilyValidation:
    def test_non_canonical_rejected(self):
        with pytest.raises(ValidationError):
            SubspaceFamily.make(2, 3, 2, [[[0, 1, 0], [1, 0, 0]]])

    def test_wrong_rank_rejected(self):
        with pytest.raises(ValidationError):
            SubspaceFamily.make(2, 3, 2, [[[1, 0, 0], [1, 0, 0]]])

    @pytest.mark.parametrize("q,n,d", [(2, 3, 2), (3, 3, 2), (2, 4, 2)])
    def test_accepts_exactly_the_reduced_echelon_matrices(self, q, n, d):
        for entries in product(range(q), repeat=d * n):
            m = tuple(tuple(entries[i * n:(i + 1) * n]) for i in range(d))
            if rref(m, q) == m and len(m) == d:
                assert SubspaceFamily.make(q, n, d, [m]).members == (m,)
            else:
                with pytest.raises(ValidationError):
                    SubspaceFamily.make(q, n, d, [m])

    def test_duplicates_rejected(self):
        m = [[1, 0, 0], [0, 1, 0]]
        with pytest.raises(ValidationError):
            SubspaceFamily.make(2, 3, 2, [m, m])
