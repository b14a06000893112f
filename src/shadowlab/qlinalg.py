"""Finite-field linear algebra for the q-analog of the shadow bound.

Subspaces of F_q^n are identified with their reduced row-echelon matrices,
which gives a unique hashable representative per subspace.  q is restricted
to primes so field arithmetic is plain mod-q integer arithmetic; the theorem
also holds for prime powers but those would need polynomial field towers.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import chain, combinations, product
from typing import Iterable, Sequence

from .errors import ValidationError, check_power_cap
from .numkit import gaussian_binom, shadow_bound
from .record import Record
from .reports import BoundReport, lower_report

FIELD_CAP = 2**16

Matrix = tuple[tuple[int, ...], ...]


def is_prime(q: int) -> bool:
    if q < 2:
        return False
    return all(q % p for p in range(2, int(q**0.5) + 1))


def rref(rows: Iterable[Sequence[int]], q: int) -> Matrix:
    """Reduced row-echelon form over F_q with zero rows dropped."""
    if not is_prime(q):
        raise ValidationError(f"q must be prime, got {q}")
    work = [[x % q for x in row] for row in rows]
    if not work:
        return ()
    ncols = len(work[0])
    if any(len(r) != ncols for r in work):
        raise ValidationError("ragged matrix")
    rank = 0
    for col in range(ncols):
        pivot = next((i for i in range(rank, len(work)) if work[i][col]), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        inv = pow(work[rank][col], q - 2, q)
        work[rank] = [(x * inv) % q for x in work[rank]]
        for i in range(len(work)):
            if i != rank and work[i][col]:
                f = work[i][col]
                work[i] = [(a - f * b) % q for a, b in zip(work[i], work[rank])]
        rank += 1
    return tuple(tuple(r) for r in work[:rank])


def _is_reduced_echelon(mat: Matrix) -> bool:
    """True iff rref(mat, q) == mat for a matrix with entries already in [0, q).

    Every row is nonzero with a leading 1, the pivots strictly increase, and
    every pivot column is a unit vector.
    """
    last = -1
    for row in mat:
        for lead, x in enumerate(row):
            if x:
                break
        else:
            return False
        if lead <= last or x != 1 or [other[lead] for other in mat].count(0) != len(mat) - 1:
            return False
        last = lead
    return True


class SubspaceFamily(Record):
    """d-dimensional subspaces of F_q^n in canonical echelon form."""

    q: int
    n: int
    d: int
    members: tuple[Matrix, ...]

    @classmethod
    def make(cls, q: int, n: int, d: int, members: Iterable[Iterable[Sequence[int]]]) -> "SubspaceFamily":
        if not is_prime(q):
            raise ValidationError(f"q must be prime, got {q}")
        if not (0 <= d <= n):
            raise ValidationError(f"need 0 <= d <= n, got d={d}, n={n}")
        canon = [tuple(map(tuple, m)) for m in members]
        rows = list(chain.from_iterable(canon))
        entries = list(chain.from_iterable(rows))
        if not (set(map(type, entries)) <= {int} and min(entries, default=0) >= 0 and max(entries, default=0) < q
                and set(map(len, canon)) <= {d} and set(map(len, rows)) <= {n}
                and all(map(_is_reduced_echelon, canon))):
            for x in entries:  # named as the family readers name it
                if isinstance(x, bool) or not isinstance(x, int):
                    raise ValidationError(f"subspace entry must be an integer, got {x!r}")
            mats, canon = canon, []
            for m in mats:  # reduce mod q; name the first bad member
                mat = tuple(tuple(x % q for x in row) for row in m)
                for row in mat:
                    if len(row) != n:
                        raise ValidationError(f"row {row} has length {len(row)}, expected {n}")
                if len(mat) != d or not _is_reduced_echelon(mat):
                    raise ValidationError(f"member {mat} is not a rank-{d} reduced echelon matrix")
                canon.append(mat)
        if len(set(canon)) != len(canon):
            raise ValidationError("duplicate subspaces")
        return cls(q=q, n=n, d=d, members=tuple(sorted(canon)))

    def __len__(self) -> int:
        return len(self.members)


def enumerate_subspaces(q: int, n: int, d: int) -> SubspaceFamily:
    """All d-dim subspaces of F_q^n, generated directly in echelon form.

    For each pivot-column choice the free entries (right of the pivot, off
    the other pivot columns) range over F_q independently.
    """
    if not is_prime(q):
        raise ValidationError(f"q must be prime, got {q}")
    if not (0 <= d <= n):
        raise ValidationError(f"need 0 <= d <= n, got d={d}, n={n}")
    check_power_cap("field size q^n", q, n, FIELD_CAP)
    members = []
    for pivots in combinations(range(n), d):
        pivot_set = set(pivots)
        free = [
            (i, j)
            for i in range(d)
            for j in range(n)
            if j > pivots[i] and j not in pivot_set
        ]
        for values in product(range(q), repeat=len(free)):
            mat = [[0] * n for _ in range(d)]
            for i, p in enumerate(pivots):
                mat[i][p] = 1
            for (i, j), v in zip(free, values):
                mat[i][j] = v
            members.append(tuple(tuple(r) for r in mat))
    fam = SubspaceFamily(q=q, n=n, d=d, members=tuple(sorted(members)))
    expected = gaussian_binom(n, d, q)
    if len(fam) != expected:
        raise AssertionError(f"enumerated {len(fam)} subspaces, formula gives {expected}")
    return fam


def subspace_points(member: Matrix, q: int, n: int) -> frozenset[tuple[int, ...]]:
    """All q^rank vectors of the row space, including zero."""
    points = set()
    for coeffs in product(range(q), repeat=len(member)):
        v = [0] * n
        for c, row in zip(coeffs, member):
            for i in range(n):
                v[i] = (v[i] + c * row[i]) % q
        points.add(tuple(v))
    return frozenset(points)


def _combine_rows(member: Matrix, terms: Sequence[tuple[int, int]], q: int) -> tuple[int, ...]:
    """The row sum of c * member[j] over (j, c) in terms, mod q.

    terms come from a reduced echelon row, so the first term is its leading
    1, and a lone term selects member[j] as it is.
    """
    (lead, _), *rest = terms
    acc = member[lead]
    for j, c in rest:
        acc = tuple([(a + c * b) % q for a, b in zip(acc, member[j])])
    return acc


def _subspace_shadow(fam: SubspaceFamily) -> set[Matrix]:
    """The (d-1)-dim subspaces contained in some member, unsorted.

    The hyperplanes of a member M are the row spaces of C·M, C running over
    the reduced echelon (d-1)×d matrices, so no ambient enumeration is needed.
    C·M is already in reduced echelon form: row i leads with the 1 in the
    pivot column of M's row p_i (p_i the i-th pivot of C), and that column
    of C·M is the i-th unit vector.  The products are therefore assembled
    from combinations of M's rows, each computed once per member, with no
    re-reduction.
    """
    if fam.d < 1:
        raise ValidationError("shadow needs d >= 1")
    coeff = enumerate_subspaces(fam.q, fam.d, fam.d - 1).members
    vectors = sorted({row for cmat in coeff for row in cmat})
    index = {v: i for i, v in enumerate(vectors)}
    shapes = [tuple(index[row] for row in cmat) for cmat in coeff]
    terms = [[(j, c) for j, c in enumerate(v) if c] for v in vectors]
    out = set()
    for member in fam.members:
        rows = [_combine_rows(member, t, fam.q) for t in terms]
        out.update(tuple(rows[i] for i in shape) for shape in shapes)
    return out


def subspace_shadow(fam: SubspaceFamily) -> SubspaceFamily:
    """All (d-1)-dim subspaces contained in some member."""
    return SubspaceFamily(q=fam.q, n=fam.n, d=fam.d - 1, members=tuple(sorted(_subspace_shadow(fam))))


def _gl_order(q: int, k: int) -> int:
    """|GL_k(F_q)| = (q^k - 1)(q^k - q)...(q^k - q^{k-1}), the denominator of [t, k]_q."""
    return math.prod(q**k - q**i for i in range(k))


def _gaussian_bound(shadow_size: int, family_size: int, d: int, q: int) -> tuple[bool, float, Fraction]:
    """`shadow_bound` in Gaussian binomials: (holds, t, [t, d-1]_q) where [t, d]_q = family_size."""
    # in y = q^t - 1, [t, d]_q |GL_d(q)| is the falling product over c = (q-1, ..., q^{d-1}-1)
    gl = _gl_order(q, d - 1)
    holds, y, bound = shadow_bound(shadow_size * gl, family_size * _gl_order(q, d), [q**k - 1 for k in range(1, d)])
    return holds, math.log(y + 1, q), bound / gl


def check_q_kruskal_katona(fam: SubspaceFamily) -> BoundReport:
    """|shadow| >= [t, d-1]_q where [t, d]_q = |family|, t real >= d.

    The verdict is exact; t and the bound are for display.
    """
    if len(fam) < 1:
        raise ValidationError("family must be nonempty")
    shadow_size = len(_subspace_shadow(fam))
    holds, t, bound = _gaussian_bound(shadow_size, len(fam), fam.d, fam.q)
    return lower_report("subspace shadow size", shadow_size, bound, "q-analog kruskal-katona", holds=holds,
                        extra={"t": t, "family_size": len(fam), "q": fam.q})
