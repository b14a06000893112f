"""Finite-field linear algebra for the q-analog of the shadow bound.

Subspaces of F_q^n are identified with their reduced row-echelon matrices,
which gives a unique hashable representative per subspace.  q is restricted
to primes so field arithmetic is plain mod-q integer arithmetic; the theorem
also holds for prime powers but those would need polynomial field towers.
The `qkk` command and the subspace-family reader are here.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Iterable, Sequence
from itertools import chain, combinations, count, product
from operator import itemgetter, lt

from . import formats
from .errors import CapacityError, ValidationError, check_cap
from .numkit import _member_bound, gaussian_binom
from .reports import BoundReport, Record, _shadow_check, lower_report

FIELD_CAP = 2**16  # q and q^n of a field whose points or subspaces are built
SHAPE_CAP, ENTRY_CAP = 10**6, 2 * 10**7  # the shadow's: hyperplanes of a member, entries of all hyperplanes

Matrix = tuple[tuple[int, ...], ...]


@functools.cache
def is_prime(q: int) -> bool:
    """Trial division, up to isqrt(q) steps, once per q: every q is capped before it comes here."""
    return q >= 2 and all(q % p for p in range(2, math.isqrt(q) + 1))


def _check_prime(q: int, cap: int) -> None:
    """Refuse a field order q above cap, then one that is not prime."""
    check_cap("field order q", q, cap)
    if not is_prime(q):
        raise ValidationError(f"q must be prime, got {q}")


def _check_field(q: int, n: int) -> None:
    """Refuse F_q^n unless q is prime and q and q^n are at most FIELD_CAP; q first, since q^0 = 1 does not bound it."""
    _check_prime(q, FIELD_CAP)
    if n < 0:
        raise ValidationError(f"n must be nonnegative, got {n}")
    if n > FIELD_CAP.bit_length():  # q^n >= 2^n, refused before it is formed
        raise CapacityError(f"field size q^n = {q}^{n} exceeds cap {FIELD_CAP}")
    check_cap("field size q^n", q**n, FIELD_CAP)


def _reduce(rows: Matrix, v: Sequence[int], q: int) -> Sequence[int]:
    """v, with entries in [0, q), less its component along reduced echelon rows: zero exactly when v lies
    in their span."""
    for row in rows:
        if c := v[row.index(1)]:  # a reduced echelon row leads with 1, so its first 1 is its pivot
            v = [(a - c * b) % q for a, b in zip(v, row)]
    return v


def _echelon(rows: Matrix, v: Sequence[int], q: int) -> Matrix:
    """The reduced echelon basis of span(rows, v) from rows in that form, or rows itself when v lies in their span:
    v reduced against the rows, scaled to lead with 1, and cleared from the rows at its pivot."""
    v = _reduce(rows, v, q)
    lead = next((j for j, x in enumerate(v) if x), None)
    if lead is None:
        return rows
    inv = pow(v[lead], q - 2, q)
    v = tuple([x * inv % q for x in v])
    rows = [tuple([(a - r[lead] * b) % q for a, b in zip(r, v)]) if r[lead] else r for r in rows]
    return tuple(sorted([*rows, v], key=lambda r: r.index(1)))


def rref(rows: Iterable[Sequence[int]], q: int) -> Matrix:
    """Reduced row-echelon form over F_q with zero rows dropped; q is capped at SHAPE_CAP, as a file's is."""
    _check_prime(q, SHAPE_CAP)
    work = [[x % q for x in row] for row in rows]
    if any(len(r) != len(work[0]) for r in work):
        raise ValidationError("ragged matrix")
    return functools.reduce(lambda basis, v: _echelon(basis, v, q), work, ())


def _id_columns(members: Sequence[Matrix], d: int) -> tuple[list[tuple], dict[tuple, int], list[list[int]]]:
    """The members' rows, each distinct row's id (its first index there), and d columns of ids, one per row."""
    rows = list(chain.from_iterable(members))
    ids: dict[tuple, int] = {}
    flat = list(map(ids.setdefault, rows, count()))
    return rows, ids, [flat[j::d] for j in range(d)]


def _in_echelon_form(canon: list[Matrix], q: int, n: int, d: int) -> bool:
    """True iff every member is a rank-d reduced echelon d×n matrix of ints in [0, q), i.e. rref(m, q) == m.

    Types are decided per entry (an int row and an equal one holding a float or a bool hash alike),
    length and range per distinct row, and the form per column of row ids: each distinct row leads with
    a 1, the leads strictly increase down each member, and each distinct (row, later lead) pair is zero.
    """
    if not (set(map(len, canon)) <= {d} and set(map(type, chain.from_iterable(chain.from_iterable(canon)))) <= {int}):
        return False
    rows, ids, cols = _id_columns(canon, d)
    if not (set(map(len, ids)) <= {n} and min(map(min, ids), default=0) >= 0 and max(map(max, ids), default=0) < q):
        return False
    lead = {}
    for row, i in ids.items():
        j = next((j for j, x in enumerate(row) if x), n)
        if j == n or row[j] != 1:
            return False
        lead[i] = j
    pivots = [list(map(lead.__getitem__, col)) for col in cols]
    if not all(all(map(lt, above, below)) for above, below in zip(pivots, pivots[1:])):
        return False
    pairs = set(chain.from_iterable(zip(cols[i], pivots[j]) for j in range(d) for i in range(j)))
    return not any(rows[i][j] for i, j in pairs)


class SubspaceFamily(Record):
    """d-dimensional subspaces of F_q^n in canonical echelon form."""

    q: int
    n: int
    d: int
    members: tuple[Matrix, ...]

    @classmethod
    def make(cls, q: int, n: int, d: int, members: Iterable[Iterable[Sequence[int]]]) -> "SubspaceFamily":
        """The members, sorted, with entries reduced mod q.

        A family already in form is accepted in bulk, with no sort if its members strictly increase;
        any other is checked member by member, which names the first bad one. A non-int entry is named
        before a bad q or d, as the family reader names it.
        """
        canon = [tuple(map(tuple, m)) for m in members]
        if not (q <= SHAPE_CAP and is_prime(q) and 0 <= d <= n and _in_echelon_form(canon, q, n, d)):
            for x in chain.from_iterable(chain.from_iterable(canon)):  # named as the family reader names it
                formats._int(x, "subspace entry")
            # a member of dimension 2 or more over a larger field has more hyperplanes than the shadow takes
            _check_prime(q, SHAPE_CAP)
            if not (0 <= d <= n):
                raise ValidationError(f"need 0 <= d <= n, got d={d}, n={n}")
            mats, canon = canon, []
            for m in mats:  # reduce mod q; name the first bad member
                mat = tuple(tuple(x % q for x in row) for row in m)
                for row in mat:
                    if len(row) != n:
                        raise ValidationError(f"row {row} has length {len(row)}, expected {n}")
                if not _in_echelon_form([mat], q, n, d):
                    raise ValidationError(f"member {mat} is not a rank-{d} reduced echelon matrix")
                canon.append(mat)
        if not all(map(lt, canon, canon[1:])):
            if len(set(canon)) != len(canon):
                raise ValidationError("duplicate subspaces")
            canon.sort()
        return cls(q=q, n=n, d=d, members=tuple(canon))

    def __len__(self) -> int:
        return len(self.members)


def subspace_family_from_obj(obj: object) -> SubspaceFamily:
    """The family of {"q": int, "n": int, "d": int, "members": [[[ints mod q]]]}, unknown fields refused. A
    refusal names the first bad entry in file order, a non-int entry before a bad d or q; only a file that
    fails the bulk checks here (members and rows are lists) and in `make` (types) is read again entry by entry."""
    if not isinstance(obj, dict):
        raise ValidationError("subspace family JSON must be an object")
    formats._require_keys(obj, {"q", "n", "d", "members"}, set(), "subspace family")
    q, n, d = formats._int(obj["q"], "q"), formats._int(obj["n"], "n"), formats._int(obj["d"], "d")
    members = formats._list(obj["members"], "members")
    if not (formats._lists(members) and formats._lists(chain.from_iterable(members))):
        for m in members:  # name the first bad entry
            for row in formats._list(m, "member"):
                for x in formats._list(row, "member row"):
                    formats._int(x, "subspace entry")
    return SubspaceFamily.make(q, n, d, members)


def enumerate_subspaces(q: int, n: int, d: int) -> SubspaceFamily:
    """All d-dim subspaces of F_q^n, generated directly in echelon form.

    For each pivot-column choice the free entries (right of the pivot, off
    the other pivot columns) range over F_q independently.
    """
    _check_field(q, n)
    if not (0 <= d <= n):
        raise ValidationError(f"need 0 <= d <= n, got d={d}, n={n}")
    members = []
    for pivots in combinations(range(n), d):
        pivot_set = set(pivots)
        free = [(i, j) for i in range(d) for j in range(n) if j > pivots[i] and j not in pivot_set]
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


def _subspace_shadow(fam: SubspaceFamily) -> tuple[set[tuple[int, ...]], dict[tuple[int, ...], int]]:
    """The (d-1)-dim subspaces contained in some member, as tuples of row ids, and the id of each row.

    The hyperplanes of a member M are the row spaces of C·M, C running over
    the reduced echelon (d-1)×d matrices, so no ambient enumeration is needed.
    C·M is already in reduced echelon form: row i leads with the 1 in the
    pivot column of M's row p_i (p_i the i-th pivot of C), and that column
    of C·M is the i-th unit vector.  C has one non-pivot column f, so row i
    of C·M is M[p_i] + c·M[f], with c = 0 unless p_i < f.

    The family is laid out as d columns of row ids, and every row is interned
    by content, so equal subspaces get equal id tuples.  A memo keyed by the
    id pair (M[p], M[f]), filled for the distinct pairs present only, holds
    the ids of M[p] + c·M[f] for every c; each such column is then one `map`
    over it, and each of the [d, 1]_q shapes of C one `zip` of d-1 columns
    into the set.  The work is capped before any row is combined: the shapes,
    and the hyperplane entries members × [d, 1]_q × n.
    """
    q, d = fam.q, fam.d
    if d < 1:
        raise ValidationError("shadow needs d >= 1")
    if not fam.members:
        return set(), {}
    shapes = gaussian_binom(d, 1, q)
    check_cap("hyperplanes of a member [d, 1]_q", shapes, SHAPE_CAP)
    check_cap("hyperplane entries (members x [d, 1]_q x n)", len(fam) * shapes * fam.n, ENTRY_CAP)
    if d == 1:  # the zero subspace
        return {()}, {}
    rows, ids, cols = _id_columns(fam.members, d)
    fresh = count(len(rows))  # ids for the rows that combining makes
    memo: dict[tuple[int, int], tuple[int, ...]] = {}  # (a, b) -> the ids of row a + c·row b for c = 0, ..., q-1
    out = set()
    for f in range(d):
        options = []  # for each p < f, the columns of ids of M[p] + c·M[f], c = 0, ..., q-1
        for p in range(f):
            pairs = list(zip(cols[p], cols[f]))
            for a, b in set(pairs).difference(memo):
                ra, rb = rows[a], rows[b]
                memo[a, b] = (a, *(ids.setdefault(tuple([(x + c * y) % q for x, y in zip(ra, rb)]), next(fresh))
                                   for c in range(1, q)))
            combos = list(map(memo.__getitem__, pairs))
            options.append([cols[p], *(list(map(itemgetter(c), combos)) for c in range(1, q))])
        for shape in product(*options):
            out.update(zip(*shape, *cols[f + 1:]))
    return out, ids


def check_q_kruskal_katona(fam: SubspaceFamily) -> BoundReport:
    """|shadow| >= [t, d-1]_q where [t, d]_q = |family|, t real >= d.

    The verdict is exact; t and the bound are for display.
    """
    if len(fam) < 1:
        raise ValidationError("family must be nonempty")
    shadow_size = len(_subspace_shadow(fam)[0])
    q = fam.q
    holds, y, bound = _member_bound(shadow_size, len(fam), [q**k - 1 for k in range(1, fam.d + 1)])
    return lower_report("subspace shadow size", shadow_size, bound, "q-analog kruskal-katona", holds=holds,
                        extra={"t": math.log(y + 1, q), "family_size": len(fam), "q": q})


def _qkk_options(p) -> None:
    p.add_argument("--family", required=True)


def _cmd_qkk(args) -> tuple[dict, list[BoundReport], list[str]]:
    fam = subspace_family_from_obj(formats.load_json(args.family))
    return _shadow_check(check_q_kruskal_katona(fam), family_size=len(fam), q=fam.q, d=fam.d)
