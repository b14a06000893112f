"""Forbidding systems: good/bad multiset oracles with declared c-vectors.

A system classifies every multiset of size <= d over a finite universe as
good or bad, subject to two axioms: bad multisets stay bad under extension
(and every singleton is good), and every good k-multiset has exactly c_k bad
extensions.  Compatible subsets then yield symmetric tuple families S^(d)
whose unions obey a falling-product shadow bound.  Compatibility is decided
by that count: S is compatible exactly when its good ordered k-tuples number
|S|(|S|-c_1)...(|S|-c_{k-1}) at every size k <= d.

A system may also declare `forbidden(ms)`, the c_k bad extensions of a good
k-multiset: for `repeats` its own elements, for `qlinear` its span minus zero.
The walk then extends each good multiset by the elements outside it and never
classifies; `verify_forbidding_axioms` checks it against the classifier.

Oracles must be pure functions of the multiset; classification results are
memoized per system instance.  The `forbidding` command and its actions are
here.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections.abc import Callable, Collection, Hashable, Iterable, Sequence
from itertools import combinations, combinations_with_replacement, product

from . import formats, hypergraph as hg, qlinalg as ql
from .errors import REQUIRED, BoundViolationError, ValidationError, check_cap, mode_options, parse_ints
from .numkit import _c_vector, product_falling, shadow_bound
from .reports import BoundReport, Record, _shadow_check, lower_report

SYSTEM_UNIVERSE_CAP = 2**16  # elements of the repeats universe; qlinalg.FIELD_CAP bounds the qlinear one
# measured 0.6-0.9 µs a good d-multiset for repeats, 0.6-4 µs for qlinear (the span of each good (d-1)-multiset)
GKK_MULTISET_CAP = 5 * 10**5
# verify classifies, and memoizes, the C(|U|+d, d) - 1 multisets of size 1..d, measured 0.6 µs each for repeats,
# 0.7-2.2 µs for qlinear (a reduction against a cached basis), and refuses more; each holds up to d elements, so
# their d-fold count is held within 10 x VERIFY_CAP.  Only verify classifies qlinear multisets (the walk and the
# witness go through `forbidden`), so the qlinear basis cache holds at most one basis per classified multiset,
# and the walk's span cache one span per good multiset below size d - 1 that it extends
VERIFY_CAP = 10**6

Multiset = tuple  # sorted tuple with repetition, canonical by element order


class ForbiddingSystem:
    """Good/bad multiset oracle over a finite universe with a declared c-vector.

    `forbidden`, if given, maps a good sorted multiset of size k < d to its c_k bad extensions, as a
    container of universe elements; the walk then extends by the elements outside it and classifies
    nothing, and `verify_forbidding_axioms` holds it to the classifier.
    """

    def __init__(self, universe: Iterable[Hashable], d: int,
                 classify_good: Callable[[Multiset], bool],
                 c_vector: Sequence[int], name: str = "custom",
                 forbidden: Callable[[Multiset], Collection] | None = None):
        self._members = frozenset(universe)
        self.universe = tuple(sorted(self._members))
        if not self.universe:
            raise ValidationError("universe must be nonempty")
        if d < 1:
            raise ValidationError(f"d must be positive, got {d}")
        self.d = d
        self.c_vector = _c_vector(c_vector)
        if len(self.c_vector) != d - 1:
            raise ValidationError(
                f"c-vector has length {len(self.c_vector)}, expected d-1 = {d - 1}"
            )
        self.name = name
        self._classify = classify_good
        self._memo: dict[Multiset, bool] = {}
        self.forbidden = forbidden

    def is_good(self, multiset: Sequence) -> bool:
        key = tuple(sorted(multiset))
        if len(key) > self.d:
            raise ValidationError(f"multiset {key} larger than d = {self.d}")
        return self._good(key)

    def _good(self, key: Multiset) -> bool:
        """The memoized verdict on a sorted multiset, classified and stored on a miss."""
        good = self._memo.get(key)
        if good is None:
            good = self._memo[key] = bool(self._classify(key))
        return good


def repeats_system(n: int, d: int) -> ForbiddingSystem:
    """Bad = contains a repeated element; the (1, 2, ..., d-1) system."""
    check_cap("universe size", n, SYSTEM_UNIVERSE_CAP)
    return ForbiddingSystem(
        universe=range(n),
        d=d,
        classify_good=lambda ms: len(set(ms)) == len(ms),
        c_vector=tuple(range(1, d)),
        name="repeats",
        forbidden=lambda ms: ms,  # a good multiset's own elements
    )


def _span(rows: Iterable[tuple[int, ...]], q: int, points: frozenset = frozenset()) -> frozenset:
    """The nonzero vectors of span(P, rows) over F_q, from the nonzero vectors `points` of a subspace P.

    Each row v, with entries in [0, q), adds its nonzero multiples c·v and their sums with the vectors so far.
    """
    for v in rows:
        line = [v]
        for c in range(2, q):
            line.append(tuple([c * x % q for x in v]))
        points = points.union(line, [tuple([(a + b) % q for a, b in zip(p, w)]) for w in line for p in points])
    return points


def qlinear_system(q: int, n: int, d: int) -> ForbiddingSystem:
    """Bad = linearly dependent over F_q; the (q-1, q^2-1, ...) system.

    Universe is F_q^n minus the zero vector; q must be prime.  A multiset is classified by reducing its
    last vector against the reduced echelon basis of the others, and a good one forbids its span minus
    zero, built from the span of all but its last vector.  Each is cached per multiset only below the
    size at which it is extended: bases below size d, spans below size d - 1.
    """
    ql._check_field(q, n)
    whole = frozenset(v for v in product(range(q), repeat=n) if any(v))
    bases: dict[Multiset, ql.Matrix] = {(): ()}
    spans: dict[Multiset, frozenset] = {(): frozenset()}

    def basis(ms: Multiset) -> ql.Matrix:
        k = len(ms)
        while (rows := bases.get(ms[:k])) is None:  # the longest prefix with a cached basis; () has one
            k -= 1
        for j in range(k, len(ms)):
            rows = bases[ms[:j + 1]] = ql._echelon(rows, ms[j], q)
        return rows

    def classify(ms: Multiset) -> bool:
        rows = bases.get(ms[:-1])
        if rows is None:
            rows = basis(ms[:-1])
        return len(rows) == len(ms) - 1 and any(ql._reduce(rows, ms[-1], q))

    def forbidden(ms: Multiset) -> frozenset:
        if len(ms) == n:  # n independent vectors span F_q^n
            return whole
        k = len(ms)
        while (points := spans.get(ms[:k])) is None:  # the longest prefix with a cached span; () has one
            k -= 1
        if k < len(ms):
            points = _span(ms[k:], q, points)
            if len(ms) < d - 1:
                spans[ms] = points
        return points

    # no function here refers to itself or to the system, so a system leaves no reference cycle
    return ForbiddingSystem(whole, d, classify, tuple(q**k - 1 for k in range(1, d)), f"qlinear:{q},{n}", forbidden)


def system_from_name(name: str, d: int, universe_size: int | None = None) -> ForbiddingSystem:
    """Built-in systems: "repeats" (needs universe_size) or "qlinear:q,n".

    No good multiset has more than |U| elements under repeats, or more than n
    vectors under qlinear:q,n, so S^(d) is empty past that size plus one: a
    deeper d is refused before its c-vector is built, after a negative size.
    """
    if name == "repeats":
        if universe_size is None:
            raise ValidationError("repeats system needs a universe size")
        size, what = universe_size, "universe size"
    elif name.startswith("qlinear:"):
        try:
            q, size = (int(x) for x in name.split(":", 1)[1].split(","))
        except ValueError as exc:
            raise ValidationError(f"expected qlinear:q,n, got {name!r}") from exc
        what = "n"
    else:
        raise ValidationError(f"unknown system {name!r}")
    if size < 0:
        raise ValidationError(f"{what} must be nonnegative, got {size}")
    check_cap("depth d (largest good multiset + 1)", d, size + 1)
    return repeats_system(size, d) if name == "repeats" else qlinear_system(q, size, d)


class AxiomReport(Record):
    ok: bool
    checked: int
    violation: str | None = None


def _extensions(sys: ForbiddingSystem, ms: Multiset) -> list[bool]:
    """Whether ms + (x,) is good, for each universe element x in order.

    The universe is cut before each distinct element of the sorted ms, and the elements between two cuts
    go in before the first place of the later one in ms, so the keys need no sort.
    """
    universe, splits, lo, j = sys.universe, [], 0, 0
    while j < len(ms):  # ms[j] is the first of its value in ms
        hi = bisect_left(universe, ms[j])
        if lo < hi:
            splits.append((ms[:j], ms[j:], universe[lo:hi]))
        lo, j = hi, bisect_right(ms, ms[j], j)
    if lo < len(universe):
        splits.append((ms, (), universe[lo:]))
    return [sys._good(head + (x,) + tail) for head, tail, xs in splits for x in xs]


def _check_multiset(sys: ForbiddingSystem, ms: Multiset) -> str | None:
    k = len(ms)
    if sys.is_good(ms):
        bad_ext = [x for x, good in zip(sys.universe, _extensions(sys, ms)) if not good]
        expected = sys.c_vector[k - 1]
        if len(bad_ext) != expected:
            return f"good {ms} has {len(bad_ext)} bad extensions, declared c_{k} = {expected}"
        if sys.forbidden and (differ := set(sys.forbidden(ms)).symmetric_difference(bad_ext)):
            return f"forbidden({ms}) and the classifier disagree on its extension by {min(differ)}"
    else:
        witness = next((x for x, good in zip(sys.universe, _extensions(sys, ms)) if good), None)
        if witness is not None:
            return f"bad {ms} has good extension by {witness}"
    return None


def verify_forbidding_axioms(sys: ForbiddingSystem) -> AxiomReport:
    """Check the two axioms over every multiset of size < d, and each extension of one by an element.

    Refuses, before classifying any, more than VERIFY_CAP multisets of size
    1..d, C(|U|+d, d) - 1 of them, which it classifies and memoizes; each holds
    up to d elements, so it also refuses d times that number past
    10 x VERIFY_CAP, which binds only for d > 10 over a small universe.
    """
    multisets = math.comb(len(sys.universe) + sys.d, sys.d) - 1
    check_cap("multisets of size 1..d", multisets, VERIFY_CAP)
    check_cap("memo elements (multisets x d)", multisets * sys.d, 10 * VERIFY_CAP)
    checked = 0
    for x in sys.universe:
        checked += 1
        if not sys.is_good((x,)):
            return AxiomReport(False, checked, f"singleton ({x},) is bad")
    for k in range(1, sys.d):
        for ms in combinations_with_replacement(sys.universe, k):
            checked += 1
            issue = _check_multiset(sys, ms)
            if issue:
                return AxiomReport(False, checked, issue)
    return AxiomReport(True, checked, None)


class CompatibilityResult(Record):
    ok: bool
    witness: tuple[Multiset, Hashable] | None = None


def _orderings(ms: Multiset) -> int:
    """Distinct orderings of a sorted multiset: len! / prod(multiplicity!)."""
    count = math.factorial(len(ms))
    distinct = set(ms)
    if len(distinct) != len(ms):
        for x in distinct:
            count //= math.factorial(ms.count(x))
    return count


def _witness(sys: ForbiddingSystem, inside: tuple, level: list[Multiset], c: int) -> tuple | None:
    """First multiset of `level` with fewer than c bad extensions inside, and its first bad outside extension."""
    for ms in level:
        bad = sys.forbidden(ms).__contains__ if sys.forbidden else lambda x: not sys.is_good(ms + (x,))
        if sum(map(bad, inside)) < c:
            inside_set = set(inside)
            return next(((ms, x) for x in sys.universe if x not in inside_set and bad(x)), None)
    return None


def _walk(sys: ForbiddingSystem, inside: tuple) -> tuple[tuple | None, list[Multiset], int]:
    """Walk the good sorted multisets of a sorted set S to size d, by size then lexicographically.

    A multiset is extended only by elements >= its last one, and a bad one is
    not extended: under the forbidding axioms every sub-multiset of a good
    multiset is good, so nothing good is missed.  Its good extensions are the
    elements outside `forbidden`, which must hold c_k of them, or else those
    the memoized classifier calls good.  A good k-multiset has c_k
    bad extensions, so the good ordered (k+1)-tuples over S number at least
    (|S| - c_k) times the good k-tuples, with equality iff all of them lie in
    S.  Equal goes on; more yields the first witness (multiset, outside
    element); fewer, or more with no witness, breaks the declared axioms.
    Each multiset carries its orderings: appending x multiplies them by the
    new size over the new multiplicity of x.  Returns the witness, or None,
    the good d-multisets and |S^(d)|.
    """
    unknown = sorted(set(inside).difference(sys._members))
    if unknown:
        raise ValidationError(f"elements {unknown} are not in the universe")
    good_of, forbidden = sys._good, sys.forbidden
    level: list[tuple[Multiset, int, int]] = [((), 0, 1)]  # (multiset, index of its last element, orderings)
    expected = 1
    for size, c in enumerate((0,) + sys.c_vector, 1):  # c_0 = 0: all |S| singletons are good
        grown = []
        found = 0
        for ms, start, count in level:
            bad = forbidden(ms) if forbidden else None
            if bad is not None and len(bad) != c:
                raise ValidationError(f"forbidden({ms}) has {len(bad)} elements, declared c_{size - 1} = {c}")
            for i in range(start, len(inside)):
                key = ms + (inside[i],)
                if good_of(key) if bad is None else inside[i] not in bad:
                    orderings = count * size // key.count(inside[i])
                    grown.append((key, i, orderings))
                    found += orderings
        expected *= len(inside) - c
        if found > expected and (witness := _witness(sys, inside, [ms for ms, *_ in level], c)):
            return witness, [], 0
        if found != expected:
            raise ValidationError(
                f"|S^({size})| = {found} but the declared c-vector predicts {expected}; "
                "the classifier does not satisfy the forbidding axioms"
            )
        level = grown
    return None, [ms for ms, *_ in level], expected


def _check_multiset_cap(sys: ForbiddingSystem, insides: list[tuple]) -> None:
    """Refuse more than GKK_MULTISET_CAP predicted good d-multisets in all, before classifying:
    |S|(|S|-c_1)...(|S|-c_{d-1}) / d! a set, exact when none repeats an element."""
    predicted = sum(max(0, product_falling(len(inside), sys.c_vector)) for inside in insides)
    check_cap("good d-multisets", predicted // math.factorial(sys.d), GKK_MULTISET_CAP)


def is_compatible(sys: ForbiddingSystem, s: Iterable[Hashable]) -> CompatibilityResult:
    """A set is compatible when bad-extending elements of its good multisets stay inside.

    Decided by the walk's level counts: no element outside the set is
    classified unless it is not compatible.  Raises ValidationError where the
    classifier breaks the declared axioms; capped like `sd_orbits`.
    """
    inside = tuple(sorted(set(s)))
    _check_multiset_cap(sys, [inside])
    witness, *_ = _walk(sys, inside)
    return CompatibilityResult(witness is None, witness)


def sd_orbits(sys: ForbiddingSystem, sets: Iterable[Iterable[Hashable]]) -> list[tuple[list[Multiset], int]]:
    """Per compatible set, the orbits of S^(d) under permutation (its good d-multisets) and |S^(d)|.

    |S^(d)| = |S|(|S|-c_1)...(|S|-c_{d-1}).  Builds no tuple.  Refuses more
    than GKK_MULTISET_CAP predicted good d-multisets in all, before classifying.
    """
    insides = [tuple(sorted(set(s))) for s in sets]
    _check_multiset_cap(sys, insides)
    orbits = []
    for inside in insides:
        witness, members, size = _walk(sys, inside)
        if witness is not None:
            raise ValidationError(f"set is not compatible; witness {witness}")
        orbits.append((members, size))
    return orbits


def check_generalized_kk(
    sys: ForbiddingSystem,
    sets: Sequence[Iterable[Hashable]],
) -> BoundReport:
    """|shadow(F)| >= t(t-c_1)...(t-c_{d-2}) where |F| = t(t-c_1)...(t-c_{d-1}).

    F is the union of the S_i^(d), which must be mutually disjoint.  Every
    S_i^(d) is closed under permutation, so F is counted by its good
    d-multisets and its (d-1)-prefix shadow by their distinct (d-1)-sub-multisets,
    without building a tuple.  The verdict is exact; t and the bound are
    for display.
    """
    if sys.d < 2:
        raise ValidationError("the shadow bound needs d >= 2")
    members: set[Multiset] = set()
    total = family_size = 0
    for found, size in sd_orbits(sys, sets):
        total += len(found)
        family_size += size
        members.update(found)
        if len(members) != total:
            raise ValidationError("the S_i^(d) are not mutually disjoint")
    if not members:
        raise ValidationError(
            "union of tuple families is empty; the bound needs |F| >= 1"
        )
    shadow: set[Multiset] = set()
    for ms in members:
        shadow.update(combinations(ms, sys.d - 1))
    shadow_size = sum(map(_orderings, shadow))
    holds, t, bound = shadow_bound(shadow_size, family_size, sys.c_vector)
    return lower_report(
        "tuple shadow size",
        shadow_size,
        bound,
        "generalized kruskal-katona",
        holds=holds,
        extra={"t": t, "family_size": family_size, "c_vector": sys.c_vector},
    )


def _parse_set(sys_name: str, text: str):
    """--set's elements: ints '0,1,2', or vectors '1,0;0,1' for a qlinear system."""
    if sys_name.startswith("qlinear"):
        return [tuple(parse_ints(part)) for part in text.split(";") if part.strip()]
    return parse_ints(text)


def _verify(args, system: ForbiddingSystem) -> tuple[dict, list[BoundReport], list[str]]:
    rep = verify_forbidding_axioms(system)
    if not rep.ok:
        raise BoundViolationError(f"forbidding axioms failed: {rep.violation}")
    # "exhaustive" is always true, as verify is exhaustive or refused; kept because the benchmark's verify jobs check it
    q = {"system": system.name, "ok": rep.ok, "exhaustive": True, "checked": rep.checked,
         "c_vector": list(system.c_vector)}
    return q, [], []


def _compatible(args, system: ForbiddingSystem) -> tuple[dict, list[BoundReport], list[str]]:
    result = is_compatible(system, _parse_set(args.system, args.set))
    q = {"system": system.name, "compatible": result.ok}
    if result.witness:
        q["witness_multiset"] = list(result.witness[0])
        q["witness_extension"] = result.witness[1]
    return q, [], []


def _sd(args, system: ForbiddingSystem) -> tuple[dict, list[BoundReport], list[str]]:
    [(_, size)] = sd_orbits(system, [_parse_set(args.system, args.set)])
    return {"system": system.name, "tuples": size, "d": system.d}, [], []


def _gkk(args, system: ForbiddingSystem) -> tuple[dict, list[BoundReport], list[str]]:
    if args.family:
        sets = hg.set_family_from_obj(formats.load_json(args.family)).sets
    elif args.subspaces:
        sub = ql.subspace_family_from_obj(formats.load_json(args.subspaces))
        if system.name != (name := f"qlinear:{sub.q},{sub.n}"):  # refused before any member's q^d points are built
            raise ValidationError(f"subspaces of F_{sub.q}^{sub.n} need --system {name}, got {system.name}")
        sets = [_span(member, sub.q) for member in sub.members]
    else:
        raise ValidationError("gkk needs --family or --subspaces")
    rep = check_generalized_kk(system, sets)
    return _shadow_check(rep, system=system.name, family_size=rep.extra["family_size"])


# the forbidding actions by name, each run on the system that --system and --d name
_FORBIDDING_ACTIONS = {"verify": _verify, "compatible": _compatible, "sd": _sd, "gkk": _gkk}
# each action's options and their defaults, by argparse dest, as `mode_options` reads them
_MODE_OPTIONS = {"verify": {}, "compatible": {"set": REQUIRED}, "sd": {"set": REQUIRED},
                 "gkk": {"family": None, "subspaces": None}}


def _forbidding_options(p) -> None:
    p.add_argument("action", choices=list(_FORBIDDING_ACTIONS))
    p.add_argument("--system", required=True, help="'repeats' or 'qlinear:q,n'")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--universe-size", type=int)
    p.add_argument("--set", help="elements: ints '0,1,2' or vectors '1,0;0,1'")
    p.add_argument("--family")
    p.add_argument("--subspaces")


def _cmd_forbidding(args) -> tuple[dict, list[BoundReport], list[str]]:
    mode_options(args, "forbidding", args.action, _MODE_OPTIONS)  # refused before any file is read
    if args.family is not None and args.subspaces is not None:
        raise ValidationError("gkk takes --family or --subspaces, not both")
    if args.universe_size is not None and args.system.startswith("qlinear:"):
        raise ValidationError(f"--universe-size applies only to the repeats system, not {args.system}")
    system = system_from_name(args.system, args.d, universe_size=args.universe_size)
    return _FORBIDDING_ACTIONS[args.action](args, system)
