"""Forbidding systems: good/bad multiset oracles with declared c-vectors.

A system classifies every multiset of size <= d over a finite universe as
good or bad, subject to two axioms: bad multisets stay bad under extension
(and every singleton is good), and every good k-multiset has exactly c_k bad
extensions.  Compatible subsets then yield symmetric tuple families S^(d)
whose unions obey a falling-product shadow bound.  Compatibility is decided
by that count: S is compatible exactly when its good ordered k-tuples number
|S|(|S|-c_1)...(|S|-c_{k-1}) at every size k <= d.

Oracles must be pure functions of the multiset; classification results are
memoized per system instance.
"""

from __future__ import annotations

import math
import random
from itertools import combinations, combinations_with_replacement, product
from typing import Callable, Hashable, Iterable, Sequence

from .errors import ValidationError, check_cap
from .numkit import CVector, product_falling, shadow_bound
from .qlinalg import is_prime, rref
from .record import Record
from .reports import BoundReport, lower_report

SYSTEM_UNIVERSE_CAP = 2**16  # elements of a built-in system's universe
GKK_MULTISET_CAP = 5 * 10**5  # measured 3-8 µs a good d-multiset for repeats, 17-30 µs for qlinear
# verify's exhaustive branch classifies the C(|U|+d, d) - 1 multisets of size 1..d; its spot-check
# makes trials x |U| lookups, measured 1.5-2 µs each for repeats, 14-16 µs for qlinear
VERIFY_CAP = 10**6
SPOT_TRIALS = 2000

Multiset = tuple  # sorted tuple with repetition, canonical by element order


class ForbiddingSystem:
    """Good/bad multiset oracle over a finite universe with a declared c-vector."""

    def __init__(self, universe: Iterable[Hashable], d: int,
                 classify_good: Callable[[Multiset], bool],
                 c_vector: CVector | Sequence[int], name: str = "custom"):
        self.universe = tuple(sorted(set(universe)))
        if not self.universe:
            raise ValidationError("universe must be nonempty")
        if d < 1:
            raise ValidationError(f"d must be positive, got {d}")
        self.d = d
        self.c_vector = CVector.coerce(c_vector)
        if len(self.c_vector) != d - 1:
            raise ValidationError(
                f"c-vector has length {len(self.c_vector)}, expected d-1 = {d - 1}"
            )
        self.name = name
        self._classify = classify_good
        self._memo: dict[Multiset, bool] = {}

    def is_good(self, multiset: Sequence) -> bool:
        key = tuple(sorted(multiset))
        if len(key) > self.d:
            raise ValidationError(f"multiset {key} larger than d = {self.d}")
        cached = self._memo.get(key)
        if cached is None:
            cached = self._memo[key] = bool(self._classify(key))
        return cached


def repeats_system(n: int, d: int) -> ForbiddingSystem:
    """Bad = contains a repeated element; the (1, 2, ..., d-1) system."""
    check_cap("universe size", n, SYSTEM_UNIVERSE_CAP)
    return ForbiddingSystem(
        universe=range(n),
        d=d,
        classify_good=lambda ms: len(set(ms)) == len(ms),
        c_vector=tuple(range(1, d)),
        name="repeats",
    )


def qlinear_system(q: int, n: int, d: int) -> ForbiddingSystem:
    """Bad = linearly dependent over F_q; the (q-1, q^2-1, ...) system.

    Universe is F_q^n minus the zero vector; q must be prime.
    """
    if not is_prime(q):
        raise ValidationError(f"q must be prime, got {q}")
    check_cap("field size q^n", q**n, SYSTEM_UNIVERSE_CAP)
    universe = [v for v in product(range(q), repeat=n) if any(v)]
    return ForbiddingSystem(
        universe=universe,
        d=d,
        # more than n vectors, or a repeated one, are dependent without a rank test
        classify_good=lambda ms: len(ms) <= n and len(set(ms)) == len(ms) and len(rref(ms, q)) == len(ms),
        c_vector=tuple(q**k - 1 for k in range(1, d)),
        name=f"qlinear:{q},{n}",
    )


def system_from_name(name: str, d: int, universe_size: int | None = None) -> ForbiddingSystem:
    """Built-in systems: "repeats" (needs universe_size) or "qlinear:q,n".

    No good multiset has more than |U| elements under repeats, or more than n
    vectors under qlinear:q,n, so S^(d) is empty past that size plus one; a
    deeper d is refused before its c-vector is built.
    """
    if name == "repeats":
        if universe_size is None:
            raise ValidationError("repeats system needs a universe size")
        check_cap("depth d (largest good multiset + 1)", d, universe_size + 1)
        return repeats_system(universe_size, d)
    if name.startswith("qlinear:"):
        try:
            q, n = (int(x) for x in name.split(":", 1)[1].split(","))
        except ValueError as exc:
            raise ValidationError(f"expected qlinear:q,n, got {name!r}") from exc
        check_cap("depth d (largest good multiset + 1)", d, n + 1)
        return qlinear_system(q, n, d)
    raise ValidationError(f"unknown system {name!r}")


class AxiomReport(Record):
    ok: bool
    exhaustive: bool
    checked: int
    violation: str | None = None


def _check_multiset(sys: ForbiddingSystem, ms: Multiset) -> str | None:
    k = len(ms)
    if sys.is_good(ms):
        bad_ext = sum(1 for x in sys.universe if not sys.is_good(ms + (x,)))
        expected = sys.c_vector.entries[k - 1]
        if bad_ext != expected:
            return f"good {ms} has {bad_ext} bad extensions, declared c_{k} = {expected}"
    else:
        witness = next((x for x in sys.universe if sys.is_good(ms + (x,))), None)
        if witness is not None:
            return f"bad {ms} has good extension by {witness}"
    return None


def verify_forbidding_axioms(sys: ForbiddingSystem, seed: int = 0) -> AxiomReport:
    """Check the two axioms over all multisets of size < d (or SPOT_TRIALS random ones).

    Runs exhaustively when the C(|U|+d, d) - 1 multisets of size 1..d it
    classifies and memoizes are within VERIFY_CAP, and falls back to a seeded
    spot-check beyond that; the report carries which one ran.  A memoized
    multiset holds up to d elements, so d times the number either branch
    classifies is held within 10 x VERIFY_CAP, which binds only for d > 10
    over a small universe.
    """
    checked = 0
    multisets = math.comb(len(sys.universe) + sys.d, sys.d) - 1
    if multisets <= VERIFY_CAP and multisets * sys.d <= 10 * VERIFY_CAP:
        for x in sys.universe:
            checked += 1
            if not sys.is_good((x,)):
                return AxiomReport(False, True, checked, f"singleton ({x},) is bad")
        for k in range(1, sys.d):
            for ms in combinations_with_replacement(sys.universe, k):
                checked += 1
                issue = _check_multiset(sys, ms)
                if issue:
                    return AxiomReport(False, True, checked, issue)
        return AxiomReport(True, True, checked, None)

    # each trial classifies, and memoizes, every extension of its multiset by a universe element
    lookups = SPOT_TRIALS * len(sys.universe)
    check_cap("spot-check lookups (trials x universe size)", lookups, VERIFY_CAP)
    check_cap("spot-check memo elements (trials x universe size x d)", lookups * sys.d, 10 * VERIFY_CAP)
    rng = random.Random(seed)
    for _ in range(SPOT_TRIALS):
        checked += 1
        k = rng.randint(1, max(1, sys.d - 1))
        ms = tuple(sorted(rng.choice(sys.universe) for _ in range(k)))
        if k == 1 and not sys.is_good(ms):
            return AxiomReport(False, False, checked, f"singleton {ms} is bad")
        issue = _check_multiset(sys, ms)
        if issue:
            return AxiomReport(False, False, checked, issue)
    return AxiomReport(True, False, checked, None)


class CompatibilityResult(Record):
    ok: bool
    witness: tuple[Multiset, Hashable] | None = None

    def __bool__(self) -> bool:
        return self.ok


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
        if sum(not sys.is_good(ms + (x,)) for x in inside) < c:
            inside_set = set(inside)
            return next(((ms, x) for x in sys.universe if x not in inside_set and not sys.is_good(ms + (x,))), None)
    return None


def _walk(sys: ForbiddingSystem, inside: tuple) -> tuple[tuple | None, list[Multiset]]:
    """Walk the good sorted multisets of a sorted set S to size d, by size then lexicographically.

    A multiset is extended only by elements >= its last one, and a bad one is
    not extended: under the forbidding axioms every sub-multiset of a good
    multiset is good, so nothing good is missed.  A good k-multiset has c_k
    bad extensions, so the good ordered (k+1)-tuples over S number at least
    (|S| - c_k) times the good k-tuples, with equality iff all of them lie in
    S.  Equal goes on; more yields the first witness (multiset, outside
    element); fewer, or more with no witness, breaks the declared axioms.
    Returns the witness, or None and the good d-multisets.
    """
    unknown = sorted(set(inside).difference(sys.universe))
    if unknown:
        raise ValidationError(f"elements {unknown} are not in the universe")
    memo, classify = sys._memo, sys._classify
    level: list[tuple[Multiset, int]] = [((), 0)]
    expected = 1
    for size, c in enumerate((0,) + sys.c_vector.entries, 1):  # c_0 = 0: all |S| singletons are good
        grown = []
        for ms, start in level:
            for i in range(start, len(inside)):
                key = ms + (inside[i],)
                good = memo.get(key)
                if good is None:
                    good = memo[key] = bool(classify(key))
                if good:
                    grown.append((key, i))
        expected *= len(inside) - c
        found = sum(_orderings(ms) for ms, _ in grown)
        if found > expected and (witness := _witness(sys, inside, [ms for ms, _ in level], c)):
            return witness, []
        if found != expected:
            raise ValidationError(
                f"|S^({size})| = {found} but the declared c-vector predicts {expected}; "
                "the classifier does not satisfy the forbidding axioms"
            )
        level = grown
    return None, [ms for ms, _ in level]


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
    witness, _ = _walk(sys, inside)
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
        witness, members = _walk(sys, inside)
        if witness is not None:
            raise ValidationError(f"set is not compatible; witness {witness}")
        orbits.append((members, product_falling(len(inside), sys.c_vector)))
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
        extra={"t": t, "family_size": family_size, "c_vector": sys.c_vector.entries},
    )
