"""Exact finite joint distributions and the entropy identities used here.

Probabilities are exact rationals end to end; base-2 logarithms enter only
inside entropy evaluation; the key inequality needs only integer subset
degrees.  Every inequality check runs at absolute tolerance 1e-9.  The
`entropy` command and the distribution reader are here.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Iterable, Sequence
from fractions import Fraction
from itertools import combinations

from . import formats, hypergraph as hg
from .errors import REQUIRED, ValidationError, check_cap, mode_options, parse_ints
from .reports import BoundReport, Record, lower_report, upper_report

SUBSET_VISIT_CAP = 10**7  # members x 2^d; measured 0.16-0.48 µs a visit and at most 350 MB at the cap


class ExactDistribution(Record):
    """A joint distribution over value tuples with exact rational weights."""

    arity: int
    support: tuple[tuple[tuple, Fraction], ...]

    @classmethod
    def from_pairs(cls, arity: int, pairs: Iterable[tuple[Sequence, Fraction | int]]) -> "ExactDistribution":
        """Build from (tuple, weight) pairs; weights are normalized exactly."""
        table: dict[tuple, Fraction] = {}
        for values, w in pairs:
            t = tuple(values)
            if len(t) != arity:
                raise ValidationError(f"tuple {t} has length {len(t)}, expected {arity}")
            w = Fraction(w)
            if w <= 0:
                raise ValidationError(f"weight for {t} must be positive, got {w}")
            if t in table:
                raise ValidationError(f"duplicate tuple {t}")
            table[t] = w
        if not table:
            raise ValidationError("empty support")
        total = sum(table.values())
        support = tuple(sorted((t, w / total) for t, w in table.items()))
        return cls(arity=arity, support=support)

    @classmethod
    def uniform(cls, tuples: Iterable[Sequence]) -> "ExactDistribution":
        """Uniform on distinct tuples, each as long as the first."""
        items = [tuple(t) for t in tuples]
        return cls.from_pairs(len(items[0]) if items else 0, [(t, 1) for t in items])

    def marginal(self, coords: Sequence[int]) -> dict[tuple, Fraction]:
        """Exact marginal over the given coordinate subset (order-normalized)."""
        cs = tuple(sorted(set(coords)))
        if not cs:
            raise ValidationError("coordinate subset must be nonempty")
        if cs[0] < 0 or cs[-1] >= self.arity:
            raise ValidationError(f"coords {cs} outside arity {self.arity}")
        out: dict[tuple, Fraction] = {}
        for values, p in self.support:
            key = tuple(values[i] for i in cs)
            out[key] = out.get(key, Fraction(0)) + p
        return out


def distribution_from_obj(obj: object) -> ExactDistribution:
    """The distribution of {"arity": int, "support": [{"values": [...], "p": "num/den"}]}, unknown fields refused;
    p may also be an int, a finite float or a decimal string. A refusal names the first bad entry in file order."""
    if not isinstance(obj, dict):
        raise ValidationError("distribution JSON must be an object")
    formats._require_keys(obj, {"arity", "support"}, set(), "distribution")
    pairs = []
    for i, item in enumerate(formats._list(obj["support"], "support")):
        if not isinstance(item, dict):
            raise ValidationError(f"support item {i} must be an object")
        formats._require_keys(item, {"values", "p"}, set(), f"support item {i}")
        values = tuple(v if isinstance(v, str) else formats._int(v, f"support item {i} value")
                       for v in formats._list(item["values"], f"support item {i} values"))
        p = item["p"]
        try:  # Fraction builds 10^|exponent|, so none past the 4300 digits an int string may have
            if isinstance(p, bool) or isinstance(p, str) and abs(int(p.lower().partition("e")[2] or 0)) > 4300:
                raise ValueError
            p = Fraction(p)
        except (TypeError, ValueError, OverflowError, ZeroDivisionError) as exc:
            raise ValidationError(f"support item {i}: bad probability {p!r}") from exc
        pairs.append((values, p))
    return ExactDistribution.from_pairs(formats._int(obj["arity"], "arity"), pairs)


def _h(probs: Iterable[Fraction]) -> float:
    total = 0.0
    for p in probs:
        if p == 1:
            continue
        total += float(p) * (math.log2(p.denominator) - math.log2(p.numerator))
    return total


def entropy(dist: ExactDistribution, coords: Sequence[int] | None = None) -> float:
    """H of the marginal on coords (all coordinates when omitted), in bits."""
    if coords is None:
        coords = range(dist.arity)
    return _h(dist.marginal(coords).values())


def conditional_entropy(dist: ExactDistribution, target: Sequence[int], given: Sequence[int]) -> float:
    """H(target | given) via the chain rule H(target+given) - H(given)."""
    tset, gset = set(target), set(given)
    if not tset:
        raise ValidationError("target coordinates must be nonempty")
    if tset & gset:
        raise ValidationError(f"target and given overlap: {sorted(tset & gset)}")
    if not gset:
        return entropy(dist, target)
    return entropy(dist, sorted(tset | gset)) - entropy(dist, sorted(gset))


def check_shearer(dist: ExactDistribution, subsets: Iterable[Sequence[int]]) -> BoundReport:
    """k * H(X_1..X_n) <= sum_j H((X_i)_{i in I_j}), with k the fewest subsets I_j that hold a coordinate:
    the strongest k the cover allows, which implies every smaller one since H >= 0."""
    subsets = [set(subset) for subset in subsets]
    cover = [0] * dist.arity
    for subset in subsets:
        if not subset:
            raise ValidationError("cover subsets must be nonempty")
        for i in subset:
            if not (0 <= i < dist.arity):
                raise ValidationError(f"index {i} outside [0, {dist.arity})")
            cover[i] += 1
    if 0 in cover:
        raise ValidationError(f"coordinates {[i for i, c in enumerate(cover) if not c]} are in no cover subset")
    k = min(cover, default=0)  # arity 0 has no coordinate, and `entropy` refuses it below
    lhs = k * entropy(dist)
    rhs = sum(entropy(dist, subset) for subset in subsets)
    return upper_report(
        "k * H(all)",
        lhs,
        rhs,
        "shearer inequality",
        extra={"k": k, "slack": rhs - lhs},
    )


class KeyInequalityReport(Record):
    """Per-step conditional support sizes s_k = 2^{H(X_k | X_1..X_{k-1})}."""

    sizes: tuple[float, ...]
    gaps: tuple[float, ...]  # s_k - s_{k+1} - 1 for k = 1..d-1
    report: BoundReport  # the largest s_{k+1} + 1 - s_k against 0

    @property
    def ok(self) -> bool:
        return self.report.satisfied


def check_key_inequality(fam) -> KeyInequalityReport:
    """Verify s_k >= s_{k+1} + 1 for a uniform member of a family in uniform random order.

    A k-prefix with set T has probability deg(T)(d-k)!/(|F| d!), deg(T) counting the members
    that contain T.  So H(X_1..X_k) = log2(|F| d!/(d-k)!) - A_k, with A_k the mean of log2 deg
    over the members' k-subsets, and s_k = 2^{H(X_k | X_1..X_{k-1})} = (d-k+1) 2^{A_{k-1} - A_k}.
    """
    d, members = fam.d, len(fam.sets)
    if members == 0:
        raise ValidationError("family must be nonempty")
    check_cap("subset visits (members x 2^d)", members * 2**d, SUBSET_VISIT_CAP)
    logs = []
    for k in range(d + 1):
        # equal degrees are summed together, so A_k is exactly log2 g when every k-subset has degree g
        degrees = Counter(Counter(t for s in fam.sets for t in combinations(s, k)).values())
        logs.append(sum(g * times * math.log2(g) for g, times in degrees.items()) / (members * math.comb(d, k)))
    sizes = tuple((d - k + 1) * 2.0 ** (logs[k - 1] - logs[k]) for k in range(1, d + 1))
    gaps = tuple(sizes[k] - sizes[k + 1] - 1.0 for k in range(d - 1))
    worst = 0.0 - min(gaps, default=0.0)  # +0, not -0, when the smallest gap is 0
    report = upper_report("max (s_{k+1} + 1 - s_k)", worst, 0.0, "key inequality 2^{H_k} >= 2^{H_{k+1}} + 1")
    return KeyInequalityReport(sizes=sizes, gaps=gaps, report=report)


def check_lemma_disjoint_support(
    dist: ExactDistribution,
    d1: Iterable[tuple],
    d2: Iterable[tuple],
) -> BoundReport:
    """For (X1, X2, Y) with (Xi, Y) supported in Di and equal laws of X1, X2:
    2^{H(X1)} >= 2^{H(X1|Y)} + 2^{H(X2|Y)}.
    """
    if dist.arity != 3:
        raise ValidationError("expected a joint distribution of (X1, X2, Y)")
    part1, part2 = set(d1), set(d2)
    if part1 & part2:
        raise ValidationError("D1 and D2 must be disjoint")
    xvals = {v for (x1, x2, y), _ in dist.support for v in (x1, x2)}
    yvals = {y for (_, _, y), _ in dist.support}
    missing = {(x, y) for x in xvals for y in yvals} - part1 - part2
    if missing:
        raise ValidationError(f"D1 and D2 do not cover the product of value sets: {sorted(missing)[:4]}")
    for (x1, x2, y), _ in dist.support:
        if (x1, y) not in part1:
            raise ValidationError(f"support point has (X1,Y)=({x1},{y}) outside D1")
        if (x2, y) not in part2:
            raise ValidationError(f"support point has (X2,Y)=({x2},{y}) outside D2")
    law1 = dist.marginal([0])
    law2 = dist.marginal([1])
    if law1 != law2:
        raise ValidationError("X1 and X2 must have identical laws")
    lhs = 2.0 ** entropy(dist, [0])
    rhs = 2.0 ** conditional_entropy(dist, [0], [2]) + 2.0 ** conditional_entropy(dist, [1], [2])
    return lower_report(
        "2^H(X1)",
        lhs,
        rhs,
        "disjoint-support lemma",
        extra={"lhs": lhs, "rhs": rhs},
    )


def check_cregular_corollary(
    u_size: int,
    v_size: int,
    bad: Iterable[tuple[int, int]],
    balanced_sets: Sequence[tuple[Iterable[int], Iterable[int], int | Fraction]],
) -> BoundReport:
    """2^{H(X)} - 2^{H(X|Y)} >= c for (X, Y) = weighted balanced rectangle,
    then a uniform good pair inside it.

    bad must have a constant number c of bad cells per column; each rectangle
    S x T must contain every bad cell of its columns and have a constant
    bad-count per row.
    """
    bad_set = set(bad)
    for x, y in bad_set:
        if not (0 <= x < u_size and 0 <= y < v_size):
            raise ValidationError(f"bad pair ({x},{y}) outside [0,{u_size}) x [0,{v_size})")
    per_column = [sum(1 for x in range(u_size) if (x, y) in bad_set) for y in range(v_size)]
    c = per_column[0] if per_column else 0
    if any(col != c for col in per_column):
        raise ValidationError(f"bad-cell counts per column are not constant: {per_column}")
    if not balanced_sets:
        raise ValidationError("at least one rectangle is required")

    pairs: list[tuple[tuple[int, int], Fraction]] = []
    weights = [Fraction(w) for _, _, w in balanced_sets]
    if any(w <= 0 for w in weights):
        raise ValidationError("rectangle weights must be positive")
    total_w = sum(weights)
    for (s_raw, t_raw, _), w in zip(balanced_sets, weights):
        s, t = sorted(set(s_raw)), sorted(set(t_raw))
        for y in t:
            outside = [x for x in range(u_size) if (x, y) in bad_set and x not in s]
            if outside:
                raise ValidationError(f"rectangle misses bad cells {[(x, y) for x in outside]}")
        row_bad = [sum(1 for y in t if (x, y) in bad_set) for x in s]
        if row_bad and any(r != row_bad[0] for r in row_bad):
            raise ValidationError(f"rectangle has non-constant bad-count rows: {row_bad}")
        good = [(x, y) for x in s for y in t if (x, y) not in bad_set]
        if not good:
            raise ValidationError("rectangle contains no good pairs")
        share = w / total_w / len(good)
        pairs.extend(((x, y), share) for (x, y) in good)

    merged: dict[tuple[int, int], Fraction] = {}
    for xy, p in pairs:
        merged[xy] = merged.get(xy, Fraction(0)) + p
    dist = ExactDistribution.from_pairs(2, list(merged.items()))
    lhs = 2.0 ** entropy(dist, [0]) - 2.0 ** conditional_entropy(dist, [0], [1])
    return lower_report(
        "2^H(X) - 2^H(X|Y)",
        lhs,
        float(c),
        "c-regular partition corollary",
        extra={"c": c},
    )


def _entropy_options(p) -> None:
    p.add_argument("--dist")
    p.add_argument("--coords")
    p.add_argument("--shearer", help="cover subsets, e.g. '0,1;1,2;0,2'")
    p.add_argument("--key", action="store_true", help="key inequality for a set family")
    p.add_argument("--family")


# each mode, by the option that selects it, with its options and their defaults, by argparse dest, as
# `mode_options` reads them: --key, else --shearer, else the plain mode --dist
_MODE_OPTIONS = {"--key": {"family": REQUIRED}, "--shearer": {"dist": None, "shearer": None},
                 "--dist": {"dist": None, "coords": None}}


def _cmd_entropy(args) -> tuple[dict, list[BoundReport], list[str]]:
    mode = "--key" if args.key else "--dist" if args.shearer is None else "--shearer"
    mode_options(args, "entropy", mode, _MODE_OPTIONS)  # refused before any file is read
    if args.key:
        fam = hg.set_family_from_obj(formats.load_json(args.family))
        rep = check_key_inequality(fam)
        return {"sizes": list(rep.sizes), "gaps": list(rep.gaps), "ok": rep.ok}, [rep.report], []
    if not args.dist:
        raise ValidationError("entropy needs --dist (or --key with --family)")
    dist = distribution_from_obj(formats.load_json(args.dist))
    if mode == "--shearer":
        rep = check_shearer(dist, [parse_ints(part) for part in args.shearer.split(";") if part.strip()])
        return {"k": rep.extra["k"], "slack": rep.extra["slack"]}, [rep], []
    coords = parse_ints(args.coords) if args.coords else None
    value = entropy(dist, coords)
    return {"H": value, "coords": coords if coords else "all", "support": len(dist.support)}, [], []
