"""Reference counts that the benchmark computes on its own, without shadowlab.

Every expected value the oracle compares a command's `--json` report with
comes from here: closed forms built on `math.comb` and a Gaussian binomial,
or brute-force counts written for clarity rather than speed. Nothing in this
module imports the program under test.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations, permutations, product


def gaussian_binom(n: int, k: int, q: int) -> int:
    """Number of k-dimensional subspaces of F_q^n."""
    if not 0 <= k <= n:
        return 0
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def rref_subspaces(q: int, n: int, d: int) -> list[tuple[tuple[int, ...], ...]]:
    """All d-dimensional subspaces of F_q^n as reduced row-echelon matrices."""
    out = []
    for pivots in combinations(range(n), d):
        free = [(i, j) for i in range(d) for j in range(pivots[i] + 1, n) if j not in pivots]
        for values in product(range(q), repeat=len(free)):
            rows = [[0] * n for _ in range(d)]
            for i, p in enumerate(pivots):
                rows[i][p] = 1
            for (i, j), v in zip(free, values):
                rows[i][j] = v
            out.append(tuple(tuple(r) for r in rows))
    return out


def _normalized_vectors(q: int, d: int) -> list[tuple[int, ...]]:
    """One nonzero vector of F_q^d per line: the first nonzero entry is 1."""
    return [v for v in product(range(q), repeat=d) if any(v) and v[next(i for i, x in enumerate(v) if x)] == 1]


def subspace_shadow_size(members, q: int) -> int:
    """Distinct (d-1)-subspaces inside the members, each keyed by its point set.

    A hyperplane of a member's row space is the image of the kernel of a
    nonzero functional on the coefficient space F_q^d.
    """
    if not members:
        return 0
    d = len(members[0])
    n = len(members[0][0])
    coeffs = list(product(range(q), repeat=d))
    kernels = [
        [i for i, c in enumerate(coeffs) if sum(a * b for a, b in zip(phi, c)) % q == 0]
        for phi in _normalized_vectors(q, d)
    ]
    seen = set()
    for rows in members:
        points = []
        for c in coeffs:
            code = 0
            for col in range(n):
                code = code * q + sum(ci * r[col] for ci, r in zip(c, rows)) % q
            points.append(code)
        for kernel in kernels:
            seen.add(frozenset(points[i] for i in kernel))
    return len(seen)


def subspace_points(rows, q: int) -> set[tuple[int, ...]]:
    """Nonzero vectors of the row space."""
    n = len(rows[0])
    pts = set()
    for c in product(range(q), repeat=len(rows)):
        v = tuple(sum(ci * r[col] for ci, r in zip(c, rows)) % q for col in range(n))
        if any(v):
            pts.add(v)
    return pts


def set_shadow_size(sets) -> int:
    """Distinct (d-1)-subsets of the members."""
    return len({f for s in sets for f in combinations(sorted(s), len(s) - 1)})


def key_sizes(sets) -> list[float]:
    """s_k = 2^{H(X_k | X_1..X_{k-1})} for a uniform member in uniform order.

    Every ordered tuple is equally likely, so H of a prefix is computed from
    integer counts of its distinct values.
    """
    tuples = [t for s in sets for t in permutations(s)]
    total = len(tuples)
    d = len(tuples[0])

    def h(k: int) -> float:
        if k == 0:
            return 0.0
        counts: dict[tuple, int] = {}
        for t in tuples:
            counts[t[:k]] = counts.get(t[:k], 0) + 1
        return math.log2(total) - sum(c * math.log2(c) for c in counts.values()) / total

    hs = [h(k) for k in range(d + 1)]
    return [2.0 ** (hs[k] - hs[k - 1]) for k in range(1, d + 1)]


def _color_lookup(edges) -> dict[tuple[int, ...], str]:
    return {tuple(sorted(v)): c for v, c in edges}


def rainbow_count(n: int, edges, colors, d: int) -> int:
    """d-subsets whose d facets are edges carrying the d colors once each."""
    lookup = _color_lookup(edges)
    want = sorted(colors)
    count = 0
    for delta in combinations(range(n), d):
        got = [lookup.get(f) for f in combinations(delta, d - 1)]
        if None not in got and sorted(got) == want:
            count += 1
    return count


def good6_count(n: int, edges) -> int:
    """6-sets with a pair partition whose three complements are all edges."""
    edge_set = {tuple(sorted(v)) for v, _ in edges}
    count = 0
    for delta in combinations(range(n), 6):
        rest = set(delta)
        for p in _pair_partitions(delta):
            if all(tuple(sorted(rest - set(pair))) in edge_set for pair in p):
                count += 1
                break
    return count


def _pair_partitions(items):
    if not items:
        yield ()
        return
    first = items[0]
    for i in range(1, len(items)):
        rest = items[1:i] + items[i + 1:]
        for tail in _pair_partitions(rest):
            yield ((first, items[i]),) + tail


def mixed4_count(n: int, edges) -> int:
    """4-sets {a,b,c,e} with 3-edges abc, abe and the 2-edge ce, for some split."""
    pairs = {tuple(sorted(v)) for v, _ in edges if len(v) == 2}
    triples = {tuple(sorted(v)) for v, _ in edges if len(v) == 3}
    count = 0
    for quad in combinations(range(n), 4):
        for c, e in combinations(quad, 2):
            a, b = (x for x in quad if x not in (c, e))
            if (c, e) in pairs and tuple(sorted((a, b, c))) in triples and tuple(sorted((a, b, e))) in triples:
                count += 1
                break
    return count


def covering_count(n: int, edges, delta: int) -> int:
    """(delta+3)-sets whose (delta+2)-subsets that are edges show all three colors."""
    lookup = _color_lookup(edges)
    count = 0
    for big in combinations(range(n), delta + 3):
        seen = {lookup[f] for f in combinations(big, delta + 2) if f in lookup}
        if len(seen) == 3:
            count += 1
    return count


def partial_shadow_count(n: int, edges, r: int, k: int) -> int:
    """r-sets that contain at least r-k of the (r-1)-edges."""
    edge_set = {tuple(sorted(v)) for v, _ in edges}
    return sum(
        1
        for big in combinations(range(n), r)
        if sum(f in edge_set for f in combinations(big, r - 1)) >= r - k
    )


def color_counts(edges) -> dict[str, int]:
    out: dict[str, int] = {}
    for _, c in edges:
        out[c] = out.get(c, 0) + 1
    return out


def probe_ratio(problem: str, n: int, edges, d: int = 3, delta: int = 0) -> Fraction:
    """The ratio a search problem maximizes, recounted on a witness graph."""
    counts = color_counts(edges)
    if problem in ("rainbow_triangle", "rainbow_d"):
        colors = ["red", "green", "blue"] if problem == "rainbow_triangle" else [f"c{i + 1}" for i in range(d)]
        t = rainbow_count(n, edges, colors, len(colors))
        return Fraction(t ** (len(colors) - 1), math.prod(counts[c] for c in colors))
    if problem == "good6":
        return Fraction(good6_count(n, edges) ** 2, len(edges) ** 3)
    if problem == "mixed4":
        n2 = sum(1 for v, _ in edges if len(v) == 2)
        n3 = len(edges) - n2
        return Fraction(mixed4_count(n, edges) ** 2, n2 * n3 * n3)
    if problem == "covering_delta":
        j = covering_count(n, edges, delta)
        return Fraction(j * j, counts["red"] * counts["green"] * counts["blue"])
    raise ValueError(f"unknown problem {problem!r}")


def verify_checked(universe: int, d: int) -> int:
    """Multisets an exhaustive forbidding-axiom check visits when all pass."""
    return universe + sum(math.comb(universe + k - 1, k) for k in range(1, d))
