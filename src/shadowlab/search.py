"""Exhaustive and seeded-random search for extremal ratios at desk scale.

States are enumerated in a fixed order (base-4 or per-slot bits), ratios are
compared by exact integer cross-multiplication, and every reported ratio is
the registry's exact ratio of its witness: a scan whose own count differs
raises BoundViolationError.  The state space splits into independent
ranges, so scans never share mutable state.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations, product
from typing import Mapping

from .errors import BoundViolationError, ValidationError, check_cap
from .hypergraph import PROBLEMS, RGB, VERTEX_CAP, ColoredHypergraph, get_problem
from .record import Record

RAINBOW_CAP = 5  # 4^binom(n,2) states; n = 6 takes about 38 min at a measured 4.7e5 states/s
MIXED_CAP = 5  # 2^(pairs + triples) states; n = 6 takes about 43 h at a measured 2.2e5 states/s


class SearchResult(Record):
    """The best exact ratio found and its witness, both None when no instance had one."""

    problem: str
    best: Fraction | None
    witness: ColoredHypergraph | None
    explored: int
    exhaustive: bool


def _recounted(name: str, witness: ColoredHypergraph | None, num: int, den: int) -> Fraction | None:
    """The registry's ratio of a scan's witness, which must equal the scan's own num/den."""
    if witness is None:
        return None
    _, best = PROBLEMS[name].exact(witness, 3, 0, RGB)
    if best != Fraction(num, den):
        raise BoundViolationError(f"{name} witness recounts to {best}, the scan counted {num}/{den}")
    return best


def search_rainbow_triangle(max_vertices: int) -> SearchResult:
    """Exhaustively maximize T^2 / (RGB) over 3-colorings of the pairs of [n].

    Every pair slot takes one of {absent, red, green, blue}.
    """
    n = max_vertices
    if n < 3:
        raise ValidationError(f"need at least 3 vertices, got {n}")
    check_cap("rainbow search vertices", n, RAINBOW_CAP)
    pairs = list(combinations(range(n), 2))
    index = {p: i for i, p in enumerate(pairs)}
    triangles = [
        (index[(a, b)], index[(a, c)], index[(b, c)])
        for a, b, c in combinations(range(n), 3)
    ]
    best_num = 0
    best_den = 1
    best_state = None
    explored = 0
    for state in product((0, 1, 2, 3), repeat=len(pairs)):
        explored += 1
        r = state.count(1)
        g = state.count(2)
        b = state.count(3)
        if not (r and g and b):
            continue
        t = 0
        for i, j, k in triangles:
            ci = state[i]
            if ci:
                cj = state[j]
                if cj and cj != ci:
                    ck = state[k]
                    if ck and ck != ci and ck != cj:
                        t += 1
        if t == 0:
            continue
        num = t * t
        den = r * g * b
        if num * best_den > best_num * den:
            best_num, best_den, best_state = num, den, state
    witness = None
    if best_state is not None:
        witness = ColoredHypergraph.from_edges(
            n,
            [
                (pairs[i], RGB[c - 1])
                for i, c in enumerate(best_state)
                if c
            ],
        )
    best = _recounted("rainbow_d", witness, best_num, best_den)
    return SearchResult("rainbow_triangle", best, witness, explored, exhaustive=True)


def search_mixed_4subsets(max_vertices: int) -> SearchResult:
    """Exhaustively maximize J^2 / (N2 N3^2) over mixed 2/3-edge hypergraphs."""
    n = max_vertices
    if n < 4:
        raise ValidationError(f"need at least 4 vertices, got {n}")
    check_cap("mixed search vertices", n, MIXED_CAP)
    pairs = list(combinations(range(n), 2))
    triples = list(combinations(range(n), 3))
    pair_idx = {p: i for i, p in enumerate(pairs)}
    triple_idx = {t: i for i, t in enumerate(triples)}
    # per 4-subset: the 6 ways to pick {v3, v4}, as (pair, triple, triple) slots
    quad_checks = []
    for quad in combinations(range(n), 4):
        splits = []
        for v3, v4 in combinations(quad, 2):
            v1, v2 = (x for x in quad if x not in (v3, v4))
            splits.append(
                (
                    pair_idx[(v3, v4)],
                    triple_idx[tuple(sorted((v1, v2, v3)))],
                    triple_idx[tuple(sorted((v1, v2, v4)))],
                )
            )
        quad_checks.append(splits)
    best_num = 0
    best_den = 1
    best_bits = None
    explored = 0
    for bits2 in range(1, 1 << len(pairs)):
        n2 = bits2.bit_count()
        for bits3 in range(1, 1 << len(triples)):
            explored += 1
            j = 0
            for splits in quad_checks:
                for p, t1, t2 in splits:
                    if bits2 >> p & 1 and bits3 >> t1 & 1 and bits3 >> t2 & 1:
                        j += 1
                        break
            if j == 0:
                continue
            n3 = bits3.bit_count()
            num = j * j
            den = n2 * n3 * n3
            if num * best_den > best_num * den:
                best_num, best_den, best_bits = num, den, (bits2, bits3)
    witness = None
    if best_bits is not None:
        bits2, bits3 = best_bits
        edges = [(p, "plain") for i, p in enumerate(pairs) if bits2 >> i & 1]
        edges += [(t, "plain") for i, t in enumerate(triples) if bits3 >> i & 1]
        witness = ColoredHypergraph.from_edges(n, edges)
    best = _recounted("mixed4", witness, best_num, best_den)
    return SearchResult("mixed_4subsets", best, witness, explored, exhaustive=True)


def random_probe(
    problem: str,
    params: Mapping[str, int],
    trials: int,
    seed: int = 0,
) -> SearchResult:
    """Best ratio of a registered problem over seeded-random instances.

    Instances and ratios come from `hypergraph.PROBLEMS`; deterministic per seed.
    """
    prob = get_problem(problem)
    if trials < 0:
        raise ValidationError("trials must be nonnegative")
    n = int(params.get("vertices", 8))
    d = int(params.get("d", 3))
    delta = int(params.get("delta", 0))
    if d < 2 or delta < 0:
        raise ValidationError(f"probes need d >= 2 and delta >= 0, got d={d}, delta={delta}")
    check_cap("vertex count", n, VERTEX_CAP)  # before drawing an instance of up to C(n, 4) edges
    rng = random.Random(seed)
    best_num, best_den = 0, 1
    witness: ColoredHypergraph | None = None
    for _ in range(trials):
        h = prob.instance(rng, n, d, delta)
        _, num, den = prob.measure(h, d, delta, None)
        if den and (witness is None or num * best_den > best_num * den):
            best_num, best_den, witness = num, den, h
    best = None if witness is None else Fraction(best_num, best_den)
    return SearchResult(problem, best, witness, trials, exhaustive=False)
