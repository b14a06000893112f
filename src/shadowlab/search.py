"""Exhaustive and seeded-random search for extremal ratios at desk scale.

An exhaustive scan splits each state into an outer and an inner part, in
product order, and counts all inner states under one outer state at once: one
big-int sum of precomputed 0/1 byte strings, a byte per state.  A random probe
draws each trial straight into its problem's compact form and counts it with
the problem's kernel, as the registry's counts do.  Ratios are compared by
exact integer cross-multiplication and a tie keeps the first state or trial.
Every reported ratio is the registry's exact ratio of its witness: a search
whose own count differs raises BoundViolationError.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations, groupby, islice, product
from math import comb
from typing import Iterator, Mapping

from .errors import BoundViolationError, ValidationError, check_cap
from .hypergraph import PROBLEMS, RGB, VERTEX_CAP, ColoredHypergraph, _edges, _facets, _form, get_problem
from .record import Record

RAINBOW_CAP = 5  # 4^binom(n,2) states, 1.0e7/s at n = 5; n = 6 took a measured 30 s (3.7e7/s)
MIXED_CAP = 5  # 2^(pairs + triples) states, 1.0e7/s at n = 5; n = 6 is 3.4e10 states, about 1 h at that rate
# a block's counts add bytewise: no state counts 256 structures (C(n, 3) triangles, C(n, 4) 4-sets)
assert comb(RAINBOW_CAP, 3) < 256 and comb(MIXED_CAP, 4) < 256


class SearchResult(Record):
    """The best exact ratio found and its witness, both None when no instance had one."""

    problem: str
    best: Fraction | None
    witness: ColoredHypergraph | None
    explored: int
    exhaustive: bool


def _recounted(name: str, witness: ColoredHypergraph | None, num: int, den: int,
               d: int = 3, delta: int = 0, colors: tuple[str, ...] | None = RGB) -> Fraction | None:
    """The registry's ratio of a search's witness, which must equal the search's own num/den."""
    if witness is None:
        return None
    _, best = PROBLEMS[name].exact(witness, d, delta, colors)
    if best != Fraction(num, den):
        raise BoundViolationError(f"{name} witness recounts to {best}, the search counted {num}/{den}")
    return best


def _best_in_blocks(outers, inners, share, den, structures, hit):
    """The first state in product order with the largest count^2 / den, outer-major.

    A state is (outer, inner); it counts the structures that hit it.  Inner states are
    laid out by share(inner), ascending within each group, and each structure gets one
    0/1 byte string over that layout for each value of its outer part, so the counts of
    all inner states under one outer state are one big-int sum.  `structures` pairs each
    structure's outer-part and inner-part functions, hit(outer part, inner part) says
    whether it is counted, and den(share(outer), share(inner)) is the state's denominator,
    constant on a group and positive where a structure is counted.  Returns
    (num, den, outer, inner), or (0, 1, None, None) when no state counts one.
    """
    shares = [share(x) for x in inners]
    layout = sorted(range(len(inners)), key=shares.__getitem__)
    groups = []  # (inner share, first, end) of each group's slice of the layout
    for key, members in groupby(layout, key=shares.__getitem__):
        first = groups[-1][2] if groups else 0
        groups.append((key, first, first + len(list(members))))
    columns = []  # per structure, the byte string each outer state selects, as an int
    for outer_part, inner_part in structures:
        parts = [inner_part(inners[i]) for i in layout]
        keys = [outer_part(o) for o in outers]
        table = {}
        for op in set(keys):
            lut = {ip: hit(op, ip) for ip in set(parts)}
            table[op] = int.from_bytes(bytes(map(lut.__getitem__, parts)), "little")
        columns.append([table[k] for k in keys])
    size = len(inners)
    best_num, best_den, best_index = 0, 1, -1
    for o, (outer, row) in enumerate(zip(outers, zip(*columns))):
        counts = sum(row).to_bytes(size, "little")
        mine = share(outer)
        for key, first, end in groups:
            t = max(counts[first:end])
            if not t:
                continue
            num, d = t * t, den(mine, key)
            index = o * size + layout[counts.index(t, first, end)]
            if num * best_den > best_num * d or (num * best_den == best_num * d and index < best_index):
                best_num, best_den, best_index = num, d, index
    if best_index < 0:
        return 0, 1, None, None
    return best_num, best_den, outers[best_index // size], inners[best_index % size]


def search_rainbow_triangle(max_vertices: int) -> SearchResult:
    """Exhaustively maximize T^2 / (RGB) over 3-colorings of the pairs of [n].

    Every pair slot takes one of {absent, red, green, blue}; the first half of
    the slots are the outer state, the rest the inner one.
    """
    n = max_vertices
    if n < 3:
        raise ValidationError(f"need at least 3 vertices, got {n}")
    check_cap("rainbow search vertices", n, RAINBOW_CAP)
    pairs = list(combinations(range(n), 2))
    half = len(pairs) // 2
    index = {p: i for i, p in enumerate(pairs)}
    structures = []
    for a, b, c in combinations(range(n), 3):
        slots = (index[(a, b)], index[(a, c)], index[(b, c)])
        outer_slots = [i for i in slots if i < half]
        inner_slots = [i - half for i in slots if i >= half]
        structures.append(
            (
                lambda s, ks=outer_slots: tuple(map(s.__getitem__, ks)),
                lambda s, ks=inner_slots: tuple(map(s.__getitem__, ks)),
            )
        )
    num, den, outer, inner = _best_in_blocks(
        list(product((0, 1, 2, 3), repeat=half)),
        list(product((0, 1, 2, 3), repeat=len(pairs) - half)),
        lambda s: (s.count(1), s.count(2), s.count(3)),
        lambda x, y: (x[0] + y[0]) * (x[1] + y[1]) * (x[2] + y[2]),
        structures,
        lambda op, ip: sorted(op + ip) == [1, 2, 3],
    )
    witness = None
    if outer is not None:
        witness = ColoredHypergraph.from_edges(
            n, [(pairs[i], RGB[c - 1]) for i, c in enumerate(outer + inner) if c]
        )
    best = _recounted("rainbow_d", witness, num, den)
    return SearchResult("rainbow_triangle", best, witness, 4 ** len(pairs), exhaustive=True)


def search_mixed_4subsets(max_vertices: int) -> SearchResult:
    """Exhaustively maximize J^2 / (N2 N3^2) over mixed 2/3-edge hypergraphs.

    The pair bits are the outer state and the triple bits the inner one.
    """
    n = max_vertices
    if n < 4:
        raise ValidationError(f"need at least 4 vertices, got {n}")
    check_cap("mixed search vertices", n, MIXED_CAP)
    pairs = list(combinations(range(n), 2))
    triples = list(combinations(range(n), 3))
    pair_idx = {p: i for i, p in enumerate(pairs)}
    triple_idx = {t: i for i, t in enumerate(triples)}
    # per 4-subset: the 6 ways to pick {v3, v4}, as a pair slot and two triple slots
    structures = []
    for quad in combinations(range(n), 4):
        ps, ts = [], []
        for v3, v4 in combinations(quad, 2):
            v1, v2 = (x for x in quad if x not in (v3, v4))
            ps.append(pair_idx[(v3, v4)])
            ts.append((triple_idx[tuple(sorted((v1, v2, v3)))], triple_idx[tuple(sorted((v1, v2, v4)))]))
        structures.append(
            (
                lambda bits, ps=ps: tuple(bits >> p & 1 for p in ps),
                lambda bits, ts=ts: tuple(bits >> t1 & bits >> t2 & 1 for t1, t2 in ts),
            )
        )
    num, den, bits2, bits3 = _best_in_blocks(
        range(1, 1 << len(pairs)),
        range(1, 1 << len(triples)),
        int.bit_count,
        lambda n2, n3: n2 * n3 * n3,
        structures,
        lambda op, ip: any(a & b for a, b in zip(op, ip)),
    )
    witness = None
    if bits2 is not None:
        edges = [(p, "plain") for i, p in enumerate(pairs) if bits2 >> i & 1]
        edges += [(t, "plain") for i, t in enumerate(triples) if bits3 >> i & 1]
        witness = ColoredHypergraph.from_edges(n, edges)
    best = _recounted("mixed4", witness, num, den)
    explored = ((1 << len(pairs)) - 1) * ((1 << len(triples)) - 1)
    return SearchResult("mixed_4subsets", best, witness, explored, exhaustive=True)


PROBE_CAP = 150_000  # trials x subsets of [n] drawn a trial; the costliest probe under it took 3.6-4.9 s
_COIN = bytes(int(x < 128) for x in range(256))  # random() < 0.5 iff its first word's top byte is below 128


def _draws(rng: random.Random, colors: int, m: int) -> Iterator[bytes]:
    """Each trial's m draws, a byte each, as m calls of random() < 0.5 (one color) or of
    randrange(colors + 1) would give them: random() reads two 32-bit words, and randrange(k) the
    top k.bit_length() bits of one, again while they reach k.  Words are read in bulk, first word
    lowest; those left over after the last trial are never used.
    """
    shift = max(0, 8 - (colors + 1).bit_length())  # at most 65 colors draw: rainbow_d draws none for d > n + 1
    table = _COIN if colors == 1 else bytes(x >> shift if x >> shift <= colors else 255 for x in range(256))
    size = 8 if colors == 1 else 4  # bytes of output a try reads: two words for random(), one for randrange
    pool = b""
    while True:
        while len(pool) < m:  # over half of the words give a draw
            words = rng.getrandbits(16 * size * m + 256).to_bytes(2 * size * m + 32, "little")
            pool += words[3::size].translate(table).replace(b"\xff", b"")
        yield pool[:m]
        pool = pool[m:]


def random_probe(problem: str, params: Mapping[str, int], trials: int, seed: int = 0) -> SearchResult:
    """Best ratio of a registered problem over seeded-random instances, deterministic per seed.

    A trial draws each subset of [n] in `combinations` order, as `Problem.draws` says, straight
    into the problem's compact form, and tallies it; only the best becomes a graph, recounted
    through the registry.
    """
    prob = get_problem(problem)
    if trials < 0:
        raise ValidationError("trials must be nonnegative")
    n = int(params.get("vertices", 8))
    d = int(params.get("d", 3))
    delta = int(params.get("delta", 0))
    if d < 2 or delta < 0:
        raise ValidationError(f"probes need d >= 2 and delta >= 0, got d={d}, delta={delta}")
    check_cap("vertex count", n, VERTEX_CAP)
    sizes, colors = prob.draws(d, delta)
    m, k = sum(comb(n, size) for size in sizes), len(colors)
    check_cap("probe draws (trials x subsets of [n] drawn per trial)", trials * m, PROBE_CAP)
    if not trials:
        return SearchResult(problem, None, None, 0, exhaustive=False)
    # every trial's edges are among these, so the entry check of the counts runs once
    complete = _edges(ColoredHypergraph.from_edges(n, ((v, "") for s in sizes for v in combinations(range(n), s))))
    slots = [(sizes.index(len(e.verts)) * k - 1, _facets(e.verts)) for e in complete]  # draw p >= 1: slot o + p
    best_num, best_den, best = 0, 1, None
    for picks in islice(_draws(random.Random(seed), k, m), trials):
        num, den = prob.tally(_form(len(sizes) * k, [(o + p, f) for (o, f), p in zip(slots, picks) if p]), d, delta)
        if den and (best is None or num * best_den > best_num * den):
            best_num, best_den, best = num, den, picks
    if best is None:
        return SearchResult(problem, None, None, trials, exhaustive=False)
    witness = ColoredHypergraph.from_edges(n, [(e.verts, colors[p - 1]) for e, p in zip(complete, best) if p])
    return SearchResult(problem, _recounted(problem, witness, best_num, best_den, d, delta, None), witness, trials,
                        exhaustive=False)
