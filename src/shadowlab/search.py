"""Exhaustive and seeded-random search for extremal ratios at desk scale.

Both read each problem from `PROBLEMS`: the subsets and colors of its edges (`Problem.draws`), the
structures its count counts (`Problem.structures`) and its ratio's formula.  An exhaustive scan
gives each subset of [n] a slot valued none or one color, splits each state into an outer and an
inner part, in product order, and counts all inner states under one outer state at once: one
big-int sum of 0/1 byte strings, a byte per state, each a structure's ANDs and ORs of a lane per
inner literal.  It visits only the outer states that come first in their orbit under the problem's
symmetries that map the outer slots onto themselves.  Such a symmetry maps the first best state to
one as good whose outer part is no earlier, so the best ratio and its witness are those of the full
scan, and `explored` counts every state.  A random probe draws every trial's bytes at once and,
where the literals of its problem's structures over [n] number at most trials x draws per trial,
the product `PROBE_CAP` bounds, counts all trials at once: each literal is one big int with a lane
of 1, 2 or 4 bytes per trial, the fewest that hold C(n, structure size), and the sum of the
structures' ANDs and ORs holds every trial's count.  Otherwise it counts each trial's compact form
with the problem's kernel.  Both compare by exact cross-multiplication and keep the first on a tie.
Every reported ratio is the registry's exact ratio of its witness, recounted by the kernel: a
search whose own count differs raises BoundViolationError, so the recount also checks the
problem's structures against its kernel.
"""

from __future__ import annotations

import random
from collections.abc import Iterator, Mapping
from fractions import Fraction
from functools import reduce
from itertools import accumulate, combinations, groupby, islice, permutations, product
from math import comb
from operator import and_, getitem, itemgetter, or_

from .errors import BoundViolationError, ValidationError, check_cap
from .hypergraph import VERTEX_CAP, ColoredHypergraph, _edges
from .problems import PROBLEMS, RGB, Literal, Problem, Structures, _facets, _form, get_problem
from .record import Record

# states certified a second, measured on a 2-vCPU Xeon: rainbow 1.4e8 at n = 5 (7.4 ms) and 5.8e8 at
# n = 6 (1.9 s, 971 of its 16,384 outer states); mixed 2.2e8 at n = 5 (4.7 ms).  Mixed n = 6 is 3.4e10
# states, 2^20 inner ones a block.  Both caps stay until a budget for each is set
RAINBOW_CAP = 5  # 4^binom(n,2) states
MIXED_CAP = 5  # 2^(pairs + triples) states


class SearchResult(Record):
    """The best exact ratio found and its witness, both None when no instance had one."""

    problem: str
    best: Fraction | None
    witness: ColoredHypergraph | None
    explored: int
    exhaustive: bool


def _recounted(name: str, witness: ColoredHypergraph | None, num: int, den: int,
               d: int, delta: int, colors: tuple[str, ...] | None) -> Fraction | None:
    """The registry's ratio of a search's witness, which must equal the search's own num/den."""
    if witness is None:
        return None
    _, best = PROBLEMS[name].exact(witness, d, delta, colors)
    if best != Fraction(num, den):
        raise BoundViolationError(f"{name} witness recounts to {best}, the search counted {num}/{den}")
    return best


def _best_in_blocks(outers, inners, classes, every, structures, problem):
    """The first state with the largest ratio of `problem`, outer-major, in the order given.

    A state is (outer, inner), each a tuple of slot values; slot i of outer + inner with value v adds
    one to class classes[i][v], or to none where that is None.  Inner states are laid out by their
    class sizes, in the order given within each group.  A structure is groups of (slot, value)
    literals, counted where every group has a literal that holds (`every`) or some group has all of
    its own hold.  Under each outer state it is one 0/1 byte string over the layout, the ANDs and
    ORs of a lane per inner literal, 1 where the inner state holds it, and of all ones or zero per
    outer literal; so the counts of all inner states under one outer state are one big-int sum.
    `problem` forms the ratio, its denominator once per group and outer class sizes.  Returns
    (num, den, outer, inner), or (0, 1, None, None).
    """
    cut, size = len(outers[0]), len(inners)
    base, width = len(classes) + 1, 1 + max(c for values in classes for c in values if c is not None)
    # a share holds the class sizes as its digits in base slots + 1, which no size reaches
    weights = [tuple(0 if c is None else base ** c for c in values) for values in classes]
    outer_weights, inner_weights = weights[:cut], weights[cut:]
    shares = [sum(map(getitem, inner_weights, inner)) for inner in inners]
    layout = sorted(range(size), key=shares.__getitem__)
    groups = []  # (inner share, first, end) of each group's slice of the layout
    for key, members in groupby(layout, key=shares.__getitem__):
        first = groups[-1][2] if groups else 0
        groups.append((key, first, first + len(list(members))))
    digits = [bytes(values) for values in zip(*map(inners.__getitem__, layout))]  # per inner slot, a byte a state
    lanes = {(slot, v): int.from_bytes(digits[slot - cut].translate(bytes(v) + b"\1" + bytes(255 - v)), "little")
             for slot, v in {lit for structure in structures for group in structure for lit in group} if slot >= cut}
    ones = int.from_bytes(b"\1" * size, "little")
    # a group ORs its literals where every group must hold, else ANDs them; an outer literal that holds
    # (every) or fails (not every) decides its group, which is then all ones or all zero
    outer_op, inner_op, identity, decided = (and_, or_, 0, ones) if every else (or_, and_, ones, 0)
    columns = []  # per structure, the byte string each outer state selects, as an int
    for structure in structures:
        # per group, its outer literals and its inner lanes combined
        split = [([lit for lit in group if lit[0] < cut],
                  reduce(inner_op, [lanes[lit] for lit in group if lit[0] >= cut], identity)) for group in structure]
        keys = sorted({s for outs, _ in split for s, _ in outs})
        part = itemgetter(*keys) if keys else lambda outer: ()
        table, column = {}, []
        for outer in outers:
            key = part(outer)
            if key not in table:  # the byte string depends only on the structure's outer slots
                table[key] = reduce(outer_op, [decided if any((outer[s] == v) == every for s, v in outs) else inner
                                               for outs, inner in split])
            column.append(table[key])
        columns.append(column)
    nums = [problem.numerator(t) for t in range(256)]  # a state's count is one byte
    dens = {}  # per outer share, (first, end, denominator) of each group it gives a nonzero denominator
    best_num, best_den, best_index = 0, 1, -1
    for o, (outer, row) in enumerate(zip(outers, zip(*columns))):
        counts = sum(row).to_bytes(size, "little")
        mine = sum(map(getitem, outer_weights, outer))
        if mine not in dens:  # where the denominator is 0, a class is empty and nothing counts
            dens[mine] = [(first, end, den) for key, first, end in groups if (den := problem.denominator(
                [(mine + key) // base ** c % base for c in range(width)]))]
        for first, end, den in dens[mine]:
            t = max(counts[first:end])
            if not t:
                continue
            num = nums[t]
            index = o * size + layout[counts.index(t, first, end)]
            if num * best_den > best_num * den or (num * best_den == best_num * den and index < best_index):
                best_num, best_den, best_index = num, den, index
    if best_index < 0:
        return 0, 1, None, None
    return best_num, best_den, outers[best_index // size], inners[best_index % size]


def _vertex_maps(n: int, slots: list[tuple[int, int]]) -> list[itemgetter]:
    """Each permutation of [n] that maps the set of `slots`, vertex pairs, onto itself, as the itemgetter
    that takes a state over the slots to an image (over one slot, to a value: no state is merged)."""
    index = {s: i for i, s in enumerate(slots)} | {s[::-1]: i for i, s in enumerate(slots)}
    ends = [itemgetter(*s) for s in slots]
    maps = ([index.get(end(p)) for end in ends] for p in permutations(range(n)))
    return [itemgetter(*m) for m in maps if None not in m]


def _orbit_least(outers, images) -> list:
    """The outer states that come first, in scan order, in their orbit: images(outer) lists the
    outer state's images under every symmetry.  Each kept state marks its whole orbit."""
    kept, marked = [], set()
    for outer in outers:
        if outer not in marked:
            kept.append(outer)
            marked.update(images(outer))
    return kept


def _scan(name: str, n: int, slots: list[tuple[int, ...]], cut: int,
          colors: tuple[str, ...]) -> tuple[Fraction | None, ColoredHypergraph | None]:
    """The best ratio of a registered problem over every state of [n], and its first witness.

    `slots` orders the subsets of [n] that the problem's draws(3, 0) lists, the first `cut` of them
    vertex pairs and the outer state; each takes the value 0 (absent) or p, an edge of `colors`[p - 1],
    in the class of its size and color.  A state counts the size-sets that structures(3, 0) counts.
    The outer states scanned are those first in their orbit under the vertex permutations that map
    the outer slots onto themselves and, where the ratio weighs the classes alike, the color
    permutations: every other state has an image as good that comes before it.
    """
    prob = PROBLEMS[name]
    sizes, drawn = prob.draws(3, 0)
    size, every, groups = prob.structures(3, 0)
    assert comb(n, size) < 256  # the caps keep a state's count, and a block's sums, to a byte
    index = {s: i for i, s in enumerate(slots)}
    structures = [[[(index[tuple(map(q.__getitem__, positions))], p) for positions, p in group] for group in groups]
                  for q in combinations(range(n), size)]
    k = len(drawn)
    classes = [(None, *(k * sizes.index(len(s)) + c for c in range(k))) for s in slots]
    alike = len(set(prob.exponents(3)[1])) == 1
    recolor = [(0, *c) for c in permutations(range(1, k + 1))] if alike else [tuple(range(k + 1))]
    maps = _vertex_maps(n, slots[:cut])
    outers = _orbit_least(product(range(k + 1), repeat=cut),
                          lambda s: [m(t) for t in {tuple(map(c.__getitem__, s)) for c in recolor} for m in maps])
    num, den, outer, inner = _best_in_blocks(outers, list(product(range(k + 1), repeat=len(slots) - cut)), classes,
                                             every, structures, prob)
    if outer is None:
        return None, None
    value = dict(zip(slots, outer + inner))
    subsets = (v for s in sizes for v in combinations(range(n), s))  # the witness lists its edges in draw order
    witness = ColoredHypergraph.from_edges(n, [(v, colors[value[v] - 1]) for v in subsets if value[v]])
    return _recounted(name, witness, num, den, 3, 0, colors), witness


def search_rainbow_triangle(max_vertices: int) -> SearchResult:
    """Exhaustively maximize T^2 / (RGB) over 3-colorings of the pairs of [n].

    Every pair slot takes one of {absent, red, green, blue}, in `combinations` order; the first half
    of the slots are the outer state, the rest the inner one.
    """
    n = max_vertices
    if n < 3:
        raise ValidationError(f"need at least 3 vertices, got {n}")
    check_cap("rainbow search vertices", n, RAINBOW_CAP)
    pairs = list(combinations(range(n), 2))
    best, witness = _scan("rainbow_d", n, pairs, len(pairs) // 2, RGB)
    return SearchResult("rainbow_triangle", best, witness, 4 ** len(pairs), exhaustive=True)


def search_mixed_4subsets(max_vertices: int) -> SearchResult:
    """Exhaustively maximize J^2 / (N2 N3^2) over mixed 2/3-edge hypergraphs.

    The pair bits are the outer state and the triple bits the inner one, each scanned in the
    order of its integer, bits from the lowest in `combinations` order: each list of slots is
    reversed, so that product order is integer order.  `explored` counts the states with a pair
    and a triple.
    """
    n = max_vertices
    if n < 4:
        raise ValidationError(f"need at least 4 vertices, got {n}")
    check_cap("mixed search vertices", n, MIXED_CAP)
    pairs = list(combinations(range(n), 2))[::-1]
    triples = list(combinations(range(n), 3))[::-1]
    best, witness = _scan("mixed4", n, pairs + triples, len(pairs), ("plain",))
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


def _counts_per_trial(prob: Problem, n: int, structures: Structures, sizes: tuple[int, ...], k: int,
                      picks: list[bytes]) -> Iterator[int]:
    """Each trial's count by the problem's kernel, on the compact form its picks give."""
    # every trial's edges are among these, so the entry check of the counts runs once
    complete = _edges(ColoredHypergraph.from_edges(n, ((v, "") for s in sizes for v in combinations(range(n), s))))
    slots = [(sizes.index(len(e.verts)) * k - 1, _facets(e.verts)) for e in complete]  # draw p >= 1: slot o + p
    for picked in picks:
        yield prob.count(_form(len(sizes) * k, [(o + p, f) for (o, f), p in zip(slots, picked) if p]))


def _fold(op, columns: list) -> Iterator[int]:
    """op of the columns, element by element."""
    return reduce(lambda a, b: map(op, a, b), columns)


def _counts_in_lanes(prob: Problem, n: int, structures: Structures, sizes: tuple[int, ...], k: int,
                     picks: list[bytes]) -> bytes | list[int]:
    """Each trial's count from the problem's structures, all trials at once; it takes the arguments
    of `_counts_per_trial`, and either stands for the other.

    Each literal (subset, drawn value) becomes one big int with a w-byte lane per trial, 1 where that
    trial drew the value, w the fewest of 1, 2 and 4 bytes that hold C(n, size): the translate of
    the subset's column of draws.  Each size-set's ANDs and ORs of its literals are 0/1 lanes, and
    their sum holds every trial's count in its lane.
    """
    size, every, groups = structures
    trials, m = len(picks), len(picks[0])
    if not comb(n, size):
        return bytes(trials)
    # the lanes rule keeps C(n, size), at most the literals, within PROBE_CAP < 2^32
    w = next(w for w in (1, 2, 4) if comb(n, size) < 1 << 8 * w)
    span = trials * w
    draws = b"".join(picks)
    wide = bytearray(m * span)  # subset-major: each subset's draw in every trial, low byte of its lane
    wide[::w] = b"".join([draws[s::m] for s in range(m)])
    subsets = [v for s in sizes for v in combinations(range(n), s)]
    lanes = {}  # per drawn value, each subset's lanes
    for p in {p for group in groups for _, p in group}:
        hits = wide.translate(bytes(p) + b"\1" + bytes(255 - p))
        lanes[p] = {v: int.from_bytes(hits[i * span:(i + 1) * span], "little") for i, v in enumerate(subsets)}
    coords = list(zip(*combinations(range(n), size)))  # each position's vertex in every size-set

    def column(literal: Literal) -> Iterator[int]:  # the literal's lanes at every size-set, in order
        positions, p = literal
        return map(lanes[p].__getitem__, zip(*map(coords.__getitem__, positions)))

    outer, inner = (and_, or_) if every else (or_, and_)
    total = sum(_fold(outer, [_fold(inner, list(map(column, group))) for group in groups]))
    counts = total.to_bytes(span, "little")
    return counts if w == 1 else [int.from_bytes(counts[i:i + w], "little") for i in range(0, span, w)]


def random_probe(problem: str, params: Mapping[str, int], trials: int, seed: int = 0) -> SearchResult:
    """Best ratio of a registered problem over seeded-random instances, deterministic per seed.

    A trial draws each subset of [n] in `combinations` order, as `Problem.draws` says, a byte each.
    Where the literals of the problem's structures over all size-sets of [n] number at most trials x
    draws per trial, which `PROBE_CAP` bounds, all trials are counted at once on byte lanes
    (`_counts_in_lanes`); otherwise each trial's compact form is counted with the problem's kernel.
    The ratio is the registry's, of the count and the drawn class sizes.  Only the best trial becomes
    a graph, recounted through the registry's kernel, which checks the structures against it.
    """
    prob = get_problem(problem)
    if trials < 0:
        raise ValidationError("trials must be nonnegative")
    n = int(params.get("vertices", 8))
    d = int(params.get("d", 3))
    delta = int(params.get("delta", 0))
    if d < 2 or delta < 0:
        raise ValidationError(f"probes need d >= 2 and delta >= 0, got d={d}, delta={delta}")
    if n < 0:
        raise ValidationError(f"vertex count must be nonnegative, got {n}")
    check_cap("vertex count", n, VERTEX_CAP)
    sizes, colors = prob.draws(d, delta)
    m, k = sum(comb(n, size) for size in sizes), len(colors)
    check_cap("probe draws (trials x subsets of [n] drawn per trial)", trials * m, PROBE_CAP)
    if not trials * m:  # no trial or nothing to draw: every trial's instance is empty
        return SearchResult(problem, None, None, trials, exhaustive=False)
    picks = list(islice(_draws(random.Random(seed), k, m), trials))
    structures = prob.structures(d, delta)
    size, _, groups = structures
    fits = comb(n, size) * sum(map(len, groups)) <= trials * m
    counts = (_counts_in_lanes if fits else _counts_per_trial)(prob, n, structures, sizes, k, picks)
    bounds = list(accumulate((comb(n, size) for size in sizes), initial=0))
    slots = [(c, lo, hi) for lo, hi in zip(bounds, bounds[1:]) for c in range(1, k + 1)]  # form slot order
    best_num, best_den, best = 0, 1, -1
    for t, (j, picked) in enumerate(zip(counts, picks)):
        num, den = prob.numerator(j, d), prob.denominator([picked.count(c, lo, hi) for c, lo, hi in slots], d)
        if den and (best < 0 or num * best_den > best_num * den):
            best_num, best_den, best = num, den, t
    if best < 0:
        return SearchResult(problem, None, None, trials, exhaustive=False)
    subsets = (v for s in sizes for v in combinations(range(n), s))
    witness = ColoredHypergraph.from_edges(n, [(v, colors[p - 1]) for v, p in zip(subsets, picks[best]) if p])
    return SearchResult(problem, _recounted(problem, witness, best_num, best_den, d, delta, None), witness, trials,
                        exhaustive=False)
