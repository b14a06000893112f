"""Exhaustive and seeded-random search for extremal ratios at desk scale.

Both read each problem from `PROBLEMS`: the subsets and colors of its edges (`Problem.draws`), the
structures its count counts (`Problem.structures`) and its ratio's formula; and both count on one
lane engine.  A state gives each subset of [n] a slot valued none or one color and splits into an
outer and an inner part; the engine counts all inner states under one outer state at once: one
big-int sum of 0/1 lanes of the fewest bytes per state that hold C(n, structure size), each a
structure's ANDs and ORs of a lane per inner literal.  An exhaustive scan splits each state in
product order and visits only the outer states that come first in their orbit under the problem's
symmetries that map the outer slots onto themselves.  Such a symmetry maps the first best state to
one as good whose outer part is no earlier, so the best ratio and its witness are those of the full
scan, and `explored` counts every state.  A random probe draws every trial's bytes at once and
counts all trials at once as the engine's inner states under no outer slot; `PROBE_CAP` bounds its
draws, `LITERAL_CAP` its structures' literals over [n] and `RECOUNT_CAP` its witness's facets.
Both compare by exact cross-multiplication and keep the first on a tie.  Every reported ratio is
the registry's exact ratio of its witness, recounted by the kernel: a search whose own count
differs raises BoundViolationError, so the recount also checks the problem's structures against
its kernel.
The `search` command is here.
"""

from __future__ import annotations

import random
from collections.abc import Iterator, Mapping
from fractions import Fraction
from functools import cache, reduce
from itertools import accumulate, combinations, compress, permutations, product, repeat
from math import comb, isqrt
from operator import add, and_, itemgetter, not_, or_

from .errors import BoundViolationError, ValidationError, check_cap, mode_options
from .hypergraph import VERTEX_CAP, ColoredHypergraph, _dump, hypergraph_to_obj
from .problems import PROBLEMS, RGB, Problem, get_problem
from .reports import Record

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


def _recounted(name: str, n: int, slots: list[tuple[int, ...]], state, num: int, den: int, d: int, delta: int,
               colors: tuple[str, ...]) -> tuple[Fraction | None, ColoredHypergraph | None]:
    """A search's best state as a graph, each subset of `slots` an edge of colors[value - 1] where its value
    in `state` is nonzero, and the registry's ratio of it, which must equal the search's own num/den."""
    if state is None:
        return None, None
    prob = PROBLEMS[name]
    value = dict(zip(slots, state))
    subsets = (v for s in prob.draws(d, delta)[0] for v in combinations(range(n), s))  # edges in draw order
    witness = ColoredHypergraph.from_edges(n, [(v, colors[value[v] - 1]) for v in subsets if value[v]])
    _, best = prob.exact(witness, d, delta, colors)
    if best != Fraction(num, den):
        raise BoundViolationError(f"{name} witness recounts to {best}, the search counted {num}/{den}")
    return best, witness


def _shares(states, n: int, sizes: tuple[int, ...], k: int, offset: int = 0) -> list[tuple[int, ...]]:
    """Each state's class sizes, in form slot order.  The slots are the subsets of [n] of each size in
    `sizes`, size by size, and a state is a byte string of the values of the slots from slot `offset` on."""
    bounds = list(accumulate((comb(n, size) for size in sizes), initial=0))
    return list(zip(*[map(bytes.count, states, repeat(v), repeat(max(lo - offset, 0)), repeat(max(hi - offset, 0)))
                      for lo, hi in zip(bounds, bounds[1:]) for v in range(1, k + 1)]))


def _fold(op, columns: list) -> Iterator[int]:
    """op of the columns, element by element."""
    return reduce(lambda a, b: map(op, a, b), columns)


def _best_in_blocks(outers: list[tuple[int, ...]], inners: list[bytes], slots: list[tuple[int, ...]], n: int,
                    problem: Problem, d: int, delta: int) -> tuple[int, int, tuple[int, ...] | None]:
    """The first state with the largest ratio of `problem`, outer-major, in the order given, as
    (num, den, state), or (0, 1, None) where no state has a nonzero denominator.

    `slots` are the subsets of [n] of each size that problem.draws(d, delta) lists, size by size; a
    state gives each the value 0 (absent) or a drawn value p, in the class of its size and color.  Its
    outer part, a tuple, holds the first len(outers[0]) values and its inner part, bytes, the rest.
    Inner states are laid out by their class sizes, in the order given within each group.  Each
    literal of problem.structures(d, delta) becomes its slot at every size-set once; an inner literal
    is one big int with a lane of w bytes per inner state, 1 where that state holds it, w the fewest
    that hold C(n, size).  A size-set's ANDs and ORs of its literals are 0/1 lanes, and their
    sum holds each inner state's count: one fold over the size-sets with no outer literal, the whole
    count where there is no outer slot, and per other size-set, under each outer state, the ANDs and
    ORs of its inner lanes and of all ones or zero per outer literal, tabled by its outer slots' values.
    `problem` forms the ratio, its denominator once per group and outer class sizes.
    """
    sizes, colors = problem.draws(d, delta)
    size, every, groups = problem.structures(d, delta)
    cut, count, m = len(outers[0]), len(inners), len(slots) - len(outers[0])
    shares = _shares(inners, n, sizes, len(colors), cut)
    members = {}  # per inner share, the states of its group in the order given
    for i, share in enumerate(shares):
        members.setdefault(share, []).append(i)
    layout = [i for states in members.values() for i in states]
    ends = list(accumulate(map(len, members.values()), initial=0))
    runs = list(zip(members, ends, ends[1:]))  # (inner share, first, end) of each group's slice of the layout
    width = (comb(n, size).bit_length() + 7) // 8 or 1
    span = count * width
    laid = b"".join(map(inners.__getitem__, layout))
    wide = bytearray(m * span)  # slot-major: each inner slot's value in every inner state, low byte of its lane
    wide[::width] = b"".join([laid[j::m] for j in range(m)])
    lanes = {}  # per drawn value, each slot's lanes; an outer slot has none
    for p in {p for group in groups for _, p in group}:
        hits = wide.translate(bytes(p) + b"\1" + bytes(255 - p))
        lanes[p] = [0] * cut + [int.from_bytes(hits[i:i + span], "little") for i in range(0, m * span, span)]
    index = {s: i for i, s in enumerate(slots)}
    # each position's vertex in every size-set, and each literal subset's slot there, once per subset
    coords = [list(map(itemgetter(j), combinations(range(n), size))) for j in range(size)]
    spots = {q: list(map(index.__getitem__, zip(*map(coords.__getitem__, q))))
             for q in {lit[0] for group in groups for lit in group}}
    at = {lit: spots[lit[0]] for group in groups for lit in group}
    inside = list(map(cut.__le__, map(min, zip(*spots.values()))))  # per size-set, whether no literal is outer
    ones = int.from_bytes((b"\1" + bytes(width - 1)) * count, "little")
    # a group ORs its literals where every group must hold, else ANDs them; an outer literal that holds
    # (every) or fails (not every) decides its group, which is then all ones or all zero
    outer_op, inner_op, identity, decided = (and_, or_, 0, ones) if every else (or_, and_, ones, 0)
    base = sum(_fold(outer_op, [_fold(inner_op, [map(lanes[lit[1]].__getitem__, compress(at[lit], inside))
                                                 for lit in group]) for group in groups]))
    # per outer state, the byte strings whose sum is its counts: the fold's, then one per other size-set
    columns = [[base] * len(outers)]
    for q in compress(range(len(inside)), map(not_, inside)):
        # per group, its outer literals and its inner lanes combined
        split = [([(at[lit][q], lit[1]) for lit in group if at[lit][q] < cut],
                  reduce(inner_op, [lanes[lit[1]][at[lit][q]] for lit in group if at[lit][q] >= cut], identity))
                 for group in groups]
        keys = sorted({s for outs, _ in split for s, _ in outs})
        part = itemgetter(*keys)
        table, column = {}, []
        for outer in outers:
            key = part(outer)
            if key not in table:  # the byte string depends only on the structure's outer slots
                table[key] = reduce(outer_op, [decided if any((outer[s] == v) == every for s, v in outs) else inner
                                               for outs, inner in split])
            column.append(table[key])
        columns.append(column)
    numerator = cache(lambda t: problem.numerator(t, d))
    dens = {}  # per outer share, (first, end, denominator) of each group it gives a nonzero denominator
    best_num, best_den, best = 0, 1, len(outers) * count  # past the last state: none found yet
    for o, (mine, row) in enumerate(zip(_shares(list(map(bytes, outers)), n, sizes, len(colors)), zip(*columns))):
        counts = sum(row).to_bytes(span, "little")
        if width > 1:
            counts = [int.from_bytes(counts[i:i + width], "little") for i in range(0, span, width)]
        if mine not in dens:  # where the denominator is 0, a class is empty and the state has no ratio
            dens[mine] = [(first, end, den) for key, first, end in runs
                          if (den := problem.denominator(map(add, mine, key), d))]
        for first, end, den in dens[mine]:
            t = max(counts[first:end])
            num = numerator(t)
            ahead, behind = num * best_den, best_num * den
            if ahead >= behind:
                i = o * count + layout[counts.index(t, first, end)]
                if ahead > behind or i < best:
                    best_num, best_den, best = num, den, i
    if best == len(outers) * count:
        return 0, 1, None
    return best_num, best_den, (*outers[best // count], *inners[best % count])


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


def _scan(name: str, n: int, colors: tuple[str, ...],
          reverse: bool) -> tuple[Fraction | None, ColoredHypergraph | None]:
    """The best ratio of a registered problem over every state of [n], and its first witness.

    The slots are the subsets of [n] of each size draws(3, 0) lists, size by size, each in `combinations`
    order or, where `reverse`, from the last; the first size's are the outer state, their first half where
    one size is drawn.  Each takes the value 0 (absent) or p, an edge of `colors`[p - 1], and a state counts
    the size-sets of structures(3, 0): fewer vertices are refused.  The outer states scanned are those first
    in their orbit under the vertex permutations that map the outer slots onto themselves and, where the
    ratio weighs the classes alike, the color permutations: every other state has an image as good that
    comes before it.
    """
    prob = PROBLEMS[name]
    size = prob.structures(3, 0)[0]
    if n < size:
        raise ValidationError(f"need at least {size} vertices, got {n}")
    sizes, drawn = prob.draws(3, 0)
    parts = [list(combinations(range(n), s))[::-1 if reverse else 1] for s in sizes]
    slots, k = sum(parts, []), len(drawn)
    cut = len(parts[0]) // 2 if len(parts) == 1 else len(parts[0])
    alike = len(set(prob.exponents(3)[1])) == 1
    recolor = [(0, *c) for c in permutations(range(1, k + 1))] if alike else [tuple(range(k + 1))]
    maps = _vertex_maps(n, slots[:cut])
    outers = _orbit_least(product(range(k + 1), repeat=cut),
                          lambda s: [m(t) for t in {tuple(map(c.__getitem__, s)) for c in recolor} for m in maps])
    inners = list(map(bytes, product(range(k + 1), repeat=len(slots) - cut)))
    num, den, state = _best_in_blocks(outers, inners, slots, n, prob, 3, 0)
    return _recounted(name, n, slots, state, num, den, 3, 0, colors)


def search_rainbow_triangle(max_vertices: int) -> SearchResult:
    """Exhaustively maximize T^2 / (RGB) over 3-colorings of the pairs of [n].

    Every pair slot takes one of {absent, red, green, blue}, in `combinations` order; the first half
    of the slots are the outer state, the rest the inner one.
    """
    check_cap("rainbow search vertices", max_vertices, RAINBOW_CAP)
    best, witness = _scan("rainbow_d", max_vertices, RGB, reverse=False)
    return SearchResult("rainbow_triangle", best, witness, 4 ** comb(max_vertices, 2), exhaustive=True)


def search_mixed_4subsets(max_vertices: int) -> SearchResult:
    """Exhaustively maximize J^2 / (N2 N3^2) over mixed 2/3-edge hypergraphs.

    The pair bits are the outer state and the triple bits the inner one, each scanned in the
    order of its integer, bits from the lowest in `combinations` order: each list of slots is
    reversed, so that product order is integer order.  `explored` counts the states with a pair
    and a triple.
    """
    check_cap("mixed search vertices", max_vertices, MIXED_CAP)
    best, witness = _scan("mixed4", max_vertices, ("plain",), reverse=True)
    explored = ((1 << comb(max_vertices, 2)) - 1) * ((1 << comb(max_vertices, 3)) - 1)
    return SearchResult("mixed_4subsets", best, witness, explored, exhaustive=True)


PROBE_CAP = 150_000  # trials x subsets of [n] drawn a trial
# the literals of a probe's structures over every size-set of [n]: 0.14-0.22 us and 5-9 bytes each on the lanes
LITERAL_CAP = 12_000_000
# the facets of a trial's subsets, the most the witness's recount reads: about 2 us and 250 bytes each, so
# about 2 s and 250 MB at the cap; one trial of rainbow_d with d = 24 on 28 vertices, 2.3e6 facets, took
# 7.9 s and 524 MB (2-vCPU x86 VM)
RECOUNT_CAP = 10**6
_COIN = bytes(int(x < 128) for x in range(256))  # random() < 0.5 iff its first word's top byte is below 128


def _draws(rng: random.Random, colors: int, m: int, trials: int) -> list[bytes]:
    """Each trial's m draws, a byte each, as m calls of random() < 0.5 (one color) or of
    randrange(colors + 1) would give them: random() reads two 32-bit words, and randrange(k) the
    top k.bit_length() bits of one, again while they reach k.  Every trial's words are read in one
    request, first word lowest, sized to leave a second one rare; each request is whole words, so
    the words, and the draws, are those of one long request.  Words left over are never used.
    """
    shift = max(0, 8 - (colors + 1).bit_length())  # at most 65 colors draw: rainbow_d draws none for d > n + 1
    table = _COIN if colors == 1 else bytes(x >> shift if x >> shift <= colors else 255 for x in range(256))
    size = 8 if colors == 1 else 4  # bytes of output a try reads: two words for random(), one for randrange
    accepted = 256 - table.count(255)  # of a try's 256 top bytes, those that give a draw: at least half
    need = m * trials
    pool = b""
    while len(pool) < need:
        short = need - len(pool)
        tries = -(-short * 256 // accepted) + 4 * isqrt(short) + 8  # the expected tries, and 4 deviations more
        words = rng.getrandbits(8 * size * tries).to_bytes(size * tries, "little")
        pool += words[3::size].translate(table).replace(b"\xff", b"")
    return [pool[i * m:(i + 1) * m] for i in range(trials)]


def random_probe(problem: str, params: Mapping[str, int], trials: int, seed: int = 0) -> SearchResult:
    """Best ratio of a registered problem over seeded-random instances, deterministic per seed.

    A trial draws each subset of [n] in `combinations` order, as `Problem.draws` says, a byte each.
    All trials are counted at once, the inner states of `_best_in_blocks` with no outer slot, after
    `PROBE_CAP` bounds the draws, `LITERAL_CAP` the literals of the problem's structures over every
    size-set of [n] and `RECOUNT_CAP` the facets of a trial's subsets, none of which a probe that
    draws nothing reaches.
    The ratio is the registry's, of the count and the drawn class sizes.  Only the best trial becomes
    a graph, recounted through the registry's kernel, which checks the structures against it.
    """
    prob = get_problem(problem)
    if trials < 0:
        raise ValidationError("trials must be nonnegative")
    defaults = {key: _MODE_OPTIONS["probe"][key] for key in ("vertices", "d", "delta")}
    if unknown := [repr(key) for key in params if key not in defaults]:
        raise ValidationError(f"unknown probe parameter {', '.join(unknown)}: probes take {', '.join(defaults)}")
    n, d, delta = (int(params.get(key, default)) for key, default in defaults.items())
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
    size, _, groups = prob.structures(d, delta)
    check_cap("probe literals (size-sets of [n] x literals per size-set)", comb(n, size) * sum(map(len, groups)),
              LITERAL_CAP)
    check_cap("probe recount facets (subsets of [n] drawn per trial x their size)",
              sum(comb(n, s) * s for s in sizes), RECOUNT_CAP)
    picks = _draws(random.Random(seed), k, m, trials)
    subsets = [v for s in sizes for v in combinations(range(n), s)]
    num, den, state = _best_in_blocks([()], picks, subsets, n, prob, d, delta)
    best, witness = _recounted(problem, n, subsets, state, num, den, d, delta, colors)
    return SearchResult(problem, best, witness, trials, exhaustive=False)


# the exhaustive scans by mode: the registry problem they maximize, and the scan, looked up when called
_SCANS = {
    "rainbow-triangle": ("rainbow_d", lambda n: search_rainbow_triangle(n)),
    "mixed4": ("mixed4", lambda n: search_mixed_4subsets(n)),
}


# each mode's options and their defaults, by argparse dest, as `mode_options` reads them
_MODE_OPTIONS = {**{scan: {"max_vertices": 4} for scan in _SCANS},
                 "probe": {"problem": "rainbow_d", "vertices": 8, "trials": 1000, "d": 3, "delta": 0, "seed": 0}}


def _search_options(p) -> None:
    p.add_argument("mode", choices=list(_MODE_OPTIONS))
    # each option left out is None here, and its mode's default in `_cmd_search`
    p.add_argument("--max-vertices", type=int)
    p.add_argument("--problem", choices=list(PROBLEMS))
    p.add_argument("--vertices", type=int)
    p.add_argument("--trials", type=int)
    p.add_argument("--d", type=int)
    p.add_argument("--delta", type=int)
    p.add_argument("--out")
    p.add_argument("--seed", type=int, help="seed of the random probe")


def _cmd_search(args) -> tuple[dict, list, list[str]]:
    mode_options(args, "search", args.mode, _MODE_OPTIONS)
    if args.mode == "probe":
        params = {"vertices": args.vertices, "d": args.d, "delta": args.delta}
        res = random_probe(args.problem, params, args.trials, seed=args.seed)
        name, d, delta = args.problem, args.d, args.delta
    else:
        name, scan = _SCANS[args.mode]
        res = scan(args.max_vertices)
        d, delta = 3, 0
    problem = PROBLEMS[name]
    bounds = problem.reports(res.best, d, delta) if res.best is not None else []
    if args.out and res.witness is not None:
        _dump(args.out, hypergraph_to_obj(res.witness))
    q = {"problem": res.problem, "best_ratio": "none" if res.best is None else res.best,
         "best_ratio_real": "nan" if res.best is None else float(res.best), "explored": res.explored,
         "exhaustive": res.exhaustive}
    return q, bounds, list(problem.notes)
