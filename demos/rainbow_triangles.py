"""Rainbow triangle counting and the sharp T^2 <= 2RGB bound.

Walks through the opposite-edge K4 coloring and its blowups, the complete
tripartite comparison point, the higher-uniformity ratio with its three
upper bounds, and the exhaustive search that rediscovers the tight example.
"""

from shadowlab import check_ratio
from shadowlab.constructions import (k4_blowup, kappa_lift, matching_construction, rainbow_tripartite,
                                     round_robin_matchings)
from shadowlab.search import search_rainbow_triangle

print("== blowups of the opposite-edge K4 coloring ==")
for n in (1, 2, 3):
    c = k4_blowup(n)
    rep = check_ratio("rainbow_d", c.graph, 3, colors=c.graph.colors())
    print(
        f"n={n}: {c.graph.n} vertices, R=G=B={rep.counts['C'][0]}, "
        f"T={rep.counts['T']}, T^2/(RGB) = {rep.ratio_exact}"
    )
print("the ratio is exactly 2 for every n, so the bound T^2 <= 2RGB is sharp\n")

print("== complete tripartite blowup of one rainbow triangle ==")
c = rainbow_tripartite(2, 3, 4)
rep = check_ratio("rainbow_d", c.graph, 3, colors=c.graph.colors())
print(f"parts (2,3,4): T={rep.counts['T']}, classes {tuple(rep.counts['C'])}, ratio {rep.ratio_exact}")
print("tripartite blowups sit at ratio 1: the loss lives elsewhere in the"
      " entropy argument\n")

print("== exhaustive search over all 3-colorings ==")
res = search_rainbow_triangle(4)
print(f"n=4: explored {res.explored} states, best ratio {res.best}")
# isomorphic to the K4 coloring exactly when its colour classes are the three perfect matchings of [4]
classes = {frozenset(e.verts for e in res.witness.edges if e.color == c) for c in res.witness.colors()}
print(f"     witness isomorphic to the K4 coloring: {classes == set(map(frozenset, round_robin_matchings(2)))}")
res5 = search_rainbow_triangle(5)
print(f"n=5: explored {res5.explored} states, best ratio {res5.best}")
print("no 5-vertex coloring beats the K4 example\n")

print("== higher uniformity: matchings and lifts ==")
for d in (3, 5, 7):
    c = matching_construction(d)
    print(f"d={d}: T={c.expected['T']}, classes {c.expected['C']}, ratio {c.expected['ratio']}")
base = matching_construction(5)
lifted = kappa_lift(base.graph)
print(f"lift of d=5: ratio {lifted.expected['ratio']} (preserved exactly)")
rep = check_ratio("rainbow_d", lifted.graph, 6, colors=lifted.graph.colors())
for b in rep.reports:
    print(f"  bound check: {b.quantity} <= {b.bound:g} [{b.source}] -> {b.satisfied}")
