"""Rainbow triangle counting and the sharp T^2 <= 2RGB bound.

Walks through the opposite-edge K4 coloring and its blowups, the complete
tripartite comparison point, the higher-uniformity ratio with its three
upper bounds, and the exhaustive search that rediscovers the tight example.
"""

from shadowlab import PROBLEMS
from shadowlab.constructions import (k4_blowup, kappa_lift, matching_construction, rainbow_tripartite,
                                     round_robin_matchings)
from shadowlab.search import search_rainbow_triangle

print("== blowups of the opposite-edge K4 coloring ==")
for n in (1, 2, 3):
    c = k4_blowup(n)
    counts, ratio = PROBLEMS["rainbow_d"].exact(c.graph, 3, colors=c.graph.colors())
    print(f"n={n}: {c.graph.n} vertices, R=G=B={counts['C'][0]}, T={counts['T']}, T^2/(RGB) = {ratio}")
print("the ratio is exactly 2 for every n, so the bound T^2 <= 2RGB is sharp\n")

print("== complete tripartite blowup of one rainbow triangle ==")
c = rainbow_tripartite(2, 3, 4)
counts, ratio = PROBLEMS["rainbow_d"].exact(c.graph, 3, colors=c.graph.colors())
print(f"parts (2,3,4): T={counts['T']}, classes {tuple(counts['C'])}, ratio {ratio}")
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
_, ratio = PROBLEMS["rainbow_d"].exact(lifted.graph, 6, colors=lifted.graph.colors())
for b in PROBLEMS["rainbow_d"].reports(ratio, 6):
    print(f"  bound check: {b.quantity} <= {b.bound:g} [{b.source}] -> {b.satisfied}")
