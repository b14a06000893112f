"""Desk-scale probes of the open ratio problems.

Each counting problem has a proven cap and a conjectured optimum; the
reports keep the two separate, and random probes only ever tighten the
evidence, never settle anything.
"""

from shadowlab import PROBLEMS, ColoredHypergraph, weighted_joint_sum
from shadowlab.constructions import flats_example, tripartite_mixed
from shadowlab.search import random_probe, search_mixed_4subsets

print("== 6-subsets split by three 4-edges ==")
c = flats_example()
counts, ratio = PROBLEMS["good6"].exact(c.graph)
print(f"the 14-edge example: J = {counts['J']}, N = {counts['N']}, J^2/N^3 = {ratio}")
print("2/7 is the conjectured optimum; nothing larger is known\n")

print("== mixed 2/3-edge 4-subsets ==")
for size in (2, 3, 4):
    counts, ratio = PROBLEMS["mixed4"].exact(tripartite_mixed(size).graph)
    print(f"tripartite n={size}: J={counts['J']}, N2={counts['N2']}, N3={counts['N3']}, ratio {ratio}")
print("the construction climbs toward 3/2; the proven window is [3/2, 3]")
res = search_mixed_4subsets(4)
print(f"exhaustive n=4: best ratio {res.best} over {res.explored} states\n")

print("== color-covering subsets at higher uniformity ==")
h = ColoredHypergraph.from_edges(
    4, [((0, 1, 2), "red"), ((0, 1, 3), "green"), ((0, 2, 3), "blue")]
)
counts, ratio = PROBLEMS["covering_delta"].exact(h, delta=1)
print(f"delta=1 example: J={counts['J']}, ratio {ratio}")
for b in PROBLEMS["covering_delta"].reports(ratio, delta=1):
    tag = "conjecture" if b.conjecture else "proven"
    print(f"  {tag}: ratio <= {b.bound:g} [{b.source}] -> {b.satisfied}")
print()

print("== weighted cliques ==")
h = ColoredHypergraph.from_edges(
    4, [(p, "plain", w) for p, w in zip([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)], [1, 4, 9, 1, 4, 1])]
)
ws = weighted_joint_sum(h, 3)
print(f"sum of w(triangle)^(3/2) = {ws.value:.6f} <= {ws.report.bound:.6f}\n")

print("== seeded random probes ==")
res = random_probe("good6", {"vertices": 8}, 2000, seed=7)
print(f"good6 over 2000 random 4-uniform graphs: best {res.best} "
      f"~ {float(res.best):.4f} (2/7 = {2/7:.4f} conjectured optimal)")
res = random_probe("covering_delta", {"vertices": 6, "delta": 1}, 2000, seed=7)
print(f"covering delta=1 over 2000 random graphs: best {res.best} "
      f"~ {float(res.best):.4f} (proven cap 6, conjectured 2)")
