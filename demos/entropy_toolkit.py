"""Exact-distribution entropy: the identities behind the counting bounds.

Every probability is an exact rational; logs appear only when a final
entropy value is needed, so equalities can be recognized exactly.
"""

from itertools import combinations, permutations

from shadowlab import SetFamily, rainbow_cliques
from shadowlab.entropy import (
    ExactDistribution,
    check_cregular_corollary,
    check_key_inequality,
    check_lemma_disjoint_support,
    check_shearer,
    conditional_entropy,
    entropy,
)
from shadowlab.constructions import k4_blowup

print("== basic quantities ==")
bit = ExactDistribution.uniform([(0,), (1,)])
print(f"H(fair bit) = {entropy(bit)}")
pair = ExactDistribution.uniform([(a, b) for a in (0, 1) for b in (0, 1)])
print(f"independent bits: H(X,Y) = {entropy(pair)}, H(X|Y) = {conditional_entropy(pair, [0], [1])}\n")

print("== shearer on ordered rainbow triangles of the K4 coloring ==")
graph = k4_blowup(1).graph
triangles = rainbow_cliques(graph, ("red", "green", "blue"))
dist = ExactDistribution.uniform([p for t in triangles for p in permutations(t)])
rep = check_shearer(dist, ((0, 1), (1, 2), (0, 2)))
print(f"2 H(X1,X2,X3) <= sum of pair entropies: slack = {rep.extra['slack']:.6f} = log2(3)")
print("shearer is NOT tight on the tight example; closing that gap is the whole game\n")

print("== the telescoping key inequality ==")
fam = SetFamily.make(4, combinations(range(4), 3))
rep = check_key_inequality(fam)
print(f"complete family, sizes 2^H(X_k|past) = {tuple(round(s, 6) for s in rep.sizes)}")
print(f"gaps s_k - s_(k+1) - 1 = {tuple(round(g, 9) for g in rep.gaps)} (equality)")
fam = SetFamily.make(8, [(0, 1, 2), (0, 1, 3), (2, 4, 7), (3, 5, 6)])
rep = check_key_inequality(fam)
print(f"a ragged family still satisfies every gap >= 0: {rep.ok}\n")

print("== disjoint-support lemma and the c-regular corollary ==")
dist = ExactDistribution.uniform([("a", "b", 0), ("b", "a", 1)])
rep = check_lemma_disjoint_support(dist, {("a", 0), ("b", 1)}, {("b", 0), ("a", 1)})
print(f"2^H(X1) = {rep.extra['lhs']:.4f} >= {rep.extra['rhs']:.4f} = 2^H(X1|Y) + 2^H(X2|Y)")
bad = [(i, i) for i in range(3)]
rep = check_cregular_corollary(3, 3, bad, [(range(3), range(3), 1)])
print(f"diagonal bad cells on [3]x[3]: 2^H(X) - 2^H(X|Y) = {rep.computed:.4f} >= c = 1")
