"""Set-family shadows, the real-parameter lower bound, and its q-analog.

The bound solves binom(t, d) = |family| for a real t and promises
|shadow| >= binom(t, d-1); complete families are exactly tight.  The same
statement holds verbatim for subspaces of F_q^n with Gaussian binomials.
"""

from shadowlab import ColoredHypergraph, SetFamily, check_kruskal_katona, check_partial_shadow_bound, shadow
from shadowlab.constructions import complete_family
from shadowlab.qlinalg import check_q_kruskal_katona, enumerate_subspaces

print("== shadows of set families ==")
fam = SetFamily.make(4, [(0, 1, 2), (0, 1, 3)])
print(f"family {fam.sets}")
print(f"shadow {shadow(fam).sets}")
rep = check_kruskal_katona(fam)
print(f"t = {rep.extra['t']:.6f}, bound {rep.bound:.4f}, shadow size {rep.computed} -> ok={rep.satisfied}\n")

print("== tightness on complete families ==")
for m in (3, 5, 8):
    rep = check_kruskal_katona(complete_family(m, 3))
    print(f"all 3-subsets of [{m}]: t={rep.extra['t']:.9f}, shadow {rep.computed} vs bound {rep.bound:.9f}")
print("equality holds exactly at integer t\n")

print("== the q-analog on subspace families ==")
grass = enumerate_subspaces(2, 4, 2)
print(f"all {len(grass)} planes of F_2^4")
rep = check_q_kruskal_katona(grass)
print(f"t = {rep.extra['t']:.6f}, lines in the shadow: {rep.computed}, bound {rep.bound:.6f}")
one = enumerate_subspaces(2, 3, 2)
rep = check_q_kruskal_katona(one)
print(f"all {len(one)} planes of F_2^3: shadow {rep.computed}, bound {rep.bound:.6f} (tight)\n")

print("== partial shadows: r-sets covered in all but k facets ==")
star = ColoredHypergraph.from_edges(4, [((0, v), "plain") for v in (1, 2, 3)])
rep = check_partial_shadow_bound(star, 3, 1)
print(
    f"3-star: m={rep.extra['m']} target 3-sets, x={rep.extra['x']:.4f}, "
    f"edges {rep.computed} >= bound {rep.bound:.4f} (tight)"
)
