"""Forbidding systems: one framework, two classical shadow theorems.

A system declares how many bad extensions each good multiset has (the
c-vector).  Distinct-element tuples form a (1, 2, ..., d-1) system and
recover the set-family bound; linear independence over F_q forms a
(q-1, q^2-1, ...) system and recovers the subspace bound.
"""

from shadowlab import SetFamily, check_kruskal_katona
from shadowlab.forbidding import (
    check_generalized_kk,
    is_compatible,
    qlinear_system,
    repeats_system,
    sd_orbits,
    verify_forbidding_axioms,
)
from shadowlab.qlinalg import enumerate_subspaces, subspace_points

print("== the repeats system ==")
sys3 = repeats_system(6, 3)
report = verify_forbidding_axioms(sys3)
print(f"axioms verified exhaustively: {report.ok} ({report.checked} multisets checked)")
[(_, size)] = sd_orbits(sys3, [range(5)])
pairs = check_generalized_kk(sys3, [range(5)]).computed
print(f"S = [5]: |S^(3)| = {size} = 5*4*3, shadow has {pairs} ordered pairs\n")

print("== the linear-independence system over F_2 ==")
qsys = qlinear_system(2, 4, 3)
report = verify_forbidding_axioms(qsys)
print(f"axioms verified for qlinear:2,4, d=3: {report.ok}, c-vector {qsys.c_vector}")
pair = [(1, 0, 0, 0), (0, 1, 0, 0)]
result = is_compatible(qsys, pair)
print(f"two independent vectors compatible? {result.ok}; witness: {result.witness}")
plane = sorted(subspace_points(((1, 0, 0, 0), (0, 1, 0, 0)), 2, 4) - {(0, 0, 0, 0)})
print(f"a full plane minus zero is compatible: {is_compatible(qsys, plane).ok}\n")

print("== one bound, two corollaries ==")
family = SetFamily.make(6, [(0, 1, 2), (0, 1, 3), (2, 3, 4)])
gkk = check_generalized_kk(repeats_system(6, 3), family.sets)
kk = check_kruskal_katona(family)
print(f"repeats: t={gkk.extra['t']:.6f} (set-family check gives {kk.extra['t']:.6f})")
print(f"         tuple shadow {gkk.computed} >= {gkk.bound:.4f}")

qsys2 = qlinear_system(2, 4, 2)
zero = (0, 0, 0, 0)
sets = [
    sorted(subspace_points(m, 2, 4) - {zero})
    for m in enumerate_subspaces(2, 4, 2).members
]
gkk = check_generalized_kk(qsys2, sets)
print(f"qlinear: all 35 planes give |F| = {gkk.extra['family_size']}, t = {gkk.extra['t']:.4f} = 2^4 - 1")
print(f"         tuple shadow {gkk.computed} >= {gkk.bound:.4f} (every nonzero vector, tight)")
