"""Proven bounds as their own oracle: exact Kruskal-Katona on colex initial segments.

By Kruskal (1963) and Katona (1968), the first m d-sets of [n] in colex order
have the least shadow of any m d-sets.  Its size is read from the d-cascade
m = C(a_d, d) + C(a_{d-1}, d-1) + ... + C(a_t, t), a_d > ... > a_t >= t >= 1,
as C(a_d, d-1) + C(a_{d-1}, d-2) + ... + C(a_t, t-1).  The cascade is computed
here, independently of the library, which states only Lovasz's real-t form.
"""

from itertools import combinations
from math import comb

import pytest

from shadowlab import hypergraph
from shadowlab.hypergraph import SetFamily, check_kruskal_katona, shadow

SIZES = [(n, d) for n in range(2, 8) for d in range(2, n + 1)]


def cascade_shadow(m: int, d: int) -> int:
    """The least shadow of m d-sets: each greedy cascade term C(a, k) adds C(a, k-1)."""
    size = 0
    for k in range(d, 0, -1):
        if m == 0:
            break
        a = k
        while comb(a + 1, k) <= m:  # the largest a with C(a, k) <= m
            a += 1
        size += comb(a, k - 1)
        m -= comb(a, k)
    return size


def colex(n: int, d: int) -> list[tuple[int, ...]]:
    """The d-subsets of [n] in colex order: by largest element, then the next largest, and so on."""
    return sorted(combinations(range(n), d), key=lambda s: s[::-1])


def test_cascade_of_known_values():
    # 5 = C(3, 2) + C(2, 1) pairs span 3 + 1 vertices; 10 + 1 = C(5, 3) + C(2, 2) triples span 10 + 2 pairs
    assert [cascade_shadow(m, 2) for m in range(1, 7)] == [2, 3, 3, 4, 4, 4]
    assert cascade_shadow(10, 3) == 10 and cascade_shadow(11, 3) == 12


@pytest.mark.parametrize("n, d", SIZES)
def test_colex_segments_meet_the_cascade_exactly(monkeypatch, n, d):
    order = colex(n, d)
    for m in range(1, len(order) + 1):
        fam = SetFamily.make(n, order[:m], d=d)
        least = cascade_shadow(m, d)
        assert len(shadow(fam)) == least, m
        rep = check_kruskal_katona(fam)
        assert rep.computed == least and rep.satisfied and not rep.conjecture, m
        if any(comb(a, d) == m for a in range(d, n + 1)):
            # integer t: Lovasz's form is the cascade's one term, so a shadow one smaller fails it
            with monkeypatch.context() as mp:
                mp.setattr(hypergraph, "_shadow", lambda fam, whole=hypergraph._shadow: sorted(whole(fam))[1:])
                assert not check_kruskal_katona(fam).satisfied, m


@pytest.mark.parametrize("n, d", SIZES)
def test_one_step_off_a_segment_never_beats_it(n, d):
    # the segment with its last set swapped for any later one: no smaller shadow, and kk still holds
    order = colex(n, d)
    for m in range(1, len(order)):
        least = cascade_shadow(m, d)
        for later in order[m:]:
            fam = SetFamily.make(n, [*order[:m - 1], later], d=d)
            rep = check_kruskal_katona(fam)
            assert rep.computed == len(shadow(fam)) >= least and rep.satisfied, (m, later)
