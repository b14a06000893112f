"""Exact combinatorial arithmetic, monotone inversion and the shadow bound."""

import math
import random
from itertools import combinations, product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from shadowlab.errors import ValidationError
from shadowlab.hypergraph import _binom_bound
from shadowlab.numkit import (
    CVector,
    gaussian_binom,
    invert_product,
    product_falling,
    shadow_bound,
)
from shadowlab.qlinalg import _gaussian_bound


def bisect_oracle(f, lo, hi, target, iters=100):
    """Plain bisection, independent of the library's inversion path."""
    for _ in range(iters):
        mid = (lo + hi) / 2
        if f(mid) < target:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def span_oracle(gens, q, n):
    """All linear combinations of gens over F_q, as a frozenset of tuples."""
    space = set()
    for coeffs in product(range(q), repeat=len(gens)):
        v = [0] * n
        for k, g in zip(coeffs, gens):
            for i in range(n):
                v[i] = (v[i] + k * g[i]) % q
        space.add(tuple(v))
    return frozenset(space)


def enumerate_subspaces_oracle(q, n, d):
    """Brute-force count of d-dim subspaces of F_q^n: dedup spans of d-tuples."""
    if d == 0:
        return 1
    vectors = list(product(range(q), repeat=n))[1:]  # skip the zero vector
    spaces = set()
    for gens in combinations(vectors, d):
        s = span_oracle(gens, q, n)
        if len(s) == q**d:
            spaces.add(s)
    return len(spaces)


ROOT_OF_PRODUCT_12 = 3.434841368216901  # bisection oracle: t(t-1)(t-2) = 12


def _gl_order(q, k):
    return math.prod(q**k - q**i for i in range(k))


def binom_oracle(t, d):
    """binom(t, d) for real t, from its defining product."""
    return math.prod(t - i for i in range(d)) / math.factorial(d)


def gaussian_oracle(t, d, q):
    """[t, d]_q for real t, from its defining product."""
    return math.prod((q**t - q**i) / (q**d - q**i) for i in range(d))


class TestProductFalling:
    def test_integer_t_gives_factorial(self):
        assert product_falling(3, (1, 2)) == 6

    def test_empty_cvector(self):
        assert product_falling(3, ()) == 3

    def test_near_root_of_twelve(self):
        t = bisect_oracle(lambda x: x * (x - 1) * (x - 2), 2.0, 20.0, 12.0)
        assert t == pytest.approx(ROOT_OF_PRODUCT_12, abs=1e-9)
        assert product_falling(t, (1, 2)) == pytest.approx(12.0, abs=1e-3)

    def test_strictly_increasing_on_branch(self):
        rng = random.Random(11)
        for _ in range(300):
            entries = tuple(sorted(rng.randint(0, 6) for _ in range(rng.randint(0, 4))))
            c = CVector(entries)
            base = float(c.last)
            t1 = base + rng.random() * 10
            t2 = t1 + rng.random() * 5 + 1e-6
            assert product_falling(t1, c) < product_falling(t2, c)


class TestBinomReal:
    """The binomial instance of shadow_bound: binom(t, d) = family, bound binom(t, d-1)."""

    def test_integer_values(self):
        _, t, bound = _binom_bound(1, 10, 3)
        assert t == pytest.approx(5.0, abs=1e-9)
        assert bound == pytest.approx(10.0, rel=1e-12)
        # binom(t, 0) = 1 whatever t is
        assert _binom_bound(1, 4, 1)[2] == 1

    def test_quadratic_solution(self):
        # binom(t, 2) = 2 at t = (1 + sqrt 17) / 2, and binom(t, 1) = t
        _, t, bound = _binom_bound(1, 2, 2)
        assert t == pytest.approx((1 + math.sqrt(17)) / 2, abs=1e-9)
        assert bound == t

    def test_domain_error(self):
        with pytest.raises(ValidationError):
            _binom_bound(1, 0, 3)

    @given(st.integers(min_value=1, max_value=60), st.integers(min_value=1, max_value=12))
    def test_agrees_with_integer_binomial(self, t, d):
        if t >= d:
            shadow = math.comb(t, d - 1)
            holds, root, bound = _binom_bound(shadow, math.comb(t, d), d)
            assert root == pytest.approx(t, abs=1e-9)
            assert float(bound) == pytest.approx(shadow, rel=1e-9)
            assert holds and not _binom_bound(shadow - 1, math.comb(t, d), d)[0]

    def test_real_t_roundtrip(self):
        rng = random.Random(7)
        for _ in range(100):
            d, family = rng.randint(1, 6), rng.randint(1, 10**6)
            _, t, bound = _binom_bound(1, family, d)
            assert binom_oracle(t, d) == pytest.approx(family, rel=1e-9)
            assert float(bound) == pytest.approx(binom_oracle(t, d - 1), rel=1e-9)

    def test_big_integer_no_rounding(self):
        # large enough that a float path would lose low-order bits
        family, shadow = math.comb(120, 60), math.comb(120, 59)
        assert _binom_bound(shadow, family, 60)[0]
        assert not _binom_bound(shadow - 1, family, 60)[0]


class TestGaussianBinom:
    def test_t_equals_d(self):
        assert gaussian_binom(2, 2, 2) == 1

    def test_lines_of_f2_4(self):
        assert gaussian_binom(4, 1, 2) == 15
        assert enumerate_subspaces_oracle(2, 4, 1) == 15

    def test_planes_of_f2_4(self):
        assert gaussian_binom(4, 2, 2) == 35
        assert enumerate_subspaces_oracle(2, 4, 2) == 35

    @pytest.mark.parametrize("q,n_max", [(2, 4), (3, 3)])
    def test_counts_subspaces(self, q, n_max):
        for n in range(n_max + 1):
            for d in range(n + 1):
                assert gaussian_binom(n, d, q) == enumerate_subspaces_oracle(q, n, d)

    def test_real_t_matches_integer_t(self):
        # [t, 2]_2 = 35 at t = 4, with [4, 1]_2 = 15 as its bound
        _, t, bound = _gaussian_bound(1, 35, 2, 2)
        assert t == pytest.approx(4.0, abs=1e-9)
        assert bound == pytest.approx(15.0, rel=1e-12)

    def test_domain_errors(self):
        with pytest.raises(ValidationError):
            gaussian_binom(1, 2, 2)
        with pytest.raises(ValidationError):
            gaussian_binom(4, 2, 1)


class TestInvertProduct:
    def test_factorial_target(self):
        assert invert_product(6, (1, 2)) == pytest.approx(3.0, abs=1e-9)

    def test_zero_target(self):
        assert invert_product(0, (1, 2)) == pytest.approx(2.0, abs=1e-9)

    def test_twelve(self):
        assert invert_product(12, (1, 2)) == pytest.approx(ROOT_OF_PRODUCT_12, abs=1e-6)

    def test_negative_target_rejected(self):
        with pytest.raises(ValidationError):
            invert_product(-1, (1, 2))

    @pytest.mark.parametrize("d", [60, 120, 170])
    def test_wide_float_bracket_converges(self, d):
        # the bracket [d - 1, d + d!] is far wider than 2^200 times 1e-12
        assert invert_product(math.factorial(d), range(1, d)) == pytest.approx(d, abs=1e-9)

    @given(
        st.lists(st.integers(min_value=0, max_value=5), min_size=0, max_size=4),
        st.floats(min_value=0.0, max_value=20.0, allow_nan=False),
    )
    def test_roundtrip(self, entries, offset):
        c = CVector(tuple(sorted(entries)))
        t = c.last + offset
        target = product_falling(t, c)
        assert invert_product(target, c) == pytest.approx(t, abs=1e-7)


class TestInvertGaussian:
    """t of the Gaussian instance of shadow_bound, bisected in y = q^t - 1."""

    def test_value_one(self):
        assert _gaussian_bound(1, 1, 2, 2)[1] == pytest.approx(2.0, abs=1e-9)

    def test_thirty_five(self):
        assert _gaussian_bound(1, 35, 2, 2)[1] == pytest.approx(4.0, abs=1e-6)

    def test_seven(self):
        # [3,2]_2 = 7, confirmed by the subspace enumeration oracle
        assert enumerate_subspaces_oracle(2, 3, 2) == 7
        assert _gaussian_bound(1, 7, 2, 2)[1] == pytest.approx(3.0, abs=1e-6)

    def test_target_below_one_rejected(self):
        with pytest.raises(ValidationError):
            _gaussian_bound(1, 0, 2, 2)

    def test_roundtrip(self):
        rng = random.Random(5)
        for _ in range(50):
            q = rng.choice([2, 3])
            d = rng.randint(1, 3)
            n = d + rng.randint(0, 4)
            shadow = gaussian_binom(n, d - 1, q)
            holds, t, bound = _gaussian_bound(shadow, gaussian_binom(n, d, q), d, q)
            assert t == pytest.approx(n, abs=1e-6)
            assert float(bound) == pytest.approx(shadow, rel=1e-9)
            assert holds and not _gaussian_bound(shadow - 1, gaussian_binom(n, d, q), d, q)[0]


    def test_real_t_roundtrip(self):
        rng = random.Random(8)
        for _ in range(100):
            q, d, family = rng.choice([2, 3]), rng.randint(1, 3), rng.randint(1, 10**4)
            _, t, bound = _gaussian_bound(1, family, d, q)
            assert gaussian_oracle(t, d, q) == pytest.approx(family, rel=1e-9)
            assert float(bound) == pytest.approx(gaussian_oracle(t, d - 1, q), rel=1e-9)

class TestInvertBinom:
    """t of the binomial instance of shadow_bound."""

    def test_integer_binomial(self):
        # 10 three-sets: binom(5, 3) = 10
        assert _binom_bound(1, 10, 3)[1] == pytest.approx(5.0, abs=1e-9)

    def test_two_sets(self):
        assert _binom_bound(1, 2, 3)[1] == pytest.approx(ROOT_OF_PRODUCT_12, abs=1e-6)


class TestCVector:
    def test_rejects_decreasing(self):
        with pytest.raises(ValidationError):
            CVector((2, 1))

    def test_rejects_negative(self):
        with pytest.raises(ValidationError):
            CVector((-1, 0))

    def test_last_of_empty(self):
        assert CVector(()).last == 0


# (shadow, family, c) of tight cases, where shadow equals the bound exactly;
# the bisected float bound lands above the shadow size in all four.
TIGHT = {
    # complete families C(m, d): shadow (d-1)! C(m, d-1), family d! C(m, d), c = (1..d-1)
    "C(22,6)": (math.factorial(5) * math.comb(22, 5), math.factorial(6) * math.comb(22, 6), range(1, 6)),
    "C(29,5)": (math.factorial(4) * math.comb(29, 4), math.factorial(5) * math.comb(29, 5), range(1, 5)),
    # all 6-subsets of [10] under the repeats system: ordered tuples, c = (1..5)
    "repeats 10, d=6": (math.perm(10, 5), math.perm(10, 6), range(1, 6)),
    # all 4-subspaces of F_2^17 against all 3-subspaces, in y - 1 = 2^t - 1
    "[17,4]_2": (
        gaussian_binom(17, 3, 2) * _gl_order(2, 3),
        gaussian_binom(17, 4, 2) * _gl_order(2, 4),
        (1, 3, 7),
    ),
}


class TestShadowBoundHolds:
    @pytest.mark.parametrize("case", sorted(TIGHT))
    def test_tight_case_holds_and_one_less_fails(self, case):
        shadow, family, c = TIGHT[case]
        assert shadow_bound(shadow, family, c)[0]
        assert not shadow_bound(shadow - 1, family, c)[0]

    def test_agrees_with_float_bound_away_from_equality(self):
        rng = random.Random(5)
        for _ in range(300):
            c = tuple(range(1, rng.randint(1, 5)))
            family = rng.randint(1, 10**6)
            bound = product_falling(invert_product(family, c), c[:-1]) if c else 1.0
            shadow = rng.randint(1, 2 * int(bound) + 2)
            holds, _, exact_bound = shadow_bound(shadow, family, c)
            assert float(exact_bound) == pytest.approx(bound, rel=1e-9)
            if abs(shadow - bound) > 1e-6 * bound:
                assert holds == (shadow > bound)

    def test_empty_cvector_needs_one_shadow_member(self):
        # P_0 = 1 whatever t is
        assert shadow_bound(1, 5, ()) == (True, pytest.approx(5.0, abs=1e-9), 1)
        assert not shadow_bound(0, 5, ())[0]

    def test_empty_family_rejected(self):
        with pytest.raises(ValidationError):
            shadow_bound(1, 0, (1, 2))

    def test_target_beyond_float_range_inverts(self):
        # binom(t, 180) = 1 at t = 180, so 180! * 1 = t(t-1)...(t-179), and binom(180, 179) = 180
        holds, t, bound = _binom_bound(180, 1, 180)
        assert holds
        assert t == pytest.approx(180.0, abs=1e-6)
        assert float(bound) == pytest.approx(180.0, rel=1e-9)
