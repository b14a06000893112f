"""Exact/real combinatorial arithmetic and monotone inversion."""

import math
import random
from itertools import combinations, product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from shadowlab.errors import ValidationError
from shadowlab.numkit import (
    CVector,
    binom_real,
    gaussian_binom,
    invert_binom,
    invert_gaussian,
    invert_product,
    product_falling,
    shadow_bound_holds,
)


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
    def test_integer_values(self):
        assert binom_real(5, 3) == 10
        assert binom_real(4, 0) == 1

    def test_quadratic_solution(self):
        t = (1 + math.sqrt(17)) / 2
        assert binom_real(t, 2) == pytest.approx(2.0, abs=1e-9)

    def test_domain_error(self):
        with pytest.raises(ValidationError):
            binom_real(1.5, 3)

    @given(st.integers(min_value=0, max_value=60), st.integers(min_value=0, max_value=12))
    def test_agrees_with_integer_binomial(self, t, d):
        if t >= d - 1:
            assert binom_real(t, d) == math.comb(t, d)

    def test_big_integer_no_rounding(self):
        # large enough that a float path would lose low-order bits
        assert binom_real(120, 60) == math.comb(120, 60)


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
        assert gaussian_binom(4.0, 2, 2) == pytest.approx(35.0, rel=1e-12)

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
    def test_value_one(self):
        assert invert_gaussian(1, 2, 2) == pytest.approx(2.0, abs=1e-9)

    def test_thirty_five(self):
        assert invert_gaussian(35, 2, 2) == pytest.approx(4.0, abs=1e-6)

    def test_seven(self):
        # [3,2]_2 = 7, confirmed by the subspace enumeration oracle
        assert enumerate_subspaces_oracle(2, 3, 2) == 7
        assert invert_gaussian(7, 2, 2) == pytest.approx(3.0, abs=1e-6)

    def test_target_below_one_rejected(self):
        with pytest.raises(ValidationError):
            invert_gaussian(0.5, 2, 2)

    def test_roundtrip(self):
        rng = random.Random(5)
        for _ in range(50):
            q = rng.choice([2, 3])
            d = rng.randint(1, 3)
            t = d + rng.random() * 4
            target = gaussian_binom(t, d, q)
            assert invert_gaussian(target, d, q) == pytest.approx(t, abs=1e-6)


class TestInvertBinom:
    def test_integer_binomial(self):
        assert invert_binom(10, 3) == pytest.approx(5.0, abs=1e-9)

    def test_two_sets(self):
        assert invert_binom(2, 3) == pytest.approx(ROOT_OF_PRODUCT_12, abs=1e-6)


class TestCVector:
    def test_rejects_decreasing(self):
        with pytest.raises(ValidationError):
            CVector((2, 1))

    def test_rejects_negative(self):
        with pytest.raises(ValidationError):
            CVector((-1, 0))

    def test_last_of_empty(self):
        assert CVector(()).last == 0


def _gl_order(q, k):
    return math.prod(q**k - q**i for i in range(k))


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
        assert shadow_bound_holds(shadow, family, c)
        assert not shadow_bound_holds(shadow - 1, family, c)

    def test_agrees_with_float_bound_away_from_equality(self):
        rng = random.Random(5)
        for _ in range(300):
            c = tuple(range(1, rng.randint(1, 5)))
            family = rng.randint(1, 10**6)
            bound = product_falling(invert_product(family, c), c[:-1]) if c else 1.0
            shadow = rng.randint(1, 2 * int(bound) + 2)
            if abs(shadow - bound) > 1e-6 * bound:
                assert shadow_bound_holds(shadow, family, c) == (shadow > bound)

    def test_empty_cvector_needs_one_shadow_member(self):
        assert shadow_bound_holds(1, 5, ())
        assert not shadow_bound_holds(0, 5, ())

    def test_empty_family_rejected(self):
        with pytest.raises(ValidationError):
            shadow_bound_holds(1, 0, (1, 2))

    def test_target_beyond_float_range_inverts(self):
        # binom(t, 180) = 1 at t = 180, so 180! * 1 = t(t-1)...(t-179)
        assert invert_binom(1, 180) == pytest.approx(180.0, abs=1e-6)
        assert binom_real(180.0, 179) == pytest.approx(180.0, rel=1e-9)
