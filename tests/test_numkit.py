"""Exact combinatorial arithmetic, monotone inversion and the shadow bound."""

import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import gl_order, subspaces_by_span
from shadowlab import numkit
from shadowlab.errors import ValidationError
from shadowlab.numkit import gaussian_binom, product_falling, shadow_bound


def bisect_oracle(f, lo, hi, target, iters=100):
    """Plain bisection, independent of the library's inversion path."""
    for _ in range(iters):
        mid = (lo + hi) / 2
        if f(mid) < target:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


ROOT_OF_PRODUCT_12 = 3.434841368216901  # bisection oracle: t(t-1)(t-2) = 12


def binom_oracle(t, d):
    """binom(t, d) for real t, from its defining product."""
    return math.prod(t - i for i in range(d)) / math.factorial(d)


def gaussian_oracle(t, d, q):
    """[t, d]_q for real t, from its defining product."""
    return math.prod((q**t - q**i) / (q**d - q**i) for i in range(d))


def binom_bound(shadow, family, d):
    """kk's and partial-shadow's instance of the member bound: (holds, t, binom(t, d-1)), binom(t, d) = family."""
    return numkit._member_bound(shadow, family, range(1, d + 1))


def gaussian_bound(shadow, family, d, q):
    """qkk's instance: (holds, t, [t, d-1]_q) where [t, d]_q = family, t read from y = q^t - 1."""
    holds, y, bound = numkit._member_bound(shadow, family, [q**k - 1 for k in range(1, d + 1)])
    return holds, math.log(y + 1, q), bound


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
            c = tuple(sorted(rng.randint(0, 6) for _ in range(rng.randint(0, 4))))
            base = float(c[-1]) if c else 0.0
            t1 = base + rng.random() * 10
            t2 = t1 + rng.random() * 5 + 1e-6
            assert product_falling(t1, c) < product_falling(t2, c)


class TestBinomReal:
    """The binomial instance of shadow_bound: binom(t, d) = family, bound binom(t, d-1)."""

    def test_integer_values(self):
        _, t, bound = binom_bound(1, 10, 3)
        assert t == pytest.approx(5.0, abs=1e-9)
        assert bound == pytest.approx(10.0, rel=1e-12)
        # binom(t, 0) = 1 whatever t is
        assert binom_bound(1, 4, 1)[2] == 1

    def test_quadratic_solution(self):
        # binom(t, 2) = 2 at t = (1 + sqrt 17) / 2, and binom(t, 1) = t
        _, t, bound = binom_bound(1, 2, 2)
        assert t == pytest.approx((1 + math.sqrt(17)) / 2, abs=1e-9)
        assert bound == t

    def test_domain_error(self):
        with pytest.raises(ValidationError):
            binom_bound(1, 0, 3)

    @given(st.integers(min_value=1, max_value=60), st.integers(min_value=1, max_value=12))
    def test_agrees_with_integer_binomial(self, t, d):
        if t >= d:
            shadow = math.comb(t, d - 1)
            holds, root, bound = binom_bound(shadow, math.comb(t, d), d)
            assert root == pytest.approx(t, abs=1e-9)
            assert float(bound) == pytest.approx(shadow, rel=1e-9)
            assert holds and not binom_bound(shadow - 1, math.comb(t, d), d)[0]

    def test_real_t_roundtrip(self):
        rng = random.Random(7)
        for _ in range(100):
            d, family = rng.randint(1, 6), rng.randint(1, 10**6)
            _, t, bound = binom_bound(1, family, d)
            assert binom_oracle(t, d) == pytest.approx(family, rel=1e-9)
            assert float(bound) == pytest.approx(binom_oracle(t, d - 1), rel=1e-9)

    def test_big_integer_no_rounding(self):
        # large enough that a float path would lose low-order bits
        family, shadow = math.comb(120, 60), math.comb(120, 59)
        assert binom_bound(shadow, family, 60)[0]
        assert not binom_bound(shadow - 1, family, 60)[0]


class TestGaussianBinom:
    def test_t_equals_d(self):
        assert gaussian_binom(2, 2, 2) == 1

    def test_lines_of_f2_4(self):
        assert gaussian_binom(4, 1, 2) == 15
        assert len(subspaces_by_span(2, 4, 1)) == 15

    def test_planes_of_f2_4(self):
        assert gaussian_binom(4, 2, 2) == 35
        assert len(subspaces_by_span(2, 4, 2)) == 35

    @pytest.mark.parametrize("q,n_max", [(2, 4), (3, 3)])
    def test_counts_subspaces(self, q, n_max):
        for n in range(n_max + 1):
            for d in range(n + 1):
                assert gaussian_binom(n, d, q) == len(subspaces_by_span(q, n, d))

    def test_real_t_matches_integer_t(self):
        # [t, 2]_2 = 35 at t = 4, with [4, 1]_2 = 15 as its bound
        _, t, bound = gaussian_bound(1, 35, 2, 2)
        assert t == pytest.approx(4.0, abs=1e-9)
        assert bound == pytest.approx(15.0, rel=1e-12)

    def test_domain_errors(self):
        with pytest.raises(ValidationError):
            gaussian_binom(1, 2, 2)
        with pytest.raises(ValidationError):
            gaussian_binom(4, 2, 1)


class TestInvertProduct:
    """t of shadow_bound: the root of product_falling(t, c) = family on t >= c_{d-1}."""

    def test_factorial_target(self):
        assert shadow_bound(1, 6, (1, 2))[1] == pytest.approx(3.0, abs=1e-9)

    def test_twelve(self):
        assert shadow_bound(1, 12, (1, 2))[1] == pytest.approx(ROOT_OF_PRODUCT_12, abs=1e-6)

    def test_negative_target_rejected(self):
        with pytest.raises(ValidationError):
            shadow_bound(1, -1, (1, 2))

    @pytest.mark.parametrize("d", [60, 120, 170])
    def test_wide_float_bracket_converges(self, d):
        # the bracket [d - 1, d + d!] is far wider than 2^200 times 1e-12
        assert shadow_bound(1, math.factorial(d), range(1, d))[1] == pytest.approx(d, abs=1e-9)

    @given(
        st.lists(st.integers(min_value=0, max_value=5), min_size=0, max_size=4),
        st.integers(min_value=1, max_value=10**6),
    )
    def test_roundtrip(self, entries, family):
        c = tuple(sorted(entries))
        t = shadow_bound(1, family, c)[1]
        assert t >= (c[-1] if c else 0)
        assert product_falling(t, c) == pytest.approx(family, rel=1e-9)


class TestInvertGaussian:
    """t of the Gaussian instance of shadow_bound, bisected in y = q^t - 1."""

    def test_value_one(self):
        assert gaussian_bound(1, 1, 2, 2)[1] == pytest.approx(2.0, abs=1e-9)

    def test_thirty_five(self):
        assert gaussian_bound(1, 35, 2, 2)[1] == pytest.approx(4.0, abs=1e-6)

    def test_seven(self):
        # [3,2]_2 = 7, confirmed by the subspace enumeration oracle
        assert len(subspaces_by_span(2, 3, 2)) == 7
        assert gaussian_bound(1, 7, 2, 2)[1] == pytest.approx(3.0, abs=1e-6)

    def test_target_below_one_rejected(self):
        with pytest.raises(ValidationError):
            gaussian_bound(1, 0, 2, 2)

    def test_roundtrip(self):
        rng = random.Random(5)
        for _ in range(50):
            q = rng.choice([2, 3])
            d = rng.randint(1, 3)
            n = d + rng.randint(0, 4)
            shadow = gaussian_binom(n, d - 1, q)
            holds, t, bound = gaussian_bound(shadow, gaussian_binom(n, d, q), d, q)
            assert t == pytest.approx(n, abs=1e-6)
            assert float(bound) == pytest.approx(shadow, rel=1e-9)
            assert holds and not gaussian_bound(shadow - 1, gaussian_binom(n, d, q), d, q)[0]


    def test_real_t_roundtrip(self):
        rng = random.Random(8)
        for _ in range(100):
            q, d, family = rng.choice([2, 3]), rng.randint(1, 3), rng.randint(1, 10**4)
            _, t, bound = gaussian_bound(1, family, d, q)
            assert gaussian_oracle(t, d, q) == pytest.approx(family, rel=1e-9)
            assert float(bound) == pytest.approx(gaussian_oracle(t, d - 1, q), rel=1e-9)

class TestInvertBinom:
    """t of the binomial instance of shadow_bound."""

    def test_integer_binomial(self):
        # 10 three-sets: binom(5, 3) = 10
        assert binom_bound(1, 10, 3)[1] == pytest.approx(5.0, abs=1e-9)

    def test_two_sets(self):
        assert binom_bound(1, 2, 3)[1] == pytest.approx(ROOT_OF_PRODUCT_12, abs=1e-6)


# each public call that reads a c-vector, on one that holds: product 3 * 2 * 1 = 6 at t = 3, c = (1, 2)
C_VECTOR_CALLS = {
    "product_falling": lambda c: product_falling(3, c),
    "shadow_bound": lambda c: shadow_bound(3, 6, c),
}


class TestCVector:
    """A c-vector is a tuple of ints; each public call refuses a bad one, and checks it once."""

    def test_rejects_decreasing(self):
        for call in C_VECTOR_CALLS.values():
            with pytest.raises(ValidationError, match=r"must be nondecreasing: \(2, 1\)"):
                call((2, 1))

    def test_rejects_negative(self):
        for call in C_VECTOR_CALLS.values():
            with pytest.raises(ValidationError, match=r"must be nonnegative integers: \(-1, 0\)"):
                call([-1, 0])

    @pytest.mark.parametrize("entries", [(-1,), (2, 1), (1.5,), ("1",)])
    @pytest.mark.parametrize("name", C_VECTOR_CALLS)
    def test_entries_are_checked(self, name, entries):
        with pytest.raises(ValidationError, match="c-vector entries must be"):
            C_VECTOR_CALLS[name](entries)

    @pytest.mark.parametrize("name", C_VECTOR_CALLS)
    def test_checked_once_per_call(self, name, monkeypatch):
        seen = []
        monkeypatch.setattr(numkit, "_c_vector", lambda c: seen.append(c) or tuple(c))
        assert C_VECTOR_CALLS[name](range(1, 3)) and seen == [range(1, 3)]

    def test_member_bound_checks_once(self, monkeypatch):
        # shadow_bound checks the c-vector less c_d, and nothing else checks it
        seen = []
        monkeypatch.setattr(numkit, "_c_vector", lambda c: seen.append(c) or tuple(c))
        assert numkit._member_bound(3, 1, range(1, 4))[0] and seen == [(1, 2)]

    def test_last_of_empty(self):
        # the empty vector's branch starts at t = 0: the product is t, so family 1 is at t = 1
        holds, t, bound = shadow_bound(1, 1, ())
        assert holds and t == pytest.approx(1.0, abs=1e-9) and bound == 1


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
        gaussian_binom(17, 3, 2) * gl_order(2, 3),
        gaussian_binom(17, 4, 2) * gl_order(2, 4),
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
            if c:
                t = bisect_oracle(lambda x: product_falling(x, c), c[-1], c[-1] + 1 + family, family)
            bound = product_falling(t, c[:-1]) if c else 1.0
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
        holds, t, bound = binom_bound(180, 1, 180)
        assert holds
        assert t == pytest.approx(180.0, abs=1e-6)
        assert float(bound) == pytest.approx(180.0, rel=1e-9)
