"""Falling-factorial products, Gaussian binomials and the shadow bound.

Counting paths stay in exact integer arithmetic.  Every shadow check is the
falling-product bound of `shadow_bound`, decided exactly; the real-valued
parameter t is recovered by bisection on a provably monotone branch, and the
bound evaluated exactly on it, for display only.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Sequence
from fractions import Fraction

from .errors import ValidationError


def _c_vector(c: Sequence[int]) -> tuple[int, ...]:
    """c as a tuple c_1 <= ... <= c_{d-1} of nonnegative integers, or ValidationError.

    Length d-1 for tuple length d; the empty vector corresponds to d = 1.
    """
    entries = tuple(c)
    for ci in entries:
        if not isinstance(ci, int) or ci < 0:
            raise ValidationError(f"c-vector entries must be nonnegative integers: {entries}")
    for a, b in zip(entries, entries[1:]):
        if a > b:
            raise ValidationError(f"c-vector entries must be nondecreasing: {entries}")
    return entries


def _falling(t, c: tuple[int, ...]):
    result = t
    for ci in c:
        result *= t - ci
    return result


def product_falling(t, c: Sequence[int]):
    """t * (t - c_1) * ... * (t - c_{d-1}); just t for the empty c-vector.

    Exact when t is an int or a Fraction, float otherwise.
    """
    return _falling(t, _c_vector(c))


def gaussian_binom(n: int, d: int, q: int) -> int:
    """[n, d]_q = (q^n - 1)(q^n - q)...(q^n - q^{d-1}) / ((q^d - 1)...(q^d - q^{d-1})).

    The number of d-dimensional subspaces of F_q^n, an exact integer.
    Requires n >= d and integer q >= 2.
    """
    if d < 0:
        raise ValidationError(f"d must be nonnegative, got {d}")
    if not isinstance(q, int) or q < 2:
        raise ValidationError(f"q must be an integer >= 2, got {q}")
    if n < d:
        raise ValidationError(f"gaussian_binom requires n >= d, got n={n}, d={d}")
    num = math.prod(q**n - q**i for i in range(d))
    den = math.prod(q**d - q**i for i in range(d))
    assert num % den == 0
    return num // den


def _bisect_increasing(f, lo: float, hi: float, target: float) -> float:
    """Root of f(t) = target for f increasing on [lo, hi], to width 1e-12 or to adjacent floats."""
    while hi - lo > 1e-12:
        mid = (lo + hi) / 2
        if mid in (lo, hi):
            break
        if f(mid) < target:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def _invert(target, c: tuple[int, ...]) -> float:
    """The unique t >= c_{d-1} with P_d(t) = target >= 0.  P_d is 0 at c_{d-1} and strictly increasing
    beyond it, so bisection on [c_{d-1}, c_{d-1} + 1 + target] converges.  Past a quarter of the float
    range, where lo + hi would overflow, it bisects on logarithms, with t <= c_{d-1} + target^(1/d)."""
    lo = float(c[-1]) if c else 0.0
    if target <= sys.float_info.max / 4:
        hi = lo + 1.0 + float(target)
        return _bisect_increasing(lambda x: _falling(x, c), lo, hi, float(target))

    def log_product(x):
        return math.log(x) + sum(math.log(x - ci) for ci in c)

    goal = math.log(target)
    hi = lo + 1.0 + math.exp(goal / (len(c) + 1))
    return _bisect_increasing(log_product, lo, hi, goal)


def shadow_bound(shadow: int, family: int, c: Sequence[int]) -> tuple[bool, float, Fraction]:
    """The falling-product shadow bound: (holds, t, bound) for P_d(t) = family.

    P_d(t) = product_falling(t, c) and P_{d-1} drops c_{d-1}; P_0 = 1 for the
    empty c-vector (d = 1).  `holds` decides shadow >= P_{d-1}(t) exactly:
    P_d(t) = P_{d-1}(t) (t - c_{d-1}) and P_{d-1} increases beyond c_{d-1},
    so the bound holds iff P_{d-1}(family / shadow + c_{d-1}) <= shadow, one
    Fraction evaluation with no root finding and no tolerance.  t is the
    bisected root of P_d(t) = family and bound = P_{d-1}(t) is evaluated
    exactly on it, both for display.
    """
    if family < 1:
        raise ValidationError(f"shadow bound needs family >= 1, got {family}")
    c = _c_vector(c)
    t = _invert(family, c)
    if not c:
        return shadow >= 1, t, Fraction(1)
    rest = c[:-1]
    holds = shadow >= 1 and _falling(Fraction(family, shadow) + c[-1], rest) <= shadow
    return holds, t, _falling(Fraction(t), rest)


def _member_bound(shadow: int, family: int, c: Sequence[int]) -> tuple[bool, float, Fraction]:
    """`shadow_bound` in members for c = (c_1, ..., c_d): a member is one orbit of P_d(c_d) tuples and a shadow
    member one of P_{d-1}(c_{d-1}), so the bound is P_{d-1}(t) / P_{d-1}(c_{d-1}).  Binomials use c = (1, ..., d),
    d! and (d-1)!; Gaussian binomials c = (q-1, ..., q^d-1) in y = q^t - 1, |GL_d(q)| and |GL_{d-1}(q)|."""
    c = tuple(c)
    per_shadow = _falling(c[-2], c[:-2]) if len(c) > 1 else 1
    holds, t, bound = shadow_bound(shadow * per_shadow, family * _falling(c[-1], c[:-1]), c[:-1])
    return holds, t, bound / per_shadow
