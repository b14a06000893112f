"""Falling-factorial products, Gaussian binomials and the shadow bound.

Counting paths stay in exact integer arithmetic.  Every shadow check is the
falling-product bound of `shadow_bound`, decided exactly; the real-valued
parameter t is recovered by bisection on a provably monotone branch, and the
bound evaluated exactly on it, for display only.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from typing import Sequence

from .errors import ValidationError
from .record import Record


class CVector(Record):
    """Nondecreasing nonnegative integers c_1 <= ... <= c_{d-1}.

    Length d-1 for tuple length d; the empty vector corresponds to d = 1.
    """

    __slots__ = ("entries",)
    entries: tuple[int, ...]

    def __init__(self, entries: tuple[int, ...]) -> None:
        for c in entries:
            if not isinstance(c, int) or c < 0:
                raise ValidationError(f"c-vector entries must be nonnegative integers: {entries}")
        for a, b in zip(entries, entries[1:]):
            if a > b:
                raise ValidationError(f"c-vector entries must be nondecreasing: {entries}")
        object.__setattr__(self, "entries", entries)

    @classmethod
    def coerce(cls, c: "CVector | Sequence[int]") -> "CVector":
        if isinstance(c, CVector):
            return c
        return cls(tuple(c))

    @property
    def last(self) -> int:
        """c_{d-1}, or 0 for the empty vector."""
        return self.entries[-1] if self.entries else 0

    def drop_last(self) -> "CVector":
        return CVector(self.entries[:-1])

    def __len__(self) -> int:
        return len(self.entries)


def product_falling(t, c: CVector | Sequence[int]):
    """t * (t - c_1) * ... * (t - c_{d-1}); just t for the empty c-vector.

    Exact when t is an int or a Fraction, float otherwise.
    """
    cv = CVector.coerce(c)
    result = t
    for ci in cv.entries:
        result *= t - ci
    return result


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


def invert_product(target, c: CVector | Sequence[int]) -> float:
    """The unique t >= c_{d-1} with product_falling(t, c) = target.

    The product is 0 at t = c_{d-1} and strictly increasing beyond it, so
    bisection on [c_{d-1}, c_{d-1} + 1 + target] always converges.  Past a
    quarter of the float range, where lo + hi would overflow, it bisects on
    logarithms, with t <= c_{d-1} + target^(1/d).
    """
    if target < 0:
        raise ValidationError(f"inversion target must be nonnegative, got {target}")
    cv = CVector.coerce(c)
    lo = float(cv.last)
    if target <= sys.float_info.max / 4:
        hi = lo + 1.0 + float(target)
        return _bisect_increasing(lambda x: product_falling(x, cv), lo, hi, float(target))

    def log_product(x):
        return math.log(x) + sum(math.log(x - ci) for ci in cv.entries)

    goal = math.log(target)
    hi = lo + 1.0 + math.exp(goal / (len(cv) + 1))
    return _bisect_increasing(log_product, lo, hi, goal)


def shadow_bound(shadow: int, family: int, c: CVector | Sequence[int]) -> tuple[bool, float, Fraction]:
    """The falling-product shadow bound: (holds, t, bound) for P_d(t) = family.

    P_d(t) = product_falling(t, c) and P_{d-1} drops c_{d-1}; P_0 = 1 for the
    empty c-vector (d = 1).  `holds` decides shadow >= P_{d-1}(t) exactly:
    P_d(t) = P_{d-1}(t) (t - c_{d-1}) and P_{d-1} increases beyond c_{d-1},
    so the bound holds iff P_{d-1}(family / shadow + c_{d-1}) <= shadow, one
    Fraction evaluation with no root finding and no tolerance.  t is the
    bisected root `invert_product(family, c)` and bound = P_{d-1}(t) is
    evaluated exactly on it, both for display.  Scaled callers: binomials use
    c = (1, ..., d-1) with family * d! and shadow * (d-1)!; Gaussian
    binomials use c = (q-1, ..., q^{d-1}-1) in y = q^t - 1 with
    family * |GL_d(q)| and shadow * |GL_{d-1}(q)|.
    """
    if family < 1:
        raise ValidationError(f"shadow bound needs family >= 1, got {family}")
    cv = CVector.coerce(c)
    t = invert_product(family, cv)
    if not cv.entries:
        return shadow >= 1, t, Fraction(1)
    rest = cv.drop_last()
    holds = shadow >= 1 and product_falling(Fraction(family, shadow) + cv.last, rest) <= shadow
    return holds, t, product_falling(Fraction(t), rest)
