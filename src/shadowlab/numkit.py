"""Falling-factorial products, real binomials, Gaussian binomials, inversion.

Counting paths stay in exact integer arithmetic.  Shadow bounds are decided
exactly by `shadow_bound_holds`; the real-valued parameter t is recovered by
bisection on a provably monotone branch for display only, so no derivative
bookkeeping is needed.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import ValidationError


@dataclass(frozen=True)
class CVector:
    """Nondecreasing nonnegative integers c_1 <= ... <= c_{d-1}.

    Length d-1 for tuple length d; the empty vector corresponds to d = 1.
    """

    entries: tuple[int, ...]

    def __post_init__(self) -> None:
        for c in self.entries:
            if not isinstance(c, int) or c < 0:
                raise ValidationError(f"c-vector entries must be nonnegative integers: {self.entries}")
        if any(a > b for a, b in zip(self.entries, self.entries[1:])):
            raise ValidationError(f"c-vector entries must be nondecreasing: {self.entries}")

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

    Exact when t is an int, float otherwise.
    """
    cv = CVector.coerce(c)
    result = t
    for ci in cv.entries:
        result *= t - ci
    return result


def binom_real(t, d: int):
    """t (t-1) ... (t-d+1) / d! for real t >= d-1; exact int for integer t."""
    if d < 0:
        raise ValidationError(f"d must be nonnegative, got {d}")
    if t < d - 1:
        raise ValidationError(f"binom_real requires t >= d-1 (monotone regime), got t={t}, d={d}")
    if isinstance(t, int):
        return math.comb(t, d) if t >= 0 else 1  # t = -1 only reachable with d = 0
    # one factor at a time: d! and the falling product leave the float range
    # long before the binomial does
    result = 1.0
    for i in range(d):
        result = result * (t - i) / (i + 1)
    return result


def gaussian_binom(t, d: int, q: int):
    """(q^t - 1)(q^t - q)...(q^t - q^{d-1}) / ((q^d - 1)...(q^d - q^{d-1})).

    q^t is a real power for real t; the result is an exact integer when t is
    an integer.  Requires t >= d and integer q >= 2.
    """
    if d < 0:
        raise ValidationError(f"d must be nonnegative, got {d}")
    if not isinstance(q, int) or q < 2:
        raise ValidationError(f"q must be an integer >= 2, got {q}")
    if t < d:
        raise ValidationError(f"gaussian_binom requires t >= d, got t={t}, d={d}")
    if isinstance(t, int):
        qt = q**t
        num = 1
        den = 1
        qd = q**d
        for i in range(d):
            num *= qt - q**i
            den *= qd - q**i
        assert num % den == 0
        return num // den
    qt = float(q) ** t
    num = 1.0
    den = 1.0
    qd = q**d
    for i in range(d):
        num *= qt - q**i
        den *= qd - q**i
    return num / den


def _bisect_increasing(f, lo: float, hi: float, target: float) -> float:
    """Root of f(t) = target for f increasing on [lo, hi] with f(lo) <= target <= f(hi), to width 1e-12."""
    for _ in range(200):
        if hi - lo <= 1e-12:
            break
        mid = (lo + hi) / 2
        if f(mid) < target:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def invert_product(target, c: CVector | Sequence[int]) -> float:
    """The unique t >= c_{d-1} with product_falling(t, c) = target.

    The product is 0 at t = c_{d-1} and strictly increasing beyond it, so
    bisection on [c_{d-1}, c_{d-1} + 1 + target] always converges.
    """
    if target < 0:
        raise ValidationError(f"inversion target must be nonnegative, got {target}")
    cv = CVector.coerce(c)
    lo = float(cv.last)
    if target <= sys.float_info.max:
        hi = lo + 1.0 + float(target)
        return _bisect_increasing(lambda x: product_falling(x, cv), lo, hi, float(target))

    # beyond the float range: bisect on logarithms, with t <= c_{d-1} + target^(1/d)
    def log_product(x):
        return math.log(x) + sum(math.log(x - ci) for ci in cv.entries)

    goal = math.log(target)
    hi = lo + 1.0 + math.exp(goal / (len(cv) + 1))
    return _bisect_increasing(log_product, lo, hi, goal)


def invert_binom(target, d: int) -> float:
    """The unique t >= d-1 with binom_real(t, d) = target (target >= 0)."""
    if d < 1:
        raise ValidationError(f"invert_binom requires d >= 1, got {d}")
    scaled = target * math.factorial(d)
    return invert_product(scaled, CVector(tuple(range(1, d))))


def invert_gaussian(target, d: int, q: int) -> float:
    """The unique t >= d with gaussian_binom(t, d, q) = target (target >= 1)."""
    if target < 1:
        raise ValidationError(f"invert_gaussian requires target >= 1, got {target}")
    if d < 1:
        raise ValidationError(f"invert_gaussian requires d >= 1, got {d}")
    lo = float(d)
    hi = lo + 1.0
    while gaussian_binom(hi, d, q) < target:
        hi = lo + 2 * (hi - lo)
    return _bisect_increasing(lambda x: gaussian_binom(x, d, q), lo, hi, float(target))


def shadow_bound_holds(shadow: int, family: int, c: CVector | Sequence[int]) -> bool:
    """Exactly decide shadow >= P_{d-1}(t), where P_d(t) = product_falling(t, c) = family.

    P_d(t) = P_{d-1}(t) (t - c_{d-1}) and P_{d-1} increases beyond c_{d-1}, so
    the bound holds iff P_{d-1}(family / shadow + c_{d-1}) <= shadow: one
    Fraction evaluation, no root finding and no tolerance.  P_0 = 1 for the
    empty c-vector (d = 1).  Scaled callers: binomials use c = (1, ..., d-1)
    with family * d! and shadow * (d-1)!; Gaussian binomials use
    c = (q-1, ..., q^{d-1}-1) in y - 1 = q^t - 1 with family * |GL_d(q)| and
    shadow * |GL_{d-1}(q)|, which puts the test at y* = q^{d-1}(1 + (q^d-1) family / shadow).
    """
    if family < 1:
        raise ValidationError(f"shadow bound needs family >= 1, got {family}")
    cv = CVector.coerce(c)
    if shadow < 1:
        return False
    if not cv.entries:
        return True
    return product_falling(Fraction(family, shadow) + cv.last, cv.drop_last()) <= shadow
