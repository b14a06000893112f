"""Bound verdicts: the exact, float-tolerance and caller-decided rules of both report kinds."""

import math
from fractions import Fraction

import pytest

from shadowlab.reports import DEFAULT_TOL, lower_report, upper_report

INF = math.inf
NAN = math.nan
BIG = 10**400  # an exact integer past the float range

# (report, computed, bound, keywords, satisfied, displayed bound, ratio)
VERDICTS = [
    # exact ints and Fractions: no tolerance at all
    (upper_report, 3, 3, {}, True, 3.0, 1.0),
    (upper_report, 4, 3, {}, False, 3.0, 4 / 3),
    (lower_report, 3, 3, {}, True, 3.0, 1.0),
    (lower_report, 2, 3, {}, False, 3.0, 2 / 3),
    (upper_report, Fraction(1, 3), Fraction(1, 3), {}, True, 1 / 3, 1.0),
    (upper_report, Fraction(10**12 + 1, 3 * 10**12), Fraction(1, 3), {}, False, 1 / 3, 1.000000000001),
    (lower_report, Fraction(10**12 - 1, 3 * 10**12), Fraction(1, 3), {}, False, 1 / 3, 0.999999999999),
    (lower_report, Fraction(7, 2), 3, {}, True, 3.0, 7 / 6),
    # a float side: the absolute tolerance DEFAULT_TOL, toward the bound's slack
    (upper_report, 1.0 + DEFAULT_TOL / 2, 1, {}, True, 1.0, 1.0 + DEFAULT_TOL / 2),
    (upper_report, 1.0 + 2 * DEFAULT_TOL, 1, {}, False, 1.0, 1.0 + 2 * DEFAULT_TOL),
    (lower_report, 1.0 - DEFAULT_TOL / 2, 1, {}, True, 1.0, 1.0 - DEFAULT_TOL / 2),
    (lower_report, 1.0 - 2 * DEFAULT_TOL, 1, {}, False, 1.0, 1.0 - 2 * DEFAULT_TOL),
    (upper_report, 2, 2.0 - DEFAULT_TOL / 2, {}, True, 2.0 - DEFAULT_TOL / 2, 2 / (2.0 - DEFAULT_TOL / 2)),
    (lower_report, 2, 2.0 + 2 * DEFAULT_TOL, {}, False, 2.0 + 2 * DEFAULT_TOL, 2 / (2.0 + 2 * DEFAULT_TOL)),
    # an exact bound past the float range displays as inf, its ratio from the exact quotient
    (upper_report, BIG, 2 * BIG, {}, True, INF, 0.5),
    (upper_report, 3 * BIG, 2 * BIG, {}, False, INF, 1.5),
    (lower_report, BIG, 2 * BIG, {}, False, INF, 0.5),
    (lower_report, 5 * BIG, 2 * BIG, {}, True, INF, 2.5),
    (upper_report, 7, Fraction(BIG, 3), {}, True, INF, float(Fraction(21, BIG))),
    # a float inf bound: compared as floats, never as a difference (inf - inf is nan)
    (upper_report, 1e300, INF, {}, True, INF, 0.0),
    (lower_report, 1e300, INF, {}, False, INF, 0.0),
    (upper_report, INF, INF, {}, True, INF, NAN),
    (lower_report, INF, INF, {}, True, INF, NAN),
    (lower_report, 5.0, -INF, {}, True, -INF, -0.0),
    # a zero bound
    (upper_report, 0, 0, {}, True, 0.0, NAN),
    (upper_report, 1, 0, {}, False, 0.0, INF),
    # the caller's own verdict wins; the bound is then for display only
    (upper_report, 5, 3, {"holds": True}, True, 3.0, 5 / 3),
    (upper_report, 1, 3, {"holds": False}, False, 3.0, 1 / 3),
    (lower_report, 1, 3, {"holds": True}, True, 3.0, 1 / 3),
    (lower_report, 4.0, 3.0, {"holds": False}, False, 3.0, 4 / 3),
    (upper_report, 2 * BIG, BIG, {"holds": True}, True, INF, 2.0),
    # a conjecture keeps its verdict; only the flag differs
    (upper_report, 3, 2, {"conjecture": True}, False, 2.0, 1.5),
    (upper_report, Fraction(2, 7), Fraction(2, 7), {"conjecture": True}, True, 2 / 7, 1.0),
    (lower_report, 1, 2, {"conjecture": True}, False, 2.0, 0.5),
]


@pytest.mark.parametrize("report,computed,bound,kw,satisfied,shown,ratio", VERDICTS)
def test_verdict_table(report, computed, bound, kw, satisfied, shown, ratio):
    rep = report("q", computed, bound, "src", **kw)
    assert rep.satisfied is satisfied
    assert rep.kind == ("upper" if report is upper_report else "lower")
    assert rep.conjecture is kw.get("conjecture", False)
    assert rep.computed is computed
    assert rep.bound == shown and isinstance(rep.bound, float)
    if math.isnan(ratio):
        assert math.isnan(rep.ratio)
    else:
        assert rep.ratio == pytest.approx(ratio, rel=1e-15, abs=0)
        assert math.copysign(1, rep.ratio) == math.copysign(1, ratio)


@pytest.mark.parametrize("report", [upper_report, lower_report])
def test_extra_is_copied(report):
    extra = {"t": 1.5}
    rep = report("q", 1, 1, "src", extra=extra)
    assert rep.extra == extra and rep.extra is not extra
    assert report("q", 1, 1, "src").extra == {}
    assert (rep.quantity, rep.source) == ("q", "src")
