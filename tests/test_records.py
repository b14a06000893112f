"""Value semantics of every immutable record type of the library.

Each record is built from its fields in declaration order, positionally or
by keyword; missing fields take their defaults.  Records compare equal when
they are of the same class with equal fields, hash like the tuple of their
fields (when every field is hashable), print as `Class(field=value, ...)`,
and refuse assignment and deletion of attributes.
"""

from fractions import Fraction

import pytest

from shadowlab.constructions import Construction
from shadowlab.entropy import CoverSpec, ExactDistribution, KeyInequalityReport
from shadowlab.errors import ValidationError
from shadowlab.forbidding import AxiomReport, CompatibilityResult
from shadowlab.hypergraph import (
    ColoredHypergraph,
    Edge,
    Problem,
    RatioReport,
    SetFamily,
    SpectralReport,
    WeightedSumReport,
)
from shadowlab.numkit import CVector
from shadowlab.qlinalg import SubspaceFamily
from shadowlab.reports import BoundReport, ValidationReport
from shadowlab.search import SearchResult


def _measure(h, d, delta, colors):
    return {}, 0, 1


def _bounds(d, delta):
    return ()


def _draws(d, delta):
    return (2,), ("plain",)


def _tally(form, d, delta):
    return {}, 0, 1


EDGE = Edge((0, 1), "red")
GRAPH = ColoredHypergraph(2, (EDGE,))
REPORT = BoundReport("q", 1, 2.0, 0.5, True, "src", "upper")
EDGE_REPR = "Edge(verts=(0, 1), color='red', weight=None)"
REPORT_REPR = ("BoundReport(quantity='q', computed=1, bound=2.0, ratio=0.5, satisfied=True, "
               "source='src', kind='upper', conjecture=False, extra={})")

# (class, every field value in order, the number of trailing fields that have defaults,
#  their default values, repr, whether the record is hashable, a field to change and its new value)
CASES = [
    (Edge, ((0, 1), "red", None), 1, (None,), EDGE_REPR, True, ("color", "blue")),
    (ColoredHypergraph, (2, (EDGE,)), 0, (), f"ColoredHypergraph(n=2, edges=({EDGE_REPR},))", True,
     ("n", 3)),
    (SetFamily, (3, 2, ((0, 1),)), 0, (), "SetFamily(n=3, d=2, sets=((0, 1),))", True, ("d", 1)),
    (WeightedSumReport, (3, 4, (2, 2), 1.5, REPORT, {(0, 1): 4}), 0, (),
     f"WeightedSumReport(d=3, total_weight=4, terms=(2, 2), value=1.5, report={REPORT_REPR}, weights={{(0, 1): 4}})",
     False,
     ("value", 2.5)),
    (SpectralReport, (2.0, 0.0, 1, (REPORT,)), 0, (),
     f"SpectralReport(trace2=2.0, trace3=0.0, total_weight=1, checks=({REPORT_REPR},))", False,
     ("trace3", 6.0)),
    (Problem, ("p", "x / y", _measure, _bounds, ("note",), _draws, _tally), 0, (),
     f"Problem(name='p', quantity='x / y', measure={_measure!r}, bounds={_bounds!r}, "
     f"notes=('note',), draws={_draws!r}, tally={_tally!r})", True, ("name", "r")),
    (RatioReport, ({"x": 1}, Fraction(1, 2), (REPORT,)), 0, (),
     f"RatioReport(counts={{'x': 1}}, ratio_exact=Fraction(1, 2), reports=({REPORT_REPR},))", False,
     ("ratio_exact", Fraction(1, 3))),
    (CVector, ((1, 2),), 0, (), "CVector(entries=(1, 2))", True, ("entries", (1, 3))),
    (BoundReport, ("q", 1, 2.0, 0.5, True, "src", "upper", False, {}), 2, (False, {}), REPORT_REPR, False,
     ("computed", 3)),
    (ValidationReport, (True, ()), 1, ((),), "ValidationReport(ok=True, violations=())", True,
     ("violations", ("bad",))),
    (ExactDistribution, (1, (((0,), Fraction(1)),)), 0, (),
     "ExactDistribution(arity=1, support=(((0,), Fraction(1, 1)),))", True, ("arity", 2)),
    (CoverSpec, (2, ((0,), (1,)), 1), 0, (), "CoverSpec(n=2, subsets=((0,), (1,)), k=1)", True,
     ("subsets", ((0, 1),))),
    (KeyInequalityReport, ((2.0, 1.0), (0.0,), True), 0, (),
     "KeyInequalityReport(sizes=(2.0, 1.0), gaps=(0.0,), ok=True)", True, ("ok", False)),
    (AxiomReport, (True, True, 3, None), 1, (None,),
     "AxiomReport(ok=True, exhaustive=True, checked=3, violation=None)", True, ("checked", 4)),
    (CompatibilityResult, (True, None), 1, (None,), "CompatibilityResult(ok=True, witness=None)", True,
     ("witness", ((0,), 1))),
    (SubspaceFamily, (2, 2, 1, (((0, 1),),)), 0, (),
     "SubspaceFamily(q=2, n=2, d=1, members=(((0, 1),),))", True, ("q", 3)),
    (SearchResult, ("p", Fraction(1, 2), None, 5, True), 0, (),
     "SearchResult(problem='p', best=Fraction(1, 2), witness=None, explored=5, exhaustive=True)",
     True, ("explored", 6)),
    (Construction, ("x", GRAPH, {"a": 1}), 0, (),
     f"Construction(name='x', graph=ColoredHypergraph(n=2, edges=({EDGE_REPR},)), expected={{'a': 1}})",
     False, ("name", "y")),
]

FIELDS = {
    Edge: ("verts", "color", "weight"),
    ColoredHypergraph: ("n", "edges"),
    SetFamily: ("n", "d", "sets"),
    WeightedSumReport: ("d", "total_weight", "terms", "value", "report", "weights"),
    SpectralReport: ("trace2", "trace3", "total_weight", "checks"),
    Problem: ("name", "quantity", "measure", "bounds", "notes", "draws", "tally"),
    RatioReport: ("counts", "ratio_exact", "reports"),
    CVector: ("entries",),
    BoundReport: ("quantity", "computed", "bound", "ratio", "satisfied", "source", "kind", "conjecture",
                  "extra"),
    ValidationReport: ("ok", "violations"),
    ExactDistribution: ("arity", "support"),
    CoverSpec: ("n", "subsets", "k"),
    KeyInequalityReport: ("sizes", "gaps", "ok"),
    AxiomReport: ("ok", "exhaustive", "checked", "violation"),
    CompatibilityResult: ("ok", "witness"),
    SubspaceFamily: ("q", "n", "d", "members"),
    SearchResult: ("problem", "best", "witness", "explored", "exhaustive"),
    Construction: ("name", "graph", "expected"),
}

IDS = [case[0].__name__ for case in CASES]


def test_every_record_is_covered():
    assert len(CASES) == len(FIELDS) == 18
    assert {case[0] for case in CASES} == set(FIELDS)


@pytest.mark.parametrize("case", CASES, ids=IDS)
class TestRecord:
    def test_positional_and_keyword(self, case):
        cls, values, _, _, _, _, _ = case
        by_position = cls(*values)
        by_keyword = cls(**dict(zip(FIELDS[cls], values)))
        for name, value in zip(FIELDS[cls], values):
            assert getattr(by_position, name) == value
            assert getattr(by_keyword, name) == value
        assert by_position == by_keyword

    def test_defaults(self, case):
        cls, values, n_defaults, defaults, _, _, _ = case
        if not n_defaults:
            with pytest.raises(TypeError):
                cls(*values[:-1])
            return
        record = cls(*values[:-n_defaults])
        for name, value in zip(FIELDS[cls][-n_defaults:], defaults):
            assert getattr(record, name) == value
        assert record == cls(*values)

    def test_missing_and_unknown_arguments(self, case):
        cls, values, _, _, _, _, _ = case
        with pytest.raises(TypeError):
            cls()
        with pytest.raises(TypeError):
            cls(*values, no_such_field=1)
        with pytest.raises(TypeError):
            cls(*values, values[-1])  # one positional argument too many

    def test_equality(self, case):
        cls, values, _, _, _, _, (name, other) = case
        record = cls(*values)
        changed = cls(**{**dict(zip(FIELDS[cls], values)), name: other})
        assert record == cls(*values)
        assert not record != cls(*values)
        assert record != changed
        assert not record == changed
        assert record != values
        assert record.__eq__(values) is NotImplemented

    def test_hash(self, case):
        cls, values, _, _, _, hashable, _ = case
        record = cls(*values)
        if hashable:
            assert hash(record) == hash(cls(*values)) == hash(tuple(getattr(record, f) for f in FIELDS[cls]))
            assert len({record, cls(*values)}) == 1
        else:
            with pytest.raises(TypeError):
                hash(record)

    def test_repr(self, case):
        cls, values, _, _, text, _, _ = case
        assert repr(cls(*values)) == text

    def test_frozen(self, case):
        cls, values, _, _, _, _, (name, other) = case
        record = cls(*values)
        with pytest.raises(AttributeError):
            setattr(record, name, other)
        with pytest.raises(AttributeError):
            delattr(record, name)
        with pytest.raises(AttributeError):
            record.no_such_field = 1
        assert getattr(record, name) == dict(zip(FIELDS[cls], values))[name]


def test_bound_report_extra_is_fresh_per_instance():
    a = BoundReport("q", 1, 2.0, 0.5, True, "src", "upper")
    b = BoundReport("q", 1, 2.0, 0.5, True, "src", "upper")
    assert a.extra == {} and a.extra is not b.extra


def test_bound_report_kind_is_checked():
    with pytest.raises(ValueError, match="kind"):
        BoundReport("q", 1, 2.0, 0.5, True, "src", "middle")
    with pytest.raises(ValueError, match="kind"):
        BoundReport(quantity="q", computed=1, bound=2.0, ratio=0.5, satisfied=True, source="src", kind="")


@pytest.mark.parametrize("entries", [(-1,), (2, 1), (1.5,), ("1",)])
def test_cvector_entries_are_checked(entries):
    with pytest.raises(ValidationError):
        CVector(entries)
    with pytest.raises(ValidationError):
        CVector(entries=entries)


def test_cvector_accepts_empty_and_nondecreasing():
    assert CVector(()).last == 0 and len(CVector(())) == 0
    assert CVector((0, 2, 2)).last == 2
    assert CVector((0, 2, 2)).drop_last() == CVector((0, 2))
    assert CVector.coerce([1, 1]) == CVector((1, 1))


@pytest.mark.parametrize("n, subsets, k, message", [
    (2, ((0,), (1,)), 0, "k must be positive"),
    (2, ((0,), ()), 1, "nonempty"),
    (2, ((0,), (2,)), 1, "outside"),
    (2, ((0,), (0,)), 1, "covered fewer"),
    (3, ((0, 1), (1, 2)), 2, "covered fewer"),
])
def test_cover_spec_is_checked(n, subsets, k, message):
    with pytest.raises(ValidationError, match=message):
        CoverSpec(n, subsets, k)
    with pytest.raises(ValidationError, match=message):
        CoverSpec(n=n, subsets=subsets, k=k)


def test_cover_spec_leave_one_out():
    assert CoverSpec.leave_one_out(3) == CoverSpec(3, ((1, 2), (0, 2), (0, 1)), 2)


def test_classmethods_build_records():
    assert ColoredHypergraph.from_edges(2, [((1, 0), "red")]) == GRAPH
    assert SetFamily.make(3, [(1, 0)]) == SetFamily(3, 2, ((0, 1),))
    assert SubspaceFamily.make(2, 2, 1, [[(0, 1)]]) == SubspaceFamily(2, 2, 1, (((0, 1),),))
    assert ExactDistribution.uniform(1, [(0,)]) == ExactDistribution(1, (((0,), Fraction(1)),))
