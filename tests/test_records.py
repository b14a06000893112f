"""Value semantics of every immutable record type of the library.

Each record is built from its fields in declaration order, positionally or
by keyword; missing fields take their defaults.  Records compare equal when
they are of the same class with equal fields, hash like the tuple of their
fields (when every field is hashable), print as `Class(field=value, ...)`,
and refuse assignment and deletion of attributes.
"""

from fractions import Fraction

import pytest

from shadowlab.checks import WeightedSumReport
from shadowlab.constructions import Construction
from shadowlab.entropy import ExactDistribution, KeyInequalityReport
from shadowlab.forbidding import AxiomReport, CompatibilityResult
from shadowlab.hypergraph import ColoredHypergraph, Edge, SetFamily
from shadowlab.problems import Problem
from shadowlab.qlinalg import SubspaceFamily
from shadowlab.reports import BoundReport, ValidationReport
from shadowlab.search import SearchResult


def _form(h, d, delta, colors):
    return [[]], {}


def _count(form):
    return 0


def _exponents(d):
    return 2, (1,)


def _bounds(d, delta):
    return ()


def _draws(d, delta):
    return (2,), ("plain",)


def _structures(d, delta):
    return 2, True, [[((0, 1), 1)]]


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
    (WeightedSumReport, (3, 4, (2, 2), 1.5, REPORT), 0, (),
     f"WeightedSumReport(d=3, total_weight=4, terms=(2, 2), value=1.5, report={REPORT_REPR})", False,
     ("value", 2.5)),
    (Problem, ("p", "x / y", _form, _count, _exponents, ("J", ("N",)), _bounds, ("note",), _draws, _structures), 0,
     (), f"Problem(name='p', quantity='x / y', form={_form!r}, count={_count!r}, exponents={_exponents!r}, "
     f"names=('J', ('N',)), bounds={_bounds!r}, notes=('note',), draws={_draws!r}, structures={_structures!r})",
     True, ("name", "r")),
    (BoundReport, ("q", 1, 2.0, 0.5, True, "src", "upper", False, {}), 2, (False, {}), REPORT_REPR, False,
     ("computed", 3)),
    (ValidationReport, (True, ()), 1, ((),), "ValidationReport(ok=True, violations=())", True,
     ("violations", ("bad",))),
    (ExactDistribution, (1, (((0,), Fraction(1)),)), 0, (),
     "ExactDistribution(arity=1, support=(((0,), Fraction(1, 1)),))", True, ("arity", 2)),
    (KeyInequalityReport, ((2.0, 1.0), (0.0,), REPORT), 0, (),
     f"KeyInequalityReport(sizes=(2.0, 1.0), gaps=(0.0,), report={REPORT_REPR})", False, ("gaps", (1.0,))),
    (AxiomReport, (True, 3, None), 1, (None,),
     "AxiomReport(ok=True, checked=3, violation=None)", True, ("checked", 4)),
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
    WeightedSumReport: ("d", "total_weight", "terms", "value", "report"),
    Problem: ("name", "quantity", "form", "count", "exponents", "names", "bounds", "notes", "draws", "structures"),
    BoundReport: ("quantity", "computed", "bound", "ratio", "satisfied", "source", "kind", "conjecture",
                  "extra"),
    ValidationReport: ("ok", "violations"),
    ExactDistribution: ("arity", "support"),
    KeyInequalityReport: ("sizes", "gaps", "report"),
    AxiomReport: ("ok", "checked", "violation"),
    CompatibilityResult: ("ok", "witness"),
    SubspaceFamily: ("q", "n", "d", "members"),
    SearchResult: ("problem", "best", "witness", "explored", "exhaustive"),
    Construction: ("name", "graph", "expected"),
}

IDS = [case[0].__name__ for case in CASES]


def test_every_record_is_covered():
    assert len(CASES) == len(FIELDS) == 14
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


def test_classmethods_build_records():
    assert ColoredHypergraph.from_edges(2, [((1, 0), "red")]) == GRAPH
    assert SetFamily.make(3, [(1, 0)]) == SetFamily(3, 2, ((0, 1),))
    assert SubspaceFamily.make(2, 2, 1, [[(0, 1)]]) == SubspaceFamily(2, 2, 1, (((0, 1),),))
    assert ExactDistribution.uniform([(0,)]) == ExactDistribution(1, (((0,), Fraction(1)),))
