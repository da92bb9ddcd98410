"""The package's value records: repr, equality, hashing, immutability, pickling."""

import copy
import pickle
from fractions import Fraction

import pytest

from momentangle.cech import Resolvent, build_resolvent
from momentangle.cells import Cell, homology_cycle_basis
from momentangle.linalg import HomologyResult
from momentangle.logforms import Period
from momentangle.report import BettiTable, DegreeHodge, HodgeReport, betti_table, hodge_report
from momentangle.simplicial import SimplicialComplex


def two_points():
    return SimplicialComplex.from_facets(2, [[1], [2]])


def resolvent_fields():
    res = build_resolvent(two_points(), homology_cycle_basis(two_points(), 1, 2)[0])
    return {"p": res.p, "q": res.q, "cycle": res.cycle, "levels": res.levels}


def hodge_report_of_two_points():
    return hodge_report(betti_table(two_points()))


# (class, keyword fields, repr); each repr was recorded from the frozen
# dataclasses these records replace
CASES = {
    "HomologyResult": (
        HomologyResult, lambda: {"rank": 1, "torsion": (2,), "representatives": ((1, 0),)},
        "HomologyResult(rank=1, torsion=(2,), representatives=((1, 0),))"),
    "Cell": (
        Cell, lambda: {"disks": (1,), "circles": (2,)},
        "Cell(disks=(1,), circles=(2,))"),
    "Resolvent": (
        Resolvent, resolvent_fields,
        "Resolvent(p=1, q=2, cycle={Cell(disks=(1,), circles=(2,)): 1, "
        "Cell(disks=(2,), circles=(1,)): 1}, "
        "levels=(CechChain(t=0, tuples=2), CechChain(t=1, tuples=2)))"),
    "Period": (
        Period, lambda: {"coefficient": Fraction(-1, 2), "power": 2},
        "Period(coefficient=Fraction(-1, 2), power=2)"),
    "BettiTable": (
        BettiTable, lambda: {"n": 2, "description": "n=2; facets {1} {2}", "ring": "Z",
                             "entries": {(0, 0): (1, ()), (1, 2): (1, ())}},
        "BettiTable(n=2, description='n=2; facets {1} {2}', ring='Z', "
        "entries={(0, 0): (1, ()), (1, 2): (1, ())})"),
    "DegreeHodge": (
        DegreeHodge, lambda: {"s": 0, "dim": 1, "F": {0: 1, 1: 0}, "W": {-1: 0, 0: 1},
                              "h": {0: 1}},
        "DegreeHodge(s=0, dim=1, F={0: 1, 1: 0}, W={-1: 0, 0: 1}, h={0: 1})"),
    "HodgeReport": (
        HodgeReport, lambda: {"degrees": hodge_report_of_two_points().degrees},
        "HodgeReport(degrees=(DegreeHodge(s=0, dim=1, F={0: 1, 1: 0}, W={-1: 0, 0: 1}, "
        "h={0: 1}), DegreeHodge(s=3, dim=1, F={0: 1, 1: 1, 2: 1, 3: 0, 4: 0}, "
        "W={2: 0, 3: 0, 4: 1, 5: 1, 6: 1}, h={2: 1})))"),
}
# records holding a dict are unhashable, as the frozen dataclasses were
UNHASHABLE = {"Resolvent", "BettiTable", "DegreeHodge", "HodgeReport"}


def build(name):
    cls, fields, _ = CASES[name]
    values = fields()
    return cls, values, cls(*values.values())


@pytest.mark.parametrize("name", CASES)
def test_repr_matches_the_recorded_string(name):
    assert repr(build(name)[2]) == CASES[name][2]


@pytest.mark.parametrize("name", CASES)
def test_equal_only_to_the_same_class_with_equal_fields(name):
    cls, values, record = build(name)
    assert record == cls(**values)
    assert not record != cls(**values)
    assert record != tuple(values.values())
    twin = type("Twin", (cls,), {})
    assert record != twin(*values.values())
    for field in values:
        other = copy.copy(record)
        object.__setattr__(other, field, object())
        assert record != other


def test_records_of_different_classes_with_equal_values_differ():
    assert Cell((1,), (2,)) != Period((1,), (2,))


@pytest.mark.parametrize("name", CASES)
def test_hash_follows_equality(name):
    cls, values, record = build(name)
    if name in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == hash(cls(**values))
        assert {record: 1}[cls(**values)] == 1


@pytest.mark.parametrize("name", CASES)
def test_fields_cannot_be_assigned_or_deleted(name):
    _, values, record = build(name)
    first = next(iter(values))
    with pytest.raises(AttributeError):
        setattr(record, first, None)
    with pytest.raises(AttributeError):
        delattr(record, first)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert getattr(record, first) is values[first]


@pytest.mark.parametrize("name", CASES)
def test_keyword_construction_sets_each_field(name):
    cls, values, _ = build(name)
    record = cls(**values)
    for field, value in values.items():
        assert getattr(record, field) is value


@pytest.mark.parametrize("name", CASES)
def test_no_iteration_or_ordering(name):
    record = build(name)[2]
    with pytest.raises(TypeError):
        iter(record)
    with pytest.raises(TypeError):
        record < record


def test_cell_refuses_overlapping_factor_sets():
    with pytest.raises(ValueError, match=r"factor sets overlap: \(1,\) and \(1,\)"):
        Cell((1,), (1,))
    with pytest.raises(ValueError, match="factor sets overlap"):
        Cell(disks=(1, 2), circles=(2,))


@pytest.mark.parametrize("name", CASES)
def test_pickle_and_copy_round_trip(name):
    record = build(name)[2]
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(record, protocol)) == record
    assert copy.copy(record) == record
    deep = copy.deepcopy(record)
    assert deep == record and type(deep) is type(record)


def test_round_trip_keeps_resolvent_levels_and_exact_coefficients():
    res = Resolvent(**resolvent_fields())
    restored = pickle.loads(pickle.dumps(res))
    assert len(restored.levels) == 2 and restored.levels == res.levels
    assert restored.total_degree == res.total_degree == 3
    period = copy.deepcopy(Period(Fraction(-1, 2), 2))
    assert type(period.coefficient) is Fraction and period.coefficient == Fraction(-1, 2)


def test_positional_patterns_follow_field_order():
    match Period(Fraction(3), 1):
        case Period(coefficient, power):
            assert (coefficient, power) == (Fraction(3), 1)
        case _:
            pytest.fail("Period did not match its own class pattern")
