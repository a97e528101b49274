"""The frozen value records behave as the frozen dataclasses they replaced:
same constructor, equality and hash by field within one class, the
field-by-field repr, and no assignment after construction."""

import inspect

import pytest

from fndecomp import (
    Analysis,
    BooleanClassification,
    BooleanGapForm,
    FnTable,
    Group,
    PhiMap,
    WitnessBundle,
    Z3Classification,
    Z3Params,
)

Z2 = Group((2,))
TABLE = FnTable(2, 1, Z2, (1, 0))
FORM = BooleanGapForm("parity_sum", 1, 3)
PARAMS = Z3Params(1, 2, 0, 1)

# (class, field names in constructor order, one argument tuple, the same with
# one field changed)
RECORDS = [
    (Group, ("moduli",), ((2, 4),), ((2, 2),)),
    (FnTable, ("a_size", "arity", "group", "values"),
     (2, 1, Z2, (1, 0)), (2, 1, Z2, (0, 1))),
    (PhiMap, ("a_size", "group", "arity", "entries"),
     (2, Z2, 1, {frozenset({0}): (0,), frozenset({1}): (1,)}),
     (2, Z2, 1, {frozenset({0}): (1,), frozenset({1}): (1,)})),
    (WitnessBundle, ("table", "positions", "params", "expected", "claimed_k"),
     (TABLE, frozenset({0}), (1,), (1,), 0), (TABLE, frozenset({0}), (1,), (1,), 1)),
    (BooleanGapForm, ("kind", "c", "m"), ("parity_sum", 1, 3), ("parity_sum", 0, 3)),
    (BooleanClassification, ("gap", "form"), (2, FORM), (1, None)),
    (Z3Params, ("a", "b", "c", "d"), (1, 2, 0, 1), (1, 2, 0, 2)),
    (Z3Classification, ("verdict", "params"), ("gap2", PARAMS), ("gap1", None)),
    (Analysis, ("essential_variables", "totally_symmetric", "gap", "phi",
                "min_decomposition_arity"),
     ((0, 1), False, 1, None, 2), ((0, 1), False, 2, None, 2)),
]
IDS = [r[0].__name__ for r in RECORDS]


@pytest.mark.parametrize("cls, fields, args, other", RECORDS, ids=IDS)
def test_construction_by_position_and_keyword(cls, fields, args, other):
    assert tuple(inspect.signature(cls).parameters) == fields
    by_position = cls(*args)
    by_keyword = cls(**dict(zip(fields, args)))
    for name, value in zip(fields, args):
        assert getattr(by_position, name) == getattr(by_keyword, name) == value
    assert by_position == by_keyword


def test_defaults_and_normalisation():
    assert BooleanGapForm("majority", 0).m is None
    assert BooleanGapForm("majority", 0) == BooleanGapForm("majority", 0, None)
    assert Group([2, 4]).moduli == (2, 4)
    assert FnTable(2, 1, Z2, [1, 0]).values == (1, 0)
    phi = PhiMap(2, Z2, 1, {(0,): [0], (1,): [1]})
    assert phi.entries == {frozenset({0}): (0,), frozenset({1}): (1,)}
    # the kind is read off the arity: keyed on phi_domain with one, full without
    assert phi.kind == "pnprime"
    full = PhiMap(2, Z2, None, {(): [1], (0,): [1], (1,): [0], (0, 1): [0]})
    assert full.kind == "full" and full.arity is None


@pytest.mark.parametrize("cls, fields, args, other", RECORDS, ids=IDS)
def test_equality_and_hash_by_field(cls, fields, args, other):
    a, b, c = cls(*args), cls(*args), cls(*other)
    assert a == b and not a != b
    assert a != c and not a == c
    # only records of the same class compare equal, whatever their fields hold
    assert a != tuple(args) and a != args[0]
    if cls is PhiMap:
        with pytest.raises(TypeError):
            hash(a)  # its entries are a dict
    else:
        assert hash(a) == hash(b)
        assert len({a, b, c}) == 2


def test_equality_needs_the_same_class():
    assert BooleanClassification(1, None) != Z3Classification(1, None)
    assert Z3Classification(1, None) != BooleanClassification(1, None)


def test_repr_names_every_field():
    assert repr(Group((2, 4))) == "Group(moduli=(2, 4))"
    assert repr(Group(())) == "Group(moduli=())"
    assert repr(TABLE) == "FnTable(a_size=2, arity=1, group=Group(moduli=(2,)), values=(1, 0))"
    assert repr(BooleanGapForm("majority", 0)) == "BooleanGapForm(kind='majority', c=0, m=None)"
    assert repr(Z3Classification("gap2", PARAMS)) == (
        "Z3Classification(verdict='gap2', params=Z3Params(a=1, b=2, c=0, d=1))"
    )


@pytest.mark.parametrize("cls, fields, args, other", RECORDS, ids=IDS)
def test_fields_cannot_be_assigned(cls, fields, args, other):
    record = cls(*args)
    for name in (*fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    for name in fields:
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert record == cls(*args)


def test_cached_properties_are_not_fields():
    g = Group((2, 4))
    assert g.order == 8  # cached in the instance
    assert g == Group((2, 4)) and hash(g) == hash(Group((2, 4)))
    assert repr(g) == "Group(moduli=(2, 4))"
