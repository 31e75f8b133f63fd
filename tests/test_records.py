"""The value records: construction, equality, hashing, immutability, repr, pickling."""

import copy
import pickle
from collections import Counter

import pytest

from numsem import (
    DoubleLabel,
    EnumerationReport,
    NotASemigroup,
    NumericalSemigroup,
    VarietyPredicate,
    VarietySet,
    VarietyTree,
    all_semigroups_up_to,
    enumerate_tree,
)

NS = NumericalSemigroup


def accepts_all(s):
    """A module-level predicate, so that a VarietyPredicate holding it pickles."""
    return True


def _records():
    """(record class, field names, field values, values differing in one field)."""
    tree = enumerate_tree(4)
    report = all_semigroups_up_to(4)
    members = (NS(), NS.from_generators([2, 3]))
    return [
        (DoubleLabel, ("m", "upper_set"), (5, frozenset({3, 6})), (5, frozenset({3}))),
        (VarietyPredicate, ("name", "accepts"), ("all", accepts_all), ("any", accepts_all)),
        (VarietyTree, ("bound", "predicate_name", "nodes", "children"),
         (4, "all", tree.nodes, tree.children), (4, "all", tree.nodes, ((),) * len(tree.nodes))),
        (VarietySet, ("members",), (members,), (members[:1],)),
        (EnumerationReport, ("bound", "semigroups"),
         (4, report.semigroups), (4, report.semigroups[:-1])),
    ]


RECORDS = _records()
IDS = [cls.__name__ for cls, *_ in RECORDS]


@pytest.mark.parametrize("cls, names, values, other", RECORDS, ids=IDS)
def test_positional_construction_and_attributes(cls, names, values, other):
    record = cls(*values)
    for name, value in zip(names, values):
        assert getattr(record, name) is value


@pytest.mark.parametrize("cls, names, values, other", RECORDS, ids=IDS)
def test_keyword_construction(cls, names, values, other):
    assert cls(**dict(zip(names, values))) == cls(*values)
    assert cls(*values[:1], **dict(zip(names[1:], values[1:]))) == cls(*values)


@pytest.mark.parametrize("cls, names, values, other", RECORDS, ids=IDS)
def test_wrong_fields_are_refused(cls, names, values, other):
    with pytest.raises(TypeError):
        cls(*values, None)
    with pytest.raises(TypeError):
        cls(*values[1:])
    with pytest.raises(TypeError):
        cls(*values[:-1], unknown=values[-1])
    with pytest.raises(TypeError):
        cls(*values, **{names[0]: values[0]})


@pytest.mark.parametrize("cls, names, values, other", RECORDS, ids=IDS)
def test_equality(cls, names, values, other):
    record = cls(*values)
    assert record == cls(*values)
    assert record != cls(*other)
    assert record != tuple(values)
    assert not record == tuple(values)
    assert record != list(values)


@pytest.mark.parametrize("cls, names, values, other", RECORDS, ids=IDS)
def test_hash(cls, names, values, other):
    record = cls(*values)
    assert hash(record) == hash(cls(*values))
    assert len({record, cls(*values)}) == 1


def test_trees_differing_only_in_children_are_unequal():
    tree = enumerate_tree(5)
    flat = (tuple(range(1, len(tree.nodes))),) + ((),) * (len(tree.nodes) - 1)  # all under the root
    assert VarietyTree(tree.bound, tree.predicate_name, tree.nodes, flat) != tree
    assert enumerate_tree(5) == tree
    assert hash(enumerate_tree(5)) == hash(tree)


@pytest.mark.parametrize("cls, names, values, other", RECORDS, ids=IDS)
def test_fields_cannot_be_assigned_or_deleted(cls, names, values, other):
    record = cls(*values)
    for name, value in zip(names, values):
        with pytest.raises(AttributeError):
            setattr(record, name, value)
        with pytest.raises(AttributeError):
            delattr(record, name)
        assert getattr(record, name) is value
    with pytest.raises(AttributeError):
        record.extra = 1


@pytest.mark.parametrize("cls, names, values, other", RECORDS, ids=IDS)
def test_repr_names_every_field(cls, names, values, other):
    fields = ", ".join(f"{name}={value!r}" for name, value in zip(names, values))
    assert repr(cls(*values)) == f"{cls.__name__}({fields})"


@pytest.mark.parametrize("cls, names, values, other", RECORDS, ids=IDS)
def test_pickle_and_deepcopy_round_trips(cls, names, values, other):
    record = cls(*values)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        restored = pickle.loads(pickle.dumps(record, protocol))
        assert type(restored) is cls
        assert restored == record
    assert copy.deepcopy(record) == record
    assert copy.copy(record) == record


def test_semigroup_unpickling_revalidates_closure():
    data = pickle.dumps(NS.from_generators([2, 5]), 0)  # holds the gap mask 0b1010 as text
    assert b"I10\n" in data
    with pytest.raises(NotASemigroup):
        pickle.loads(data.replace(b"I10\n", b"I4\n"))  # the gap set {2}: 1 + 1 = 2
    with pytest.raises(NotASemigroup, match="positive"):
        pickle.loads(data.replace(b"I10\n", b"I11\n"))  # an odd mask: 0 is a gap


def test_report_is_a_dict_key_and_counts_its_frobenius_numbers():
    report = all_semigroups_up_to(6)
    assert {report: "six"}[all_semigroups_up_to(6)] == "six"
    assert report.counts_by_frobenius == Counter(s.frobenius for s in report.semigroups)
