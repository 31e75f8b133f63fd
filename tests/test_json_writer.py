"""The one JSON writer, ``_json_writer._json_pieces``, against ``json.dumps(..., indent=2)``."""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from numsem import DoubleLabel, EnumerationReport, NATURALS, NumericalSemigroup, VarietySet
from numsem._json_writer import _json_pieces


def written(value) -> str:
    return "".join(_json_pieces(value))


def dumped(value) -> str:
    return json.dumps(value, default=lambda record: record.to_json_dict(), indent=2)


def _semigroup_of_members(mask: int) -> NumericalSemigroup:
    """The semigroup that the non-gaps of ``mask`` below its top bit generate, with the
    two numbers above it: a closed gap mask.  ``mask`` 0 gives the root <1>."""
    top = mask.bit_length()
    return NumericalSemigroup.from_generators(x for x in range(1, top + 3) if not mask >> x & 1)


semigroups = st.one_of(st.just(NATURALS), st.integers(0, 2**24 - 1).map(lambda b: b << 2 | 2)
                       .map(_semigroup_of_members))
ints = st.integers(-(10**30), 10**30)
int_rows = st.lists(st.one_of(st.lists(ints, max_size=5), st.tuples(ints, ints)), max_size=8)


def _rows_of(n: int):
    """One row, or many, each a list or a tuple of ``n`` ints."""
    row = st.one_of(st.lists(ints, min_size=n, max_size=n), st.tuples(*[ints] * n))
    return st.one_of(st.lists(row, min_size=1, max_size=1), st.lists(row, min_size=2, max_size=600))


rows_of_one_length = st.integers(0, 3).flatmap(_rows_of)
records = st.one_of(
    st.builds(DoubleLabel, st.integers(1, 99), st.frozensets(st.integers(1, 99), max_size=6)),
    st.lists(semigroups, max_size=5).map(VarietySet.of),
    st.lists(semigroups, max_size=5).map(lambda xs: EnumerationReport(20, tuple(sorted(set(xs))))),
)
keys = st.text(st.characters(min_codepoint=32, max_codepoint=126, exclude_characters='"\\'),
               max_size=6)
values = st.recursive(
    st.one_of(st.booleans(), ints, semigroups, records, st.lists(semigroups, max_size=6), int_rows),
    lambda inner: st.one_of(st.lists(inner, max_size=4), st.lists(inner, max_size=4).map(tuple),
                            st.dictionaries(keys, inner, max_size=4)),
    max_leaves=12,
)


@settings(max_examples=300)
@given(values)
def test_the_writer_writes_what_json_dumps_writes(value):
    assert written(value) == dumped(value)


@given(st.lists(semigroups, min_size=1, max_size=8))
def test_a_list_of_semigroups_is_one_table_and_a_piece_per_member(members):
    for value in (members, {"members": tuple(members)}, VarietySet.of(members)):
        assert written(value) == dumped(value)
    assert len(list(_json_pieces(members))) == len(members) + 1  # and the closing bracket


@given(st.lists(st.lists(st.one_of(st.booleans(), st.integers(-5, 5)), max_size=4), max_size=6))
def test_rows_with_a_bool_are_not_int_rows(rows):
    assert written(rows) == dumped(rows)


@settings(max_examples=50)
@given(rows_of_one_length, st.integers(0, 2))
def test_rows_of_one_length_are_a_piece_per_256_rows(rows, depth):
    """Rows of n > 0 ints each, lists or tuples, are one %-format per block of 256 rows."""
    value = rows
    for _ in range(depth):
        value = {"rows": value}
    assert written(value) == dumped(value)
    if rows[0]:
        assert len(list(_json_pieces(rows))) == -(-len(rows) // 256) + 1  # and the closing bracket


def test_the_root_and_a_semigroup_with_many_gaps():
    big = NumericalSemigroup.from_generators([100, 101])
    for value in (NATURALS, [NATURALS], big, [big, NATURALS], {"s": big}, [[NATURALS]]):
        assert written(value) == dumped(value)
    assert written(NATURALS).count("[]") == 1  # its gaps; its generators are [1]

