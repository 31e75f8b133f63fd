import math
import pickle
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from numsem import (
    DEFAULT_LIMIT,
    NATURALS,
    GcdNotOne,
    Invariants,
    NonPositiveDivisor,
    NotASemigroup,
    NumericalSemigroup,
    TooLarge,
    all_semigroups_up_to,
    build_double,
    proportionally_modular,
    smallest_variety,
)
from numsem import core
from numsem.core import _apery_pass, _bits
from support import (
    double_generators,
    naive_gap_set,
    naive_is_closed,
    naive_min_generators,
    semigroups,
)

NS = NumericalSemigroup


class TestFromGenerators:
    def test_unit_generator_gives_naturals(self):
        s = NS.from_generators([1])
        assert s == NATURALS
        assert s.gaps == ()
        assert s.frobenius == -1

    def test_two_five(self):
        s = NS.from_generators([2, 5])
        assert s.gaps == (1, 3)
        assert s.frobenius == 3

    def test_gcd_not_one_rejected(self):
        with pytest.raises(GcdNotOne):
            NS.from_generators([4, 6])

    def test_five_seven_nine_matches_naive_closure(self):
        s = NS.from_generators([5, 7, 9])
        assert set(s.gaps) == naive_gap_set([5, 7, 9])
        assert s.gaps == (1, 2, 3, 4, 6, 8, 11, 13)
        assert s.frobenius == 13

    def test_no_coprime_pair_of_generators(self):
        # gcd 1 overall but every pair shares a factor
        s = NS.from_generators([6, 10, 15])
        assert set(s.gaps) == naive_gap_set([6, 10, 15])
        assert s.frobenius == 29
        assert s.min_generators == (6, 10, 15)

    def test_redundant_generators_are_dropped(self):
        assert NS.from_generators([2, 5, 7, 9]).min_generators == (2, 5)

    def test_empty_and_nonpositive_inputs(self):
        with pytest.raises(ValueError):
            NS.from_generators([])
        with pytest.raises(ValueError):
            NS.from_generators([0, 3])

    @pytest.mark.parametrize("gens", [[2.5, 3], [2.0, 3], ["2", "3"], [2, 3, None]])
    def test_non_integer_generators_rejected(self, gens):
        # they used to be truncated: [2.5, 3] gave <2,3>
        with pytest.raises(ValueError, match="positive integers"):
            NS.from_generators(gens)

    def test_integer_like_generators_accepted(self):
        class Index:
            def __init__(self, n):
                self.n = n

            def __index__(self):
                return self.n

        assert NS.from_generators([Index(2), Index(3), True]) == NS.from_generators([1])
        assert NS.from_generators(map(Index, [4, 5, 11])).gaps == (1, 2, 3, 6, 7)

    def test_non_iterable_is_a_type_error(self):
        with pytest.raises(TypeError):
            NS.from_generators(5)

    def test_size_guard(self):
        with pytest.raises(TooLarge):
            NS.from_generators([1009, 1013], limit=1000)

    def test_size_guard_allocates_by_the_limit(self):
        # the member mask is sized by the limit, not by the largest generator
        tracemalloc.start()
        try:
            for gens in ([2, 10**13 + 1], [2, 10**8 + 1]):
                with pytest.raises(TooLarge):
                    NS.from_generators(gens, limit=10**4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10**6

    @pytest.mark.parametrize("gens", [[3, 5], [7, 11, 13], [900, 907]])
    def test_limit_is_frobenius_plus_multiplicity(self, gens):
        s = NS.from_generators(gens)
        assert NS.from_generators(gens, limit=s.frobenius + s.multiplicity) == s
        with pytest.raises(TooLarge):
            NS.from_generators(gens, limit=s.frobenius + s.multiplicity - 1)


@settings(max_examples=150)
@given(
    st.lists(st.integers(1, 60), min_size=1, max_size=5).filter(
        lambda gs: math.gcd(*gs) == 1
    )
)
def test_from_generators_matches_reachability(gens):
    assert NS.from_generators(gens).gap_set == naive_gap_set(gens)


class TestFromGaps:
    def test_empty_gap_set_is_naturals(self):
        assert NS([]) == NATURALS

    def test_known_gap_set(self):
        assert NS([1, 2, 4, 5]).min_generators == (3, 7, 8)

    def test_not_closed_rejected(self):
        with pytest.raises(NotASemigroup):
            NS({2})  # 1 + 1 = 2 would be a gap

    def test_nonpositive_gap_rejected(self):
        with pytest.raises(NotASemigroup):
            NS({0, 1})

    @pytest.mark.parametrize("gaps", [[1.9], [1.0], ["3", "1"], [1, 2, 3.5]])
    def test_non_integer_gap_rejected(self, gaps):
        # they used to be truncated: [1.9] gave the gap set {1}
        with pytest.raises(NotASemigroup, match="positive integers"):
            NS(gaps)

    def test_non_iterable_is_a_type_error(self):
        with pytest.raises(TypeError):
            NS(5)


class TestMembership:
    def test_examples(self):
        s = NS.from_generators([2, 5])
        assert not s.contains(3)
        assert s.contains(0)
        assert NS.from_generators([5, 7, 9]).contains(14)

    def test_negative_is_false_not_error(self):
        assert not NS.from_generators([2, 5]).contains(-4)

    def test_dunder(self):
        assert 4 in NS.from_generators([2, 5])


class TestInvariants:
    def test_naturals(self):
        assert NATURALS.invariants() == Invariants(-1, 1, 0, 1)

    def test_five_seven_nine(self):
        assert NS.from_generators([5, 7, 9]).invariants() == Invariants(13, 5, 8, 3)

    def test_four_five_eleven(self):
        s = NS.from_generators([4, 5, 11])
        assert s.frobenius == 7
        assert s.gaps == (1, 2, 3, 6, 7)
        assert s.genus == 5

    def test_small_elements(self):
        assert NS.from_generators([4, 5, 11]).small_elements == (0, 4, 5, 8)
        assert NATURALS.small_elements == (0,)


class TestQuotient:
    def test_by_one_is_identity(self):
        s = NS.from_generators([5, 7, 9])
        assert s.quotient(1) == s

    def test_by_member_gives_naturals(self):
        assert NS.from_generators([2, 5]).quotient(2) == NATURALS

    def test_known_quotient(self):
        assert NS.from_generators([3, 5, 7]).quotient(2) == NS.from_generators([3, 4, 5])

    def test_nonpositive_divisor(self):
        with pytest.raises(NonPositiveDivisor):
            NS.from_generators([2, 5]).quotient(0)


class TestIntersect:
    def test_with_naturals(self):
        s = NS.from_generators([5, 7, 9])
        assert s.intersect(NATURALS) == s

    def test_subset_case(self):
        a = NS.from_generators([2, 3])
        b = NS.from_generators([2, 5])
        assert a.intersect(b) == b

    def test_elementwise(self):
        got = NS.from_generators([2, 5]).intersect(NS.from_generators([3, 5, 7]))
        assert got == NS.from_generators([5, 6, 7, 8, 9])


class TestFundamentalGaps:
    def test_known(self):
        assert NS.from_generators([5, 7, 9]).fundamental_gaps() == (6, 8, 11, 13)

    def test_naturals_has_none(self):
        assert NATURALS.fundamental_gaps() == ()

    def test_two_three(self):
        assert NS.from_generators([2, 3]).fundamental_gaps() == (1,)


class TestDepth:
    def test_values(self):
        assert NATURALS.depth() == 0
        assert NS.from_generators([2, 7]).depth() == 3
        assert NS([1, 2, 4, 5]).depth() == 2


class TestProportionallyModular:
    def test_known(self):
        assert proportionally_modular(3, 7, 1) == NS.from_generators([3, 5, 7])

    def test_unit_modulus(self):
        assert proportionally_modular(1, 1, 1) == NATURALS

    def test_slope_dominates(self):
        assert proportionally_modular(4, 9, 5) == NATURALS

    def test_exhaustive_against_definition(self):
        s = proportionally_modular(5, 13, 2)
        for x in range(60):
            assert s.contains(x) == ((5 * x) % 13 <= 2 * x)

    def test_parameters_below_one_rejected(self):
        for a, b, c in ((0, 7, 1), (3, 0, 1), (3, 7, 0), (-1, 7, 1)):
            with pytest.raises(ValueError, match=">= 1"):
                proportionally_modular(a, b, c)

    def test_scan_bounded_by_default_limit(self):
        # the scan runs up to ceil((b-1)/c), which may equal the limit
        assert proportionally_modular(1, DEFAULT_LIMIT + 1, 1) == NATURALS
        with pytest.raises(TooLarge):
            proportionally_modular(1, DEFAULT_LIMIT + 2, 1)
        with pytest.raises(TooLarge):
            proportionally_modular(1, 10**9, 1)


class TestOrderingAndRendering:
    def test_equal(self):
        assert NS.from_generators([2, 5]) == NS([1, 3])
        assert (NS() == 3) is False and (3 == NS()) is False
        assert NS() != 3

    def test_canonical_order(self):
        a, b, c = NATURALS, NS.from_generators([2, 3]), NS.from_generators([2, 5])
        d = NS.from_generators([3, 4, 5])
        assert sorted([d, c, b, a]) == [a, b, c, d]

    def test_ordering_against_other_types_is_a_type_error(self):
        for compare in (
            lambda: NATURALS < 3,
            lambda: 3 < NATURALS,
            lambda: NATURALS <= 3,
            lambda: sorted([NATURALS, None]),
        ):
            with pytest.raises(TypeError):
                compare()

    def test_text_form(self):
        assert str(NATURALS) == "<1>"
        assert str(NS.from_generators([4, 5, 11])) == "<4,5,11>"

    def test_json_form(self):
        assert NS.from_generators([2, 5]).to_json_dict() == {
            "generators": [2, 5],
            "gaps": [1, 3],
            "frobenius": 3,
            "genus": 2,
            "multiplicity": 2,
            "depth": 2,
        }

    def test_hashable_and_usable_in_sets(self):
        assert len({NS.from_generators([2, 5]), NS([1, 3])}) == 1


# -- randomized properties ---------------------------------------------


@given(semigroups())
def test_round_trip_through_gaps(s):
    assert NS(s.gaps) == s


@given(semigroups(), st.integers(1, 10), st.integers(1, 10))
def test_quotient_composition(s, a, b):
    assert s.quotient(a).quotient(b) == s.quotient(a * b)


@given(semigroups(), semigroups(), st.integers(1, 10))
def test_quotient_distributes_over_intersection(s, t, a):
    assert s.intersect(t).quotient(a) == s.quotient(a).intersect(t.quotient(a))


@given(semigroups(), st.integers(1, 12))
def test_quotient_monotone(s, d):
    q = s.quotient(d)
    assert s.is_subset_of(q)
    assert q.frobenius <= s.frobenius
    assert q.multiplicity >= -(-s.multiplicity // d)
    assert q.depth() <= s.depth()


@given(semigroups(), semigroups())
def test_intersection_frobenius(s, t):
    assert s.intersect(t).frobenius == max(s.frobenius, t.frobenius)


@settings(max_examples=60)
@given(semigroups(max_gen=15))
def test_minimal_generators_are_minimal(s):
    """Dropping any single generator changes the semigroup (or kills gcd 1)."""
    msg = s.min_generators
    for g in msg:
        rest = [x for x in msg if x != g]
        if not rest:
            continue
        try:
            assert NS.from_generators(rest) != s
        except GcdNotOne:
            pass


@given(semigroups())
def test_fundamental_gaps_properties(s):
    fg = set(s.fundamental_gaps())
    assert fg <= set(s.gaps)
    for x in fg:
        assert s.contains(2 * x) and s.contains(3 * x)
    # non-fundamental gaps have some proper multiple missing
    for x in set(s.gaps) - fg:
        assert not s.contains(2 * x) or not s.contains(3 * x)


@given(semigroups())
def test_closure_on_small_elements(s):
    members = s.small_elements
    for a in members:
        for b in members:
            if a and b and a + b <= s.conductor:
                assert s.contains(a + b)


# -- bit-mask routines against their definitions -----------------------


def _gap_masks():
    """Arbitrary gap masks, the masks of semigroups and near misses of them."""
    semigroup_masks = semigroups().map(lambda s: s.gap_mask)
    return st.one_of(
        st.integers(0, 2**16).map(lambda bits: bits << 1),
        semigroup_masks,
        st.tuples(semigroup_masks, st.integers(1, 40)).map(lambda p: p[0] ^ (1 << p[1])),
    )


@given(_gap_masks())
def test_is_closed_matches_pairwise_sums(mask):
    """The Apery pass rejects a gap mask exactly when a sum of two members is a gap."""
    gaps = {i for i in range(mask.bit_length()) if (mask >> i) & 1}
    assert (_apery_pass(mask, mask.bit_length() - 1) is not None) == naive_is_closed(gaps)


@given(semigroups(max_gen=30, max_count=5))
def test_min_generators_match_pairwise_definition(s):
    assert s.min_generators == naive_min_generators(s)


def test_min_generators_of_every_semigroup_up_to_frobenius_14():
    report = all_semigroups_up_to(14)
    for s in report.semigroups:
        assert s.min_generators == naive_min_generators(s), s.gaps


def test_apery_pass_on_every_gap_mask_up_to_frobenius_14():
    """Rejects exactly the masks that are not closed, and gives the generators of the rest."""
    closed = 0
    for mask in range(0, 1 << 15, 2):
        gaps = set(_bits(mask))
        frobenius = mask.bit_length() - 1
        found = _apery_pass(mask, frobenius)
        assert (found is not None) == naive_is_closed(gaps)
        if found is not None:
            closed += 1
            assert found == naive_min_generators(NS._from_mask(mask)), gaps
    assert closed == len(all_semigroups_up_to(14).semigroups)


def _closed_mask(frobenius, start, wanted):
    """Gap mask of a semigroup with that Frobenius number.

    Each wanted member from ``start`` up is kept when the set it generates
    with the members kept before it still misses ``frobenius``.
    """
    full = (1 << (frobenius + 1)) - 1
    members = 1
    for x in range(start, frobenius):
        if (wanted >> x) & 1:
            grown, shifted = members, members
            while shifted:  # members + x, 2x, ... up to F
                shifted = (shifted << x) & full
                grown |= shifted
            if not (grown >> frobenius) & 1:
                members = grown
    return full & ~members


def _masks_to_frobenius_80():
    """Semigroup gap masks with F <= 40 or from 50 to 80, one gap more or less, and even masks.

    From F = 50 on, a large multiplicity m gives many generators, and an even
    mask that holds every number below m gives many Apery elements up to
    (F + m)/2: both lists that ``_bits`` reads run from none to dozens of
    bits, on both of its paths.
    """
    masks = st.one_of(
        semigroups(max_gen=30).map(lambda s: s.gap_mask).filter(lambda g: g < 1 << 41),
        st.builds(_closed_mask, st.integers(50, 80), st.integers(2, 80), st.integers(0, 2**80 - 1)),
    )
    return st.one_of(
        masks,
        st.tuples(masks, st.integers(1, 40)).map(lambda p: p[0] ^ (1 << p[1])),
        st.integers(0, 2**40 - 1).map(lambda bits: bits << 1),
        st.builds(lambda f, m, bits: (1 << f) | ((1 << m) - 2) | (bits & ((1 << f) - 2)),
                  st.integers(50, 80), st.integers(1, 40), st.integers(0, 2**80 - 1)),
    )


@settings(max_examples=300)
@given(_masks_to_frobenius_80())
def test_apery_pass_matches_pairwise_definitions(mask):
    gaps = set(_bits(mask))
    found = _apery_pass(mask, mask.bit_length() - 1)
    assert (found is not None) == naive_is_closed(gaps)
    if found is not None:
        assert found == naive_min_generators(NS._from_mask(mask))


def _digit_bits(x):
    return [i for i in range(x.bit_length()) if (x >> i) & 1]


def test_bits_of_large_and_sparse_masks():
    """Both paths: a few bits are peeled, more than eight are read from the digits."""
    words = (2**62, 2**63 - 1, 2**63, 2**63 + 1, 2**64 - 1, 0x5555_5555_5555_5555)
    spans = [(1 << n) - 1 for n in (7, 8, 9, 63, 64)]
    sparse = [sum(1 << (i * step) for i in range(n)) for n in (8, 9) for step in (1, 7, 400)]
    for x in (0, 1, 2, 5, 1 << 200, (1 << 300) - 1, (1 << 1000) | (1 << 7) | 1,
              *words, *spans, *sparse):
        assert _bits(x) == _digit_bits(x), x


@given(st.one_of(
    st.integers(0, 2**300 - 1),
    st.sets(st.integers(0, 299), max_size=12).map(lambda bits: sum(1 << i for i in bits)),
))
def test_bits_match_the_digits(x):
    assert _bits(x) == _digit_bits(x)


# -- generators found at construction ----------------------------------


def test_every_construction_caches_its_generators(monkeypatch):
    """Each route keeps the generators it found; reading, printing and sorting find none again."""
    s579, s4511 = NS.from_generators([5, 7, 9]), NS.from_generators([4, 5, 11])
    routes = [
        ("gaps", [NS([1, 2, 3, 4, 6, 8, 11, 13]), NS()]),
        ("from_generators", [s579, NS.from_generators([6, 10, 15])]),
        ("quotient", [s579.quotient(d) for d in (1, 2, 3, 13)]),
        ("intersect", [s579 & NS.from_generators([3, 7]), NATURALS & s579]),
        ("build_double", [build_double(s4511, 5, {3, 6, 7}), build_double(s4511, 9, ())]),
        ("pickle", [pickle.loads(pickle.dumps(s)) for s in (s579, NATURALS)]),
        ("smallest_variety", list(smallest_variety([s579, s4511]))),
        ("all_semigroups_up_to", list(all_semigroups_up_to(8).semigroups)),
    ]
    for route, built in routes:
        for s in built:
            assert s._msg == naive_min_generators(s), (route, s.gaps)
    passes = []
    monkeypatch.setattr(core, "_apery_pass", lambda *args: passes.append(args))
    for route, built in routes:
        assert [s.min_generators for s in built] == [s._msg for s in built]
        assert [str(s) for s in built] == [f"<{','.join(map(str, s._msg))}>" for s in built]
        sorted(built)
        assert passes == [], route


def test_generators_of_semigroups_with_about_a_million_gaps():
    """Minimal generating sets come back unchanged, and a double of <200,201> has the closed form."""
    for gens in ((1000, 1001), (997, 1009, 1013), (1000, 1001, 1002, 1003)):
        assert NS.from_generators(gens).min_generators == gens
    s = NS.from_generators([200, 201])
    for m, h in ((201, set()), (39801, {x for x in s.gaps if x >= 39000})):
        assert build_double(s, m, h).min_generators == double_generators(s, m, h)


def test_double_with_three_million_bits_is_quick():
    """About 0.5 s; a big-int multiply per listed bit of its Apery pass took it to 14-22 s."""
    s = NS.from_generators([1000, 1001])
    start = time.monotonic()
    t = build_double(s, 999001, ())
    assert time.monotonic() - start < 10
    assert t.min_generators == (2000, 2002, 999001)
