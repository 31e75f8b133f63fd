import random
import time

import pytest

from numsem import (
    NATURALS,
    IsNaturals,
    NumericalSemigroup,
    VarietySet,
    all_semigroups_up_to,
    arithmetic_extensions,
    extremal_elements,
    is_arithmetic_extension,
    monoid_hull,
    smallest_variety,
)

from numsem.varieties import _family_hull
from support import (
    is_intersection_closed,
    is_quotient_closed,
    max_by_inclusion,
    min_by_inclusion,
    product_variety,
    random_semigroup,
)

NS = NumericalSemigroup


def family(*gen_lists):
    return [NS.from_generators(g) for g in gen_lists]


class TestArithmeticExtensions:
    def test_two_five(self):
        got = arithmetic_extensions(NS.from_generators([2, 5]))
        assert got.members == tuple(family([1], [2, 3], [2, 5]))

    def test_three_five_seven(self):
        got = arithmetic_extensions(NS.from_generators([3, 5, 7]))
        assert got.members == tuple(family([1], [2, 3], [3, 4, 5], [3, 5, 7]))

    def test_naturals(self):
        assert arithmetic_extensions(NATURALS).members == (NATURALS,)

    def test_closure_properties_for_all_small_semigroups(self):
        for s in all_semigroups_up_to(12).semigroups:
            v = arithmetic_extensions(s)
            assert is_intersection_closed(v)
            assert is_quotient_closed(v, s.frobenius + 1)
            assert NATURALS in v
            if s != NATURALS:
                assert NS.from_generators([2, 3]) in v
            assert all(s.is_subset_of(t) for t in v)


class TestIsArithmeticExtension:
    def test_self(self):
        s = NS.from_generators([4, 5, 11])
        assert is_arithmetic_extension(s, s)

    def test_known_positive(self):
        assert is_arithmetic_extension(
            NS.from_generators([2, 5]), NS.from_generators([2, 3])
        )

    def test_known_negative(self):
        assert not is_arithmetic_extension(
            NS.from_generators([3, 5, 7]), NS.from_generators([2, 5])
        )

    def test_agrees_with_membership_for_all_pairs(self):
        """Predicate route equals set-membership route, all pairs with F <= 10."""
        pool = all_semigroups_up_to(10).semigroups
        for s in pool:
            members = set(arithmetic_extensions(s).members)
            for t in pool:
                assert is_arithmetic_extension(s, t) == (t in members), (str(s), str(t))


class TestSmallestVariety:
    def test_pair_of_families(self):
        got = smallest_variety(family([2, 5], [3, 5, 7]))
        assert got.members == tuple(
            family([1], [2, 3], [2, 5], [3, 4, 5], [3, 5, 7], [4, 5, 6, 7], [5, 6, 7, 8, 9])
        )

    def test_naturals_alone(self):
        assert smallest_variety([NATURALS]).members == (NATURALS,)

    def test_singleton_reduces_to_extensions(self):
        for gens in ([2, 5], [3, 5, 7], [4, 5, 11], [5, 7, 9]):
            s = NS.from_generators(gens)
            assert smallest_variety([s]).members == arithmetic_extensions(s).members

    def test_empty_family_rejected(self):
        with pytest.raises(ValueError):
            smallest_variety([])

    def test_idempotent(self):
        first = smallest_variety(family([2, 5], [3, 5, 7]))
        assert smallest_variety(list(first.members)).members == first.members

    def test_matches_product_fold(self):
        """The intersection closure equals folding the extension sets' product."""
        rng = random.Random(20231)
        for _ in range(40):
            fam = [random_semigroup(rng, max_gen=9, max_count=3) for _ in range(rng.randint(1, 3))]
            assert smallest_variety(fam).members == product_variety(fam), [str(s) for s in fam]

    def test_closure_builds_each_member_once(self, monkeypatch):
        """Intersections are met on gap masks; only new masks become semigroups."""
        build = NumericalSemigroup._from_mask.__func__
        masks = []

        def counting(cls, mask):
            masks.append(mask)
            return build(cls, mask)

        fam = family([11, 13, 17], [10, 13, 17, 19], [9, 14, 19], [4, 6, 7, 9])
        monkeypatch.setattr(NumericalSemigroup, "_from_mask", classmethod(counting))
        assert len(smallest_variety(fam)) == 92
        assert len(masks) <= 200

    @pytest.mark.parametrize(
        "close, gen_lists, size",
        [
            (smallest_variety, ([11, 13, 17], [10, 13, 17, 19], [9, 14, 19], [4, 6, 7, 9]), 92),
            (lambda fam: arithmetic_extensions(*fam), ([30, 31],), 2454),
        ],
        ids=["variety", "extensions"],
    )
    def test_closure_builds_only_new_masks(self, monkeypatch, close, gen_lists, size):
        """Every member but the full set is built once, from a mask not seen before."""
        build = NumericalSemigroup._from_mask.__func__
        masks = []

        def counting(cls, mask):
            masks.append(mask)
            return build(cls, mask)

        fam = family(*gen_lists)
        monkeypatch.setattr(NumericalSemigroup, "_from_mask", classmethod(counting))
        assert len(close(fam)) == size
        assert len(masks) == len(set(masks)) == size - 1

    def test_monotone_in_the_family(self):
        small = set(smallest_variety(family([2, 5])).members)
        big = set(smallest_variety(family([2, 5], [3, 5, 7])).members)
        assert small <= big
        assert {s for s in family([2, 5], [3, 5, 7])} <= big


class TestExtremalElements:
    def test_five_seven_nine(self):
        s = NS.from_generators([5, 7, 9])
        ext = extremal_elements(s)
        assert ext.maximum == NATURALS
        assert ext.minimum == s
        assert ext.maximum_proper == NS.from_generators([2, 3])
        assert ext.minimum_proper == NS.from_generators([5, 6, 7, 8, 9])

    def test_two_five(self):
        assert extremal_elements(NS.from_generators([2, 5])).maximum_proper == NS.from_generators([2, 3])

    def test_two_three_edge_case(self):
        ext = extremal_elements(NS.from_generators([2, 3]))
        assert ext.maximum_proper == NS.from_generators([2, 3])
        assert ext.minimum_proper == NATURALS

    def test_naturals_rejected(self):
        with pytest.raises(IsNaturals):
            extremal_elements(NATURALS)

    def test_closed_forms_for_all_small_semigroups(self):
        """max = naturals, min = s, max-proper = <2,3>, min-proper = s + FG(s).

        Each is a member of the extension family and its extreme by inclusion.
        """
        two_three = NS.from_generators([2, 3])
        for s in all_semigroups_up_to(10).semigroups:
            if s == NATURALS:
                continue
            ext = extremal_elements(s)
            filled = NS(set(s.gaps) - set(s.fundamental_gaps()))
            assert ext == (NATURALS, s, two_three, filled), str(s)
            family = arithmetic_extensions(s).members
            assert all(t in family for t in ext), str(s)
            scanned = (
                max_by_inclusion(family),
                min_by_inclusion(family),
                max_by_inclusion([t for t in family if t != NATURALS]),
                min_by_inclusion([t for t in family if t != s]),
            )
            assert ext == scanned, str(s)

    def test_large_semigroup_is_fast(self):
        """The extremes of <100,101> (F = 9,899) need no walk of its extension family."""
        start = time.monotonic()
        ext = extremal_elements(NS.from_generators([100, 101]))
        assert time.monotonic() - start < 1.0
        assert ext.maximum_proper == NS.from_generators([2, 3])
        assert ext.minimum_proper.gap_mask == ext.minimum.gap_mask & ~sum(
            1 << g for g in ext.minimum.fundamental_gaps())


class TestMonoidHull:
    def test_single_fundamental_gap(self):
        s = NS.from_generators([5, 7, 9])
        v = arithmetic_extensions(s)
        assert monoid_hull(v, {6}) == NS.from_generators([5, 6, 7, 8, 9])
        assert monoid_hull(v, {13}) == NS.from_generators([5, 6, 7, 8, 9])

    def test_empty_elements_give_whole_intersection(self):
        s = NS.from_generators([5, 7, 9])
        assert monoid_hull(arithmetic_extensions(s), []) == s

    def test_negative_elements_rejected(self):
        with pytest.raises(ValueError):
            monoid_hull(arithmetic_extensions(NS.from_generators([2, 5])), [-1])

    def test_a_family_whose_members_all_miss_the_elements_has_no_hull(self):
        family = VarietySet.of([NS.from_generators([2, 3]), NS.from_generators([3, 4, 5])])
        with pytest.raises(ValueError, match="no member contains"):
            monoid_hull(family, [1])

    def test_family_hull_matches_the_variety(self):
        """The hull from the generating quotients is the hull of the whole variety."""
        rng = random.Random(11)
        pool = all_semigroups_up_to(9).semigroups
        for _ in range(60):
            fam = rng.sample(pool, rng.randint(1, 3))
            v = smallest_variety(fam)
            draws = ([rng.randrange(12) for _ in range(rng.randint(1, 3))] for _ in range(4))
            for xs in ([], *draws):
                assert _family_hull(fam, xs) == monoid_hull(v, xs), ([str(s) for s in fam], xs)

    def test_hull_contains_elements_and_is_smallest(self):
        s = NS.from_generators([4, 5, 11])
        v = arithmetic_extensions(s)
        for x in s.gaps:
            hull = monoid_hull(v, {x})
            assert hull.contains(x)
            for t in v:
                if t.contains(x):
                    assert hull.is_subset_of(t)


class TestVarietySet:
    def test_of_dedupes_and_sorts(self):
        a = NS.from_generators([2, 5])
        got = VarietySet.of([a, NATURALS, NS([1, 3])])
        assert got.members == (NATURALS, a)

    def test_json(self):
        v = VarietySet.of([NATURALS])
        assert v.to_json_dict() == {"members": [NATURALS.to_json_dict()]}
