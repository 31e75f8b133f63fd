import functools
import itertools
import operator

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from numsem import (
    DEFAULT_LIMIT,
    NATURALS,
    BadM,
    DoubleLabel,
    InvalidCertificate,
    NotGapSubset,
    NumericalSemigroup,
    TooLarge,
    build_double,
    doubles_bounded,
    frobenius_of_double,
    is_upper_m_set,
    upper_m_sets,
    all_semigroups_up_to,
)
from numsem import core, doubles, oracle
from support import (
    double_by_generators,
    naive_is_upper_set,
    naive_upper_sets,
    semigroups,
)

NS = NumericalSemigroup

S4511 = NS.from_generators([4, 5, 11])
GAPS4511 = frozenset({1, 2, 3, 6, 7})

# the 18 (label, generators) pairs of the bounded doubles of <4,5,11> at 15
WORKED_DOUBLES = {
    (9, frozenset({1, 2, 3, 6, 7})): (8, 9, 10, 11, 13, 15),
    (11, frozenset({1, 2, 3, 6, 7})): (8, 10, 11, 13, 15, 17),
    (13, frozenset({1, 2, 3, 6, 7})): (8, 10, 13, 15, 17, 19, 22),
    (15, frozenset({1, 2, 3, 6, 7})): (8, 10, 15, 17, 19, 21, 22),
    (17, frozenset({1, 2, 3, 6, 7})): (8, 10, 17, 19, 21, 22, 23),
    (5, frozenset({3, 6, 7})): (5, 8, 11, 17),
    (5, frozenset({6, 7})): (5, 8, 17, 19),
    (9, frozenset({1, 2, 6, 7})): (8, 9, 10, 11, 13),
    (9, frozenset({1, 3, 6, 7})): (8, 9, 10, 11, 15),
    (9, frozenset({1, 6, 7})): (8, 9, 10, 11, 23),
    (9, frozenset({2, 3, 6, 7})): (8, 9, 10, 13, 15),
    (9, frozenset({2, 6, 7})): (8, 9, 10, 13),
    (9, frozenset({3, 6, 7})): (8, 9, 10, 15, 21, 22),
    (9, frozenset({6, 7})): (8, 9, 10, 21, 22, 23),
    (11, frozenset({1, 3, 6, 7})): (8, 10, 11, 13, 17),
    (11, frozenset({2, 3, 6, 7})): (8, 10, 11, 15, 17),
    (11, frozenset({3, 6, 7})): (8, 10, 11, 17, 23),
    (13, frozenset({2, 3, 6, 7})): (8, 10, 13, 17, 19, 22),
}


class TestIsUpperMSet:
    def test_known_positive(self):
        assert is_upper_m_set(S4511, 5, {6, 7})

    def test_absorption_failure(self):
        # 3 forces 7 = 3 + 4 into the set
        assert not is_upper_m_set(S4511, 5, {3})

    def test_full_gap_set_iff_m_exceeds_frobenius(self):
        assert is_upper_m_set(S4511, 9, GAPS4511)
        assert not is_upper_m_set(S4511, 5, GAPS4511)

    def test_empty_set_is_vacuously_valid(self):
        assert is_upper_m_set(S4511, 5, frozenset())

    def test_even_modulus_rejected(self):
        with pytest.raises(BadM):
            is_upper_m_set(S4511, 4, {6})

    def test_nonmember_modulus_rejected(self):
        with pytest.raises(BadM):
            is_upper_m_set(S4511, 3, {6})

    def test_nongap_elements_rejected(self):
        with pytest.raises(NotGapSubset):
            is_upper_m_set(S4511, 5, {4, 6})

    def test_non_integer_elements_are_not_gaps(self):
        for candidate in ({1.0, 6, 7}, {"6", 7}):
            with pytest.raises(NotGapSubset):
                is_upper_m_set(S4511, 9, candidate)
            with pytest.raises(InvalidCertificate, match="not gaps"):
                build_double(S4511, 9, candidate)
        # True is the gap 1, so this label is checked, and fails, as an upper set
        assert is_upper_m_set(S4511, 5, [True, 2, 3]) is False
        with pytest.raises(InvalidCertificate) as raised:
            build_double(S4511, 5, [True, 2, 3])
        assert str(raised.value) == "[True, 2, 3] is not an upper 5-set of <4,5,11>"

    def test_mixed_type_elements_are_listed_not_compared(self):
        """A label mixing types raises NotGapSubset, ints listed first in order, then the rest."""
        with pytest.raises(NotGapSubset, match=r"^\['6', 1\.5\] are not gaps of <4,5,11>$"):
            is_upper_m_set(S4511, 9, {"6", 1.5})
        with pytest.raises(NotGapSubset, match=r"^\[4, 10, 1\.5\] are not gaps"):
            is_upper_m_set(S4511, 9, {10, 1.5, 4, 6})
        # 1.0 enters the set first and stands for 1, so True is dropped as its duplicate
        label = [4, 0, -3, 1.0, 1.5, "6", True, 10**30]
        listed = "[-3, 0, 4, 1000000000000000000000000000000, '6', 1.0, 1.5]"
        with pytest.raises(NotGapSubset) as raised:
            is_upper_m_set(S4511, 5, label)
        assert str(raised.value) == f"{listed} are not gaps of <4,5,11>"
        with pytest.raises(InvalidCertificate) as raised:
            build_double(S4511, 5, label)
        assert str(raised.value) == f"{listed} are not gaps of <4,5,11>"

    def test_matches_the_three_conditions_on_every_gap_subset(self):
        """The closure test of the double decides exactly the definition, failures included."""
        checked = failing = 0
        for s in all_semigroups_up_to(9).semigroups:
            gaps = s.gaps
            subsets = [h for r in range(len(gaps) + 1) for h in itertools.combinations(gaps, r)]
            for m in range(1, 2 * s.frobenius + 6, 2):
                if not s.contains(m):
                    continue
                for h in subsets:
                    expected = naive_is_upper_set(s, m, h)
                    assert is_upper_m_set(s, m, h) == expected, (str(s), m, h)
                    checked += 1
                    failing += not expected
        assert failing > 1000 and checked - failing > 1000


class TestUpperMSets:
    def test_worked_example(self):
        got = upper_m_sets(S4511, 5)
        assert set(got) == {
            frozenset({3, 7}),
            frozenset({3, 6, 7}),
            frozenset({6}),
            frozenset({7}),
            frozenset({6, 7}),
        }

    def test_output_is_sorted(self):
        got = upper_m_sets(S4511, 5)
        assert got == sorted(got, key=lambda h: tuple(sorted(h)))

    def test_two_three_has_single_upper_set(self):
        for m in (3, 5, 7, 9):
            assert upper_m_sets(NS.from_generators([2, 3]), m) == [frozenset({1})]

    def test_includes_all_gaps_when_m_large(self):
        assert GAPS4511 in upper_m_sets(S4511, 9)

    def test_matches_power_set_filter(self):
        """Closure-lattice walk equals brute-force power-set filtering."""
        pool = [s for s in all_semigroups_up_to(12).semigroups if 0 < s.genus <= 8]
        checked = 0
        for s in pool:
            for m in range(1, 2 * s.frobenius + 4, 2):
                if not s.contains(m):
                    continue
                assert upper_m_sets(s, m) == naive_upper_sets(s, m), (str(s), m)
                checked += 1
        assert checked > 100

    def test_absorption_alone_suffices_for_large_m(self):
        """With m beyond the Frobenius number, absorption-closed sets all pass."""
        for s in (S4511, NS.from_generators([3, 5, 7]), NS.from_generators([2, 7])):
            m = s.frobenius + 1 + (s.frobenius % 2)  # first odd > F
            gaps = s.gaps
            for h in naive_upper_sets(s, m):
                assert is_upper_m_set(s, m, h)
            # conversely every absorption-closed subset shows up
            import itertools

            closed = []
            for r in range(1, len(gaps) + 1):
                for combo in itertools.combinations(gaps, r):
                    hs = set(combo)
                    if all(x in hs for hh in hs for x in gaps if s.contains(x - hh)):
                        closed.append(frozenset(hs))
            assert sorted(closed, key=lambda h: tuple(sorted(h))) == upper_m_sets(s, m)


class TestBuildDouble:
    def test_worked_entries(self):
        assert build_double(S4511, 5, {3, 6, 7}).min_generators == (5, 8, 11, 17)
        t = build_double(S4511, 9, {6, 7})
        assert t.min_generators == (8, 9, 10, 21, 22, 23)
        assert t.frobenius == 15

    def test_halving_returns_base(self):
        for (m, h) in WORKED_DOUBLES:
            assert build_double(S4511, m, h).quotient(2) == S4511

    def test_empty_upper_set(self):
        assert build_double(NS.from_generators([2, 3]), 3, ()) == NS.from_generators([3, 4])

    def test_invalid_certificate(self):
        with pytest.raises(InvalidCertificate):
            build_double(S4511, 5, {3})
        with pytest.raises(InvalidCertificate):
            build_double(S4511, 4, {6})

    def test_one_closure_test_per_double(self, monkeypatch):
        tested = []
        real = core._apery_pass

        def counting(mask, frobenius):
            tested.append(mask)
            return real(mask, frobenius)

        monkeypatch.setattr(core, "_apery_pass", counting)
        monkeypatch.setattr(doubles, "_apery_pass", counting)
        build_double(S4511, 5, {3, 6, 7})
        with pytest.raises(InvalidCertificate):
            build_double(S4511, 5, {3})
        assert len(tested) == 2
        tested.clear()
        assert not is_upper_m_set(S4511, 5, {3}) and len(tested) == 1
        tested.clear()
        assert len(doubles_bounded(S4511, 15)) == len(tested) == 18


class TestFrobeniusOfDouble:
    def test_full_gap_set_branch(self):
        assert frobenius_of_double(S4511, 17, GAPS4511) == 15
        assert frobenius_of_double(S4511, 9, GAPS4511) == 14

    def test_proper_subset_branch(self):
        assert frobenius_of_double(S4511, 13, {2, 3, 6, 7}) == 15

    def test_invalid_certificate(self):
        with pytest.raises(InvalidCertificate):
            frobenius_of_double(S4511, 5, GAPS4511)

    def test_formula_matches_construction_everywhere(self):
        for (m, h), gens in WORKED_DOUBLES.items():
            assert frobenius_of_double(S4511, m, h) == build_double(S4511, m, h).frobenius


class TestModulusLimit:
    def test_modulus_above_the_limit(self):
        s = NS.from_generators([2, 5])
        for m in (DEFAULT_LIMIT + 1, 100000001, 10000000000001):
            with pytest.raises(TooLarge):
                build_double(s, m, ())
            with pytest.raises(TooLarge):
                frobenius_of_double(s, m, {1, 3})
            with pytest.raises(TooLarge):
                is_upper_m_set(s, m, ())
            with pytest.raises(TooLarge):
                upper_m_sets(s, m)

    def test_largest_modulus_accepted(self):
        s = NS.from_generators([2, 5])
        m = DEFAULT_LIMIT - 1  # the limit is even
        assert frobenius_of_double(s, m, ()) == m + 6
        assert upper_m_sets(s, m) == [frozenset({1, 3}), frozenset({3})]

    def test_bad_modulus_is_still_bad_m(self):
        with pytest.raises(BadM):
            upper_m_sets(NS.from_generators([2, 5]), DEFAULT_LIMIT + 2)

    def test_bound_above_the_limit(self):
        # the moduli of the doubles reach bound + 2
        with pytest.raises(TooLarge):
            doubles_bounded(NATURALS, DEFAULT_LIMIT - 1)
        # once 2F exceeds the bound there are still no doubles, whatever the bound
        assert doubles_bounded(NS.from_generators([1000, 1001]), 1_500_000) == []


class TestDoublesBounded:
    def test_worked_example_exact(self):
        got = doubles_bounded(S4511, 15)
        assert len(got) == 18
        assert {(l.m, l.upper_set): t.min_generators for l, t in got} == WORKED_DOUBLES

    def test_nothing_under_tight_bound(self):
        assert doubles_bounded(S4511, 13) == []

    def test_naturals_family(self):
        got = doubles_bounded(NATURALS, 5)
        assert [t for _, t in got] == [
            NS.from_generators([2, 3]),
            NS.from_generators([2, 5]),
            NS.from_generators([2, 7]),
        ]
        assert [(l.m, set(l.upper_set)) for l, _ in got] == [(3, set()), (5, set()), (7, set())]

    def test_labels_injective(self):
        got = doubles_bounded(S4511, 15)
        assert len({l for l, _ in got}) == len(got)
        assert len({t for _, t in got}) == len(got)

    def test_soundness(self):
        for bound in (8, 11, 15):
            for label, t in doubles_bounded(S4511, bound):
                assert t.quotient(2) == S4511
                assert t.frobenius <= bound

    def test_completeness_against_oracle(self):
        """Parents with F <= 8 at bounds to 16: nonempty bases and their partner masks."""
        report = all_semigroups_up_to(16)
        halves = oracle._half_index(report)
        for s in (s for s in report.semigroups if s.frobenius <= 8):
            expected = halves.get(s.gap_mask, [])
            for bound in range(1, 17):
                got = [t for _, t in doubles_bounded(s, bound)]
                assert got == [t for t in expected if t.frobenius <= bound], (str(s), bound)

    def test_output_sorted_canonically(self):
        got = [t for _, t in doubles_bounded(S4511, 15)]
        assert got == sorted(got)

    def test_never_the_semigroup_itself_or_the_root(self):
        for s in all_semigroups_up_to(12).semigroups:
            for b in range(1, 25):
                assert all(t != s and t != NATURALS for _, t in doubles_bounded(s, b))

    def test_labels_match_power_set_and_generator_route(self):
        """Labels, semigroups and order against filtered power sets and generated doubles."""
        for s in all_semigroups_up_to(8).semigroups:
            pairs = [
                (DoubleLabel(m, h), double_by_generators(s, m, h))
                for m in range(3, 2 * s.frobenius + 13, 2)
                if s.contains(m)
                for h in naive_upper_sets(s, m, include_empty=True)
            ]
            for bound in range(1, 2 * s.frobenius + 7):
                expected = sorted(
                    (p for p in pairs if p[1].frobenius <= bound),
                    key=lambda p: p[1].min_generators,
                )
                assert doubles_bounded(s, bound) == expected, (str(s), bound)

    def test_bad_bound(self):
        with pytest.raises(ValueError):
            doubles_bounded(S4511, 0)

    def test_full_gap_set_iff_modulus_large(self):
        """Both directions of the all-gaps criterion across small semigroups."""
        for s in all_semigroups_up_to(10).semigroups:
            if s == NATURALS:
                continue
            gaps = frozenset(s.gaps)
            for m in range(1, 2 * s.frobenius + 4, 2):
                if s.contains(m):
                    assert is_upper_m_set(s, m, gaps) == (m > s.frobenius), (str(s), m)


class TestHalve:
    def test_examples(self):
        assert NS.from_generators([2, 3]).quotient(2) == NATURALS
        assert NS.from_generators([5, 8, 11, 17]).quotient(2) == S4511
        assert NATURALS.quotient(2) == NATURALS


class TestDoubleLabel:
    def test_json_and_text(self):
        label = DoubleLabel(5, frozenset({3, 6, 7}))
        assert label.to_json_dict() == {"m": 5, "H": [3, 6, 7]}
        assert str(label) == "S(5; 3,6,7)"


@settings(max_examples=100)
@given(semigroups(max_gen=9), st.data())
def test_double_mask_matches_generator_route(s, data):
    """The double's gap mask equals the semigroup generated by 2*msg(S), m and 2H + m."""
    m = data.draw(
        st.sampled_from([m for m in range(1, 2 * s.frobenius + 4, 2) if s.contains(m)])
    )
    h = data.draw(st.sampled_from(upper_m_sets(s, m) + [frozenset()]))
    assert build_double(s, m, h) == double_by_generators(s, m, h)


def test_partner_masks_and_spreads_match_their_sets():
    """What ``_upper_masks`` carries for each set, recomputed from its elements.

    The bases are those of the bounded doubles: the gaps from some point
    on, each gap a of them with a + m above the Frobenius number.
    """
    for s in (s for s in all_semigroups_up_to(12).semigroups if s.genus <= 8):
        gaps, f = s.gap_mask, s.frobenius
        principals = doubles._principal_closures(gaps)
        for m in (m for m in range(3, 2 * f + 5, 2) if s.contains(m)):
            upper = [core._mask_of(h) for h in naive_upper_sets(s, m, include_empty=True)]
            for above in range(max(f - m + 1, 1), f + 2):
                base = gaps >> above << above
                found = doubles._upper_masks(gaps, m, principals, base, doubles._spread(base))
                assert set(found) == {h for h in upper if h & base == base}, (str(s), m, above)
                for h, (partner, spread) in found.items():
                    elements = core._bits(h)
                    assert partner == functools.reduce(
                        operator.or_, (gaps >> (a + m) for a in elements), 0)
                    assert spread == sum(1 << 2 * a for a in elements)
