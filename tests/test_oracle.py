"""Brute-force enumeration tests and the frozen regression fixture.

The fixture tests compare against tests/fixtures/enumeration_f12.json,
which is the byte-exact output of

    numsem enumerate-all --frobenius-bound 12 --format json --output tests/fixtures/enumeration_f12.json

Rerun that command to regenerate it after an intentional change.
"""

import json
import time
from pathlib import Path

import pytest

from numsem import (
    NATURALS,
    BoundTooLarge,
    NumericalSemigroup,
    all_semigroups_up_to,
    arithmetic_extensions,
    extension_oracle,
)
import numsem.oracle as oracle_module
from numsem.cli import main
from numsem.core import _apery_pass
from numsem.oracle import _closed_by_shifts, _half_index
from support import extension_oracle_by_combinations

NS = NumericalSemigroup
FIXTURE = Path(__file__).parent / "fixtures" / "enumeration_f12.json"


class TestAllSemigroupsUpTo:
    def test_bound_one(self):
        rep = all_semigroups_up_to(1)
        assert rep.semigroups == (NATURALS, NS.from_generators([2, 3]))
        assert rep.counts_by_frobenius == {-1: 1, 1: 1}

    def test_bound_five(self):
        assert len(all_semigroups_up_to(5).semigroups) == 12

    def test_report_invariants(self):
        rep = all_semigroups_up_to(9)
        assert sum(rep.counts_by_frobenius.values()) == len(rep.semigroups)
        assert len(set(rep.semigroups)) == len(rep.semigroups)
        assert list(rep.semigroups) == sorted(rep.semigroups)
        for s in rep.semigroups:
            assert s.frobenius <= 9

    def test_every_result_really_is_a_semigroup(self):
        # constructor revalidates closure; surviving construction is the check
        for s in all_semigroups_up_to(8).semigroups:
            assert NS(s.gaps) == s

    def test_cap(self):
        with pytest.raises(BoundTooLarge):
            all_semigroups_up_to(21)
        with pytest.raises(ValueError):
            all_semigroups_up_to(0)


class TestFrozenFixture:
    def test_fixture_matches_current_enumeration(self):
        data = json.loads(FIXTURE.read_text())
        rep = all_semigroups_up_to(12)
        assert data == rep.to_json_dict()

    def test_fixture_counts_frozen(self):
        data = json.loads(FIXTURE.read_text())
        assert data["counts"] == {
            "-1": 1, "1": 1, "2": 1, "3": 2, "4": 2, "5": 5, "6": 4,
            "7": 11, "8": 10, "9": 21, "10": 22, "11": 51, "12": 40,
        }
        assert len(data["semigroups"]) == 171

    def test_fixture_bytes_match_cli_output(self, capsys):
        assert main(["enumerate-all", "--frobenius-bound", "12", "--format", "json"]) == 0
        assert capsys.readouterr().out == FIXTURE.read_text()


def doubles_in(report, s):
    """The semigroups of ``report`` other than ``s`` whose half is ``s``, by the half index."""
    return _half_index(report).get(s.gap_mask, [])


class TestDoublesOracle:
    def test_worked_example_count(self):
        assert len(doubles_in(all_semigroups_up_to(15), NS.from_generators([4, 5, 11]))) == 18

    def test_tight_bound(self):
        assert doubles_in(all_semigroups_up_to(13), NS.from_generators([4, 5, 11])) == []

    def test_naturals(self):
        got = doubles_in(all_semigroups_up_to(5), NATURALS)
        assert got == [NS.from_generators([2, 3]), NS.from_generators([2, 5]), NS.from_generators([2, 7])]
        assert NATURALS not in got

    def test_results_halve_back(self):
        s = NS.from_generators([3, 4, 5])
        for t in doubles_in(all_semigroups_up_to(10), s):
            assert t.quotient(2) == s


class TestOneWalkAndHalfIndex:
    def test_doubles_in_matches_its_definition(self):
        """At each bound, and filtered by F from the top bound's index as oracle-check does."""
        small = all_semigroups_up_to(6).semigroups
        top = _half_index(all_semigroups_up_to(12))
        for bound in range(1, 13):
            report = all_semigroups_up_to(bound)
            for s in small:
                want = [t for t in report.semigroups if t.quotient(2) == s and t != s]
                assert doubles_in(report, s) == want, (str(s), bound)
                assert [t for t in top.get(s.gap_mask, []) if t.frobenius <= bound] == want

    def test_smaller_bounds_filter_one_walk(self):
        top = all_semigroups_up_to(12)
        for f in range(1, 13):
            assert top.up_to(f).semigroups == all_semigroups_up_to(f).semigroups
            assert top.up_to(f) == all_semigroups_up_to(f)
        with pytest.raises(ValueError):
            top.up_to(13)

    def test_up_to_refuses_a_bound_below_one(self):
        report = all_semigroups_up_to(5)
        for bound in (0, -3):
            with pytest.raises(ValueError):
                report.up_to(bound)

    def test_oracle_check_walks_once(self, monkeypatch, capsys):
        bounds = []

        def counting(bound):
            bounds.append(bound)
            return all_semigroups_up_to(bound)

        monkeypatch.setattr(oracle_module, "all_semigroups_up_to", counting)
        assert main(["oracle-check", "--frobenius-bound", "9"]) == 0
        assert capsys.readouterr().out.endswith("oracle-check: PASS\n")
        assert bounds == [9]


class TestExtensionOracle:
    def test_known_families(self):
        assert [str(t) for t in extension_oracle(NS.from_generators([2, 5]))] == ["<1>", "<2,3>", "<2,5>"]
        assert extension_oracle(NATURALS).members == (NATURALS,)

    def test_second_smallest_member(self):
        members = extension_oracle(NS.from_generators([5, 7, 9])).members
        by_inclusion = sorted(members, key=lambda t: t.genus, reverse=True)
        assert by_inclusion[0] == NS.from_generators([5, 7, 9])
        assert by_inclusion[1] == NS.from_generators([5, 6, 7, 8, 9])

    def test_agreement_with_closure_route(self):
        for s in all_semigroups_up_to(12).semigroups:
            assert extension_oracle(s).members == arithmetic_extensions(s).members

    def test_agreement_with_the_combination_oracle(self):
        pool = all_semigroups_up_to(10).semigroups
        assert len(pool) == 80
        for s in pool:
            assert extension_oracle(s) == extension_oracle_by_combinations(s), str(s)

    def test_genus_over_the_cap_is_refused_at_once(self):
        s = NS.from_generators([100, 101])
        start = time.perf_counter()
        with pytest.raises(BoundTooLarge, match="genus 4950 exceeds the cap 20"):
            extension_oracle(s)
        assert time.perf_counter() - start < 1.0
        with pytest.raises(BoundTooLarge, match="genus 21 exceeds"):
            extension_oracle(NS.from_generators([3, 22]))  # one over the cap


def test_closure_by_shifts_agrees_with_the_apery_test():
    """Two independent closure tests, on every even gap mask with F <= 14."""
    closed = 0
    for mask in range(0, 1 << 15, 2):
        apery = _apery_pass(mask, mask.bit_length() - 1) is not None
        assert _closed_by_shifts(mask) == apery, bin(mask)
        closed += _closed_by_shifts(mask)
    assert closed == len(all_semigroups_up_to(14).semigroups)
