"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with output visible:

    pytest tests/test_acceptance.py -v -s
"""

import random
import time

from numsem import (
    NATURALS,
    NumericalSemigroup,
    all_semigroups_up_to,
    arithmetic_extensions,
    depth_predicate,
    doubles_bounded,
    enumerate_tree,
    extension_oracle,
    extremal_elements,
    frobenius_of_double,
    monoid_hull,
    upper_m_sets,
)
from numsem.cli import main
from support import brute_force_doubles, random_semigroup

NS = NumericalSemigroup


def report(number, slug, ok):
    print(f"criterion {number} ({slug}): {'PASS' if ok else 'FAIL'}")
    assert ok


def test_criterion_1_variety_of_two_families(capsys):
    """CLI variety of <2,5> and <3,5,7> yields the exact 7-member family in < 1 s."""
    start = time.perf_counter()
    code = main(["variety", "2,5", "3,5,7"])
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    expected = "<1>\n<2,3>\n<2,5>\n<3,4,5>\n<3,5,7>\n<4,5,6,7>\n<5,6,7,8,9>\n"
    ok = code == 0 and out == expected and elapsed < 1.0
    with capsys.disabled():
        report(1, "variety of two families", ok)


def test_criterion_2_intermediate_extension_sets():
    got_25 = [str(t) for t in arithmetic_extensions(NS.from_generators([2, 5]))]
    got_357 = [str(t) for t in arithmetic_extensions(NS.from_generators([3, 5, 7]))]
    ok = got_25 == ["<1>", "<2,3>", "<2,5>"] and got_357 == [
        "<1>", "<2,3>", "<3,4,5>", "<3,5,7>",
    ]
    report(2, "intermediate extension sets", ok)


def test_criterion_3_fundamental_gaps_and_hull():
    s = NS.from_generators([5, 7, 9])
    hull = monoid_hull(arithmetic_extensions(s), {6})
    ok = s.fundamental_gaps() == (6, 8, 11, 13) and hull == NS.from_generators(
        [5, 6, 7, 8, 9]
    )
    report(3, "fundamental gaps and hull", ok)


def test_criterion_4_upper_five_sets():
    got = set(upper_m_sets(NS.from_generators([4, 5, 11]), 5))
    expected = {
        frozenset({3, 7}), frozenset({3, 6, 7}), frozenset({6}),
        frozenset({7}), frozenset({6, 7}),
    }
    report(4, "upper 5-sets", got == expected)


EXPECTED_DOUBLES_4511_15 = {
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


def test_criterion_5_bounded_doubles_worked_example():
    start = time.perf_counter()
    got = doubles_bounded(NS.from_generators([4, 5, 11]), 15)
    elapsed = time.perf_counter() - start
    as_map = {(l.m, l.upper_set): t.min_generators for l, t in got}
    ok = len(got) == 18 and as_map == EXPECTED_DOUBLES_4511_15 and elapsed < 1.0
    report(5, "bounded doubles of <4,5,11> at 15", ok)


def test_criterion_6_depth_two_bound_five():
    got = [list(s.min_generators) for s in enumerate_tree(5, depth_predicate(2)).nodes]
    expected = [
        [1], [2, 3], [2, 5], [3, 4], [3, 4, 5], [3, 5, 7], [3, 7, 8],
        [4, 5, 6, 7], [4, 6, 7, 9], [5, 6, 7, 8, 9], [6, 7, 8, 9, 10, 11],
    ]
    report(6, "depth<=2 family under bound 5", got == expected)


def test_criterion_7_oracle_equivalence():
    """Tree, doubles and extension algorithms agree with brute force, < 60 s."""
    start = time.perf_counter()
    discrepancies = 0

    for bound in range(1, 13):
        if enumerate_tree(bound).nodes != all_semigroups_up_to(bound).semigroups:
            discrepancies += 1

    pool = all_semigroups_up_to(12).semigroups
    for s in (s for s in pool if s.frobenius <= 6):
        for bound in range(1, 13):
            got = [t for _, t in doubles_bounded(s, bound)]
            if got != brute_force_doubles(s, bound):
                discrepancies += 1

    for s in (s for s in pool if s.frobenius <= 8):
        if arithmetic_extensions(s).members != extension_oracle(s).members:
            discrepancies += 1

    elapsed = time.perf_counter() - start
    report(7, "oracle equivalence sweep", discrepancies == 0 and elapsed < 60.0)


def test_criterion_8_formula_checks():
    """Closed-form Frobenius on every sweep certificate; quotient identities
    and depth monotonicity on 10,000 seeded random instances."""
    ok = True

    pool = all_semigroups_up_to(12).semigroups
    for s in (s for s in pool if s.frobenius <= 6):
        for label, t in doubles_bounded(s, 12):
            base = t.quotient(2)
            if frobenius_of_double(base, label.m, label.upper_set) != t.frobenius:
                ok = False

    rng = random.Random(20240811)
    for _ in range(10_000):
        s = random_semigroup(rng)
        t = random_semigroup(rng)
        a = rng.randint(1, 10)
        b = rng.randint(1, 10)
        if s.quotient(a).quotient(b) != s.quotient(a * b):
            ok = False
        if s.intersect(t).quotient(a) != s.quotient(a).intersect(t.quotient(a)):
            ok = False
        if s.quotient(a).depth() > s.depth():
            ok = False

    report(8, "closed-form and identity checks", ok)


def test_criterion_9_extremal_elements():
    two_three = NS.from_generators([2, 3])
    ok = True
    for s in all_semigroups_up_to(10).semigroups:
        if s == NATURALS:
            continue
        ext = extremal_elements(s)
        filled = NS(set(s.gaps) - set(s.fundamental_gaps()))
        if ext != (NATURALS, s, two_three, filled):
            ok = False
    report(9, "extremal elements", ok)
