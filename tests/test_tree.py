import json
import math
import random
import time
from collections import Counter

import pytest

import numsem.doubles as doubles_module
import numsem.tree as tree_module
from numsem import (
    ALL_SEMIGROUPS,
    NATURALS,
    NotASemigroup,
    NumericalSemigroup,
    PredicateNotClosed,
    TooLarge,
    UnknownFormat,
    VarietyPredicate,
    all_semigroups_up_to,
    depth_predicate,
    doubles_bounded,
    enumerate_tree,
    export_tree,
)
from support import (
    closed_form_mismatches,
    filtered_children,
    random_semigroup,
    removal_tree,
    tree_json_dict,
)

NS = NumericalSemigroup

C2_5_EXPECTED = [
    [1], [2, 3], [2, 5], [3, 4], [3, 4, 5], [3, 5, 7], [3, 7, 8],
    [4, 5, 6, 7], [4, 6, 7, 9], [5, 6, 7, 8, 9], [6, 7, 8, 9, 10, 11],
]


class TestPredicates:
    def test_depth_zero_accepts_only_naturals(self):
        p = depth_predicate(0)
        assert p.accepts(NATURALS)
        assert not p.accepts(NS.from_generators([2, 3]))

    def test_depth_one_accepts_tail_sets(self):
        p = depth_predicate(1)
        for f in range(1, 8):
            assert p.accepts(NS(range(1, f + 1)))
        assert not p.accepts(NS.from_generators([2, 5]))

    def test_depth_two_examples(self):
        p = depth_predicate(2)
        assert p.accepts(NS.from_generators([3, 7, 8]))
        assert not p.accepts(NS.from_generators([2, 7]))

    def test_negative_depth_rejected(self):
        with pytest.raises(ValueError):
            depth_predicate(-1)

    def test_depth_predicates_are_quotient_closed(self):
        rng = random.Random(7)
        for _ in range(200):
            s = random_semigroup(rng)
            q = rng.randint(0, 4)
            p = depth_predicate(q)
            if p.accepts(s):
                for d in range(1, 12):
                    assert p.accepts(s.quotient(d))


class TestChildren:
    def test_root_children_with_depth_filter(self):
        got = enumerate_tree(5, depth_predicate(2)).children_of(NATURALS)
        assert list(got) == [NS.from_generators([2, 3]), NS.from_generators([2, 5])]

    def test_root_children_unfiltered(self):
        got = enumerate_tree(5, ALL_SEMIGROUPS).children_of(NATURALS)
        assert list(got) == [NS.from_generators([2, 3]), NS.from_generators([2, 5]), NS.from_generators([2, 7])]

    def test_no_children_under_tight_bound(self):
        assert enumerate_tree(5, ALL_SEMIGROUPS).children_of(NS.from_generators([2, 5])) == ()


class TestEnumerate:
    def test_depth_two_bound_five(self):
        tree = enumerate_tree(5, depth_predicate(2))
        assert [list(s.min_generators) for s in tree.nodes] == C2_5_EXPECTED

    def test_bound_one(self):
        tree = enumerate_tree(1)
        assert tree.nodes == (NATURALS, NS.from_generators([2, 3]))

    def test_bound_five_all(self):
        tree = enumerate_tree(5)
        assert len(tree.nodes) == 12
        extra = set(tree.nodes) - set(enumerate_tree(5, depth_predicate(2)).nodes)
        assert extra == {NS.from_generators([2, 7])}

    def test_tree_property(self):
        """The stored children lists are the walk's; the edges are their canonical view."""
        key = lambda e: (e[0].min_generators, e[1].min_generators)
        preds = (ALL_SEMIGROUPS, *map(depth_predicate, range(4)))
        for bound, pred in ((b, p) for b in range(1, 15) for p in preds):
            tree = enumerate_tree(bound, pred)
            assert tree.edges == tuple(sorted(tree.edges, key=key))
            for p in tree.nodes:
                assert tree.children_of(p) == tuple(filtered_children(p, bound, pred))
            again = enumerate_tree(bound, pred)
            assert again == tree and hash(again) == hash(tree)
            assert len(tree.edges) == len(tree.nodes) - 1
            nodes = set(tree.nodes)
            for p, c in tree.edges:
                assert c.quotient(2) == p
            max_steps = math.ceil(math.log2(bound + 2)) + 1
            for s in tree.nodes:
                steps = 0
                walk = s
                while walk != NATURALS:
                    walk = walk.quotient(2)
                    steps += 1
                    assert walk in nodes
                assert steps <= max_steps

    def test_matches_bruteforce_with_and_without_depth(self):
        for bound in range(1, 9):
            rep = all_semigroups_up_to(bound)
            assert enumerate_tree(bound).nodes == rep.semigroups
            for q in range(0, 5):
                expected = tuple(s for s in rep.semigroups if s.depth() <= q)
                assert enumerate_tree(bound, depth_predicate(q)).nodes == expected

    def test_monotone_in_depth_and_bound(self):
        n_all = set(enumerate_tree(7).nodes)
        prev = set()
        for q in range(0, 5):
            cur = set(enumerate_tree(7, depth_predicate(q)).nodes)
            assert prev <= cur <= n_all
            prev = cur
        assert set(enumerate_tree(6).nodes) <= set(enumerate_tree(7).nodes)

    def test_matches_removal_tree(self):
        """The tree of doubles and the classical removal tree find the same semigroups."""
        for bound in range(1, 23):
            nodes = enumerate_tree(bound).nodes
            removal = removal_tree(bound)
            assert len(set(removal)) == len(removal) == len(nodes), bound
            assert {s.gap_mask for s in nodes} == set(removal), bound
            assert Counter(s.frobenius for s in nodes) == Counter(
                g.bit_length() - 1 for g in removal
            ), bound

    def test_node_set_is_closed(self):
        tree = enumerate_tree(8)
        pool = set(tree.nodes)
        for a in tree.nodes:
            for b in tree.nodes:
                assert a.intersect(b) in pool
            for d in range(1, 10):
                assert a.quotient(d) in pool

    def test_rejecting_root_raises(self):
        with pytest.raises(PredicateNotClosed):
            enumerate_tree(5, VarietyPredicate("no-root", lambda s: s != NATURALS))

    def test_a_predicate_that_is_not_quotient_closed_loses_descendants_silently(self):
        """Rejecting only <2,3> drops its descendants at bound 6, and nothing is raised."""
        no_23 = VarietyPredicate("not-<2,3>", lambda s: s != NS.from_generators([2, 3]))
        tree = enumerate_tree(6, no_23)
        assert [s.min_generators for s in tree.nodes] == [
            (1,), (2, 5), (2, 7), (4, 5, 7), (4, 7, 9, 10)
        ]
        assert len(enumerate_tree(6).nodes) == 16

    @pytest.mark.parametrize(
        "module, build",
        [(tree_module, lambda: enumerate_tree(5)), (doubles_module, lambda: doubles_bounded(NATURALS, 5))],
        ids=["enumerate_tree", "doubles_bounded"],
    )
    def test_a_double_that_is_not_closed_is_refused(self, monkeypatch, module, build):
        """The pass that finds the generators still closure-checks every double."""
        real = module._bounded_doubles

        def with_stray(gaps, bound):
            yield from real(gaps, bound)
            if gaps == NATURALS.gap_mask:
                yield 3, 0, 0b10010  # the gaps 1 and 4, but 2 + 2 = 4

        monkeypatch.setattr(module, "_bounded_doubles", with_stray)
        with pytest.raises(NotASemigroup):
            build()

    def test_nodes_cache_the_generators_of_a_fresh_build(self):
        """Each node's generators, cached by the walk, are those of the same gaps built anew."""
        preds = (ALL_SEMIGROUPS, *map(depth_predicate, range(4)))
        for bound, pred in ((b, p) for b in range(1, 21) for p in preds):
            for s in enumerate_tree(bound, pred).nodes[1:]:
                assert s._msg == NS(s.gaps).min_generators, (bound, pred.name, s.gaps)

    def test_generators_match_the_closed_form_of_a_double(self):
        """Every double to F <= 22 halves to its parent and has the closed form's generators."""
        tree = enumerate_tree(22)
        assert len(tree.nodes) - 1 == len(tree.edges) == 7256
        assert closed_form_mismatches(tree) == []
        assert all(c.quotient(2) == p for p, c in tree.edges)

    def test_walk_builds_each_double_once_and_no_label(self, monkeypatch):
        """One ``_from_mask`` per bounded double of an accepted node, no ``DoubleLabel``."""
        real = NS._from_mask.__func__
        built, labels = [], []

        def counting(cls, mask):
            built.append(mask)
            return real(cls, mask)

        preds = (ALL_SEMIGROUPS, *map(depth_predicate, range(4)))
        for bound, pred in ((b, p) for b in range(1, 15) for p in preds):
            built.clear()
            with monkeypatch.context() as m:
                m.setattr(NS, "_from_mask", classmethod(counting))
                m.setattr(doubles_module, "DoubleLabel", lambda *a: labels.append(a))
                tree = enumerate_tree(bound, pred)
            assert labels == []
            doubles = (t for p in tree.nodes for t in filtered_children(p, bound, ALL_SEMIGROUPS))
            expected = sorted(t.gap_mask for t in doubles)
            assert sorted(built) == expected, (bound, pred.name)
            if pred is ALL_SEMIGROUPS:
                assert len(built) == len(tree.nodes) - 1

    def test_huge_bound_raises_too_large_quickly(self):
        start = time.monotonic()
        with pytest.raises(TooLarge):
            enumerate_tree(100_000_000)
        assert time.monotonic() - start < 10

    def test_bad_bound(self):
        with pytest.raises(ValueError):
            enumerate_tree(0)


class TestExport:
    def test_dot_single_edge(self):
        text = export_tree(enumerate_tree(1), "dot")
        assert text == (
            'digraph variety_tree {\n'
            '  "<1>";\n'
            '  "<2,3>";\n'
            '  "<1>" -> "<2,3>";\n'
            '}\n'
        )

    def test_dot_single_node(self):
        text = export_tree(enumerate_tree(5, depth_predicate(0)), "dot")
        assert text == 'digraph variety_tree {\n  "<1>";\n}\n'

    def test_json_adjacency(self):
        tree = enumerate_tree(5, depth_predicate(2))
        data = json.loads(export_tree(tree, "json"))
        assert len(data["nodes"]) == 11
        assert len(data["edges"]) == 10
        gens = [tuple(n["generators"]) for n in data["nodes"]]
        assert gens == sorted(gens)
        for pi, ci in data["edges"]:
            parent = NS.from_generators(data["nodes"][pi]["generators"])
            child = NS.from_generators(data["nodes"][ci]["generators"])
            assert child.quotient(2) == parent

    def test_json_bytes_match_json_dumps(self):
        for bound in range(1, 17):
            for pred in (ALL_SEMIGROUPS, *map(depth_predicate, range(4))):
                tree = enumerate_tree(bound, pred)
                expected = json.dumps(tree_json_dict(tree), indent=2) + "\n"
                assert export_tree(tree, "json") == expected

    def test_text_nesting_is_the_edge_list(self):
        """Each line's parent is the nearest line above it one level up."""
        for bound in range(1, 13):
            for pred in (ALL_SEMIGROUPS, depth_predicate(2)):
                tree = enumerate_tree(bound, pred)
                names, edges, path = [], [], []
                for line in export_tree(tree, "text").splitlines():
                    name = line.lstrip(" ")
                    del path[(len(line) - len(name)) // 2:]
                    if path:
                        edges.append((path[-1], name))
                    path.append(name)
                    names.append(name)
                assert sorted(names) == sorted(map(str, tree.nodes))
                assert sorted(edges) == sorted((str(p), str(c)) for p, c in tree.edges)

    def test_unknown_format(self):
        with pytest.raises(UnknownFormat):
            export_tree(enumerate_tree(1), "svg")

    def test_children_of(self):
        tree = enumerate_tree(5)
        got = tree.children_of(NATURALS)
        assert got == tuple(filtered_children(NATURALS, 5, ALL_SEMIGROUPS))

    def test_children_of_a_semigroup_that_is_not_a_node(self):
        tree = enumerate_tree(5)
        for gens in ([3, 7], [4, 5, 11], [20, 21]):  # F > 5; <20,21> sorts after every node
            s = NS.from_generators(gens)
            assert s not in tree.nodes
            assert tree.children_of(s) == ()
        assert enumerate_tree(5, depth_predicate(0)).children_of(NS.from_generators([2, 3])) == ()

    def test_child_positions_agree_with_edges_and_json(self):
        for bound in range(1, 15):
            for pred in (ALL_SEMIGROUPS, *map(depth_predicate, range(4))):
                tree = enumerate_tree(bound, pred)
                assert len(tree.children) == len(tree.nodes)
                pairs = [(p, c) for p, cs in enumerate(tree.children) for c in cs]
                assert [(tree.nodes[p], tree.nodes[c]) for p, c in pairs] == list(tree.edges)
                assert json.loads(export_tree(tree, "json"))["edges"] == [list(e) for e in pairs]
                for s, cs in zip(tree.nodes, tree.children):
                    assert tree.children_of(s) == tuple(tree.nodes[c] for c in cs)
