"""Rooted trees of semigroup families under a Frobenius bound.

Any family closed under quotients arranges itself as a tree rooted at
the full set, where the parent of a node is its half-quotient.  With a
Frobenius bound the tree is finite and can be generated breadth-first:
the children of S are exactly its bounded doubles that the family's
membership predicate accepts.  The depth-bounded families are the
motivating instance; the predicate is pluggable.
"""

from bisect import bisect_left
from functools import partial
from itertools import chain
from operator import attrgetter
from typing import Iterator

from .core import NATURALS, NumericalSemigroup, _number_table, _Record
from .doubles import _bounded_doubles
from .errors import PredicateNotClosed, UnknownFormat


class VarietyPredicate(_Record):
    """Named membership test for a quotient-closed family."""

    __slots__ = _fields = ("name", "accepts")  # str, Callable[[NumericalSemigroup], bool]


def _any_semigroup(s: NumericalSemigroup) -> bool:
    return True


def _depth_at_most(q: int, s: NumericalSemigroup) -> bool:
    return s.depth() <= q


#: The family of all numerical semigroups.
ALL_SEMIGROUPS = VarietyPredicate("all", _any_semigroup)


def depth_predicate(q: int) -> VarietyPredicate:
    """Family of semigroups with depth at most ``q`` (quotient-closed)."""
    if q < 0:
        raise ValueError(f"depth must be >= 0, got {q}")
    return VarietyPredicate(f"depth<={q}", partial(_depth_at_most, q))


class VarietyTree(_Record):
    """Finite rooted tree: canonical ``nodes`` and each node's children.

    ``children[i]`` is the tuple of positions in ``nodes`` of the
    children of ``nodes[i]``, in canonical order; ``edges`` is a view of it.
    """

    __slots__ = _fields = ("bound", "predicate_name", "nodes", "children")

    @property
    def edges(self) -> tuple[tuple[NumericalSemigroup, NumericalSemigroup], ...]:
        return tuple((p, self.nodes[c]) for p, cs in zip(self.nodes, self.children) for c in cs)

    @property
    def root(self) -> NumericalSemigroup:
        return NATURALS

    def children_of(self, s: NumericalSemigroup) -> tuple[NumericalSemigroup, ...]:
        """The children of ``s`` in canonical order; none when ``s`` is not a node."""
        nodes = self.nodes
        i = bisect_left(nodes, s)
        return tuple(nodes[c] for c in self.children[i]) if nodes[i:i + 1] == (s,) else ()


def enumerate_tree(
    bound: int, predicate: VarietyPredicate = ALL_SEMIGROUPS
) -> VarietyTree:
    """Breadth-first generation of every accepted semigroup under the bound.

    Starting from the full set, each node is expanded into its accepted
    bounded doubles until none is left.  A double's Frobenius number is
    at least twice its half's, so a node with 2F > bound is a leaf and is
    skipped unexpanded.  Each double is built from its gap mask once, by
    the one pass that checks its closure and finds the generators it is
    sorted by.  The nodes are then sorted
    once, and filing them under their parents in that order leaves
    every children list canonical.  Completeness needs the
    predicate to be quotient-closed (each node's halving chain must stay
    accepted), and nothing checks that: a predicate that is not closed
    silently loses the accepted descendants of every rejected node, so
    rejecting only <2,3> leaves 5 of the 16 nodes at bound 6, with no
    error.  :class:`PredicateNotClosed` is raised only when the
    predicate rejects the root.
    """
    if bound < 1:
        raise ValueError(f"bound must be >= 1, got {bound}")
    root = NATURALS
    if not predicate.accepts(root):
        raise PredicateNotClosed(f"{predicate.name} rejects {root}")
    build, accepts, top = NumericalSemigroup._from_mask, predicate.accepts, bound // 2 + 1
    nodes, parents = [root], [0]
    for i, s in enumerate(nodes):  # grows while it is walked; a double is found only under its half
        if s._mask.bit_length() > top:  # 2F > bound: a leaf
            continue
        for _, _, mask in _bounded_doubles(s._mask, bound):
            t = build(mask)  # closure-checked, generators cached
            if accepts(t):
                nodes.append(t)
                parents.append(i)
    positions = list(range(len(nodes)))  # children share these ints; new ones raised peak RSS
    # nodes[order[r]] goes to r; a key that is a list's __getitem__ costs no Python step
    order = sorted(positions, key=list(map(attrgetter("_msg"), nodes)).__getitem__)
    kids: list[list[int]] = [[] for _ in nodes]  # by walk index: the children's canonical positions
    for r, i in zip(positions[1:], order[1:]):  # the root <1> sorts first
        kids[parents[i]].append(r)
    return VarietyTree(bound, predicate.name, tuple(map(nodes.__getitem__, order)),
                       tuple(map(tuple, map(kids.__getitem__, order))))


def _name(s: NumericalSemigroup, num: list[str]) -> str:
    """``str(s)``, its generators looked up in the number table."""
    return "<" + ",".join(map(num.__getitem__, s.min_generators)) + ">"


def _tree_text(tree: VarietyTree, num: list[str]) -> Iterator[str]:
    """One node per line, indented two spaces per level below the root (position 0)."""
    nodes, children = tree.nodes, tree.children
    stack = [(0, "")]
    while stack:
        i, indent = stack.pop()
        yield indent + _name(nodes[i], num) + "\n"
        stack.extend((c, indent + "  ") for c in reversed(children[i]))


def _tree_dot(tree: VarietyTree, num: list[str]) -> Iterator[str]:
    """A Graphviz digraph: a line per node, then a line per edge."""
    names = [f'"{_name(s, num)}"' for s in tree.nodes]
    yield "digraph variety_tree {\n"
    yield from (f"  {name};\n" for name in names)
    yield from (f"  {names[p]} -> {names[c]};\n" for p, cs in enumerate(tree.children) for c in cs)
    yield "}\n"


def _tree_pieces(tree: VarietyTree, format: str) -> Iterator[str]:
    """:func:`export_tree` in pieces, one per node or edge (per line for text, per 256 edges
    for json).

    The format is checked first.  json hands the writer the nodes and the edges as
    position pairs; text and dot look each generator up in one number table.
    """
    if format == "json":
        from ._json_writer import _json_pieces
        edges = [(p, c) for p, kids in enumerate(tree.children) for c in kids]
        return chain(_json_pieces({"nodes": tree.nodes, "edges": edges}), ("\n",))
    if format not in ("text", "dot"):
        raise UnknownFormat(f"unsupported tree format {format!r}")
    return (_tree_text if format == "text" else _tree_dot)(tree, _number_table(tree.nodes))


def export_tree(tree: VarietyTree, format: str) -> str:
    """Render as indented text ("text"), a Graphviz digraph ("dot") or adjacency lists ("json")."""
    return "".join(_tree_pieces(tree, format))
