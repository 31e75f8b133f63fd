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
from itertools import compress
from typing import Iterable, Iterator

from .core import _DIGIT_VALUES, NATURALS, NumericalSemigroup, _Record
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
    bounded doubles until none is left; each double is built from its
    gap mask once, by the one pass that checks its closure and finds the
    generators it is sorted by.  The nodes are then sorted
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
    nodes, parents = [root], [0]
    for i, s in enumerate(nodes):  # grows while it is walked; a double is found only under its half
        for _, _, mask in _bounded_doubles(s.gap_mask, bound):
            t = NumericalSemigroup._from_mask(mask)  # closure-checked, generators cached
            if predicate.accepts(t):
                nodes.append(t)
                parents.append(i)
    positions = list(range(len(nodes)))  # children share these ints; new ones raised peak RSS
    order = sorted(positions, key=lambda i: nodes[i]._msg)  # nodes[order[r]] goes to r
    kids: list[list[int]] = [[] for _ in nodes]  # by walk index: the children's canonical positions
    for r, i in zip(positions[1:], order[1:]):  # the root <1> sorts first
        kids[parents[i]].append(r)
    return VarietyTree(bound, predicate.name, tuple(nodes[i] for i in order),
                       tuple(tuple(kids[i]) for i in order))


def _json_array(items: Iterable[str]) -> Iterator[str]:
    """A top-level key's array of ``items`` in pieces, laid out as ``json.dumps(..., indent=2)``."""
    head = "[\n    "
    for item in items:
        yield head + item
        head = ",\n    "
    yield "[]" if head[0] == "[" else "\n  ]"


def _name(s: NumericalSemigroup, num: list[str]) -> str:
    """``str(s)``, its generators looked up in the number table."""
    return "<" + ",".join(map(num.__getitem__, s.min_generators)) + ">"


def _json_node(s: NumericalSemigroup, items: list[str]) -> str:
    """``to_json_dict`` in the node list: the mask's digits pick ``items[i]``, i after a separator."""
    digits = bin(s.gap_mask)[:1:-1].encode().translate(_DIGIT_VALUES)  # as in core._bits
    gens = s.min_generators
    f, m = s.frobenius, gens[0]
    gaps = f'[{"".join(compress(items, digits))[1:]}\n      ]' if f > 0 else "[]"
    return (
        f'{{\n      "generators": [{"".join(map(items.__getitem__, gens))[1:]}\n      ],'
        f'\n      "gaps": {gaps},\n      "frobenius": {f},\n      "genus": {digits.count(1)},'
        f'\n      "multiplicity": {m},\n      "depth": {-(-(f + 1) // m)}\n    }}'
    )


def _tree_json(tree: VarietyTree, num: list[str]) -> Iterator[str]:
    """``{"nodes": [...], "edges": [...]}`` as ``json.dumps(..., indent=2) + "\\n"`` writes it.

    A node is its ``to_json_dict``, in canonical order; an edge is the pair
    of positions of parent and child.  The pure-Python encoder that ``indent``
    selects costs more than the walk; the layout is fixed, so it is written here.
    """
    items = [",\n        " + i for i in num]
    yield '{\n  "nodes": '
    yield from _json_array(_json_node(s, items) for s in tree.nodes)
    yield ',\n  "edges": '
    yield from _json_array(f"[\n      {p},\n      {c}\n    ]"
                           for p, kids in enumerate(tree.children) for c in kids)
    yield "\n}\n"


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
    """:func:`export_tree` in pieces, one per node or edge (per line for text).

    The format is checked first.  ``num[i]`` is ``str(i)`` for every gap
    and generator: each is at most F + m, and the root's is 1.
    """
    for name, render in (("text", _tree_text), ("dot", _tree_dot), ("json", _tree_json)):
        if format == name:
            top = max(s.frobenius + s.min_generators[0] for s in tree.nodes)
            return render(tree, list(map(str, range(top + 2))))
    raise UnknownFormat(f"unsupported tree format {format!r}")


def export_tree(tree: VarietyTree, format: str) -> str:
    """Render as indented text ("text"), a Graphviz digraph ("dot") or adjacency lists ("json")."""
    return "".join(_tree_pieces(tree, format))
