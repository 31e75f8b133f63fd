"""Rooted trees of semigroup families under a Frobenius bound.

Any family closed under quotients arranges itself as a tree rooted at
the full set, where the parent of a node is its half-quotient.  With a
Frobenius bound the tree is finite and can be generated breadth-first:
the children of S are exactly its bounded doubles that the family's
membership predicate accepts.  The depth-bounded families are the
motivating instance; the predicate is pluggable so the brute-force
oracle can drive the same walker.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable

from .core import NATURALS, NumericalSemigroup
from .doubles import doubles_bounded
from .errors import PredicateNotClosed, UnknownFormat


@dataclass(frozen=True)
class VarietyPredicate:
    """Named membership test for a quotient-closed family."""

    name: str
    accepts: Callable[[NumericalSemigroup], bool]


#: The family of all numerical semigroups.
ALL_SEMIGROUPS = VarietyPredicate("all", lambda s: True)


def depth_predicate(q: int) -> VarietyPredicate:
    """Family of semigroups with depth at most ``q`` (quotient-closed)."""
    if q < 0:
        raise ValueError(f"depth must be >= 0, got {q}")
    return VarietyPredicate(f"depth<={q}", lambda s: s.depth() <= q)


def children(
    s: NumericalSemigroup, bound: int, predicate: VarietyPredicate
) -> list[NumericalSemigroup]:
    """Accepted bounded doubles of ``s``, excluding the node itself and the root."""
    return [
        t
        for _, t in doubles_bounded(s, bound)
        if predicate.accepts(t) and t != s and t != NATURALS
    ]


@dataclass(frozen=True)
class VarietyTree:
    """Finite rooted tree; nodes and edges are in canonical order."""

    bound: int
    predicate_name: str
    nodes: tuple[NumericalSemigroup, ...]
    edges: tuple[tuple[NumericalSemigroup, NumericalSemigroup], ...]

    def __post_init__(self) -> None:
        # children by parent, in edge order, so children_of is one lookup
        children: dict[NumericalSemigroup, list[NumericalSemigroup]] = {}
        for p, c in self.edges:
            children.setdefault(p, []).append(c)
        object.__setattr__(
            self, "_children", {p: tuple(cs) for p, cs in children.items()}
        )

    @property
    def root(self) -> NumericalSemigroup:
        return NATURALS

    def children_of(self, s: NumericalSemigroup) -> tuple[NumericalSemigroup, ...]:
        return self._children.get(s, ())

    def to_json_dict(self) -> dict:
        index = {s: i for i, s in enumerate(self.nodes)}
        return {
            "nodes": [s.to_json_dict() for s in self.nodes],
            "edges": [[index[p], index[c]] for p, c in self.edges],
        }

    def to_dot(self) -> str:
        lines = ["digraph variety_tree {"]
        lines.extend(f'  "{s}";' for s in self.nodes)
        lines.extend(f'  "{p}" -> "{c}";' for p, c in self.edges)
        lines.append("}")
        return "\n".join(lines) + "\n"


def enumerate_tree(
    bound: int, predicate: VarietyPredicate = ALL_SEMIGROUPS
) -> VarietyTree:
    """Breadth-first generation of every accepted semigroup under the bound.

    Starting from the full set, each frontier node is expanded into its
    accepted bounded doubles until nothing new appears.  Completeness
    needs the predicate to be quotient-closed (each node's halving
    chain must stay accepted).  That is re-checked on the result: the
    half-quotient of each node must be the accepted node it was found
    under, and by induction so is every ancestor's.  A violation raises
    :class:`PredicateNotClosed`.
    """
    if bound < 1:
        raise ValueError(f"bound must be >= 1, got {bound}")
    root = NATURALS
    if not predicate.accepts(root):
        raise PredicateNotClosed(f"{predicate.name} rejects {root}")
    seen = {root}
    frontier = [root]
    edges: list[tuple[NumericalSemigroup, NumericalSemigroup]] = []
    while frontier:
        nxt = []
        for s in frontier:  # a node has one parent, its half: no order changes an edge
            for t in children(s, bound, predicate):
                if t in seen:
                    continue
                seen.add(t)
                edges.append((s, t))
                nxt.append(t)
        frontier = nxt
    for p, t in edges:
        if t.halve() != p:
            raise PredicateNotClosed(f"{t} was found under {p}, not under its half")
    return VarietyTree(
        bound=bound,
        predicate_name=predicate.name,
        nodes=tuple(sorted(seen, key=lambda s: s.min_generators)),
        edges=tuple(sorted(edges, key=lambda e: (e[0].min_generators, e[1].min_generators))),
    )


def export_tree(tree: VarietyTree, format: str) -> str:
    """Render as a Graphviz digraph ("dot") or adjacency lists ("json")."""
    if format == "dot":
        return tree.to_dot()
    if format == "json":
        return json.dumps(tree.to_json_dict(), indent=2) + "\n"
    raise UnknownFormat(f"unsupported tree format {format!r}")
