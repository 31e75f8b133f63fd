"""Independent answer checks for the benchmark's CLI outputs.

Nothing here imports ``numsem``.  A numerical semigroup is one Python
int, its *gap mask*: bit i is set exactly when i is a gap.  The
Frobenius number is the highest set bit (-1 for the full set), and the
whole semigroup tree under a Frobenius bound comes from the classical
removal tree (Bras-Amorós, Semigroup Forum 76, 2008; Rosales and
García-Sánchez, *Numerical Semigroups*, 2009): the children of S are
S minus x for each minimal generator x of S with F(S) < x <= bound.
That is a different algorithm from the package's doubling tree, so an
agreement between the two is evidence, not a tautology.

Every ``check_*`` function takes the exact text a CLI invocation wrote,
raises :class:`CheckError` naming the first disagreement, and returns
the number of items (semigroups or checks) the output holds.
"""

from __future__ import annotations

import json
import re
from collections import Counter


class CheckError(Exception):
    """A CLI output disagrees with the checker's own computation."""


# -- semigroups as gap masks -------------------------------------------


def frobenius(g: int) -> int:
    return g.bit_length() - 1


def genus(g: int) -> int:
    return g.bit_count()


def multiplicity(g: int) -> int:
    """Least positive member: the lowest clear bit above bit 0."""
    x = ~(g | 1)
    return (x & -x).bit_length() - 1


def depth(g: int) -> int:
    return -(-(frobenius(g) + 1) // multiplicity(g))


def bits(mask: int):
    """Positions of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _sums(members: int, top: int) -> int:
    """Mask of a + b <= top over nonzero members a, b (members is a mask)."""
    out = 0
    for a in bits(members & ((1 << (top // 2 + 1)) - 1)):
        out |= members << a
    return out & ((1 << (top + 1)) - 1)


def min_generators(g: int) -> tuple[int, ...]:
    """Minimal generating system: members up to F + m that are no sum."""
    if g == 0:
        return (1,)
    top = frobenius(g) + multiplicity(g)
    members = ~g & ((1 << (top + 1)) - 2)
    return tuple(bits(members & ~_sums(members, top)))


def from_generators(gens) -> int:
    """Gap mask of the semigroup the generators span (gcd must be 1).

    Adding every multiple of each generator in turn closes {0} under
    addition; all gaps lie below (min - 1)(max - 1), Schur's bound.
    """
    gens = sorted(set(gens))
    if gens[0] == 1:
        return 0
    top = (gens[0] - 1) * (gens[-1] - 1)
    full = (1 << (top + 1)) - 1
    members = 1
    for a in gens:
        step = a
        while step <= top:
            members |= members << step
            step *= 2
        members &= full
    gaps = full & ~members
    if gaps >> top:
        raise CheckError(f"generators {gens} do not span a numerical semigroup")
    return gaps


def quotient(g: int, d: int) -> int:
    """Gaps of S/d = {x : d*x in S}: the x whose multiple d*x is a gap."""
    out = 0
    for x in range(1, frobenius(g) // d + 1):
        if (g >> (d * x)) & 1:
            out |= 1 << x
    return out


def removal_tree(bound: int) -> list[int]:
    """Gap masks of every numerical semigroup with Frobenius number <= bound."""
    window = (1 << (bound + 1)) - 2  # the integers 1..bound
    out = []
    stack = [0]
    while stack:
        g = stack.pop()
        out.append(g)
        members = window & ~g
        gens = members & ~_sums(members, bound)
        for x in bits(gens >> (frobenius(g) + 1) << (frobenius(g) + 1)):
            stack.append(g | (1 << x))
    return out


def brute_force(bound: int) -> list[int]:
    """Every gap subset of 1..bound whose complement is additively closed.

    Exponential; kept only to confirm :func:`removal_tree` at small bounds.
    """
    full = (1 << (bound + 1)) - 1
    out = []
    for subset in range(1 << bound):
        g = subset << 1
        members = full & ~g
        if all(not (members << a) & g for a in bits(members & ~1)):
            out.append(g)
    return out


# -- parsing -----------------------------------------------------------

_SEMIGROUP = re.compile(r"<(\d+(?:,\d+)*)>")


def parse_semigroup(text: str) -> int:
    """Gap mask of a canonical ``<g1,...,gk>``; the list must be minimal."""
    match = _SEMIGROUP.fullmatch(text)
    if not match:
        raise CheckError(f"not a semigroup: {text!r}")
    gens = tuple(int(x) for x in match.group(1).split(","))
    g = from_generators(gens)
    if min_generators(g) != gens:
        raise CheckError(f"{text} is not the minimal generating system {min_generators(g)}")
    return g


def _same_family(got: list[int], want: list[int], what: str) -> None:
    if len(set(got)) != len(got):
        raise CheckError(f"{what}: a semigroup is listed twice")
    if set(got) != set(want):
        have, need = Counter(map(frobenius, got)), Counter(map(frobenius, want))
        diff = {f: (have[f], need[f]) for f in sorted(set(have) | set(need)) if have[f] != need[f]}
        raise CheckError(f"{what}: count by Frobenius number (got, want) differs at {diff}"
                         if diff else f"{what}: the right counts but other semigroups")


def _canonically_sorted(gens: list[tuple[int, ...]], what: str) -> None:
    if any(a >= b for a, b in zip(gens, gens[1:])):
        raise CheckError(f"{what} is not in canonical order")


# -- one check per workload --------------------------------------------


def check_tree_json(text: str, bound: int) -> int:
    """``numsem tree --frobenius-bound B --format json``."""
    data = json.loads(text)
    nodes, edges = data["nodes"], data["edges"]
    masks = []
    for node in nodes:
        g = 0
        for x in node["gaps"]:
            g |= 1 << x
        facts = (tuple(node["generators"]), node["frobenius"], node["genus"],
                 node["multiplicity"], node["depth"])
        want = (min_generators(g), frobenius(g), genus(g), multiplicity(g), depth(g))
        if facts != want:
            raise CheckError(f"node {node} disagrees with its gaps: {want}")
        masks.append(g)
    _same_family(masks, removal_tree(bound), f"tree F<={bound}")
    _canonically_sorted([tuple(n["generators"]) for n in nodes], "node list")
    children = sorted(c for _, c in edges)
    root = masks.index(0)
    if children != [i for i in range(len(nodes)) if i != root]:
        raise CheckError("edges do not give every node but the root one parent")
    for p, c in edges:
        if quotient(masks[c], 2) != masks[p]:
            raise CheckError(f"edge {p}->{c}: the parent is not the child's half")
    return len(nodes)


def check_tree_text(text: str, bound: int, max_depth: int) -> int:
    """``numsem tree --frobenius-bound B --depth q`` in the text format.

    One line per node, indented two spaces per level under its parent.
    """
    if not text.endswith("\n"):
        raise CheckError("text output does not end with a newline")
    lines = text[:-1].split("\n")
    path: list[int] = []  # the semigroups on the way from the root
    masks = []
    for number, line in enumerate(lines, 1):
        body = line.lstrip(" ")
        indent = len(line) - len(body)
        level = indent // 2
        if indent % 2 or level > len(path) or (level == 0) != (number == 1):
            raise CheckError(f"line {number} is not nested under a parent: {line!r}")
        g = parse_semigroup(body)
        if level and quotient(g, 2) != path[level - 1]:
            raise CheckError(f"line {number}: {body} is not a double of its parent")
        del path[level:]
        path.append(g)
        masks.append(g)
    if masks[0] != 0:
        raise CheckError("the root line is not <1>")
    want = [g for g in removal_tree(bound) if depth(g) <= max_depth]
    _same_family(masks, want, f"tree F<={bound} depth<={max_depth}")
    return len(lines)


def smallest_variety(family: list[int]) -> set[int]:
    """Intersection closure of the full set and every quotient by a gap.

    Quotients distribute over intersections, so this closure is the
    smallest family holding ``family`` that is closed under both.
    """
    found = {0}
    found.update(quotient(g, d) for g in family for d in bits(g))
    work = list(found)
    while work:
        a = work.pop()
        for b in list(found):
            c = a | b
            if c not in found:
                found.add(c)
                work.append(c)
    return found


def check_variety(text: str, family: list[list[int]]) -> int:
    """``numsem variety GENS...``: one canonical semigroup per line."""
    inputs = [from_generators(gens) for gens in family]
    lines = text.splitlines()
    masks = [parse_semigroup(line) for line in lines]
    _canonically_sorted([min_generators(g) for g in masks], "variety")
    _same_family(masks, sorted(smallest_variety(inputs)), "variety")
    got = set(masks)
    if not set(inputs) <= got:
        raise CheckError("variety misses one of its inputs")
    for g in got:
        for d in range(2, frobenius(g) + 2):
            if quotient(g, d) not in got:
                raise CheckError(f"variety is not closed under quotient by {d}")
    return len(lines)


def oracle_check_counts(bound: int) -> list[tuple[str, tuple[int, ...]]]:
    """The lines ``numsem oracle-check`` prints on success, with their counts."""
    frobs = [frobenius(g) for g in removal_tree(bound)]
    small = sum(1 for f in frobs if f <= bound // 2)
    extended = sum(1 for f in frobs if f <= min(bound, 8))
    return [
        (r"ok tree-vs-bruteforce: (\d+)/(\d+) bounds agree", (bound, bound)),
        (r"ok doubles-vs-bruteforce: (\d+) semigroups x (\d+) bounds agree", (small, bound)),
        (r"ok extensions-vs-bruteforce: (\d+) semigroups agree", (extended,)),
        (r"oracle-check: PASS", ()),
    ]


def check_oracle_check(text: str, bound: int) -> int:
    """``numsem oracle-check --frobenius-bound B``; items are comparisons made."""
    lines = text.splitlines()
    want = oracle_check_counts(bound)
    if len(lines) != len(want):
        raise CheckError(f"oracle-check printed {len(lines)} lines, not {len(want)}")
    for line, (pattern, counts) in zip(lines, want):
        match = re.fullmatch(pattern, line)
        if not match or tuple(map(int, match.groups())) != counts:
            raise CheckError(f"oracle-check line {line!r}, want counts {counts}")
    tree, doubles, extensions = want[0][1][0], want[1][1], want[2][1][0]
    return tree + doubles[0] * doubles[1] + extensions
