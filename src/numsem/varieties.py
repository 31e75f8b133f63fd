"""Arithmetic varieties: families closed under intersection and quotient.

The central object is the smallest such family containing a given
semigroup (all of its arithmetic extensions) or a finite collection of
semigroups.  Both are finite and are materialized as :class:`VarietySet`
values in canonical order.
"""

from functools import reduce
from typing import Iterable, Iterator, NamedTuple, Sequence

from .core import NATURALS, NumericalSemigroup, _bits, _every_nth_bits, _Record
from .errors import IsNaturals


class VarietySet(_Record):
    """Finite, duplicate-free, canonically sorted family of semigroups."""

    __slots__ = _fields = ("members",)  # tuple[NumericalSemigroup, ...]

    @classmethod
    def of(cls, items: Iterable[NumericalSemigroup]) -> "VarietySet":
        return cls(tuple(sorted(set(items))))

    def __iter__(self) -> Iterator[NumericalSemigroup]:
        return iter(self.members)

    def __len__(self) -> int:
        return len(self.members)

    def __contains__(self, s: object) -> bool:
        return s in self.members

    def to_json_dict(self) -> dict:
        return {"members": [s.to_json_dict() for s in self.members]}


class ExtremalElements(NamedTuple):
    maximum: NumericalSemigroup
    minimum: NumericalSemigroup
    maximum_proper: NumericalSemigroup
    minimum_proper: NumericalSemigroup


def arithmetic_extensions(s: NumericalSemigroup) -> VarietySet:
    """The smallest arithmetic variety containing ``s``."""
    return smallest_variety([s])


def is_arithmetic_extension(s: NumericalSemigroup, t: NumericalSemigroup) -> bool:
    """True iff ``t`` is an intersection of quotients of ``s``.

    It suffices to intersect (OR the gap masks of) the quotients by the
    gaps d of ``s`` with d*t inside s, as a quotient by a member is the
    full set.  d*g is a member exactly when d is a member of s/g, so
    those d are the gaps of s that no quotient by a generator of t has.
    """
    if not s.is_subset_of(t):
        return False
    mask = s.gap_mask
    divisors = mask & ~reduce(int.__or__, _every_nth_bits(mask, t.min_generators))
    return reduce(int.__or__, _every_nth_bits(mask, _bits(divisors)), 0) == t.gap_mask


def smallest_variety(family: Sequence[NumericalSemigroup]) -> VarietySet:
    """Smallest arithmetic variety containing every member of ``family``.

    The variety is the closure under finite intersection of the full
    set and the quotients of the members; quotients by members are the
    full set, so the quotients by gaps suffice, and since
    (S/a)/b = S/ab and quotients distribute over intersections, that
    closure is also closed under quotients.  The quotients are added to
    the closure one at a time: the closure of X and q is that of X plus
    its members intersected with q.  Intersections are met on gap masks
    (an intersection's is the OR of both), so a semigroup is built and
    validated only for a mask not seen before.
    """
    if not family:
        raise ValueError("family must be nonempty")
    members = {0: NATURALS}
    for q in {q for s in family for q in _every_nth_bits(s.gap_mask, s.gaps)}:
        if q not in members:
            for c in list(members):
                if (meet := c | q) not in members:
                    members[meet] = NumericalSemigroup._from_mask(meet)
    return VarietySet.of(members.values())


def extremal_elements(s: NumericalSemigroup) -> ExtremalElements:
    """Inclusion-wise extremes of the extension family of ``s``.

    Returns (maximum, minimum, maximum besides the full set, minimum
    besides s itself) from the definitions, without building the family:

    - every member contains s and lies in the full set, and both are members;
    - s/F(s) is the full set minus 1, as F(s)*x > F(s) for every x >= 2;
    - every member but the full set intersects quotients s/d by gaps d, each missing 1;
    - every member but s intersects quotients s/d with d >= 2 only, as s/1 is s;
    - so it contains s/2 ∩ s/3 (2x and 3x in s put every kx in s), the member
      that is s with its fundamental gaps filled in.
    """
    if s == NATURALS:
        raise IsNaturals("the full set has no proper extensions")
    return ExtremalElements(NATURALS, s, s.quotient(s.frobenius), s.quotient(2) & s.quotient(3))


def monoid_hull(
    variety: VarietySet, elements: Iterable[int]
) -> NumericalSemigroup:
    """Intersection of every member of ``variety`` containing ``elements``.

    The full set belongs to any variety and contains everything, so the
    hull always exists; over a finite family it is itself a numerical
    semigroup.
    """
    xs = sorted(set(elements))
    if xs and xs[0] < 0:
        raise ValueError("elements must be nonnegative")
    containing = [t for t in variety if all(t.contains(x) for x in xs)]
    if not containing:
        raise ValueError("no member contains the elements; the family lacks the full set")
    return reduce(NumericalSemigroup.intersect, containing)


def _family_hull(
    family: Iterable[NumericalSemigroup], elements: Iterable[int]
) -> NumericalSemigroup:
    """``monoid_hull(smallest_variety(family), elements)`` without building the variety.

    A member of the variety contains the elements iff every quotient
    it is an intersection of does, so the hull is the intersection (the
    OR of the gap masks) of the quotients by gaps that contain them.
    """
    xs = set(elements)
    quotients = (q for s in family for q in _every_nth_bits(s.gap_mask, s.gaps))
    return NumericalSemigroup._from_mask(
        reduce(int.__or__, (q for q in quotients if not any(q >> x & 1 for x in xs)), 0))
