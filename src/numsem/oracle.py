"""Independent brute force used to cross-validate every other module.

Enumeration works on the gap side: a semigroup with Frobenius number at
most F has its gap set inside {1..F}, so walking all 2^F subsets and
keeping those whose complement is additively closed is exhaustive.
The closure test runs on bitmasks (bit i set = i is a member): the
complement is closed iff no shift of the member mask by a member hits
a gap bit.  A hard cap keeps the exponential walk at desk scale.  A
check over bounds 1..N walks once, at N, and filters that report by F
(:meth:`EnumerationReport.up_to`).  A report indexes its semigroups
once by their half's gap mask: the doubles of S are one lookup.
"""

from collections import Counter
from functools import cached_property
from itertools import combinations

from .core import NATURALS, NumericalSemigroup, _every_nth_bit, _Record
from .errors import BoundTooLarge, NotASemigroup
from .varieties import VarietySet

#: Hard cap on the enumeration bound (2^cap subsets).
ENUMERATION_CAP = 20


class EnumerationReport(_Record):
    """Everything the gap-subset walk found for one bound; unhashable, as it holds a dict."""

    _fields = ("bound", "semigroups", "counts_by_frobenius")  # no __slots__: see _by_half

    def to_json_dict(self) -> dict:
        return {
            "bound": self.bound,
            "counts": {
                str(f): self.counts_by_frobenius[f]
                for f in sorted(self.counts_by_frobenius)
            },
            "semigroups": [list(s.min_generators) for s in self.semigroups],
        }

    def up_to(self, bound: int) -> "EnumerationReport":
        """The report for a smaller bound: the semigroups with F <= bound, in order."""
        if not 1 <= bound <= self.bound:
            raise ValueError(f"bound must be in 1..{self.bound}, got {bound}")
        return _report(bound, [s for s in self.semigroups if s.frobenius <= bound])

    @cached_property
    def _by_half(self) -> dict[int, list[NumericalSemigroup]]:
        index: dict[int, list[NumericalSemigroup]] = {}
        for t in self.semigroups:
            index.setdefault(_every_nth_bit(t.gap_mask, 2), []).append(t)
        return index


def _report(bound: int, found: list[NumericalSemigroup]) -> EnumerationReport:
    return EnumerationReport(bound, tuple(found), dict(Counter(s.frobenius for s in found)))


def all_semigroups_up_to(bound: int) -> EnumerationReport:
    """Every numerical semigroup with Frobenius number <= bound."""
    if bound < 1:
        raise ValueError(f"bound must be >= 1, got {bound}")
    if bound > ENUMERATION_CAP:
        raise BoundTooLarge(f"bound {bound} exceeds the cap {ENUMERATION_CAP}")
    full = (1 << (bound + 1)) - 1
    found = [NATURALS]
    for gap_subset in range(1, 1 << bound):
        gap_bits = gap_subset << 1  # bit i <-> integer i; 0 is always a member
        members = full & ~gap_bits
        closed = True
        for a in range(1, bound + 1):
            if (members >> a) & 1 and (members << a) & gap_bits:
                closed = False
                break
        if closed:
            found.append(NumericalSemigroup._from_mask(gap_bits))
    return _report(bound, sorted(found))


def _doubles_in(
    report: EnumerationReport, s: NumericalSemigroup
) -> list[NumericalSemigroup]:
    """The semigroups of ``report`` other than ``s`` whose half is ``s``."""
    return [t for t in report._by_half.get(s.gap_mask, ()) if t != s]


def extension_oracle(s: NumericalSemigroup) -> VarietySet:
    """Reference extension family, computed without the intersection closure.

    Walks every supersemigroup of ``s`` (gap subsets) and keeps T when
    intersecting the quotients of s by all d with d*T inside s gives
    back exactly T, met as the OR of quotient gap masks built once per s.
    """
    out = []
    quotients = [_every_nth_bit(s.gap_mask, d) for d in range(1, max(s.frobenius, 0) + 2)]
    for r in range(len(s.gaps) + 1):
        for combo in combinations(s.gaps, r):
            try:
                t = NumericalSemigroup(combo)
            except NotASemigroup:
                continue
            meet = 0
            for d, q in enumerate(quotients, 1):
                if all(s.contains(d * g) for g in t.min_generators):
                    meet |= q
            if meet == t.gap_mask:
                out.append(t)
    return VarietySet.of(out)
