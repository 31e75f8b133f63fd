"""Independent brute force used to cross-validate every other module.

Enumeration works on the gap side: a semigroup with Frobenius number at
most F has its gap set inside {1..F}, so walking all 2^F subsets and
keeping those whose complement is additively closed is exhaustive.
The closure test runs on bitmasks (bit i set = i is a member): the
complement is closed iff no shift of the member mask by a member hits
a gap bit.  A hard cap keeps the exponential walk at desk scale.  A
check over bounds 1..N walks once, at N, and filters that report by F
(:meth:`EnumerationReport.up_to`).  :func:`_half_index` files its
semigroups once under their half's gap mask: the doubles of S are one lookup.
"""

from collections import Counter
from itertools import combinations

from .core import NATURALS, NumericalSemigroup, _every_nth_bits, _Record
from .errors import BoundTooLarge, NotASemigroup
from .varieties import VarietySet

#: Hard cap on the enumeration bound (2^cap subsets).
ENUMERATION_CAP = 20


class EnumerationReport(_Record):
    """Everything the gap-subset walk found for one bound, in canonical order."""

    __slots__ = _fields = ("bound", "semigroups")  # int, tuple[NumericalSemigroup, ...]

    @property
    def counts_by_frobenius(self) -> dict[int, int]:
        return dict(Counter(s.frobenius for s in self.semigroups))

    def to_json_dict(self) -> dict:
        counts = self.counts_by_frobenius
        return {
            "bound": self.bound,
            "counts": {str(f): counts[f] for f in sorted(counts)},
            "semigroups": [list(s.min_generators) for s in self.semigroups],
        }

    def up_to(self, bound: int) -> "EnumerationReport":
        """The report for a smaller bound: the semigroups with F <= bound, in order."""
        if not 1 <= bound <= self.bound:
            raise ValueError(f"bound must be in 1..{self.bound}, got {bound}")
        return EnumerationReport(bound, tuple(s for s in self.semigroups if s.frobenius <= bound))


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
    return EnumerationReport(bound, tuple(sorted(found)))


def _half_index(report: EnumerationReport) -> dict[int, list[NumericalSemigroup]]:
    """The report's semigroups, in order, filed under their half's gap mask.

    The doubles of S in the report are the list at S's gap mask.  The
    full set, the one semigroup that is its own half, is left out.
    """
    index: dict[int, list[NumericalSemigroup]] = {}
    for t in report.semigroups:
        if t.gap_mask:
            index.setdefault(_every_nth_bits(t.gap_mask, (2,))[0], []).append(t)
    return index


def extension_oracle(s: NumericalSemigroup) -> VarietySet:
    """Reference extension family, computed without the intersection closure.

    Walks every supersemigroup of ``s`` (gap subsets) and keeps T when
    intersecting the quotients of s by all d with d*T inside s gives
    back exactly T, met as the OR of quotient gap masks built once per s.
    """
    out = []
    quotients = _every_nth_bits(s.gap_mask, range(1, max(s.frobenius, 0) + 2))
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
