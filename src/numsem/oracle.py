"""Independent brute force used to cross-validate every other module.

Enumeration works on the gap side: a semigroup with Frobenius number at
most F has its gap set inside {1..F}, so walking all 2^F subsets and
keeping those whose complement is additively closed is exhaustive.
The closure test runs on bitmasks (bit i set = i is a member): the
complement is closed iff no shift of the member mask by a member hits
a gap bit.  A hard cap keeps the exponential walk at desk scale.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import reduce
from itertools import combinations

from .core import NATURALS, NumericalSemigroup
from .doubles import halve
from .errors import BoundTooLarge, NotASemigroup
from .varieties import VarietySet

#: Hard cap on the enumeration bound (2^cap subsets).
ENUMERATION_CAP = 20


@dataclass(frozen=True)
class EnumerationReport:
    """Everything the gap-subset walk found for one bound."""

    bound: int
    semigroups: tuple[NumericalSemigroup, ...]
    counts_by_frobenius: dict

    def to_json_dict(self) -> dict:
        return {
            "bound": self.bound,
            "counts": {
                str(f): self.counts_by_frobenius[f]
                for f in sorted(self.counts_by_frobenius)
            },
            "semigroups": [list(s.min_generators) for s in self.semigroups],
        }


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
    found.sort()
    counts = Counter(s.frobenius for s in found)
    return EnumerationReport(
        bound=bound, semigroups=tuple(found), counts_by_frobenius=dict(counts)
    )


def doubles_oracle(
    s: NumericalSemigroup, bound: int
) -> list[NumericalSemigroup]:
    """Reference doubles: filter the exhaustive list by half-quotient."""
    return _doubles_in(all_semigroups_up_to(bound), s)


def _doubles_in(
    report: EnumerationReport, s: NumericalSemigroup
) -> list[NumericalSemigroup]:
    """The semigroups of ``report`` other than ``s`` whose half is ``s``."""
    return [t for t in report.semigroups if halve(t) == s and t != s]


def extension_oracle(s: NumericalSemigroup) -> VarietySet:
    """Reference extension family, computed without the intersection closure.

    Walks every supersemigroup of ``s`` (gap subsets) and keeps T when
    intersecting the quotients of s by all d with d*T inside s gives
    back exactly T.
    """
    out = []
    dmax = max(s.frobenius + 1, 1)
    for r in range(len(s.gaps) + 1):
        for combo in combinations(s.gaps, r):
            try:
                t = NumericalSemigroup(combo)
            except NotASemigroup:
                continue
            divisors = [
                d
                for d in range(1, dmax + 1)
                if all(s.contains(d * g) for g in t.min_generators)
            ]
            meet = reduce(
                NumericalSemigroup.intersect,
                (s.quotient(d) for d in divisors),
                NATURALS,
            )
            if meet == t:
                out.append(t)
    return VarietySet.of(out)
