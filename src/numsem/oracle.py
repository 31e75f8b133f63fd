"""Independent brute force used to cross-validate every other module.

Enumeration works on the gap side: a semigroup with Frobenius number at
most F has its gap set inside {1..F}, so walking all 2^F subsets and
keeping those whose complement is additively closed is exhaustive.
:func:`_closed_by_shifts`, the one closure test, shifts the member mask by
each member a <= F/2 and ANDs it with the gaps.  The extension oracle walks
the submasks of one gap mask and tests each quotient's inclusion with one
AND.  A hard cap keeps each exponential walk at desk scale.  A check over
bounds 1..N walks once, at N, and filters that report by F
(:meth:`EnumerationReport.up_to`).  :func:`_half_index` files its
semigroups once under their half's gap mask: the doubles of S are one lookup.
"""

from collections import Counter

from .core import NumericalSemigroup, _every_nth_bits, _Record
from .errors import BoundTooLarge
from .varieties import VarietySet

#: Hard cap on the enumeration bound and on the extension oracle's genus (2^cap subsets).
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


def _closed_by_shifts(gaps: int) -> bool:
    """True iff the complement of the gap mask is closed, by brute force over shifts."""
    n = gaps.bit_length()  # F + 1
    members = gaps ^ ((1 << n) - 1)
    a = 1
    while 2 * a < n:  # a sum of members that is a gap g <= F has a term a <= F/2
        if (members >> a) & 1 and (members << a) & gaps:
            return False
        a += 1
    return True


def all_semigroups_up_to(bound: int) -> EnumerationReport:
    """Every numerical semigroup with Frobenius number <= bound."""
    if bound < 1:
        raise ValueError(f"bound must be >= 1, got {bound}")
    if bound > ENUMERATION_CAP:
        raise BoundTooLarge(f"bound {bound} exceeds the cap {ENUMERATION_CAP}")
    evens = range(0, 2 << bound, 2)  # the gap masks inside 1..bound
    found = [NumericalSemigroup._from_mask(g) for g in evens if _closed_by_shifts(g)]
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

    Walks every submask t of the gap mask of ``s`` (t = (t - 1) & gaps)
    and keeps each closed t that is the OR of the quotient gap masks
    q_d, d <= F + 1, with no bit outside t: T is inside s/d, that is
    d*T inside s, exactly then.  Only the kept T are built.  Raises
    :class:`BoundTooLarge` when the genus exceeds ``ENUMERATION_CAP``.
    """
    if s.genus > ENUMERATION_CAP:
        raise BoundTooLarge(f"genus {s.genus} exceeds the cap {ENUMERATION_CAP}")
    gaps = t = s.gap_mask
    quotients = _every_nth_bits(gaps, range(1, s.frobenius + 2))
    kept = []
    while True:
        if _closed_by_shifts(t):
            meet = 0
            for q in quotients:
                if not q & ~t:
                    meet |= q
            if meet == t:
                kept.append(NumericalSemigroup._from_mask(t))
        if not t:
            return VarietySet.of(kept)
        t = (t - 1) & gaps
