"""Doubling machinery: the semigroups T whose half-quotient is a given S.

Every such T is encoded by a pair (m, H) where m is an odd member of S
and H is an "upper m-set" of gaps — a subset satisfying three closure
conditions — via

    T = {2s : s in S} ∪ {2s + m : s in S} ∪ {2h + m : h in H}.

Distinct pairs encode distinct semigroups, its Frobenius number has a
closed form, and the pairs whose semigroup stays under a Frobenius
bound can be enumerated exactly.  The empty H is vacuously valid and
is what produces e.g. <3,4> over <2,3>; the listing function
:func:`upper_m_sets` nevertheless reports nonempty sets only, which is
the conventional reading of the definition.

Inside the module every set of gaps is an ``int`` mask as in
:mod:`numsem.core` (bit i set iff i is in the set), and T's gap mask is
built straight from S's; the public functions take and return
frozensets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .core import DEFAULT_LIMIT, NumericalSemigroup, _bits, _mask_of, _members
from .errors import BadM, InvalidCertificate, NotGapSubset, TooLarge


@dataclass(frozen=True)
class DoubleLabel:
    """The (m, H) pair naming one element of the doubles of a semigroup."""

    m: int
    upper_set: frozenset[int]

    def to_json_dict(self) -> dict:
        return {"m": self.m, "H": sorted(self.upper_set)}

    def __str__(self) -> str:
        return f"S({self.m}; {','.join(map(str, sorted(self.upper_set)))})"


def _check_modulus(s: NumericalSemigroup, m: int) -> None:
    if m % 2 == 0 or not s.contains(m):
        raise BadM(f"modulus must be an odd member of {s}, got {m}")
    if m > DEFAULT_LIMIT:  # the odd numbers below m are gaps of every double
        raise TooLarge(f"modulus {m} exceeds the limit {DEFAULT_LIMIT}")


def _spread(x: int) -> int:
    """Bit i of ``x >= 0`` moved to bit 2i."""
    return int("0".join(bin(x)[2:]), 2)


def _double_mask(gaps: int, m: int, h: int) -> int:
    """Gap mask of the double encoded by (m, h) over the gap mask ``gaps``.

    Its even gaps are twice the gaps, its odd gaps the odd numbers
    below m and 2x + m for the gaps x outside h.
    """
    odd_below_m = ((1 << (m - 1)) - 1) // 3 << 1  # bits 1, 3, ..., m - 2
    return _spread(gaps) | odd_below_m | (_spread(gaps & ~h) << m)


def _sums_ok(gaps: int, m: int, left: int, right: int) -> bool:
    # a + b + m is a member for every a in left and b in right
    return not any((right << (a + m)) & gaps for a in _bits(left))


def _is_upper_mask(gaps: int, m: int, h: int) -> bool:
    """:func:`is_upper_m_set` on masks, with the modulus and subset checks as conditions."""
    members = _members(gaps)
    return bool(
        m & 1
        and not (gaps >> m) & 1
        and not h & ~gaps
        and not (h << m) & gaps
        and _sums_ok(gaps, m, h, h)
        and not any(gaps & (members << x) & ~h for x in _bits(h))
    )


def is_upper_m_set(
    s: NumericalSemigroup, m: int, candidate: Iterable[int]
) -> bool:
    """Decide whether ``candidate`` is an upper m-set of ``s``.

    The conditions: h + m and h1 + h2 + m must be members for all
    h, h1, h2 in the set, and for each h the set must absorb every gap
    x with x - h a member.  All three hold vacuously for the empty set.
    """
    _check_modulus(s, m)
    h = frozenset(candidate)
    if not h <= s.gap_set:
        raise NotGapSubset(f"{sorted(h - s.gap_set)} are not gaps of {s}")
    return _is_upper_mask(s.gap_mask, m, _mask_of(h))


def _principal_closures(gaps: int) -> list[int]:
    """Distinct absorption closures of the single gaps, as masks.

    The closure of a gap h is the set of gaps g with g - h a member:
    absorption is transitive (g' - g and g - h members make g' - h
    one), so one shift of the member mask finds it.  No closure
    depends on the modulus m.
    """
    members = _members(gaps)
    return list(dict.fromkeys(gaps & (members << h) for h in _bits(gaps)))


def _upper_masks(gaps: int, m: int, principals: list[int], base: int = 0) -> set[int]:
    """All upper m-sets of the gap mask that contain ``base``, as masks.

    ``base`` must be absorption-closed; unless it is an upper m-set
    itself there are none.  Rather than filtering the power set of the
    gaps, this walks the lattice of absorption-closed sets up from
    ``base``: each valid set is ``base`` united with the closures of
    its single elements, and a violation of the two sum conditions in
    any subset persists in every superset, so failing unions can be
    pruned on first sight.
    """
    if (base << m) & gaps or not _sums_ok(gaps, m, base, base):
        return set()
    valid = [c for c in principals if not (c << m) & gaps and _sums_ok(gaps, m, c, c)]
    found = {base}
    queue = [base]
    while queue:
        u = queue.pop()
        for p in valid:
            new = p & ~u
            if not new:
                continue
            w = u | p
            if w in found:
                continue
            if _sums_ok(gaps, m, new, u):
                found.add(w)
                queue.append(w)
    return found


def upper_m_sets(s: NumericalSemigroup, m: int) -> list[frozenset[int]]:
    """All nonempty upper m-sets of ``s``, in canonical order.

    The sets come from a walk of the lattice of absorption-closed sets
    (see :func:`_upper_masks`); equivalence with the plain power-set
    filter is covered by the test suite.
    """
    _check_modulus(s, m)
    gaps = s.gap_mask
    found = _upper_masks(gaps, m, _principal_closures(gaps))
    found.discard(0)
    return [frozenset(h) for h in sorted(map(_bits, found))]


def _certificate(s: NumericalSemigroup, m: int, upper_set: Iterable[int]) -> int:
    """Mask of ``upper_set`` once it is shown an upper m-set of ``s``."""
    h = frozenset(upper_set)
    try:
        valid = is_upper_m_set(s, m, h)
    except (BadM, NotGapSubset) as exc:  # TooLarge passes: the label may be valid
        raise InvalidCertificate(str(exc)) from exc
    if not valid:
        raise InvalidCertificate(f"{sorted(h)} is not an upper {m}-set of {s}")
    return _mask_of(h)


def build_double(
    s: NumericalSemigroup, m: int, upper_set: Iterable[int]
) -> NumericalSemigroup:
    """The semigroup encoded by (s, m, upper_set); its half-quotient is s."""
    h = _certificate(s, m, upper_set)
    return NumericalSemigroup._from_mask(_double_mask(s.gap_mask, m, h))


def frobenius_of_double(
    s: NumericalSemigroup, m: int, upper_set: Iterable[int]
) -> int:
    """Closed-form Frobenius number of the double encoded by (m, upper_set)."""
    h = _certificate(s, m, upper_set)
    outside = s.gap_mask & ~h
    if not outside:
        return max(2 * s.frobenius, m - 2)
    return max(2 * s.frobenius, 2 * (outside.bit_length() - 1) + m)


def doubles_bounded(
    s: NumericalSemigroup, bound: int
) -> list[tuple[DoubleLabel, NumericalSemigroup]]:
    """All (label, T) with T/2 == s and Frobenius(T) <= bound.

    Two sources: the full gap set paired with every odd m between
    F(s)+1 and bound+2, and every proper upper m-set (the empty one
    included) for odd members m <= bound-2, kept when twice the largest
    missing gap plus m stays under the bound.  No doubles exist at all
    once 2*F(s) exceeds the bound.  For the full set the first source
    alone yields the <2, m> family; its m = 1 case is the full set
    itself and is dropped.
    """
    if bound < 1:
        raise ValueError(f"bound must be >= 1, got {bound}")
    if 2 * s.frobenius > bound:
        return []
    gaps = s.gap_mask
    labels: list[tuple[int, int]] = []

    first = max((s.frobenius + 1) | 1, 3)  # m = 1 only over the full set, giving itself
    labels.extend((m, gaps) for m in range(first, bound + 3, 2))

    principals = _principal_closures(gaps)
    for m in range(1, bound - 1, 2):
        if not s.contains(m):
            continue
        # 2 * max(gaps - h) + m <= bound: h holds every gap from `above` on,
        # and those gaps are absorption-closed, as a gap absorbs only larger ones
        above = (bound - m) // 2 + 1
        for h in _upper_masks(gaps, m, principals, gaps >> above << above):
            if h != gaps:
                labels.append((m, h))

    results: list[tuple[DoubleLabel, NumericalSemigroup]] = []
    for m, h in labels:
        # each label is checked once more on its own, as build_double does
        if not _is_upper_mask(gaps, m, h):
            raise InvalidCertificate(f"{_bits(h)} is not an upper {m}-set of {s}")
        t = NumericalSemigroup._from_mask(_double_mask(gaps, m, h))
        results.append((DoubleLabel(m, frozenset(_bits(h))), t))
    results.sort(key=lambda pair: pair[1].min_generators)
    return results


def halve(s: NumericalSemigroup) -> NumericalSemigroup:
    """Members whose double lies in ``s``; the parent of ``s`` in the tree."""
    return s.quotient(2)
