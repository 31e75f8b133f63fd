"""Doubling machinery: the semigroups T whose half-quotient is a given S.

Every such T is encoded by a pair (m, H) where m is an odd member of S
and H is a set of gaps of S, via

    T = {2s : s in S} ∪ {2s + m : s in S} ∪ {2h + m : h in H}.

T is a numerical semigroup exactly when H is an "upper m-set": the
even + odd sums give the absorption condition, and the odd + odd sums
give h + m and h1 + h2 + m in S.  So every label is decided by one
test, the closure test of T's gap mask (:func:`numsem.core._is_closed`).
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

from typing import Iterable, Iterator

from .core import DEFAULT_LIMIT, NumericalSemigroup, _bits, _is_closed, _mask_of, _members, _Record
from .errors import BadM, InvalidCertificate, NotASemigroup, NotGapSubset, TooLarge


class DoubleLabel(_Record):
    """The (m, H) pair naming one element of the doubles of a semigroup."""

    __slots__ = _fields = ("m", "upper_set")  # int, frozenset[int]

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


def _label_mask(s: NumericalSemigroup, m: int, h: frozenset[int]) -> int:
    """Gap mask of the double labelled (m, h), once m and h pass the input checks."""
    _check_modulus(s, m)
    if not h <= s.gap_set:
        raise NotGapSubset(f"{sorted(h - s.gap_set)} are not gaps of {s}")
    return _double_mask(s.gap_mask, m, _mask_of(h))


def is_upper_m_set(
    s: NumericalSemigroup, m: int, candidate: Iterable[int]
) -> bool:
    """Decide whether ``candidate`` is an upper m-set of ``s``.

    The conditions: h + m and h1 + h2 + m must be members for all
    h, h1, h2 in the set, and for each h the set must absorb every gap
    x with x - h a member.  All three hold vacuously for the empty set.
    They hold exactly when the double labelled (m, candidate) is closed
    under addition, so that closure test is what decides.
    """
    t = _label_mask(s, m, frozenset(candidate))
    return _is_closed(t, t.bit_length() - 1)


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
    # a closure inside base adds nothing to any set that contains it
    valid = [c for c in principals
             if c & ~base and not (c << m) & gaps and _sums_ok(gaps, m, c, c)]
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


def build_double(
    s: NumericalSemigroup, m: int, upper_set: Iterable[int]
) -> NumericalSemigroup:
    """The semigroup encoded by (s, m, upper_set); its half-quotient is s.

    A label that fails the input checks of :func:`is_upper_m_set`, or
    whose double is not closed, raises :class:`InvalidCertificate`.
    """
    h = frozenset(upper_set)
    try:
        return NumericalSemigroup._from_mask(_label_mask(s, m, h))
    except (BadM, NotGapSubset) as exc:  # TooLarge passes: the label may be valid
        raise InvalidCertificate(str(exc)) from exc
    except NotASemigroup:
        raise InvalidCertificate(f"{sorted(h)} is not an upper {m}-set of {s}") from None


def frobenius_of_double(
    s: NumericalSemigroup, m: int, upper_set: Iterable[int]
) -> int:
    """Closed-form Frobenius number of the double encoded by (m, upper_set).

    The label is validated as :func:`build_double` does.
    """
    h = frozenset(upper_set)
    build_double(s, m, h)
    outside = s.gap_mask & ~_mask_of(h)
    if not outside:
        return max(2 * s.frobenius, m - 2)
    return max(2 * s.frobenius, 2 * (outside.bit_length() - 1) + m)


def _bounded_doubles(s: NumericalSemigroup, bound: int) -> Iterator[tuple[int, int, int]]:
    """(m, h, gap mask of T) for every T with T/2 == s and Frobenius(T) <= bound.

    F(T) is at least 2*F(s), so there are none once that exceeds the
    bound.  Otherwise one loop runs over the odd members
    3 <= m <= bound+2 (m = 1 is a member only of the full set, and
    gives it back).  F(T) <= bound iff 2x + m <= bound for every gap x
    outside H, so H holds every gap from ``above`` = (bound - m)//2 + 1
    on, and the upper m-sets are walked up from those gaps.  From
    m = bound-1 on that is the whole gap set, an upper m-set exactly
    when m > F(s); over the full set it gives the <2, m> family.  The
    masks are not built into semigroups here; the input checks run on
    the first step.
    """
    if bound < 1:
        raise ValueError(f"bound must be >= 1, got {bound}")
    if 2 * s.frobenius > bound:
        return
    if bound + 2 > DEFAULT_LIMIT:  # the moduli reach bound + 2, as in _check_modulus
        raise TooLarge(
            f"bound {bound} takes moduli up to {bound + 2}, above the limit {DEFAULT_LIMIT}"
        )
    gaps = s.gap_mask
    principals = _principal_closures(gaps)
    even = _spread(gaps)
    for m in range(3, bound + 3, 2):
        if not s.contains(m):
            continue
        # the gaps from `above` on are absorption-closed, as a gap absorbs only larger ones
        above = (bound - m) // 2 + 1
        low = even | _double_mask(0, m, 0)  # the odd numbers below m
        for h in _upper_masks(gaps, m, principals, gaps >> above << above):
            yield m, h, low | (_spread(gaps & ~h) << m)


def doubles_bounded(
    s: NumericalSemigroup, bound: int
) -> list[tuple[DoubleLabel, NumericalSemigroup]]:
    """All (label, T) with T/2 == s and Frobenius(T) <= bound, sorted by T.

    The labelled view of :func:`_bounded_doubles`; each T is built
    once, through the closure test of its gap mask.
    """
    results = [(DoubleLabel(m, frozenset(_bits(h))), NumericalSemigroup._from_mask(t))
               for m, h, t in _bounded_doubles(s, bound)]
    results.sort(key=lambda pair: pair[1].min_generators)
    return results
