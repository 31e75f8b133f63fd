"""Doubling machinery: the semigroups T whose half-quotient is a given S.

Every such T is encoded by a pair (m, H) where m is an odd member of S
and H is a set of gaps of S, via

    T = {2s : s in S} ∪ {2s + m : s in S} ∪ {2h + m : h in H}.

T is a numerical semigroup exactly when H is an "upper m-set": the
even + odd sums give the absorption condition, and the odd + odd sums
give h + m and h1 + h2 + m in S.  So every label is decided by one
test, the closure test of T's gap mask (:func:`numsem.core._apery_pass`),
which also yields T's generators.
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

import operator
from typing import Iterable, Iterator

from .core import DEFAULT_LIMIT, NumericalSemigroup, _apery_pass, _bits, _mask_of, _Record
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


def _label_mask(s: NumericalSemigroup, m: int, h: frozenset[int]) -> int:
    """Gap mask of the double labelled (m, h), once m and h pass the input checks.

    An element is a gap when it is an index (1.0 == 1 is not) whose bit is
    set in the gap mask.  The indices below the mask's top bit make one mask,
    so one AND finds those that are members.
    """
    _check_modulus(s, m)
    gaps, top = s.gap_mask, s.conductor
    index = {x: i for x in h if hasattr(x, "__index__") and 0 < (i := operator.index(x)) < top}
    labels = _mask_of(index.values())
    if labels & ~gaps or len(index) < len(h):
        members = set(_bits(labels & ~gaps))
        listed = sorted((x for x in h if x not in index or index[x] in members),
                        key=lambda x: (0, x) if isinstance(x, int) else (1, repr(x)))
        raise NotGapSubset(f"{listed} are not gaps of {s}")
    return _double_mask(gaps, m, labels)


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
    return _apery_pass(t, t.bit_length() - 1) is not None


def _principal_closures(gaps: int) -> list[tuple[int, int, int]]:
    """(closure, partner mask, spread: bit i moved to 2i) of the absorption closure of each gap.

    The closure of a gap h is the set of gaps g with g - h a member:
    absorption is transitive (g' - g and g - h members make g' - h
    one), so one shift of the member mask finds it.  The *partner mask*
    of a set of gaps is the OR of ``gaps >> a`` over its elements a: bit
    b is set iff a + b is a gap for some a.  For the closure of h it is
    ``gaps >> h``, as h + s + b a gap with s a member makes h + b one.
    """
    members = ~gaps & ((1 << gaps.bit_length()) - 1)
    return [(c, gaps >> h, _spread(c)) for h in _bits(gaps) for c in [gaps & (members << h)]]


def _upper_masks(
    gaps: int, m: int, principals: list[tuple[int, int, int]], base: int = 0, spread: int = 0
) -> dict[int, tuple[int, int]]:
    """Every upper m-set of the gap mask that contains ``base``, with its partner mask and spread.

    The values are each set's partner mask shifted right by m (see
    :func:`_principal_closures`) and its spread.  ``base``, of spread
    ``spread``, must be absorption-closed with a + m > F for each element
    a, so its shifted partner mask is 0.  The walk goes up the lattice
    of absorption-closed sets from ``base``: each valid set is ``base``
    united with closures of single gaps.  A set meets both sum
    conditions iff it misses its own shifted partner mask (bit 0 is
    h + m, and 0 is never a gap), and a violation persists in every
    superset.  So the union of a valid set u and a valid closure p is
    valid iff the new elements p - u miss u's partner mask, one AND, and
    its partner mask is the OR of the two.
    """
    valid = []
    for c, fc, sc in principals:
        fc >>= m
        if c & ~base and not fc & (c | 1):  # a closure inside base adds nothing
            valid.append((c, fc, sc))
    found = {base: (0, spread)}
    queue = [base]
    while queue:
        u = queue.pop()
        fu, su = found[u]
        for p, fp, sp in valid:
            new = p & ~u
            if new and not new & fu:
                w = u | p
                if w not in found:
                    found[w] = fu | fp, su | sp
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
    del found[0]
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
    outside = s.gap_mask & ~_mask_of(h)  # 0 gives 2 * -1 + m, the largest odd gap m - 2
    return max(2 * s.frobenius, 2 * (outside.bit_length() - 1) + m)


def _bounded_doubles(gaps: int, bound: int) -> Iterator[tuple[int, int, int]]:
    """(m, h, gap mask of T) for every T with T/2 == S and F(T) <= bound, S given by ``gaps``.

    F(T) is at least 2*F(S), so there are none once that exceeds the
    bound.  Otherwise one loop runs over the odd members
    3 <= m <= bound+2 (m = 1 is a member only of the full set, and
    gives it back).  F(T) <= bound iff 2x + m <= bound for every gap x
    outside H, so H holds every gap from ``above`` = (bound - m)//2 + 1
    on, and the upper m-sets are walked up from those gaps; each such
    gap a has a + m > bound/2 >= F(S), as :func:`_upper_masks` asks.
    From m = bound-1 on that is the whole gap set, an upper m-set
    exactly when m > F(S); over the full set it gives the <2, m>
    family.  T's odd gaps above m are 2x + m for the gaps x outside H:
    the spread of ``gaps`` less that of H.  The masks are not built
    into semigroups here; the input checks run on the first step.
    """
    if bound < 1:
        raise ValueError(f"bound must be >= 1, got {bound}")
    if 2 * (gaps.bit_length() - 1) > bound:
        return
    if bound + 2 > DEFAULT_LIMIT:  # the moduli reach bound + 2, as in _check_modulus
        raise TooLarge(
            f"bound {bound} takes moduli up to {bound + 2}, above the limit {DEFAULT_LIMIT}"
        )
    principals = _principal_closures(gaps)
    even = _spread(gaps)
    for m in range(3, bound + 3, 2):
        if (gaps >> m) & 1:
            continue
        # the gaps from `above` on are absorption-closed, as a gap absorbs only larger ones
        above = (bound - m) // 2 + 1
        low = even | ((1 << (m - 1)) - 1) // 3 << 1  # the even gaps and the odd numbers below m
        found = _upper_masks(gaps, m, principals, gaps >> above << above,
                             even >> 2 * above << 2 * above)
        for h, (_, spread) in found.items():
            yield m, h, low | ((even ^ spread) << m)


def doubles_bounded(
    s: NumericalSemigroup, bound: int
) -> list[tuple[DoubleLabel, NumericalSemigroup]]:
    """All (label, T) with T/2 == s and Frobenius(T) <= bound, sorted by T.

    The labelled view of :func:`_bounded_doubles`; each T is built
    once, through the one pass that tests its closure and finds the
    generators it is sorted by.
    """
    results = [(DoubleLabel(m, frozenset(_bits(h))), NumericalSemigroup._from_mask(t))
               for m, h, t in _bounded_doubles(s.gap_mask, bound)]
    results.sort(key=lambda pair: pair[1].min_generators)
    return results
