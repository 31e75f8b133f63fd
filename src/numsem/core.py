"""Numerical semigroups as finite, immutable values.

A numerical semigroup is a subset of the nonnegative integers that
contains 0, is closed under addition and misses only finitely many
positive integers (its *gaps*).  An instance stores the gaps as one
``int`` gap mask (bit i is set iff i is a gap) and the minimal
generators that every construction finds in the one pass that checks
additive closure, over the Apery set of the multiplicity
(:func:`_apery_pass`).  Every other fact is derived on use: the
Frobenius number (largest gap, -1 when there is none) is
``mask.bit_length() - 1`` and the conductor one more, the genus is a bit
count, the multiplicity the first generator.  The operations are bit
operations on masks: membership is a bit test, intersection is OR,
inclusion a subset test and a quotient by d keeps every d-th bit.

Instances are immutable and hashable, so they can be shared freely
between threads or tasks; every operation is a pure function returning
a new instance.  The total order used for sorting is lexicographic on
the minimal generating system, which makes ``sorted(...)`` output
canonical and byte-deterministic everywhere.
"""

import math
import operator
from functools import total_ordering
from itertools import compress, count
from typing import Iterable, Sequence

from .errors import GcdNotOne, NonPositiveDivisor, NotASemigroup, TooLarge

#: Default ceiling for F + m (Frobenius number plus multiplicity) of a
#: semigroup built from generators, and for the range
#: ``proportionally_modular`` scans.
DEFAULT_LIMIT = 10**6


class _Record:
    """A frozen dataclass over ``_fields``, without the import time of ``dataclasses``."""

    __slots__ = ()

    def __init__(self, *args, **kwargs) -> None:
        names = self._fields
        if len(args) + len(kwargs) != len(names) or not kwargs.keys() <= set(names[len(args):]):
            raise TypeError(f"{type(self).__name__}() takes the fields {', '.join(names)}")
        for name, value in (*zip(names, args), *kwargs.items()):
            object.__setattr__(self, name, value)

    def __reduce__(self) -> tuple:
        return type(self), tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other: object) -> bool:
        same = other.__class__ is self.__class__
        return self.__reduce__() == other.__reduce__() if same else NotImplemented

    def __hash__(self) -> int:
        return hash(self.__reduce__()[1])

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"cannot set or delete {name!r}: {type(self).__name__} is immutable")

    __delattr__ = __setattr__


_DIGIT_VALUES = bytes.maketrans(b"01", b"\0\1")  # binary digits to the bytes 0 and 1


def _bits(x: int) -> list[int]:
    """Positions of the set bits of ``x >= 0``, ascending.

    Up to eight bits are peeled off one at a time, lowest first, which
    costs less than the fixed string work of selecting by the binary digits
    in C; past that, the digits are selected.
    """
    if x.bit_count() > 8:
        return list(compress(count(), bin(x)[:1:-1].encode().translate(_DIGIT_VALUES)))
    found = []
    while x:
        low = x & -x
        found.append(low.bit_length() - 1)
        x ^= low
    return found


def _every_nth_bits(x: int, divisors: Iterable[int]) -> list[int]:
    """For each d, the int whose bit k is bit k*d of ``x >= 0``.

    One binary string serves every d; its slice by d, from the first
    digit whose bit is a multiple of d, costs bit_length / d.
    """
    digits = bin(x)
    top = len(digits) - 3  # digits[2 + top - i] is bit i
    return [int(digits[2 + top % d::d], 2) for d in divisors]


def _positive_ints(values: Iterable[int], error: type[Exception], what: str) -> set[int]:
    """The distinct values by ``operator.index``, never truncated; ``error`` unless all positive."""
    values = iter(values)  # a non-iterable raises TypeError
    try:
        found = set(map(operator.index, values))
        if not found or min(found) >= 1:
            return found
    except TypeError:  # a value that is not an integer
        pass
    raise error(f"{what} must be positive integers")


def _mask_of(gaps: Iterable[int]) -> int:
    """Gap mask of an iterable of positive integers."""
    cleaned = _positive_ints(gaps, NotASemigroup, "gaps")
    if not cleaned:
        return 0
    top = max(cleaned)
    digits = bytearray(b"0") * (top + 1)
    for g in cleaned:
        digits[top - g] = 49  # ord("1"); digit top - g is bit g
    return int(digits, 2)


def _apery_pass(mask: int, frobenius: int) -> tuple[int, ...] | None:
    """The minimal generators, or None unless the complement of the gap mask is closed.

    With m the multiplicity, every member is w + k*m for w in the Apery
    set of m (members w with w - m not a member).  The generators are m
    and the nonzero Apery elements that are no sum a + b of two nonzero
    members; a and b are then Apery elements (else a + b - m would be a
    member), the smaller at most (F + m)/2.  So the member mask shifted
    by m and by those elements holds every such sum.  The shifts by m
    and by the Apery elements up to F/2 already catch any sum of members
    that is a gap, and every shifted bit is a sum, so one AND with the
    gaps decides closure.
    """
    one = mask | 1
    m = (~one & (one + 1)).bit_length() - 1  # the least positive integer that is not a gap
    positive = ~mask & ((1 << (frobenius + m + 1)) - 2)  # the nonzero members up to F + m
    apery = positive & ~((positive | 1) << m)  # the nonzero Apery elements, all above m
    sums = positive << m
    low = apery & ((1 << ((frobenius + m) // 2 + 1)) - 1)
    if low.bit_count() > 8:  # the Apery elements up to (F + m)/2, selected as _bits does
        for a in _bits(low):
            sums |= positive << a
    else:  # or peeled off, lowest first
        while low:
            a = low & -low
            sums |= positive << (a.bit_length() - 1)
            low ^= a
    return None if sums & mask else (m, *_bits(apery & ~sums))


#: The keys of a semigroup's ``to_json_dict``, in order, which ``_json_writer`` writes too.
_JSON_FIELDS = ("generators", "gaps", "frobenius", "genus", "multiplicity", "depth")


@total_ordering
class NumericalSemigroup:
    """A co-finite additive submonoid of the nonnegative integers."""

    __slots__ = ("_mask", "_msg")

    def __init__(self, gaps: Iterable[int] = ()) -> None:
        built = self._from_mask(_mask_of(gaps))
        self._mask, self._msg = built._mask, built._msg

    @classmethod
    def _from_mask(cls, mask: int) -> "NumericalSemigroup":
        """Build from a gap mask (bit i set iff i is a gap), validating closure: the one
        validation path of every construction, which caches the generators."""
        frobenius = mask.bit_length() - 1
        if mask & 1:
            raise NotASemigroup("gaps must be positive integers")
        msg = _apery_pass(mask, frobenius)
        if msg is None:
            raise NotASemigroup(
                f"the members of the gap set with Frobenius number {frobenius}"
                " are not closed under addition"
            )
        s = cls.__new__(cls)
        s._mask = mask
        s._msg = msg
        return s

    def __reduce__(self) -> tuple:
        # slots without __getstate__ pickle only from protocol 2; this also revalidates
        return NumericalSemigroup._from_mask, (self._mask,)

    # -- constructors -------------------------------------------------

    @classmethod
    def from_generators(
        cls, generators: Iterable[int], limit: int = DEFAULT_LIMIT
    ) -> "NumericalSemigroup":
        """Smallest numerical semigroup containing the given generators.

        The members up to a window top are one mask: each generator g
        is added by OR-ing in the mask shifted by g, 2g, 4g, ..., which
        reaches every multiple of g within the window.  Once the largest
        gap plus the multiplicity fits in the window, multiplicity-many
        consecutive members follow it and the gap set is exact;
        otherwise the window doubles.  Construction is rejected with
        :class:`TooLarge` when the window at ``limit`` is not enough,
        that is when F + m > ``limit``.
        """
        gens = sorted(_positive_ints(generators, ValueError, "generators"))
        if not gens:
            raise ValueError("at least one generator is required")
        if math.gcd(*gens) != 1:
            raise GcdNotOne(
                f"gcd of {gens} is {math.gcd(*gens)}; the complement would be infinite"
            )
        top = max(min(2 * gens[-1], limit), 0)
        while True:
            window = (1 << (top + 1)) - 1
            members = 1
            for g in gens:
                if not (members >> g) & 1:
                    shift = g
                    while shift <= top:
                        members |= (members << shift) & window
                        shift *= 2
            gaps = ~members & window
            if gaps.bit_length() - 1 + gens[0] <= top:
                return cls._from_mask(gaps)
            if top >= limit:
                raise TooLarge(f"conductor of {gens} exceeds the limit {limit}")
            top = min(2 * top, limit)

    # -- membership and invariants ------------------------------------

    def contains(self, x: int) -> bool:
        """True iff x is a member; negatives are never members."""
        return x >= 0 and not (self._mask >> x) & 1

    __contains__ = contains

    @property
    def gaps(self) -> tuple[int, ...]:
        return tuple(_bits(self._mask))

    @property
    def gap_mask(self) -> int:
        """The gaps as one ``int``: bit i is set iff i is a gap."""
        return self._mask

    @property
    def frobenius(self) -> int:
        return self._mask.bit_length() - 1

    @property
    def conductor(self) -> int:
        """First point after which every integer is a member."""
        return self._mask.bit_length()

    @property
    def genus(self) -> int:
        return self._mask.bit_count()

    @property
    def multiplicity(self) -> int:
        """Smallest nonzero member (1 for the full set)."""
        return self._msg[0]

    @property
    def min_generators(self) -> tuple[int, ...]:
        """The unique minimal generating system, found at construction (see :func:`_apery_pass`)."""
        return self._msg

    @property
    def embedding_dimension(self) -> int:
        return len(self.min_generators)

    @property
    def small_elements(self) -> tuple[int, ...]:
        """Members up to and including the conductor."""
        return tuple(_bits(~self._mask & ((1 << (self.conductor + 1)) - 1)))

    def depth(self) -> int:
        """ceil((frobenius + 1) / multiplicity); 0 exactly for the full set."""
        return -(-self._mask.bit_length() // self._msg[0])

    # -- binary operations --------------------------------------------

    def quotient(self, d: int) -> "NumericalSemigroup":
        """All x whose d-fold multiple is a member; equals the full set iff d is."""
        if d < 1:
            raise NonPositiveDivisor(f"divisor must be >= 1, got {d}")
        return NumericalSemigroup._from_mask(_every_nth_bits(self._mask, (d,))[0])

    def intersect(self, other: "NumericalSemigroup") -> "NumericalSemigroup":
        """Set intersection; the gap set is the union of both gap sets."""
        return NumericalSemigroup._from_mask(self._mask | other._mask)

    __and__ = intersect

    def fundamental_gaps(self) -> tuple[int, ...]:
        """Gaps x whose every proper multiple 2x, 3x, ... is a member.

        Checking 2x and 3x suffices: every k >= 2 is 2i + 3j with
        i, j >= 0, so kx is a sum of members.  The x with 2x a gap are
        the gaps of the quotient by 2, and likewise for 3.
        """
        mask = self._mask
        half, third = _every_nth_bits(mask, (2, 3))
        return tuple(_bits(mask & ~half & ~third))

    def is_subset_of(self, other: "NumericalSemigroup") -> bool:
        """Inclusion as sets (note: unrelated to the sorting order)."""
        return not other._mask & ~self._mask

    # -- identity, ordering, rendering --------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, NumericalSemigroup):
            return NotImplemented
        return self._mask == other._mask

    def __hash__(self) -> int:
        return hash(self._mask)

    def __lt__(self, other: object) -> bool:
        # canonical order: lexicographic on the minimal generating system
        if not isinstance(other, NumericalSemigroup):
            return NotImplemented
        return self.min_generators < other.min_generators

    def __str__(self) -> str:
        return "<" + ",".join(map(str, self.min_generators)) + ">"

    def __repr__(self) -> str:
        return f"NumericalSemigroup(gaps={list(self.gaps)})"

    def to_json_dict(self) -> dict:
        return dict(zip(_JSON_FIELDS, (list(self.min_generators), list(self.gaps), self.frobenius,
                                       self.genus, self.multiplicity, self.depth())))


def _number_table(semigroups: Sequence[NumericalSemigroup]) -> list[str]:
    """``str(i)`` for each i up to the largest F + m of ``semigroups``, so for each of their
    gaps and generators.  F + m is below the largest mask's bit length plus the largest
    multiplicity, the first of the largest generator tuple: a pass in C each, no Python step."""
    top = max(map(operator.attrgetter("_mask"), semigroups)).bit_length()
    return list(map(str, range(top + max(map(operator.attrgetter("_msg"), semigroups))[0] + 1)))


#: The full set of nonnegative integers.
NATURALS = NumericalSemigroup()


def proportionally_modular(a: int, b: int, c: int) -> NumericalSemigroup:
    """The semigroup {x : (a*x mod b) <= c*x}.

    Every x >= ceil((b-1)/c) satisfies the inequality outright, so the
    gap set is found by direct evaluation below that point.
    """
    if min(a, b, c) < 1:
        raise ValueError("all three parameters must be >= 1")
    bound = -(-(b - 1) // c)
    if bound > DEFAULT_LIMIT:
        raise TooLarge(f"the gaps of pm({a}, {b}, {c}) may reach {bound - 1}, "
                       f"above the limit {DEFAULT_LIMIT}")
    return NumericalSemigroup(x for x in range(1, bound) if (a * x) % b > c * x)
