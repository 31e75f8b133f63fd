"""Independent brute-force helpers used to cross-check the library.

Everything here recomputes values by a route different from the
implementation under test: plain reachability instead of the sieve,
power-set filtering instead of closure-lattice walking, pairwise sums
instead of bit shifts, the generator sieve instead of the double's gap
mask, the product of extension sets instead of their intersection
closure, and the classical removal tree instead of the tree of doubles.
"""

import itertools
import math
from functools import reduce

from hypothesis import strategies as st

from numsem import NATURALS, NumericalSemigroup, arithmetic_extensions


def closure_members(gens, bound):
    """All generator sums up to ``bound`` by plain reachability."""
    reach = {0}
    stack = [0]
    while stack:
        x = stack.pop()
        for g in gens:
            y = x + g
            if y <= bound and y not in reach:
                reach.add(y)
                stack.append(y)
    return reach


def naive_gap_set(gens):
    """Gap set of the generated semigroup, growing the window until stable."""
    m = min(gens)
    bound = 4 * max(gens)
    while True:
        reach = closure_members(gens, bound)
        run = 0
        for x in range(bound + 1):
            run = run + 1 if x in reach else 0
            if run == m:
                conductor = x - m + 1
                return {i for i in range(1, conductor) if i not in reach}
        bound *= 2


def naive_upper_sets(s, m, include_empty=False):
    """Upper m-sets by filtering the full power set of the gaps."""
    gaps = s.gaps
    out = [frozenset()] if include_empty else []
    for r in range(1, len(gaps) + 1):
        for combo in itertools.combinations(gaps, r):
            h = set(combo)
            shifts_ok = all(s.contains(x + m) for x in h)
            sums_ok = all(s.contains(a + b + m) for a in h for b in h)
            absorbed = all(
                x in h for hh in h for x in gaps if s.contains(x - hh)
            )
            if shifts_ok and sums_ok and absorbed:
                out.append(frozenset(h))
    return sorted(out, key=lambda h: tuple(sorted(h)))


def naive_is_closed(gaps):
    """Is the complement of ``gaps`` (positive integers) closed under addition?"""
    top = max(gaps, default=0)
    members = [x for x in range(top + 1) if x not in gaps]
    return all(a + b not in gaps for a in members for b in members)


def naive_min_generators(s):
    """Nonzero members up to F + m that are no sum of two nonzero members."""
    top = max(s.frobenius + s.multiplicity, 1)  # 1 generates the full set
    members = [x for x in range(1, top + 1) if s.contains(x)]
    memberset = set(members)
    return tuple(
        x for x in members if not any(x - a in memberset for a in members if 2 * a <= x)
    )


def double_by_generators(s, m, upper_set):
    """The double encoded by (m, H), sieved from 2*msg(S), m and 2H + m."""
    gens = [2 * a for a in s.min_generators] + [m] + [2 * x + m for x in upper_set]
    return NumericalSemigroup.from_generators(gens)


def product_variety(family):
    """Smallest variety by folding every tuple of the extension sets' product."""
    extension_sets = [arithmetic_extensions(s).members for s in family]
    members = {NATURALS}
    for combo in itertools.product(*extension_sets):
        members.add(reduce(NumericalSemigroup.intersect, combo))
    return tuple(sorted(members))


def removal_tree(bound):
    """Gap masks of every semigroup with Frobenius number <= ``bound``.

    The classical tree (Rosales and Garcia-Sanchez, Numerical Semigroups,
    Springer 2009): the children of S are S minus x for the minimal
    generators x of S with F(S) < x <= bound.  Every semigroup but the
    full set is reached once, from itself with its Frobenius number put
    back.  A member x > F(S) is a minimal generator iff no two nonzero
    members sum to it.  Bit i of a mask is set iff i is a gap.
    """
    found = [0]
    for gaps in found:  # grows while it is walked
        for x in range(max(gaps.bit_length(), 1), bound + 1):
            if not any(
                not (gaps >> a) & 1 and not (gaps >> (x - a)) & 1
                for a in range(1, x // 2 + 1)
            ):
                found.append(gaps | 1 << x)
    return found


def random_semigroup(rng, max_gen=20, max_count=4):
    """Seeded random semigroup from a gcd-1 generator draw."""
    while True:
        gens = [rng.randint(2, max_gen) for _ in range(rng.randint(1, max_count))]
        if math.gcd(*gens) == 1:
            return NumericalSemigroup.from_generators(gens)


def semigroups(max_gen=20, max_count=4):
    """Hypothesis strategy drawing arbitrary small semigroups."""
    return (
        st.lists(st.integers(1, max_gen), min_size=1, max_size=max_count)
        .filter(lambda gs: math.gcd(*gs) == 1)
        .map(NumericalSemigroup.from_generators)
    )
