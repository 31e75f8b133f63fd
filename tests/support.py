"""Independent brute-force helpers used to cross-check the library.

Everything here recomputes values by a route different from the
implementation under test: plain reachability instead of shifted
member masks, power-set filtering instead of closure-lattice walking,
pairwise sums instead of bit shifts, the generators instead of the
double's gap mask, the product of extension sets instead of their intersection
closure, the classical removal tree instead of the tree of doubles, the
exhaustive list instead of the doubles walk, inclusion scans of the
whole extension family instead of its closed-form extremes, and the
tree's JSON object for ``json.dumps``, indexed from its edges, instead of
the hand-written JSON of its child positions, subsets of the gaps with
the minimal generators of each instead of gap submasks and quotient masks,
and a double's minimal generators in closed form from its parent's and
its label instead of the Apery pass over its own gap mask.
"""

import itertools
import math
from functools import reduce

from hypothesis import strategies as st

from numsem import (
    NATURALS,
    NotASemigroup,
    NumericalSemigroup,
    VarietySet,
    all_semigroups_up_to,
    arithmetic_extensions,
    doubles_bounded,
)


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


def naive_is_upper_set(s, m, h):
    """The three conditions of an upper m-set, checked element by element."""
    gaps = s.gaps
    shifts_ok = all(s.contains(x + m) for x in h)
    sums_ok = all(s.contains(a + b + m) for a in h for b in h)
    absorbed = all(x in h for hh in h for x in gaps if s.contains(x - hh))
    return shifts_ok and sums_ok and absorbed


def naive_upper_sets(s, m, include_empty=False):
    """Upper m-sets by filtering the full power set of the gaps."""
    gaps = s.gaps
    subsets = (
        frozenset(combo)
        for r in range(0 if include_empty else 1, len(gaps) + 1)
        for combo in itertools.combinations(gaps, r)
    )
    found = [h for h in subsets if naive_is_upper_set(s, m, h)]
    return sorted(found, key=lambda h: tuple(sorted(h)))


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
    """The double encoded by (m, H), generated by 2*msg(S), m and 2H + m."""
    gens = [2 * a for a in s.min_generators] + [m] + [2 * x + m for x in upper_set]
    return NumericalSemigroup.from_generators(gens)


def double_label(t):
    """(S, m, H) of the double t != N over S = t/2: m is its least odd member, H the gaps x of S with 2x + m in t."""
    s = t.quotient(2)
    m = next(x for x in itertools.count(1, 2) if t.contains(x))
    return s, m, {x for x in s.gaps if t.contains(2 * x + m)}


def double_generators(s, m, h):
    """Minimal generators of the double (m, H) over s, in closed form from msg(s) and H.

    The double is 2S ∪ (2S + m) ∪ (2H + m).  An odd member 2y + m is
    irreducible iff y is 0 or an element of H that is no other one plus
    a nonzero member; an even member 2g is irreducible iff g is a minimal
    generator of S other than m and g - m is not in H ∪ (H + H).
    """
    sums = set(h) | {a + b for a in h for b in h}
    evens = {2 * g for g in s.min_generators if g != m and g - m not in sums}
    odds = {2 * x + m for x in h if not any(x != y and s.contains(x - y) for y in h)}
    return tuple(sorted({m} | evens | odds))


def closed_form_mismatches(tree):
    """The nodes of the tree but its root whose generators differ from the closed form."""
    return [t for t in tree.nodes[1:] if double_generators(*double_label(t)) != t.min_generators]


def filtered_children(s, bound, predicate):
    """Bounded doubles of ``s`` that the predicate accepts, built and then filtered."""
    return [t for _, t in doubles_bounded(s, bound) if predicate.accepts(t)]


def tree_json_dict(tree):
    """The object ``export_tree(tree, "json")`` encodes: nodes, and edges as index pairs."""
    index = {s: i for i, s in enumerate(tree.nodes)}
    return {
        "nodes": [s.to_json_dict() for s in tree.nodes],
        "edges": [[index[p], index[c]] for p, c in tree.edges],
    }


def extension_oracle_by_combinations(s):
    """Extension family of ``s`` over the subsets of its gaps that are semigroups.

    T is kept when the quotients s/d with d*T inside s, tested on the
    minimal generators of T, meet to T.
    """
    out = []
    for r in range(len(s.gaps) + 1):
        for combo in itertools.combinations(s.gaps, r):
            try:
                t = NumericalSemigroup(combo)
            except NotASemigroup:
                continue
            meet = NATURALS
            for d in range(1, max(s.frobenius, 0) + 2):
                if all(s.contains(d * g) for g in t.min_generators):
                    meet = meet.intersect(s.quotient(d))
            if meet == t:
                out.append(t)
    return VarietySet.of(out)


def brute_force_doubles(s, bound):
    """The semigroups other than ``s`` under the bound whose half is ``s``, by a full scan."""
    return [t for t in all_semigroups_up_to(bound).semigroups if t.quotient(2) == s and t != s]


def is_intersection_closed(family):
    """Every pairwise intersection of members is a member."""
    pool = set(family)
    return all(a.intersect(b) in pool for a, b in itertools.combinations_with_replacement(pool, 2))


def is_quotient_closed(family, max_divisor):
    """Every quotient of a member by 1..max_divisor is a member."""
    pool = set(family)
    return all(s.quotient(d) in pool for s in pool for d in range(1, max_divisor + 1))


def max_by_inclusion(items):
    """The member that contains every member, by pairwise inclusion tests."""
    (top,) = [t for t in items if all(u.is_subset_of(t) for u in items)]
    return top


def min_by_inclusion(items):
    """The member that every member contains, by pairwise inclusion tests."""
    (bottom,) = [t for t in items if all(t.is_subset_of(u) for u in items)]
    return bottom


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
