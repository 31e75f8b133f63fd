"""Computing with numerical semigroups and their arithmetic varieties.

Quotients, arithmetic extensions, smallest closed families, bounded
enumeration of doubles, depth-bounded tree generation, and an
exhaustive brute-force oracle cross-validating all of it.

API changes in 0.2.0, one spelling per operation: ``from_gaps(g)`` is
``NumericalSemigroup(g)``, ``naturals()`` is ``NATURALS``, ``halve(s)`` and
``s.halve()`` are ``s.quotient(2)``, ``children(s, b, p)`` is
``enumerate_tree(b, p).children_of(s)``; ``doubles_oracle`` and
``VarietySet.is_intersection_closed``/``is_quotient_closed`` are gone.

API changes in 0.3.0: a ``VarietyTree`` keeps ``children`` as positions in ``nodes``;
``tree.to_json_dict()`` is ``export_tree(tree, "json")``; an ``EnumerationReport``
holds ``(bound, semigroups)`` and derives ``counts_by_frobenius``.
"""

from .core import (
    DEFAULT_LIMIT,
    Invariants,
    NATURALS,
    NumericalSemigroup,
    proportionally_modular,
)
from .doubles import (
    DoubleLabel,
    build_double,
    doubles_bounded,
    frobenius_of_double,
    is_upper_m_set,
    upper_m_sets,
)
from .errors import (
    BadM,
    BoundTooLarge,
    GcdNotOne,
    InvalidCertificate,
    IsNaturals,
    NonPositiveDivisor,
    NotASemigroup,
    NotGapSubset,
    PredicateNotClosed,
    SemigroupError,
    TooLarge,
    UnknownFormat,
)
from .oracle import (
    ENUMERATION_CAP,
    EnumerationReport,
    all_semigroups_up_to,
    extension_oracle,
)
from .tree import (
    ALL_SEMIGROUPS,
    VarietyPredicate,
    VarietyTree,
    depth_predicate,
    enumerate_tree,
    export_tree,
)
from .varieties import (
    ExtremalElements,
    VarietySet,
    arithmetic_extensions,
    extremal_elements,
    is_arithmetic_extension,
    monoid_hull,
    smallest_variety,
)

__version__ = "0.3.0"
