"""Computing with numerical semigroups and their arithmetic varieties.

Quotients, arithmetic extensions, smallest closed families, bounded
enumeration of doubles, depth-bounded tree generation, and an
exhaustive brute-force oracle cross-validating all of it.
"""

import importlib as _importlib

# Each public name and the module that defines it; a name's module is imported
# on first use (PEP 562), so ``import numsem`` alone loads no submodule.
_HOME = {
    "DEFAULT_LIMIT": "core", "Invariants": "core", "NATURALS": "core",
    "NumericalSemigroup": "core", "proportionally_modular": "core",
    "DoubleLabel": "doubles", "build_double": "doubles", "doubles_bounded": "doubles",
    "frobenius_of_double": "doubles", "is_upper_m_set": "doubles", "upper_m_sets": "doubles",
    "BadM": "errors", "BoundTooLarge": "errors", "GcdNotOne": "errors",
    "InvalidCertificate": "errors", "IsNaturals": "errors", "NonPositiveDivisor": "errors",
    "NotASemigroup": "errors", "NotGapSubset": "errors", "PredicateNotClosed": "errors",
    "SemigroupError": "errors", "TooLarge": "errors", "UnknownFormat": "errors",
    "ENUMERATION_CAP": "oracle", "EnumerationReport": "oracle",
    "all_semigroups_up_to": "oracle", "extension_oracle": "oracle",
    "ALL_SEMIGROUPS": "tree", "VarietyPredicate": "tree", "VarietyTree": "tree",
    "depth_predicate": "tree", "enumerate_tree": "tree", "export_tree": "tree",
    "ExtremalElements": "varieties", "VarietySet": "varieties",
    "arithmetic_extensions": "varieties", "extremal_elements": "varieties",
    "is_arithmetic_extension": "varieties", "monoid_hull": "varieties",
    "smallest_variety": "varieties",
}
__all__ = sorted(_HOME)
__version__ = "0.3.0"


def __getattr__(name: str) -> object:
    """Import the module that defines ``name`` and bind the name here."""
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(_importlib.import_module(f".{_HOME[name]}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
