"""The public surface of numsem: one spelling per operation."""

import types

import numsem
from numsem import NumericalSemigroup, VarietySet

PUBLIC = {
    # values and constants
    "DEFAULT_LIMIT", "ENUMERATION_CAP", "NATURALS", "ALL_SEMIGROUPS",
    # records
    "NumericalSemigroup", "Invariants", "DoubleLabel", "EnumerationReport",
    "ExtremalElements", "VarietyPredicate", "VarietySet", "VarietyTree",
    # errors
    "SemigroupError", "BadM", "BoundTooLarge", "GcdNotOne", "InvalidCertificate",
    "IsNaturals", "NonPositiveDivisor", "NotASemigroup", "NotGapSubset",
    "PredicateNotClosed", "TooLarge", "UnknownFormat",
    # functions
    "proportionally_modular", "build_double", "doubles_bounded", "frobenius_of_double",
    "is_upper_m_set", "upper_m_sets", "all_semigroups_up_to", "extension_oracle",
    "depth_predicate", "enumerate_tree", "export_tree", "arithmetic_extensions",
    "extremal_elements", "is_arithmetic_extension", "monoid_hull", "smallest_variety",
}


def public_names(module):
    """Names a module binds that are not private and not submodules."""
    return {name for name, value in vars(module).items()
            if not name.startswith("_") and not isinstance(value, types.ModuleType)}


def test_public_names_are_pinned():
    assert public_names(numsem) == PUBLIC


def test_second_spellings_are_gone():
    for name in ("halve", "children", "doubles_oracle"):
        assert not hasattr(numsem, name), name
    for cls in (NumericalSemigroup, VarietySet):
        for name in ("from_gaps", "naturals", "halve",
                     "is_intersection_closed", "is_quotient_closed"):
            assert not hasattr(cls, name), (cls.__name__, name)
    assert not hasattr(numsem.VarietyTree, "to_dot")  # export_tree(tree, "dot")
    assert not hasattr(numsem.VarietyTree, "to_json_dict")  # export_tree(tree, "json")


def test_version():
    assert numsem.__version__ == "0.3.0"
