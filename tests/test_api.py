"""The public surface of numsem: one spelling per operation."""

import importlib
import types

import pytest

import numsem
from numsem import NumericalSemigroup, VarietySet

PUBLIC = {
    # values and constants
    "DEFAULT_LIMIT", "ENUMERATION_CAP", "NATURALS", "ALL_SEMIGROUPS",
    # records
    "NumericalSemigroup", "DoubleLabel", "EnumerationReport",
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

HOMES = {  # the module that defines each public name
    "core": "DEFAULT_LIMIT NATURALS NumericalSemigroup proportionally_modular",
    "doubles": "DoubleLabel build_double doubles_bounded frobenius_of_double is_upper_m_set upper_m_sets",
    "errors": "SemigroupError BadM BoundTooLarge GcdNotOne InvalidCertificate IsNaturals "
              "NonPositiveDivisor NotASemigroup NotGapSubset PredicateNotClosed TooLarge UnknownFormat",
    "oracle": "ENUMERATION_CAP EnumerationReport all_semigroups_up_to extension_oracle",
    "tree": "ALL_SEMIGROUPS VarietyPredicate VarietyTree depth_predicate enumerate_tree export_tree",
    "varieties": "ExtremalElements VarietySet arithmetic_extensions extremal_elements "
                 "is_arithmetic_extension monoid_hull smallest_variety",
}


def public_names(module):
    """Names a package lists that are not private and not its submodules; each must resolve."""
    def submodule(name, value):
        return isinstance(value, types.ModuleType) and value.__name__ == f"{module.__name__}.{name}"

    return {name for name in dir(module)
            if not name.startswith("_") and not submodule(name, getattr(module, name))}


def test_public_names_are_pinned():
    assert public_names(numsem) == PUBLIC
    assert set(numsem.__all__) == PUBLIC
    assert len(numsem.__all__) == len(PUBLIC)


def test_each_public_name_is_its_home_modules_object():
    named = [name for names in HOMES.values() for name in names.split()]
    assert sorted(named) == sorted(PUBLIC)
    for home, names in HOMES.items():
        module = importlib.import_module(f"numsem.{home}")
        for name in names.split():
            value = getattr(numsem, name)
            assert value is getattr(module, name), name
            assert getattr(value, "__module__", module.__name__) == module.__name__, name


def test_star_import_binds_exactly_the_public_names():
    namespace = {}
    exec("from numsem import *", namespace)
    assert set(namespace) - {"__builtins__"} == PUBLIC


@pytest.mark.parametrize("name", ["halve", "nope"])
def test_unknown_names_raise_attribute_error(name):
    with pytest.raises(AttributeError, match=name):
        getattr(numsem, name)


def test_second_spellings_are_gone():
    for name in ("halve", "children", "doubles_oracle", "Invariants"):
        assert not hasattr(numsem, name), name
    for cls in (NumericalSemigroup, VarietySet):
        for name in ("from_gaps", "naturals", "halve",
                     "is_intersection_closed", "is_quotient_closed", "gap_set", "invariants"):
            assert not hasattr(cls, name), (cls.__name__, name)
    assert not hasattr(numsem.VarietyTree, "to_dot")  # export_tree(tree, "dot")
    assert not hasattr(numsem.VarietyTree, "to_json_dict")  # export_tree(tree, "json")


def test_version():
    assert numsem.__version__ == "0.4.0"
