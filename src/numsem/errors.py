"""Exception types shared across the package.

Every domain failure derives from SemigroupError so callers (and the
CLI, which maps them to exit code 1) can catch one thing.
"""


class SemigroupError(Exception):
    """Base class for domain errors."""


class GcdNotOne(SemigroupError):
    """Generators with gcd > 1 span a monoid whose complement is infinite."""


class NotASemigroup(SemigroupError):
    """The complement of the proposed gap set is not closed under addition."""


class NonPositiveDivisor(SemigroupError):
    """Quotients are only defined for divisors >= 1."""


class TooLarge(SemigroupError):
    """A conductor, modulus or scan range would exceed its configured limit."""


class IsNaturals(SemigroupError):
    """The operation requires a proper semigroup, not the full set."""


class BadM(SemigroupError):
    """The modulus must be an odd member of the base semigroup."""


class NotGapSubset(SemigroupError):
    """The candidate upper set contains values that are not gaps."""


class InvalidCertificate(SemigroupError):
    """The (base, modulus, upper set) triple fails validation."""


class PredicateNotClosed(SemigroupError):
    """The predicate of a tree walk rejects the root."""


class BoundTooLarge(SemigroupError):
    """Brute-force enumeration was asked to exceed its hard cap."""


class UnknownFormat(SemigroupError):
    """Unsupported export format."""
