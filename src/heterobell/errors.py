"""Exception types shared across the package."""


class HeterobellError(Exception):
    """Base class for every error this package raises on purpose."""


class ParseError(HeterobellError, ValueError):
    """Malformed rational, distribution, or config string."""


class PartsMismatch(HeterobellError, ValueError):
    """Multinomial parts do not sum to the declared total."""


class InsufficientSequence(HeterobellError, ValueError):
    """Argument sequence too short for the requested Bell polynomial."""


class MomentUnavailable(HeterobellError, LookupError):
    """A required raw moment cannot be produced by the distribution."""


class UnsupportedDistribution(HeterobellError, ValueError):
    """Operation needs a distribution with bounded support."""


class NonPositiveEvaluationPoint(HeterobellError, ValueError):
    """Series evaluation requires a strictly positive point."""


class SeriesNotCertified(HeterobellError, ArithmeticError):
    """A series value has no certified relative bound, or no float holds it."""


class UnknownIdentity(HeterobellError, ValueError):
    """Identity tag not present in the verification registry."""


class MissingDistribution(HeterobellError, ValueError):
    """Command needs a distribution argument but none was supplied."""

