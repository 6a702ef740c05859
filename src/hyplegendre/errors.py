"""Exception hierarchy shared by all modules."""


class Error(Exception):
    """Base class for every error raised by this library."""


class DomainError(Error):
    """Input lies outside the supported domain of an operation."""


class PoleError(Error):
    """A gamma-function pole (non-positive integer argument) was hit."""


class NoConvergence(Error):
    """A series did not meet its tolerance within its term budget, or left
    the float range."""


class DegenerateCase(Error):
    """A transformation or connection formula is degenerate for these inputs."""


class DegenerateC(DegenerateCase):
    """A solution branch has a degenerate lower parameter (or coincides
    with its sibling branch) and cannot be constructed."""


class ComplexExponent(Error):
    """An exponent that must be real has a negative discriminant."""


class RootMismatch(Error):
    """A value passed as an indicial root does not satisfy its quadratic."""


class InvalidParams(Error):
    """A parameter pack violates its structural invariants."""


class ParseError(Error):
    """An input file could not be parsed into a parameter pack."""
