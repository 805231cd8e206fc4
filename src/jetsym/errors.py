"""Exception taxonomy shared across the package.

Every user-facing error maps to exactly one CLI exit code; see
``jetsym.cli`` for the mapping.
"""

from __future__ import annotations


class JetsymError(Exception):
    """Base class for all package errors."""

    kind = "error"


class ParseError(JetsymError):
    """Malformed input text (equation or characteristic)."""

    kind = "syntax"

    def __init__(self, message, position=None, expected=None):
        super().__init__(message)
        self.position = position
        self.expected = tuple(expected) if expected else ()


class ScopeError(JetsymError):
    """Input is well formed but outside the supported problem class."""

    kind = "scope"


class NonSquareError(JetsymError):
    """Operation requires a square matrix."""

    kind = "internal"


class ZeroPolynomialError(JetsymError):
    """Root extraction from the zero polynomial is undefined."""

    kind = "internal"


class NotEigenvalueError(JetsymError):
    """Chain extraction requested for a value that is not an eigenvalue."""

    kind = "internal"


class MixedTypeError(JetsymError):
    """Expression mixes distinct exponential weights in a selected coordinate."""

    kind = "internal"


class EmptyAnsatzError(JetsymError):
    """Requested ansatz space has no generators."""

    kind = "scope"


class ClosureViolationError(JetsymError):
    """A shift derivative of a basis element leaves the basis span."""

    kind = "closure"

    def __init__(self, message, element=None, coord=None):
        super().__init__(message)
        self.element = element
        self.coord = coord


class UnresolvedSpectrumError(JetsymError):
    """Spectral data does not split over the rationals.

    Raised only when a y-criterion would answer "does not exist" while the
    exponential-weight scan left rational-root-free factors; the shift
    decomposition reads its spectrum off rational weights and never raises
    it.  Carries those polynomial factors so reports can surface them.
    """

    kind = "spectrum"

    def __init__(self, message, factors=()):
        super().__init__(message)
        self.factors = tuple(factors)


class InternalInconsistencyError(JetsymError):
    """A structural guarantee failed; indicates a bug, never user error."""

    kind = "internal"
