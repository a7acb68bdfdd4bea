"""Exception types shared across the package."""

from __future__ import annotations


class QcalcError(Exception):
    """Base class for all package errors."""


class ParseError(QcalcError):
    """Malformed .alg input. Carries 1-based line/column of the offending token."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.message = message
        self.line = line
        self.col = col


class IndeterminateMismatch(QcalcError):
    """Arithmetic tried to mix two distinct indeterminates."""


class ZeroPolynomial(QcalcError):
    """Root extraction on the zero polynomial (every value is a root)."""


class NotALieAlgebra(QcalcError):
    """Structure equations whose differential does not square to zero."""


class NotQuaternionic(QcalcError):
    """The frame data does not define a quaternionic contact structure."""


class InconsistentCurvature(QcalcError):
    """The three scalar-curvature contraction equations disagree."""


class InconsistentTorsion(QcalcError):
    """The reconstructed horizontal torsion tensor fails its own audits."""


class NotIntegrable(QcalcError):
    """The compatibility conditions for the canonical connection fail."""


class InvalidFlag(QcalcError):
    """A covector flag that is not an ascending chain of the right dimensions."""


class ParametricNotSupported(QcalcError):
    """A pipeline stage was asked to run with an unresolved parameter."""


class InternalError(QcalcError):
    """An invariant the code relies on was violated; indicates a bug."""
