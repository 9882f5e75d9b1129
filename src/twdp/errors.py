"""Exception types shared across the package."""

from __future__ import annotations


class TwdpError(Exception):
    """Base class for all errors raised by this package."""


class InvalidParameterError(TwdpError, ValueError):
    """An argument violates a documented domain constraint."""


class SeriesDivergenceError(TwdpError, ArithmeticError):
    """A series failed to meet its stopping rule within its term budget.

    Attributes:
        terms_used: number of terms summed before giving up.
    """

    def __init__(self, message: str, terms_used: int):
        super().__init__(message)
        self.terms_used = terms_used


class CancellationLossError(TwdpError, ArithmeticError):
    """An alternating sum cancelled too heavily for the available precision.

    Attributes:
        cancellation_ratio: sum of |terms| divided by |result|.
    """

    def __init__(self, message: str, cancellation_ratio: float):
        super().__init__(message)
        self.cancellation_ratio = cancellation_ratio


class QuadratureError(TwdpError, ArithmeticError):
    """Adaptive quadrature could not reach the requested tolerance.

    Attributes:
        achieved: error estimate actually reached.
    """

    def __init__(self, message: str, achieved: float):
        super().__init__(message)
        self.achieved = achieved


class RangeOverflowError(TwdpError, OverflowError):
    """The exact result exceeds the representable floating-point range."""
