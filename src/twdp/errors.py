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


class QuadratureError(TwdpError, ArithmeticError):
    """Adaptive quadrature could not reach the requested tolerance.

    Attributes:
        achieved: error estimate actually reached.
    """

    def __init__(self, message: str, achieved: float):
        super().__init__(message)
        self.achieved = achieved
