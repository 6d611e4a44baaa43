"""Exception types shared across the package."""

from __future__ import annotations

__all__ = [
    "GwentropyError",
    "DivergenceError",
    "DegenerateSampleError",
    "MissingTableEntryError",
    "QuadratureError",
]


class GwentropyError(ValueError):
    """Base class for domain errors raised by this package."""


class DivergenceError(GwentropyError):
    """An integral required by a measure does not converge.

    Raised before any quadrature is attempted, from per-family
    integrability rules (heavy tails, infinite support where a finite
    support is required, and similar).
    """


class DegenerateSampleError(GwentropyError):
    """A sample admits no finite estimate (for instance all values equal,
    which drives the estimator's log argument to zero)."""


class MissingTableEntryError(GwentropyError):
    """A critical-value lookup failed and on-the-fly simulation was disabled."""


class QuadratureError(GwentropyError):
    """A quadrature's integrand returned a value that is not finite."""
