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
    """Base class for domain errors raised by this package.

    ``code`` names the error class in the CLI's one-line JSON report.
    """

    code = "domain"


class DivergenceError(GwentropyError):
    """An integral required by a measure does not converge.

    Raised before any quadrature is attempted, from per-family
    integrability rules (heavy tails, infinite support where a finite
    support is required, and similar).
    """

    code = "divergence"


class DegenerateSampleError(GwentropyError):
    """A sample admits no finite estimate (for instance all values equal,
    which drives the estimator's log argument to zero)."""

    code = "degenerate-sample"


class MissingTableEntryError(GwentropyError):
    """A critical-value lookup failed and on-the-fly simulation was disabled."""

    code = "missing-table-entry"


class QuadratureError(GwentropyError):
    """A quadrature's integrand is not finite, or its quad fallback falls short of REL_TOL."""
