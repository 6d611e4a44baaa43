"""Weighted survival and failure entropies of order (alpha, beta).

Numerical measures for lifetime distributions (static, dynamic, and
order-statistic forms), structural identity and bound checks,
order-statistic estimators, and a Monte-Carlo test of exponentiality with
critical-value tables and power studies.
"""

from .checks import (
    AffineCheck,
    BoundReport,
    BoundResult,
    Monotonicity,
    ProportionalModelCheck,
    affine_identity_check,
    bound_check,
    classify_gdwse_monotonicity,
    gdwse_derivative,
    hazard_from_gdwse,
    proportional_model_check,
    reverse_hazard_from_gdwfe,
)
from .distributions import (
    Affine,
    Distribution,
    Exponential,
    Gamma,
    Pareto,
    Power,
    ProportionalHazards,
    ProportionalReverseHazards,
    Rayleigh,
    SeededSampler,
    Uniform,
    Weibull,
    from_spec,
)
from .empirical import (
    EstimatorVariant,
    Sample,
    empirical_gwfe,
    empirical_gwse,
    sample,
)
from .entropy import (
    EntropyKind,
    EntropyOrder,
    EntropyValue,
    gdwfe,
    gdwse,
    gfe,
    gse,
    gwfe,
    gwse,
    gwse_first_order_stat,
    gdwfe_max_order_stat,
)
from .errors import (
    DegenerateSampleError,
    DivergenceError,
    GwentropyError,
    MissingTableEntryError,
    QuadratureError,
)
from .gof import (
    CriticalTable,
    PowerResult,
    TestConfig,
    TestOutcome,
    TestStatistic,
    critical_values,
    power_study,
    run_test,
    statistic,
)
from .verification import CellResult, run_closed_form_suite

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # distributions
    "Distribution",
    "Exponential",
    "Pareto",
    "Uniform",
    "Power",
    "Rayleigh",
    "Weibull",
    "Gamma",
    "Affine",
    "ProportionalHazards",
    "ProportionalReverseHazards",
    "SeededSampler",
    "from_spec",
    # entropy measures
    "EntropyOrder",
    "EntropyKind",
    "EntropyValue",
    "gwse",
    "gwfe",
    "gse",
    "gfe",
    "gdwse",
    "gdwfe",
    "gwse_first_order_stat",
    "gdwfe_max_order_stat",
    # checks
    "hazard_from_gdwse",
    "reverse_hazard_from_gdwfe",
    "gdwse_derivative",
    "Monotonicity",
    "classify_gdwse_monotonicity",
    "AffineCheck",
    "affine_identity_check",
    "ProportionalModelCheck",
    "proportional_model_check",
    "BoundResult",
    "BoundReport",
    "bound_check",
    # empirical
    "Sample",
    "EstimatorVariant",
    "sample",
    "empirical_gwse",
    "empirical_gwfe",
    # gof
    "TestConfig",
    "TestStatistic",
    "TestOutcome",
    "CriticalTable",
    "PowerResult",
    "statistic",
    "critical_values",
    "run_test",
    "power_study",
    # verification
    "CellResult",
    "run_closed_form_suite",
]
