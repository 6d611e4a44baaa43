"""Weighted survival and failure entropies of order (alpha, beta).

Numerical measures for lifetime distributions (static, dynamic, and
order-statistic forms), structural identity and bound checks,
order-statistic estimators, and a Monte-Carlo test of exponentiality with
critical-value tables and power studies.  The package exports what each
module lists in its ``__all__``, the error classes included.
"""

from . import checks, distributions, empirical, entropy, errors, gof, verification
from .checks import *
from .distributions import *
from .empirical import *
from .entropy import *
from .errors import *
from .gof import *
from .verification import *

__version__ = "0.1.0"

_MODULES = (checks, distributions, empirical, entropy, errors, gof, verification)
__all__ = ["__version__", *(name for module in _MODULES for name in module.__all__)]
