"""hypwalk: random walks on hyperbolic group actions.

Two concrete delta-hyperbolic testbeds (the free group F2 on its Cayley
tree and SL(2,Z) on the Farey graph) with a generic shadow-geometry layer,
a deterministic sampling engine for mu-random walks, and estimators for
exponential decay of translation length, linear progress, shadow measures,
and backtracking.
"""

from .errors import (
    ConfigError,
    ElementaryDistributionError,
    HypwalkError,
    PreconditionError,
    UnsatisfiableConfigError,
)
from .hypgeom import (
    QuasiGeodesicParams,
    Shadow,
    estimate_delta,
    gromov_product,
    in_shadow,
    quasigeodesic_check,
)
from .models import FareyElement, FareyModel, FreeGroupModel, FreeWord, Slope, get_model
from .stats import (
    DecayFit,
    DecayResult,
    DriftEstimate,
    TailEstimate,
    chernoff_bound,
    chernoff_empirical,
    drift,
    fit_exponential_decay,
    linear_progress_decay,
    shadow_measure_decay,
    translation_decay,
)
from .walk import (
    StepDistribution,
    WalkSample,
    iterated_decomposition,
    reflected,
    sample_walk,
)

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "DecayFit",
    "DecayResult",
    "DriftEstimate",
    "ElementaryDistributionError",
    "FareyElement",
    "FareyModel",
    "FreeGroupModel",
    "FreeWord",
    "HypwalkError",
    "PreconditionError",
    "QuasiGeodesicParams",
    "Shadow",
    "Slope",
    "StepDistribution",
    "TailEstimate",
    "UnsatisfiableConfigError",
    "WalkSample",
    "chernoff_bound",
    "chernoff_empirical",
    "drift",
    "estimate_delta",
    "fit_exponential_decay",
    "get_model",
    "gromov_product",
    "in_shadow",
    "iterated_decomposition",
    "linear_progress_decay",
    "quasigeodesic_check",
    "reflected",
    "sample_walk",
    "shadow_measure_decay",
    "translation_decay",
]
