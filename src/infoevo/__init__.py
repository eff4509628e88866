"""Info-Evo: geodesic guidance over promise landscapes for evolutionary search."""

from .core import (
    DistanceMetric,
    EvaluationLedger,
    PopulationView,
    ScoredSample,
    best_score,
    evaluate,
    knn,
    view_of,
)
from .evolve import EvolutionConfig, RunConfig, info_evo_loop
from .geodesic_search import StepParams
from .guidance import FilterPolicy, ModifiedPromise
from .manifold import LogDistribution, TangentVector
from .promise import PromiseWeights

__version__ = "0.1.0"

__all__ = [
    "DistanceMetric",
    "EvaluationLedger",
    "PopulationView",
    "ScoredSample",
    "best_score",
    "evaluate",
    "knn",
    "view_of",
    "EvolutionConfig",
    "RunConfig",
    "info_evo_loop",
    "StepParams",
    "FilterPolicy",
    "ModifiedPromise",
    "LogDistribution",
    "TangentVector",
    "PromiseWeights",
    "__version__",
]
