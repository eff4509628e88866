"""Info-Evo: geodesic guidance over promise landscapes for evolutionary search."""

from .core import (
    EvaluationLedger,
    PopulationView,
    ScoredSample,
    evaluate,
    knn,
    view_of,
)
from .demes import run_demes
from .evolve import EvolutionConfig, RunConfig
from .geodesic_search import StepParams
from .guidance import FilterPolicy
from .manifold import LogDistribution, TangentVector
from .promise import PromiseWeights

__version__ = "0.1.0"

__all__ = [
    "EvaluationLedger",
    "PopulationView",
    "ScoredSample",
    "evaluate",
    "knn",
    "view_of",
    "EvolutionConfig",
    "RunConfig",
    "run_demes",
    "StepParams",
    "FilterPolicy",
    "LogDistribution",
    "TangentVector",
    "PromiseWeights",
    "__version__",
]
