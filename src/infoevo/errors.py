"""Exception types shared across the package."""


class InfoEvoError(Exception):
    """Base class for all package errors."""


class BudgetExhausted(InfoEvoError):
    """Raised when an evaluation would exceed the ledger's budget."""


class EmptyLedger(InfoEvoError):
    """Raised by queries that require at least one evaluated sample."""


class LedgerTooSmall(InfoEvoError):
    """Raised when a neighborhood computation needs more samples than exist."""


class LengthMismatch(InfoEvoError):
    """Vector arguments of incompatible length."""


class AllZeroWeights(InfoEvoError):
    """Cannot build a distribution from an all-zero weight vector."""


class NegativeWeight(InfoEvoError):
    """Distribution weights must be nonnegative."""


class ZeroTangent(InfoEvoError):
    """Cannot follow a geodesic with a zero direction vector."""


class GoalOutsideChart(InfoEvoError):
    """Requested grid endpoint lies outside the chart radius."""


class NoPath(InfoEvoError):
    """Grid search found no route (cannot occur on a full lattice)."""


class GammaExceedsRay(InfoEvoError):
    """Step distance is longer than the ray's polyline."""


class NonFiniteOutput(InfoEvoError):
    """A program produced a non-finite output on a probe input."""


class BadLength(InfoEvoError):
    """Genotype length incompatible with the scoring function."""


class ConfigError(InfoEvoError):
    """Invalid run configuration; message names the offending field."""

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"config field '{field}': {message}")
