"""Exception types shared across the package."""


class CmlSyncError(Exception):
    """Base class for all package-specific errors."""


class DomainError(CmlSyncError, ValueError):
    """Input outside the mathematical domain of an operation."""


class DegenerateSeriesError(CmlSyncError, ValueError):
    """A series is unusable (e.g. all values infinite or all equal)."""


class FitError(CmlSyncError, RuntimeError):
    """Maximum-likelihood optimization failed to converge."""


class InsufficientVisitsError(CmlSyncError, RuntimeError):
    """Too few visits to the diagonal strip for return-time estimation."""

    def __init__(self, observed: int, required: int):
        self.observed = observed
        self.required = required
        super().__init__(
            f"only {observed} strip visits observed, need >= {required}"
        )


class HypothesisViolationError(CmlSyncError, ValueError):
    """Parameters violate gamma < 1 - lambda, required by the EI formulas."""


class MemoryBudgetError(CmlSyncError, ValueError):
    """Requested grid would exceed the configured memory budget."""


class ConvergenceError(CmlSyncError, RuntimeError):
    """Power iteration did not converge within the iteration cap."""


class ConfigError(CmlSyncError, ValueError):
    """Invalid experiment configuration."""
