"""Exception types shared across the package."""


class ValidationError(ValueError):
    """Input violates a documented invariant (norm, hermiticity, range, ...)."""


class UsageError(ValueError):
    """Operands are individually valid but incompatible (dims, labels, ...)."""


class CapacityError(RuntimeError):
    """A requested size (Hilbert-space dimension, trials, oracle table) exceeds its cap."""


class PreconditionError(ValueError):
    """A modelling precondition does not hold (ready state, factorized branch)."""


class DecompositionError(ValueError):
    """State does not decompose in the pointer product basis within tolerance."""


class ConfigError(ValueError):
    """Run configuration is malformed or fails validation."""
