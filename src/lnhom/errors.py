"""Exception types raised across the toolkit."""


class InvalidGeometryError(ValueError):
    """Waveguide geometry violates a structural invariant."""


class ResolutionError(ValueError):
    """Grid pitch too coarse to resolve the requested geometry."""


class ConvergenceError(RuntimeError):
    """A solver could not deliver a trustworthy result: an iterative solve
    hit its iteration cap before reaching tolerance, or a factorisation
    met a pivot it cannot use."""

    def __init__(self, message, residual_norm=None):
        super().__init__(message)
        self.residual_norm = residual_norm


class DecoupledWaveguidesError(RuntimeError):
    """Supermodes degenerate within tolerance: coupling length is infinite."""


class UnreachableTargetError(ValueError):
    """No non-negative interaction length realises the requested ratio on this branch."""


class UnidentifiableDataError(RuntimeError):
    """Data carry no information about one or more fit parameters."""


class ConfigError(ValueError):
    """Scenario configuration failed schema validation."""

    def __init__(self, message, line=None, key=None):
        super().__init__(message)
        self.line = line
        self.key = key


class NegativeLossWarning(UserWarning):
    """Fringe contrast implies gain (extracted facet reflectivity above Fresnel value)."""
