"""Exception types shared across the package."""


class IdsReconError(Exception):
    """Base class for library errors."""


class ConfigError(IdsReconError):
    """Invalid configuration, parameters, or arguments."""


class InfeasibleTrellisError(IdsReconError):
    """No origin-to-absorbing path survives; the observations cannot be
    explained by the current trellis (typically the drift bound is too
    tight, or the channel parameters forbid the observed lengths)."""


class DatasetError(IdsReconError):
    """Malformed or inconsistent dataset files."""
