"""Exception types shared across the package."""


class IdsReconError(Exception):
    """Base class for library errors."""


class ConfigError(IdsReconError):
    """Invalid configuration, parameters, or arguments."""


class InfeasibleTrellisError(IdsReconError):
    """No origin-to-absorbing path survives; the observations cannot be
    explained by the current trellis (typically the drift bound is too
    tight, or the channel parameters forbid the observed lengths)."""

    def __init__(self, *args, rows=None):
        super().__init__(*args)
        # when set, a boolean mask of the rows of a stacked block whose mass
        # vanished: (P,) for a trellis stack, (K, P) per trace for a lattice
        self.rows = rows


class DatasetError(IdsReconError):
    """Malformed or inconsistent dataset files."""
