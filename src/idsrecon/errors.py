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
        # when set, a boolean mask of the fronts whose mass vanished: (rows, P)
        # for a step of a trellis stack, (rows,) for a sweep's end check, (P,)
        # for the exchange's belief, posterior and gamma reads
        self.rows = rows


class DatasetError(IdsReconError):
    """Malformed or inconsistent dataset files."""
