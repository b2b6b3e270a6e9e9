"""Message posteriors from the trellis sweeps.

`compute_posteriors` is the one reader of message posteriors: it runs the
layered engine (`Trellis.forward`/`fronts`), which sweeps the layer arrays
in linear domain with per-layer rescaling, and reads each message symbol
at its cycle's last post layer. It keeps only those read layers of the
forward sweep and streams the backward sweep past them, so its memory is
a fraction of the trellis.

The tests check every cell of both sweeps against an independent
rule-by-rule constructor with its own forward-backward pass, and the
posteriors against exhaustive enumeration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, InfeasibleTrellisError

ROW_TOL = 1e-9

MIB = float(1 << 20)
STORED_BUDGET_BYTES = 1 << 30  # read layers plus two sweep fronts held by compute_posteriors


@dataclass
class PosteriorTable:
    """Per message position l, a distribution over message symbols, plus the
    argmax hard estimate (ties resolved to the lowest symbol index)."""
    probs: np.ndarray           # (L, |M|), rows sum to 1
    hard: np.ndarray            # (L,), int
    log_likelihood: float | None = None

    def __post_init__(self):
        self.probs = np.asarray(self.probs, dtype=float)
        self.hard = np.asarray(self.hard, dtype=np.int16)
        bad = np.abs(self.probs.sum(axis=1) - 1.0).max() if self.probs.size else 0.0
        if bad > ROW_TOL:
            raise ValueError(f"posterior rows must sum to 1 (off by {bad:.3g})")

    @classmethod
    def from_rows(cls, rows, log_likelihood=None):
        rows = np.asarray(rows, dtype=float)
        sums = rows.sum(axis=1, keepdims=True)
        if (sums <= 0).any():
            raise InfeasibleTrellisError("posterior row with no probability mass")
        probs = rows / sums
        return cls(probs, np.argmax(probs, axis=1), log_likelihood)


def compute_posteriors(trellis):
    """Exact message posteriors plus the sequence log-likelihood, read at
    each cycle's last post layer (the cycle's last layer that carries its
    message symbol and has no insertion runs).

    The forward sweep keeps only those L read layers. The backward front
    is not kept: each posterior row is formed as it passes its read layer,
    and that forward block is freed right after. What is stored at once is
    at most 8 bytes per read-layer cell plus two of the largest layer (the
    front and the block stepped into). A trellis where that would exceed
    STORED_BUDGET_BYTES is refused with a ConfigError before any sweep
    starts, since the joint trellis grows exponentially in the number of
    traces.
    """
    sizes = [math.prod(lay.shape) for lay in trellis.layers]
    stored = 8 * (sum(sizes[t] for t in trellis.post_read_layer) + 2 * max(sizes))
    if stored > STORED_BUDGET_BYTES:
        raise ConfigError(
            f"the joint trellis over {trellis.K} traces would store "
            f"{stored / MIB:.0f} MiB of sweep layers (budget "
            f"{STORED_BUDGET_BYTES / MIB:.0f} MiB); use fewer traces, a smaller "
            f"--delta, or trellis-bma")
    reads = {t: l for l, t in enumerate(trellis.post_read_layer)}
    fs = trellis.forward(keep=reads)
    mz = trellis.encoder.msg_size
    rows = np.empty((trellis.L, mz))
    for t, bwd, _ in trellis.fronts(back=True):
        l = reads.get(t)
        if l is None:
            continue
        lay = trellis.layers[t]
        joint = (fs.layers[t] * bwd).reshape(lay.n_combo, -1).sum(axis=1)
        rows[l] = np.bincount(lay.cm, weights=joint, minlength=mz)
        fs.layers[t] = None
    return PosteriorTable.from_rows(rows, fs.loglik)

