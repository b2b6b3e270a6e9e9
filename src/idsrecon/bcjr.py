"""Message posteriors from the trellis sweeps.

`compute_posteriors` is the one reader of message posteriors: it sweeps a
trellis (`Trellis.forward`/`fronts`, in linear domain with per-layer
rescaling) and reads each message symbol at its cycle's last post layer,
in the trellis's row 0, as the BCJR symbol marginal: forward x backward
summed over the layer's encoder states and pointers, one sum per index of
its message axis. The joint trellis of `build_trellis` is one row of
K pointer axes, so a one-trace decode steps one row of one axis, as a row
of Trellis BMA's lattice does. It keeps only those read layers of the
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
    """Exact message posteriors plus the sequence log-likelihood (a float),
    read in row 0 at each cycle's last post layer (the cycle's last layer
    that carries its message symbol and has no insertion runs); the joint
    trellis has that one row.

    The forward sweep keeps only those L read layers. The backward front
    is not kept: each posterior row is formed as it passes its read layer,
    and that forward block is freed right after. What is stored at once is
    at most 8 bytes per read-layer cell plus two of the largest layer (the
    front and the block stepped into). A trellis where that would exceed
    STORED_BUDGET_BYTES is refused with a ConfigError before any sweep
    starts, since the joint trellis grows exponentially in the number of
    traces. A row 0 whose mass vanishes in either sweep raises the
    InfeasibleTrellisError formed from that sweep's death record.
    """
    sizes = [trellis.rows * math.prod(lay.shape) for lay in trellis.layers]
    stored = 8 * (sum(sizes[t] for t in trellis.post_read_layer) + 2 * max(sizes))
    if stored > STORED_BUDGET_BYTES:
        raise ConfigError(
            f"the joint trellis over {trellis.K} traces would store "
            f"{stored / MIB:.0f} MiB of sweep layers (budget "
            f"{STORED_BUDGET_BYTES / MIB:.0f} MiB); use fewer traces, a smaller "
            f"--delta, or trellis-bma")
    reads = {t: l for l, t in enumerate(trellis.post_read_layer)}
    fs = trellis.forward(keep=reads)
    if fs.died[0] >= 0:
        raise InfeasibleTrellisError(trellis.vanished(False, int(fs.died[0])))
    rows = np.empty((trellis.L, trellis.encoder.msg_size))
    for t, bwd, _, died in trellis.fronts(back=True):
        l = reads.get(t)
        if l is None:
            continue
        # the block is (S, M, W...): sum each message symbol's cells
        joint = fs.layers[t][0] * bwd[0]
        rows[l] = joint.reshape(joint.shape[:2] + (-1,)).sum(axis=2).sum(axis=0)
        fs.layers[t] = None
    if died[0] >= 0:
        raise InfeasibleTrellisError(trellis.vanished(True, int(died[0])))
    return PosteriorTable.from_rows(rows, float(fs.loglik[0]))

