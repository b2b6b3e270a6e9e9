"""Message posteriors from the trellis sweeps.

`compute_posteriors` is the one reader of message posteriors, for every
row of a trellis of `build_trellis`: a joint trellis (a row of K pointer
axes per cluster) or a lattice of one-trace trellises (a row per trace,
as BMALA-MAP decodes its consensus strings). It sweeps the trellis
(`Trellis.forward`/`fronts`, in linear domain with per-layer rescaling) and
reads each message symbol on its cycle's input layer, a cut of the
trellis, as the BCJR symbol marginal: the forward block there is the
preceding boundary block repeated along the message axis, so the marginal
of message m is the boundary block times the backward input block at index
m of its message axis, summed over the encoder states and pointers. It
keeps only those boundary blocks of the forward sweep and streams the
backward sweep past the input layers, so its memory is a fraction of the
trellis.

The tests check every cell of both sweeps against an independent
rule-by-rule constructor with its own forward-backward pass, and the
posteriors against exhaustive enumeration.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, InfeasibleTrellisError
from .trellis import STEP_BLOCKS

ROW_TOL = 1e-9
TIE_ULPS = 4  # posteriors this close to a row's maximum tie for its hard symbol

MIB = float(1 << 20)
STORED_BUDGET_BYTES = 1 << 30  # what compute_posteriors may hold (`Trellis.held_bytes`)


@dataclass
class PosteriorTable:
    """Per message position l, a distribution over message symbols, plus the
    hard estimate: the smallest symbol whose posterior is within TIE_ULPS
    ulps of the row's maximum, so that rounding cannot flip a tie."""
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
        top = probs.max(axis=1, keepdims=True)
        hard = np.argmax(probs >= top - TIE_ULPS * np.spacing(top), axis=1)
        return cls(probs, hard, log_likelihood)


def kept_layers(trellis):
    """The layers `compute_posteriors` keeps from its forward sweep: each
    cycle's boundary block, the layer before its input layer."""
    return [t - 1 for t in trellis.input_read_layer]


def compute_posteriors(trellis):
    """Exact message posteriors of every row of `trellis`: per row, its
    PosteriorTable with the row's sequence log-likelihood (a float), or the
    InfeasibleTrellisError of a row whose mass vanished, formed from the
    death record of the sweep where it did (forward first).

    The forward sweep keeps only each cycle's boundary block (the layer
    before its input layer), all in one buffer. The backward front is not
    kept: each cycle's posterior rows are formed as it passes the input
    layer. What it holds at once, `Trellis.held_bytes` of those blocks and
    STEP_BLOCKS fronts as `evaluation.chunked` counts it, is refused with a
    ConfigError over STORED_BUDGET_BYTES before any sweep starts, since the
    joint trellis grows exponentially in the number of traces.
    """
    keep = kept_layers(trellis)
    held = trellis.held_bytes(keep, STEP_BLOCKS)
    if held > STORED_BUDGET_BYTES:
        raise ConfigError(
            f"the joint trellis over {trellis.axes} traces would store "
            f"{held / MIB:.0f} MiB of sweep layers (budget "
            f"{STORED_BUDGET_BYTES / MIB:.0f} MiB); use fewer traces, a smaller "
            f"--delta, or trellis-bma")
    reads = {t: l for l, t in enumerate(trellis.input_read_layer)}
    fs = trellis.forward(keep=keep)
    rows = np.zeros((trellis.rows, trellis.L, trellis.encoder.msg_size))
    died = np.full(trellis.rows, -1)
    if fs.died.min() < 0:  # some row lives: the forward sweep reached every layer
        for t, bwd, _, died in trellis.fronts(back=True):
            l = reads.get(t)
            if l is None:
                continue
            # boundary (rows, S, 1, W...) x input (rows, S, M, W...): sum each
            # message symbol's states and pointers
            joint = fs.layers[t - 1] * bwd
            rows[:, l] = joint.reshape(joint.shape[:3] + (-1,)).sum(axis=3).sum(axis=1)
    out = []
    for r in range(trellis.rows):
        error = (trellis.vanished(False, int(fs.died[r]))
                 or trellis.vanished(True, int(died[r])))
        if error:
            out.append(InfeasibleTrellisError(error))
            continue
        try:
            out.append(PosteriorTable.from_rows(rows[r], float(fs.loglik[r])))
        except InfeasibleTrellisError as e:
            out.append(e)
    return out
