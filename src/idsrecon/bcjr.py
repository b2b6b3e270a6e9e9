"""Forward-backward inference on the trellis DAG.

`compute_posteriors` is the one reader of message posteriors: it runs the
layered engine (`Trellis.forward`/`fronts`), which sweeps the layer arrays
in linear domain with per-layer rescaling, and reads each message symbol
at its cycle's last post layer. It keeps only those read layers of the
forward sweep and streams the backward sweep past them, so its memory is
a fraction of the trellis; `forward_pass`, `backward_pass`, `cut_totals`
and `Trellis.sample_path` keep every layer.

Per-vertex log values come from two interchangeable sweeps:

* `forward_pass`/`backward_pass` read the layered engine's stored sweeps
  per cell with `Trellis.log_values`, as `Trellis.sample_path` does;
* a reference edge sweep (`forward_pass_edges`/`backward_pass_edges`) walks
  the materialised edge list once in log domain with log-sum-exp.

The edge list is enumerated from the same per-layer edge families that the
layered sweeps apply, so the two sweeps check each other's arithmetic
(rescaling, the insertion recursion, the backward transpose), not the edge
rules. The tests check the rules against an independent rule-by-rule
constructor and the posteriors against exhaustive enumeration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, InfeasibleTrellisError

NEG_INF = -np.inf

ROW_TOL = 1e-9

MIB = float(1 << 20)
STORED_BUDGET_BYTES = 1 << 30  # read layers plus two sweep fronts held by compute_posteriors


@dataclass
class FBValues:
    """Per-vertex log values of one sweep direction over the full cell grid.

    log_value[origin] = 0 for a forward sweep; log_value[s] = 0 on absorbing
    vertices for a backward sweep. Unreachable cells carry -inf.
    """
    log_value: np.ndarray
    loglik: float
    n_edge_visits: int | None = None


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


def forward_pass(trellis):
    """F(s): summed weight of all origin-to-s paths, as per-vertex logs."""
    sweep = trellis.forward()
    return FBValues(trellis.log_values(sweep), sweep.loglik)


def backward_pass(trellis):
    """B(s): summed weight of all s-to-absorbing paths, as per-vertex logs."""
    sweep = trellis.backward()
    return FBValues(trellis.log_values(sweep), sweep.loglik)


def forward_pass_edges(trellis):
    """Reference forward sweep over the materialised edges in log domain.

    Edges are processed in topological order of their head vertex, each
    exactly once.
    """
    heads, tails, ws, _, _, _ = trellis.edge_table()
    logw = np.log(ws)
    logf = np.full(trellis.num_cells, NEG_INF)
    logf[trellis.origin] = 0.0
    visits = 0
    for i in range(len(heads)):  # heads are sorted at construction
        h = heads[i]
        if logf[h] != NEG_INF:
            t = tails[i]
            logf[t] = np.logaddexp(logf[t], logf[h] + logw[i])
        visits += 1
    absorbing = trellis.absorbing_vertices()
    vals = logf[absorbing]
    vals = vals[np.isfinite(vals)]
    if vals.size == 0:
        raise InfeasibleTrellisError("no forward mass reaches an absorbing vertex")
    loglik = float(_logsumexp(vals))
    return FBValues(logf, loglik, n_edge_visits=visits)


def backward_pass_edges(trellis):
    """Reference backward sweep, mirroring `forward_pass_edges`."""
    heads, tails, ws, _, _, _ = trellis.edge_table()
    logw = np.log(ws)
    logb = np.full(trellis.num_cells, NEG_INF)
    logb[trellis.absorbing_vertices()] = 0.0
    visits = 0
    for i in range(len(heads) - 1, -1, -1):
        t = tails[i]
        if logb[t] != NEG_INF:
            h = heads[i]
            logb[h] = np.logaddexp(logb[h], logb[t] + logw[i])
        visits += 1
    if logb[trellis.origin] == NEG_INF:
        raise InfeasibleTrellisError("no backward mass reaches the origin")
    return FBValues(logb, float(logb[trellis.origin]), n_edge_visits=visits)


def _logsumexp(v):
    m = v.max()
    return m + math.log(np.exp(v - m).sum())


def vertex_posterior(trellis, f, b, vertex):
    """log Pr(vertex on the true path, all traces) = F(s) + B(s) in logs."""
    return float(f.log_value[vertex] + b.log_value[vertex])


def sequence_log_likelihood(trellis, f):
    """log Pr(all traces): log-sum of forward values over absorbing vertices."""
    vals = f.log_value[trellis.absorbing_vertices()]
    vals = vals[np.isfinite(vals)]
    if vals.size == 0:
        return NEG_INF
    return float(_logsumexp(vals))


def compute_posteriors(trellis):
    """Exact message posteriors plus the sequence log-likelihood, read at
    each cycle's last post layer (the final intra-edge-free stage carrying
    that message symbol).

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


def cut_totals(trellis, fs=None, bs=None):
    """log sum of F(s)B(s) over each intra-edge-free layer; conservation of
    path mass makes these equal across layers."""
    if fs is None:
        fs = trellis.forward()
    if bs is None:
        bs = trellis.backward()
    totals = []
    for t, lay in enumerate(trellis.layers):
        if lay.kind == "ids":
            continue
        tot = float((fs.layers[t] * bs.layers[t]).sum())
        if tot <= 0:
            totals.append((t, NEG_INF))
        else:
            totals.append((t, math.log(tot) + fs.scales[t] + bs.scales[t]))
    return totals
