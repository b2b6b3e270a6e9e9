"""Belief-exchanging reconstruction from per-trace trellises.

Each trace's exact one-trace trellis is swept once, forward and backward;
the K trellises are the K rows of one pointer axis of a single
`trellis.Trellis` (`build_lattice`), stepped together layer by layer. A
forward sweep then re-runs all K forward recursions in
lockstep: at each message cycle the per-trace beliefs are combined, an
estimate is emitted, and every trace's forward values are reweighted per
message symbol by a factor gamma derived from the other traces, steering
each decoder's synchronisation with the consensus. The first half of the
message is estimated this way; a mirrored sweep updating the backward
values estimates the second half from the other end. Total cost is linear
in the number of traces.

A decode is a chunk of clusters x a stack of beta points; a single cluster
is a chunk of one, a single decode a stack of one. The traces of every
cluster of the chunk are the rows of one lattice, each row carrying its
cluster's scramble offset. The exact per-trace sweeps do not depend on the
hyperparameters beta, so they run once per chunk; the exchange then runs
once for the whole chunk and stack, its front a (rows, P, S, M, W) block:
the chunk's traces x beta points x encoder states x message symbols x
window. Each cluster's beliefs are combined, and each trace's gamma taken,
over that cluster's own rows only (`_Chunk`), so a cluster decodes as it
would alone.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .bcjr import PosteriorTable
from .errors import ConfigError, InfeasibleTrellisError
from .trellis import Trellis, build_lattice
# not called here: the name stays because perfbench/spans.py wraps it in this module
from .trellis import build_trellis  # noqa: F401

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class BetaParams:
    """Sweep hyperparameters.

    beta_b reweights the stale sweep direction when beliefs are read;
    beta_e weights the other traces' beliefs inside the gamma update;
    beta_i weights a trellis's own belief there; beta_o re-exponentiates
    the combined belief before normalising the reported posterior.
    """
    beta_b: float = 1.0
    beta_e: float = 0.0
    beta_i: float = 0.0
    beta_o: float = 1.0

    def __post_init__(self):
        # comparisons written so that NaN fails them
        if not all(0.0 <= b < math.inf for b in (self.beta_b, self.beta_e, self.beta_i)):
            raise ConfigError(f"beta_b, beta_e, beta_i must be finite and nonnegative, "
                              f"got {self.as_tuple()}")
        if not 0.0 < self.beta_o < math.inf:
            raise ConfigError(f"beta_o must be finite and positive, got {self.beta_o}")

    def as_tuple(self):
        return (self.beta_b, self.beta_e, self.beta_i, self.beta_o)


MULTIPLY_POSTERIORS = BetaParams(1.0, 0.0, 0.0, 1.0)


def _pow(arr, b):
    """Elementwise power with the 0**0 = 1 convention, so a zero exponent
    means "ignore this factor" even where a belief vanished."""
    if b == 0.0:
        return np.ones_like(arr)
    return np.power(arr, b)


def _pow_rows(arr, b, shared=False):
    """Row r of the stack `arr` to the power b[r], with one scalar-exponent
    `_pow` per distinct value, so each row is bit-identical to powering it
    alone. A `shared` arr is one block read by every row."""
    vals = set(b.tolist())
    if len(vals) == 1:
        return _pow(arr, vals.pop())
    out = np.empty((len(b),) + (arr.shape if shared else arr.shape[1:]))
    for v in vals:
        out[b == v] = _pow(arr if shared else arr[b == v], v)
    return out


def _vanished(tot, message):
    """Raise `message` for the stack rows whose total `tot` is not positive."""
    if any(v <= 0.0 for v in tot.ravel().tolist()):
        raise InfeasibleTrellisError(message, rows=tot.ravel() <= 0.0)


def _no_trace_left():
    return InfeasibleTrellisError("every trace was infeasible under the drift bound")


def init_single_trace_trellises(encoder, traces, params, delta=None, offsets=None,
                                sizes=None):
    """Run both exact sweeps of every trace's one-trace trellis, the traces
    being the rows of one lattice (`build_lattice`). `traces` holds a chunk
    of clusters' traces, cluster by cluster, `sizes` how many each cluster
    has (None: one cluster), and `offsets` one scrambling vector per trace
    (None: no scrambling).

    Each sweep keeps only the layers the exchange reads as its stale side:
    the forward sweep the input layers of the second half of the message,
    the backward sweep the post read layers of the first half.

    Traces whose trellis has no surviving path under `delta` are dropped
    with a warning naming each one by its index in its cluster (real
    clusters contain outlier reads), and the sweeps rerun on the rest; all
    traces being infeasible is an error. Returns (lattice, forward sweep,
    backward sweep, indices of the kept traces in `traces`), the lattice's
    rows being the kept traces.
    """
    half = encoder.L // 2
    sizes = [len(traces)] if sizes is None else sizes
    in_cluster = [j for n in sizes for j in range(n)]
    kept, dropped = list(range(len(traces))), {}
    while kept:
        lat = build_lattice(encoder, [traces[k] for k in kept], params, delta=delta,
                            offsets=None if offsets is None else [offsets[k] for k in kept])
        try:
            fs = lat.forward(keep=lat.input_read_layer[half:])
            bs = lat.backward(keep=lat.post_read_layer[:half])
            break
        except InfeasibleTrellisError as e:
            gone = e.rows.reshape(len(kept), -1).any(axis=1)
            dropped.update((k, e) for k, g in zip(kept, gone) if g)
            kept = [k for k, g in zip(kept, gone) if not g]
    for k in sorted(dropped):
        logger.warning("dropping trace %d: %s", in_cluster[k], dropped[k])
    if not kept:
        raise _no_trace_left()
    return lat, fs, bs, kept


class _Chunk:
    """Where the lattice's rows sit among a chunk's clusters: row r is the
    j-th kept trace of the c-th cluster that kept any, at slot (c, j) of a
    (C, K) grid, K being the most traces any of them kept. `pad` lays a
    (P, rows, ...) stack out on that grid, 1.0 in the empty slots, so a
    product over a cluster's slots multiplies its own traces in order;
    `unpad` reads the rows back. `real` marks the slots that hold a row,
    None when all do (then both are reshapes)."""

    def __init__(self, sizes):
        self.C, self.K = len(sizes), max(sizes)
        self.slot = self.real = None
        if min(sizes) < self.K:
            self.slot = np.concatenate([c * self.K + np.arange(n) for c, n in enumerate(sizes)])
            self.real = np.zeros(self.C * self.K, bool)
            self.real[self.slot] = True
            self.real = self.real.reshape(self.C, self.K)

    def pad(self, arr):
        shape = (arr.shape[0], self.C, self.K) + arr.shape[2:]
        if self.slot is None:
            return arr.reshape(shape)
        out = np.ones((arr.shape[0], self.C * self.K) + arr.shape[2:])
        out[:, self.slot] = arr
        return out.reshape(shape)

    def unpad(self, arr):
        flat = arr.reshape((arr.shape[0], self.C * self.K) + arr.shape[3:])
        return flat if self.slot is None else flat[:, self.slot]


def combine_beliefs(front, stale, beta_b, chunk):
    """Per-trace beliefs about the current message symbol at a read layer,
    for each row of a stacked front (rows, P, S, M, W) and its `beta_b`.
    `stale` is the opposite sweep's (rows, S, M, W) block of the layer, and
    `chunk` (a `_Chunk`) says which cluster each row belongs to.

    For trace k and message symbol m the belief is the sum of
    front_k * stale_k**beta_b over the layer's encoder states and window,
    at index m of its message axis. Rows are normalised (the sweeps rescale
    layers freely, so only ratios carry information). Returns ((P, C, K, M)
    beliefs laid out by `chunk.pad`, their product over each cluster's
    traces, (P, C, M)).
    """
    powed = _pow_rows(stale, beta_b, shared=True)
    rows = (front.swapaxes(0, 1) * powed).sum(axis=4).sum(axis=2)
    tot = rows.sum(axis=2)
    _vanished(chunk.pad(tot).min(axis=2), "belief row lost all mass during the sweep")
    rows = chunk.pad(rows / tot[..., None])
    return rows, np.multiply.reduce(rows, axis=2)


def gamma_updates(rows, beta_e, beta_i, real=None):
    """The unnormalised update gamma for each stack row and trellis, shaped
    as the (P, C, K, M) beliefs `rows` of C clusters of K slots: a
    trellis's own belief to the beta_i power times the belief of every
    other trace of its cluster to the beta_e power, multiplied in trace
    order. Each belief is raised to each power once. `real` (C, K) marks
    the slots that hold a trace (None: all); the others hold beliefs of
    1.0, a factor of 1, and their gammas are not read."""
    n = rows.shape[2]
    # factor j + 1 is trace j's belief to beta_e, and 1 for trellis j itself
    factors = np.empty((n + 1,) + rows.shape)
    factors[0] = _pow_rows(rows, beta_i)
    factors[1:] = _pow_rows(rows, beta_e).transpose(2, 0, 1, 3)[:, :, :, None]
    factors[1 + np.arange(n), :, :, np.arange(n)] = 1.0
    g = np.multiply.reduce(factors, axis=0)
    m = g.max(axis=3, keepdims=True)
    if real is not None:
        m[:, ~real] = 1.0
    _vanished(m.min(axis=2), "gamma update vanished for one trellis")
    return g / m


def update_forward(front, gamma):
    """Rescale a trellis front by gamma(m): the update applied to every
    cell of the read layer at index m of its message axis. A front
    (..., S, M, W) takes gammas (..., M): a stacked front (rows, P, S, M, W)
    one row per trace and beta point. Scaling gamma by any positive
    constant leaves later estimates unchanged."""
    g = np.asarray(gamma, dtype=float)
    return front * g[..., None, :, None]


def _posterior_row(combined, beta_o):
    row = _pow_rows(combined, beta_o)
    tot = row.sum(axis=-1, keepdims=True)
    _vanished(tot, "combined belief has no mass")
    return row / tot


class _RowLost(Exception):
    """A (cluster, beta) row of a stack of several clusters vanished. The
    stack's beta rows are shared by its clusters, so it cannot leave alone."""


class _Stack:
    """The rows of a beta stack still in the exchange: their indices in the
    stack as given, their betas (columns b, e, i, o), and the stacked front
    (rows, P, S, M, W); `failed` holds the error of each row that left. A
    stack of one cluster's rows loses single beta rows; one of several
    clusters raises `_RowLost` instead."""

    def __init__(self, betas, clusters):
        self.index = np.arange(len(betas))
        self.beta = np.array([bp.as_tuple() for bp in betas])
        self.front, self.failed = None, {}
        self.clusters = clusters

    def run(self, op):
        """op() on the rows left. The rows that an InfeasibleTrellisError of
        op marks, (P,) or per trace (rows, P), leave with it, and op runs
        again on the others; the error is raised once no row is left."""
        while True:
            try:
                return op()
            except InfeasibleTrellisError as e:
                if self.clusters > 1:
                    raise _RowLost from e
                gone = (np.ones(len(self.index), bool) if e.rows is None
                        else e.rows.reshape(-1, len(self.index)).any(axis=0))
                self.failed.update(dict.fromkeys(self.index[gone].tolist(), e))
                self.index, self.beta = self.index[~gone], self.beta[~gone]
                self.front = self.front[:, ~gone]
                if not len(self.index):
                    raise


def _exchange_sweep(step, initial, lat, stack, chunk, layers, reads, stale, rows_out):
    """Step the lattice's stacked front, from its `initial` block, through
    `layers` with `step` (`Trellis.step_forward` or `step_backward`). At
    each layer of `reads` ({layer: message position}) the front is
    combined with the stale opposite sweep into that position's posterior
    rows, per cluster of `chunk`, and each trace's row receives its gamma
    update from its own cluster's traces."""
    b = initial(lat)
    stack.front = np.broadcast_to(b[:, None], (len(b), len(stack.index)) + b.shape[1:])
    for t in layers:
        stack.front = stack.run(lambda: step(lat, t, stack.front)[0])
        if t not in reads:
            continue

        def read():
            beta_b, beta_e, beta_i, beta_o = stack.beta.T
            rows, combined = combine_beliefs(stack.front, stale.layers[t], beta_b, chunk)
            post = _posterior_row(combined, beta_o)
            if not (beta_e.any() or beta_i.any()):
                return post, None
            return post, gamma_updates(rows, beta_e, beta_i, chunk.real)

        rows_out[stack.index, :, reads[t]], gammas = stack.run(read)
        if gammas is not None:
            stack.front = update_forward(stack.front, chunk.unpad(gammas).swapaxes(0, 1))


def _exchange(encoder, lat, fwd, bwd, betas, chunk):
    """Both exchange sweeps over the stored read layers of the exact
    per-trace sweeps, which they only read, for every point of `betas` at
    once: the lattice's front has one row per (trace, point). Returns per
    cluster of `chunk`, per point, its PosteriorTable, or the
    InfeasibleTrellisError that ended its row, as that point's exchange
    alone gives; a point's row ends when any of its traces' rows vanishes.
    With several clusters no row may end: `_RowLost` is raised instead."""
    L = encoder.L
    half = L // 2
    stack = _Stack(betas, chunk.C)
    rows_out = np.empty((len(betas), chunk.C, L, encoder.msg_size))
    try:
        # a forward-updating sweep estimates the first half at its post layers
        first = {lat.post_read_layer[l]: l for l in range(half)}
        _exchange_sweep(Trellis.step_forward, Trellis.initial_forward_block, lat, stack, chunk,
                        range(1, max(first, default=0) + 1), first, bwd, rows_out)
        # a backward-updating sweep estimates the second half from the other end
        second = {lat.input_read_layer[l]: l for l in range(half, L)}
        _exchange_sweep(Trellis.step_backward, Trellis.initial_backward_block, lat, stack,
                        chunk, range(len(lat.layers) - 2, min(second) - 1, -1), second, fwd,
                        rows_out)
    except InfeasibleTrellisError:
        if len(stack.index):
            raise
        # every row has left the stack, each with its own error
    return [[stack.failed.get(p) or PosteriorTable.from_rows(rows_out[p, c])
             for p in range(len(betas))] for c in range(chunk.C)]


def run_trellis_bma(encoder, clusters, params, betas, delta=None, offsets=None):
    """Approximate message posteriors of a chunk of clusters at per-trace
    trellis cost, one decode per cluster and entry of `betas`, a nonempty
    list or tuple of BetaParams. `clusters` is a nonempty sequence of trace
    lists (a single cluster being a list of one), `offsets` None or one
    scrambling vector (or None) per cluster.

    A decode is a chunk of clusters x a beta stack. Every trace of every
    cluster is a row of one lattice (`trellis.build_lattice`), each row
    carrying its cluster's offset, and is swept once by the exact engine;
    one exchange then decodes every (cluster, entry) at once, its front
    holding one row per (trace, entry), each cluster's beliefs combined
    over its own rows. Returns, per cluster, a list with per entry its
    PosteriorTable (hard estimates are its row argmaxes) or the
    InfeasibleTrellisError its row of the exchange raised, equal to that
    cluster and entry decoded alone; or, for a cluster whose every trace
    was infeasible, that error. Infeasible traces are dropped with a
    warning naming each one. A chunk of several clusters whose exchange
    loses a row is decoded again cluster by cluster from its kept traces,
    so that the row's cluster alone loses it. An empty cluster is a
    ConfigError.
    """
    if (not isinstance(clusters, (list, tuple)) or not clusters
            or not all(isinstance(c, (list, tuple)) for c in clusters)):
        raise ConfigError("clusters must be a nonempty list of trace lists, a single "
                          "cluster being a list of one")
    if not all(clusters):
        raise ConfigError("Trellis BMA needs at least one trace")
    if (not isinstance(betas, (list, tuple)) or not betas
            or not all(isinstance(b, BetaParams) for b in betas)):
        raise ConfigError(f"betas must be a nonempty list or tuple of BetaParams, a single "
                          f"point being a sequence of them of length 1; got {betas!r}")
    offsets = [None] * len(clusters) if offsets is None else offsets
    if len(offsets) != len(clusters):
        raise ConfigError(f"need one offset per cluster: got {len(offsets)} "
                          f"for {len(clusters)} clusters")
    traces = [y for c in clusters for y in c]
    owner = [c for c, ys in enumerate(clusters) for _ in ys]
    try:
        lat, fwd, bwd, kept = init_single_trace_trellises(
            encoder, traces, params, delta=delta, offsets=[offsets[c] for c in owner],
            sizes=[len(c) for c in clusters])
    except InfeasibleTrellisError as e:
        return [e] * len(clusters)
    mine = [[k for k in kept if owner[k] == c] for c in range(len(clusters))]
    try:
        posts = iter(_exchange(encoder, lat, fwd, bwd, betas,
                               _Chunk([len(ks) for ks in mine if ks])))
    except _RowLost:
        return [run_trellis_bma(encoder, [[traces[k] for k in ks]], params, betas,
                                delta=delta, offsets=[offsets[c]])[0] if ks
                else _no_trace_left() for c, ks in enumerate(mine)]
    return [next(posts) if ks else _no_trace_left() for ks in mine]


# Tuned sweep defaults, keyed by (data kind, target metric, code tag, trace
# count). Values learned on held-out validation clusters.
_B = BetaParams
TUNED_BETAS = {
    ("real", "hamming", "uncoded"): {
        1: _B(1, 1.0, 0, 1.0), 2: _B(0, 0.1, 0.5, 0.5), 4: _B(0, 1.0, 0.1, 0.9),
        6: _B(0, 0.5, 0.1, 1.0), 8: _B(0, 0.5, 0.5, 0.9), 10: _B(0, 0.5, 0, 1.0)},
    ("real", "air", "uncoded"): {
        1: _B(1, 1.0, 0, 1.0), 2: _B(0, 0.05, 0.5, 0.5), 4: _B(0, 0.5, 0.1, 0.5),
        6: _B(0, 0.5, 0.1, 0.5), 8: _B(0, 0.5, 0.5, 0.5), 10: _B(0, 1.0, 0, 0.5)},
    ("real", "hamming", "mr104"): {
        1: _B(1, 1.0, 0, 1.0), 2: _B(1, 0.1, 0, 0.5), 4: _B(1, 0.1, 0, 0.5),
        6: _B(1, 0.1, 0, 0.5), 8: _B(1, 0.1, 0, 0.5), 10: _B(1, 0.02, 0, 0.5)},
    ("real", "air", "mr104"): {
        1: _B(1, 1.0, 0, 1.0), 2: _B(1, 0.1, 0, 1.0), 4: _B(1, 0.1, 0, 0.5),
        6: _B(1, 0.02, 0, 0.5), 8: _B(1, 0.02, 0, 0.5), 10: _B(1, 0.02, 0, 0.5)},
    ("real", "hamming", "mr100"): {
        1: _B(1, 1.0, 0, 1.0), 2: _B(1, 0.1, 0, 0.1), 4: _B(1, 0.1, 0, 0.1),
        6: _B(1, 0.1, 0, 0.1), 8: _B(1, 0.02, 0, 1.0), 10: _B(1, 0.02, 0, 1.0)},
    ("real", "air", "mr100"): {
        1: _B(1, 1.0, 0, 1.0), 2: _B(1, 0.1, 0, 1.0), 4: _B(1, 0.1, 0, 0.5),
        6: _B(1, 0.1, 0, 0.5), 8: _B(1, 0.02, 0, 0.5), 10: _B(1, 0.02, 0, 0.5)},
    ("sim", "hamming", "uncoded"): {
        1: _B(1, 0.5, 0, 0.1), 2: _B(1, 0.1, 0, 0.1), 4: _B(0, 1.0, 0.5, 0.5),
        6: _B(0, 0.5, 0.1, 1.0), 8: _B(0, 5.0, 0, 0.1), 10: _B(0, 0.5, 0, 0.1)},
    ("sim", "air", "uncoded"): {
        1: _B(1, 0.5, 0, 1.0), 2: _B(1, 0.1, 0, 0.5), 4: _B(0, 1.0, 0.5, 0.5),
        6: _B(0, 0.5, 0.1, 0.5), 8: _B(0, 5.0, 0, 0.5), 10: _B(0, 0.5, 0.1, 1.0)},
    ("sim", "hamming", "mr104"): {
        1: _B(1, 1.0, 0, 0.5), 2: _B(1, 0.1, 0, 0.1), 4: _B(1, 0.5, 0.5, 1.0),
        6: _B(1, 5.0, 0.1, 0.5), 8: _B(1, 1.0, 0, 0.5), 10: _B(1, 5.0, 0.5, 0.1)},
    ("sim", "air", "mr104"): {
        1: _B(1, 0.5, 0, 1.0), 2: _B(1, 0.1, 0, 1.0), 4: _B(1, 0.1, 0, 0.5),
        6: _B(1, 0.1, 0, 0.5), 8: _B(1, 0.5, 0.5, 0.5), 10: _B(1, 5.0, 0.5, 1.0)},
    ("sim", "hamming", "mr100"): {
        1: _B(1, 0.5, 0, 0.5), 2: _B(1, 0.5, 0, 0.5), 4: _B(1, 0.5, 0, 0.5),
        6: _B(1, 0.5, 0.1, 0.5), 8: _B(1, 0.5, 0.1, 0.5), 10: _B(1, 5.0, 0, 0.5)},
    ("sim", "air", "mr100"): {
        1: _B(1, 1.0, 0, 1.0), 2: _B(1, 0.1, 0, 1.0), 4: _B(1, 0.5, 0, 0.5),
        6: _B(1, 0.5, 0.1, 0.5), 8: _B(1, 0.5, 0.1, 0.5), 10: _B(1, 0.5, 0.5, 1.0)},
}


def code_tag(encoder):
    """Coarse code family used to key the tuned defaults: uncoded or
    marker-repeat. No table was tuned for a multi-state (convolutional) code."""
    if encoder.n_states > 1:
        raise ConfigError(f"no tuned betas for the {encoder.n_states}-state code "
                          f"{encoder.spec}; give --beta-b/e/i/o")
    if encoder.L == encoder.N:
        return "uncoded"
    return "mr104" if encoder.rate >= 0.93 else "mr100"


def default_betas(kind, metric, encoder, k):
    """Tuned BetaParams for (real|sim data, hamming|air metric, code, K).
    The entropy metric uses the AIR tables: AIR = (2 - H) * rate moves with
    the entropy H. Falls back to the nearest tabulated trace count."""
    if kind not in ("real", "sim"):
        raise ConfigError(f"unknown data kind {kind!r}")
    if metric == "entropy":
        metric = "air"
    table = TUNED_BETAS.get((kind, metric, code_tag(encoder)))
    if table is None:
        raise ConfigError(f"no tuned betas for metric {metric!r}")
    if k in table:
        return table[k]
    nearest = min(table, key=lambda kk: abs(kk - k))
    return table[nearest]
