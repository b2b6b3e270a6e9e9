"""Belief-exchanging reconstruction from per-trace trellises.

Each trace's exact one-trace trellis is swept once, forward and backward;
the K trellises are the K rows of one `trellis.Trellis` (`build_trellis`
with one trace per row), stepped together layer by layer. A forward sweep
then re-runs all K forward recursions in lockstep: at each message cycle
the per-trace beliefs are combined, an estimate is emitted, and every
trace's forward values are reweighted per message symbol by a factor
gamma derived from the other traces, steering each decoder's
synchronisation with the consensus. The first half of the message is
estimated this way; a mirrored sweep updating the backward values
estimates the second half from the other end. Total cost is linear in the
number of traces.

A decode is a chunk of C clusters of K traces each x a stack of beta
points; a single cluster is a chunk of one, a single decode a stack of one.
The chunk's traces are the C*K rows of one lattice, row r being trace
r % K of cluster r // K and carrying its cluster's scramble offset. The
exact per-trace sweeps do not depend on the hyperparameters beta, so they
run once per chunk. beta_o only reshapes a belief when a posterior is
read, so the exchange runs once for the whole chunk and the distinct
(beta_b, beta_e, beta_i) triples of the stack, its front a (rows, T, S, M,
W) block: the chunk's traces x triples x encoder states x message symbols
x window; each point's posterior is read from its triple's combined
belief. Each cluster's beliefs are combined, and each trace's gamma taken,
over that cluster's own rows only (`_Chunk`, a (T, C, K) grid), so a
cluster decodes as it would alone, and each point as it would alone.

Rows are independent, so nothing that dies is taken out of the lattice. A
trace whose own trellis has no path is a dead row: an empty slot of its
cluster, and a cluster with no other slot ends every point at once. A
(cluster, triple) exchange whose front, belief or gamma vanishes ends
every point of that triple with that error, and a point whose own
posterior vanishes ends alone, while the rest decode on. Every decode's
end is a record of the chunk, its first error (`_Chunk.errors`), and
nothing else: an ended decode steps on with the rest through finite values
that nothing reads. Its beliefs are at most 1, so are their powers and
its gammas, and a slot of no mass reads 1, so it cannot overflow or form
0/0. One lattice is built, and one init and one exchange run, per chunk,
whatever dies.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .bcjr import PosteriorTable
from .errors import ConfigError, InfeasibleTrellisError
from .trellis import build_trellis

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class BetaParams:
    """Sweep hyperparameters.

    beta_b reweights the stale sweep direction when beliefs are read;
    beta_e weights the other traces' beliefs inside the gamma update;
    beta_i weights a trellis's own belief there; beta_o re-exponentiates
    the combined belief before normalising the reported posterior. beta_o
    is read-time only: it never enters the gamma update or the fronts, so
    points that differ only in beta_o share one exchange.
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


class _Powers:
    """One exponent b[r] per stack row r, grouped once by value: calling it
    on a stack raises row r to b[r] with one scalar-exponent `_pow` per
    distinct value, so each row is bit-identical to powering it alone. A
    decode's exponents never change, so its exchange groups them once."""

    def __init__(self, b):
        self.rows = len(b)
        self.zero = not b.any()
        self.groups = [(v, np.flatnonzero(b == v)) for v in dict.fromkeys(b.tolist())]

    def __call__(self, arr, shared=False):
        """The stack `arr` to the rows' powers; a `shared` arr is one block
        read by every row."""
        if len(self.groups) == 1:
            return _pow(arr, self.groups[0][0])
        out = np.empty((self.rows,) + (arr.shape if shared else arr.shape[1:]))
        for v, rows in self.groups:
            out[rows] = _pow(arr if shared else arr[rows], v)
        return out


def kept_layers(lat):
    """The layers the init's forward and backward sweeps keep, two lists:
    the boundary blocks beside the read layers `_stale` steps into."""
    half = lat.L // 2
    return ([t - 1 for t in lat.input_read_layer[half:]],
            [t + 1 for t in lat.post_read_layer[:half]])


def init_single_trace_trellises(encoder, traces, params, delta=None, offsets=None, k=None):
    """Run both exact sweeps of every trace's one-trace trellis, the traces
    being the rows of one lattice (`build_trellis`). `traces` holds a chunk
    of clusters' traces, cluster by cluster, `k` of each (None: one
    cluster), and `offsets` one scrambling vector per trace (None: no
    scrambling).

    The exchange reads, as its stale side, the forward sweep at the input
    layers of the second half of the message and the backward sweep at the
    post read layers of the first half; each sweep keeps only the boundary
    blocks beside them (`kept_layers`), whence `_stale` steps into them.

    A trace whose trellis has no surviving path under `delta` stays a
    (dead) row of the lattice and is dropped with a warning naming it by
    its index in its cluster (real clusters contain outlier reads), with
    the error of the sweep it died in, forward first. The backward sweep
    is None if every trace died in the forward one. Returns (lattice,
    forward sweep, backward sweep, indices of the kept traces).
    """
    k = k or len(traces)
    lat = build_trellis(encoder, [[y] for y in traces], params, delta=delta, offsets=offsets)
    fkeep, bkeep = kept_layers(lat)
    fs = lat.forward(keep=fkeep)
    lost = [lat.vanished(False, t) for t in fs.died.tolist()]
    bs = None
    if not all(lost):
        bs = lat.backward(keep=bkeep)
        lost = [e or lat.vanished(True, t) for e, t in zip(lost, bs.died.tolist())]
    for r, e in enumerate(lost):
        if e:
            logger.warning("dropping trace %d: %s", r % k, e)
    return lat, fs, bs, [r for r, e in enumerate(lost) if not e]


class _Chunk:
    """Where the lattice's rows sit among a chunk's C clusters of K traces,
    and which decodes have ended. Row r is trace r % K of cluster r // K, at
    slot (r // K, r % K) of a (C, K) grid, and the fixed (C, K) mask `real`
    marks the slots that hold a kept trace; a (T, rows, ...) stack reshapes
    onto (T, C, K). The exchange stacks T (beta_b, beta_e, beta_i) triples;
    beta point p reads triple `triple_of[p]`. `errors` holds each ended
    (point, cluster) decode's first error, which no later end overwrites:
    a cluster that kept no trace has ended every point."""

    def __init__(self, C, K, kept, triple_of):
        self.real = np.isin(np.arange(C * K), kept).reshape(C, K)
        self.triple_of = triple_of
        self.errors = {}
        self.end_points(~self.real.any(axis=1), "every trace was infeasible under the drift bound")

    def end(self, lost, message):
        """End, with InfeasibleTrellisError(message), every point of each
        (triple, cluster) that has a real slot marked in the (T, C, K)
        `lost`."""
        if lost.any():
            self.end_points((self.real & lost).any(axis=2)[self.triple_of], message)

    def end_points(self, lost, message):
        """End each (point, cluster) decode marked in `lost`, which
        broadcasts to (P, C), unless it has ended already."""
        shape = (len(self.triple_of), len(self.real))
        new = [key for key in map(tuple, np.argwhere(np.broadcast_to(lost, shape)).tolist())
               if key not in self.errors]
        if new:
            self.errors.update(dict.fromkeys(new, InfeasibleTrellisError(message)))


def combine_beliefs(front, stale, beta_b, chunk):
    """Per-trace beliefs about the current message symbol at a read layer,
    for each row of a stacked front (rows, T, S, M, W) and its `beta_b` (a
    `_Powers` of T exponents).
    `stale` is the opposite sweep's (rows, S, M, W) block of the layer, and
    `chunk` (a `_Chunk`) says which cluster each row belongs to.

    For trace k and message symbol m the belief is the sum of
    front_k * stale_k**beta_b over the layer's encoder states and window,
    at index m of its message axis. Rows are normalised (the sweeps rescale
    layers freely, so only ratios carry information); a decode with a real
    row of no mass ends. Returns ((T, C, K, M) beliefs on `chunk`'s grid,
    1.0 in each slot not real or of no mass, and their product over each
    cluster's traces, (T, C, M)).
    """
    powed = beta_b(stale, shared=True)
    rows = (front.swapaxes(0, 1) * powed).sum(axis=4).sum(axis=2)
    rows = rows.reshape(rows.shape[:1] + chunk.real.shape + rows.shape[2:])
    tot = rows.sum(axis=3, keepdims=True)
    chunk.end(tot[..., 0] <= 0.0, "belief row lost all mass during the sweep")
    rows = np.divide(rows, tot, out=np.ones_like(rows), where=chunk.real[..., None] & (tot > 0))
    return rows, np.multiply.reduce(rows, axis=2)


def gamma_updates(rows, beta_e, beta_i, chunk):
    """The unnormalised update gamma for each stack row and trellis, shaped
    as the (T, C, K, M) beliefs `rows` of C clusters of K slots: a
    trellis's own belief to the beta_i power times the belief of every
    other trace of its cluster to the beta_e power (each a `_Powers` of T
    exponents), multiplied in trace order. Each belief is raised to each
    power once. `chunk` says which slots are real; the others hold beliefs
    of 1.0, a factor of 1, and their gammas are not read. A decode with a
    real gamma of no mass ends; a gamma of no mass is divided by 1."""
    n = rows.shape[2]
    # factor j + 1 is trace j's belief to beta_e, and 1 for trellis j itself
    factors = np.empty((n + 1,) + rows.shape)
    factors[0] = beta_i(rows)
    factors[1:] = beta_e(rows).transpose(2, 0, 1, 3)[:, :, :, None]
    factors[1 + np.arange(n), :, :, np.arange(n)] = 1.0
    g = np.multiply.reduce(factors, axis=0)
    m = g.max(axis=3, keepdims=True)
    chunk.end(m[..., 0] <= 0.0, "gamma update vanished for one trellis")
    m[m <= 0] = 1
    return g / m


def update_forward(front, gamma):
    """Rescale a trellis front by gamma(m): the update applied to every
    cell of the read layer at index m of its message axis. A front
    (..., S, M, W) takes gammas (..., M): a stacked front (rows, T, S, M, W)
    one row per trace and beta triple. Scaling gamma by any positive
    constant leaves later estimates unchanged."""
    return front * gamma[..., None, :, None]


def _posterior_row(combined, beta_o, chunk):
    """Each point's (P, C, M) posterior row, its triple's (T, C, M)
    combined belief to its `beta_o` (a `_Powers` of P exponents),
    normalised; a point whose row has no mass ends alone."""
    row = beta_o(combined[chunk.triple_of])
    tot = row.sum(axis=-1, keepdims=True)
    lost = tot <= 0.0
    if lost.any():
        chunk.end_points(lost[..., 0], "combined belief has no mass")
        tot[lost] = 1.0
    return row / tot


def _stale(lat, sweep, back, t):
    """The init's `sweep` block (rows, S, M, W) at read layer t, stepped
    from the boundary block it kept beside t, as the sweep stepped it."""
    step = lat.step_backward if back else lat.step_forward
    return step(t, sweep.layers[t + 1 if back else t - 1][:, None])[0][:, 0]


def _exchange_sweep(lat, back, chunk, triples, beta_o, width, layers, reads, stale,
                    rows_out):
    """Step the lattice's stacked front, one row per (trace, beta triple of
    `triples`, three `_Powers` of T exponents), from its initial block
    through `layers`, forward or with `back` backward. At each layer of
    `reads` ({layer: message position}) the front is combined with the
    stale opposite sweep, per cluster of `chunk`, into that position's
    posterior rows, one per point of `beta_o`, and each trace's row
    receives its gamma update from its own cluster's traces, the beliefs
    summing each position's first `width` cells. A triple whose real front
    dies ends its points, with the error text of that step."""
    beta_b, beta_e, beta_i = triples
    step = lat.step_backward if back else lat.step_forward
    b = lat.initial_backward_block() if back else lat.initial_forward_block()
    front = np.broadcast_to(b[:, None], (len(b), beta_b.rows) + b.shape[1:])
    for t in layers:
        front, _, dead = step(t, front)
        if dead is not None:
            chunk.end(dead.T.reshape((-1,) + chunk.real.shape), lat.vanished(back, t))
        if t not in reads:
            continue
        w = width[lat.layers[t].npos]
        old = _stale(lat, stale, not back, t)[..., :w]
        rows, combined = combine_beliefs(front[..., :w], old, beta_b, chunk)
        rows_out[:, :, reads[t]] = _posterior_row(combined, beta_o, chunk)
        if not (beta_e.zero and beta_i.zero):
            g = gamma_updates(rows, beta_e, beta_i, chunk)
            front = update_forward(front, g.reshape(beta_b.rows, len(front), -1).swapaxes(0, 1))


def _exchange(encoder, lat, fwd, bwd, triples, beta_o, chunk, kept):
    """Both exchange sweeps over the read blocks of the exact per-trace
    sweeps (`_stale`), which they only read, for every (beta_b, beta_e,
    beta_i) triple of `triples` (3, T) at once: the lattice's front has one
    row per (trace, triple), and each exponent row is grouped once
    (`_Powers`). Returns the (P, C, L, M) posterior rows of each (point,
    cluster) decode of `chunk`, point p reading its triple with beta_o[p],
    as that decode alone gives them; a decode that ended (a real row of its
    triple vanished, or its own posterior row) has its error in
    `chunk.errors` instead."""
    L = encoder.L
    half = L // 2
    # each position's widest window among the `kept` rows: a dead row may
    # widen the axis, and a belief summing its zero cells would round
    # otherwise than the kept rows' own lattice
    width = (lat.hi - lat.lo)[:, kept].max(axis=(1, 2)) + 1
    rows_out = np.empty((len(beta_o), len(chunk.real), L, encoder.msg_size))
    triples, beta_o = [_Powers(b) for b in triples], _Powers(beta_o)
    # a forward-updating sweep estimates the first half at its post layers
    first = {lat.post_read_layer[l]: l for l in range(half)}
    _exchange_sweep(lat, False, chunk, triples, beta_o, width,
                    range(1, max(first, default=0) + 1), first, bwd, rows_out)
    # a backward-updating sweep estimates the second half from the other end
    second = {lat.input_read_layer[l]: l for l in range(half, L)}
    _exchange_sweep(lat, True, chunk, triples, beta_o, width,
                    range(len(lat.layers) - 2, min(second) - 1, -1), second, fwd, rows_out)
    return rows_out


def run_trellis_bma(encoder, clusters, params, betas, delta=None, offsets=None):
    """Approximate message posteriors of a chunk of clusters at per-trace
    trellis cost, one decode per cluster and entry of `betas`, a nonempty
    list or tuple of BetaParams. `clusters` is a nonempty sequence of trace
    lists of one length K (a single cluster being a list of one), `offsets`
    None or one scrambling vector (or None) per cluster.

    A decode is a chunk of C clusters x a beta stack. Every trace of every
    cluster is a row of one lattice (`trellis.build_trellis`), each row
    carrying its cluster's offset, and is swept once by the exact engine;
    one exchange then decodes every (cluster, entry) at once, its front
    holding one row per (trace, distinct (beta_b, beta_e, beta_i) of the
    entries), each cluster's beliefs combined over its own kept rows, and
    each entry's posterior read with its beta_o. Returns, per cluster, a
    list with per entry its PosteriorTable (hard estimates as
    `PosteriorTable.from_rows` takes them) or the InfeasibleTrellisError
    that ended its decode, equal to that cluster and entry decoded alone;
    a cluster whose every trace was infeasible has that one error at every
    entry. Infeasible traces are dropped with a warning naming each one.
    An empty cluster, or clusters of different trace counts, are a
    ConfigError.
    """
    if (not isinstance(clusters, (list, tuple)) or not clusters
            or not all(isinstance(c, (list, tuple)) for c in clusters)):
        raise ConfigError("clusters must be a nonempty list of trace lists, a single "
                          "cluster being a list of one")
    if not all(clusters):
        raise ConfigError("Trellis BMA needs at least one trace")
    counts = sorted({len(c) for c in clusters})
    if len(counts) > 1:
        raise ConfigError(f"every cluster of a Trellis BMA chunk needs the same number of "
                          f"traces: got {counts}")
    if (not isinstance(betas, (list, tuple)) or not betas
            or not all(isinstance(b, BetaParams) for b in betas)):
        raise ConfigError(f"betas must be a nonempty list or tuple of BetaParams, a single "
                          f"point being a sequence of them of length 1; got {betas!r}")
    offsets = [None] * len(clusters) if offsets is None else offsets
    if len(offsets) != len(clusters):
        raise ConfigError(f"need one offset per cluster: got {len(offsets)} "
                          f"for {len(clusters)} clusters")
    C, K = len(clusters), counts[0]
    lat, fwd, bwd, kept = init_single_trace_trellises(
        encoder, [y for c in clusters for y in c], params, delta=delta,
        offsets=[z for z in offsets for _ in range(K)], k=K)
    index = {}
    triple_of = np.array([index.setdefault(bp.as_tuple()[:3], len(index)) for bp in betas])
    chunk = _Chunk(C, K, kept, triple_of)
    rows = _exchange(encoder, lat, fwd, bwd, np.array(list(index), dtype=float).T,
                     np.array([bp.beta_o for bp in betas], dtype=float), chunk,
                     kept) if kept else None
    return [[chunk.errors.get((p, c)) or PosteriorTable.from_rows(rows[p, c])
             for p in range(len(betas))] for c in range(C)]


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
