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

A decode is always a stack of beta points, a single decode a stack of one.
The exact per-trace sweeps do not depend on the hyperparameters beta, so
they run once per stack; the exchange then runs once for the whole stack,
its front a (K, P, S, M, W) block: traces x beta points x encoder states x
message symbols x window.
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


def init_single_trace_trellises(encoder, traces, params, delta=None, offset=None):
    """Run both exact sweeps of every trace's one-trace trellis, the traces
    being the rows of one lattice (`build_lattice`).

    Each sweep keeps only the layers the exchange reads as its stale side:
    the forward sweep the input layers of the second half of the message,
    the backward sweep the post read layers of the first half.

    Traces whose trellis has no surviving path under `delta` are dropped
    with a warning (real clusters contain outlier reads), and the sweeps
    rerun on the rest; all traces being infeasible is an error. Returns
    (lattice, forward sweep, backward sweep, indices of the kept traces),
    the lattice's rows being the kept traces.
    """
    half = encoder.L // 2
    kept, dropped = list(range(len(traces))), {}
    while kept:
        lat = build_lattice(encoder, [traces[k] for k in kept], params, delta=delta,
                            offset=offset)
        try:
            fs = lat.forward(keep=lat.input_read_layer[half:])
            bs = lat.backward(keep=lat.post_read_layer[:half])
            break
        except InfeasibleTrellisError as e:
            gone = e.rows.reshape(len(kept), -1).any(axis=1)
            dropped.update((k, e) for k, g in zip(kept, gone) if g)
            kept = [k for k, g in zip(kept, gone) if not g]
    for k in sorted(dropped):
        logger.warning("dropping trace %d: %s", k, dropped[k])
    if not kept:
        raise InfeasibleTrellisError("every trace was infeasible under the drift bound")
    return lat, fs, bs, kept


def combine_beliefs(front, stale, beta_b):
    """Per-trace beliefs about the current message symbol at a read layer,
    for each row of a stacked front (K, P, S, M, W) and its `beta_b`.
    `stale` is the opposite sweep's (K, S, M, W) block of the layer.

    For trace k and message symbol m the belief is the sum of
    front_k * stale_k**beta_b over the layer's encoder states and window,
    at index m of its message axis. Rows are normalised (the sweeps rescale
    layers freely, so only ratios carry information). Returns ((P, K, M)
    beliefs, their product over traces).
    """
    powed = _pow_rows(stale, beta_b, shared=True)
    rows = (front.swapaxes(0, 1) * powed).sum(axis=4).sum(axis=2)
    tot = rows.sum(axis=2, keepdims=True)
    _vanished(tot.min(axis=1), "belief row lost all mass during the sweep")
    rows = rows / tot
    return rows, np.multiply.reduce(rows, axis=1)


def gamma_updates(rows, beta_e, beta_i):
    """The unnormalised update gamma for each stack row and trellis, shaped
    as the (P, K, M) beliefs `rows`: a trellis's own belief to the beta_i
    power times every other trace's belief to the beta_e power, multiplied
    in trace order. Each belief is raised to each power once."""
    n = rows.shape[1]
    # factor j + 1 is trace j's belief to beta_e, and 1 for trellis j itself
    factors = np.empty((n + 1,) + rows.shape)
    factors[0] = _pow_rows(rows, beta_i)
    factors[1:] = _pow_rows(rows, beta_e).transpose(1, 0, 2)[:, :, None]
    factors[1 + np.arange(n), :, np.arange(n)] = 1.0
    g = np.multiply.reduce(factors, axis=0)
    m = g.max(axis=2, keepdims=True)
    _vanished(m.min(axis=1), "gamma update vanished for one trellis")
    return g / m


def update_forward(front, gamma):
    """Rescale a trellis front by gamma(m): the update applied to every
    cell of the read layer at index m of its message axis. A front
    (..., S, M, W) takes gammas (..., M): a stacked front (K, P, S, M, W)
    one row per trace and beta point. Scaling gamma by any positive
    constant leaves later estimates unchanged."""
    g = np.asarray(gamma, dtype=float)
    return front * g[..., None, :, None]


def _posterior_row(combined, beta_o):
    row = _pow_rows(combined, beta_o)
    tot = row.sum(axis=1, keepdims=True)
    _vanished(tot, "combined belief has no mass")
    return row / tot


class _Stack:
    """The rows of a beta stack still in the exchange: their indices in the
    stack as given, their betas (columns b, e, i, o), and the stacked front
    (K, P, S, M, W); `failed` holds the error of each row that left."""

    def __init__(self, betas):
        self.index = np.arange(len(betas))
        self.beta = np.array([bp.as_tuple() for bp in betas])
        self.front, self.failed = None, {}

    def run(self, op):
        """op() on the rows left. The rows that an InfeasibleTrellisError of
        op marks, (P,) or per trace (K, P), leave with it, and op runs again
        on the others; the error is raised once no row is left."""
        while True:
            try:
                return op()
            except InfeasibleTrellisError as e:
                gone = (np.ones(len(self.index), bool) if e.rows is None
                        else e.rows.reshape(-1, len(self.index)).any(axis=0))
                self.failed.update(dict.fromkeys(self.index[gone].tolist(), e))
                self.index, self.beta = self.index[~gone], self.beta[~gone]
                self.front = self.front[:, ~gone]
                if not len(self.index):
                    raise


def _exchange_sweep(step, initial, lat, stack, layers, reads, stale, rows_out):
    """Step the lattice's stacked front, from its `initial` block, through
    `layers` with `step` (`Trellis.step_forward` or `step_backward`). At
    each layer of `reads` ({layer: message position}) the front is
    combined with the stale opposite sweep into that position's posterior
    rows, and each trace's row receives its gamma update."""
    b = initial(lat)
    stack.front = np.broadcast_to(b[:, None], (len(b), len(stack.index)) + b.shape[1:])
    for t in layers:
        stack.front = stack.run(lambda: step(lat, t, stack.front)[0])
        if t not in reads:
            continue

        def read():
            beta_b, beta_e, beta_i, beta_o = stack.beta.T
            rows, combined = combine_beliefs(stack.front, stale.layers[t], beta_b)
            post = _posterior_row(combined, beta_o)
            if not (beta_e.any() or beta_i.any()):
                return post, None
            return post, gamma_updates(rows, beta_e, beta_i)

        rows_out[stack.index, reads[t]], gammas = stack.run(read)
        if gammas is not None:
            stack.front = update_forward(stack.front, gammas.swapaxes(0, 1))


def _exchange(encoder, lat, fwd, bwd, betas):
    """Both exchange sweeps over the stored read layers of the exact
    per-trace sweeps, which they only read, for every point of `betas` at
    once: the lattice's front has one row per (trace, point). Returns per
    point its PosteriorTable, or the InfeasibleTrellisError that ended its
    row, as that point's exchange alone gives; a point's row ends when any
    of its traces' rows vanishes."""
    L = encoder.L
    half = L // 2
    stack = _Stack(betas)
    rows_out = np.empty((len(betas), L, encoder.msg_size))
    try:
        # a forward-updating sweep estimates the first half at its post layers
        first = {lat.post_read_layer[l]: l for l in range(half)}
        _exchange_sweep(Trellis.step_forward, Trellis.initial_forward_block, lat, stack,
                        range(1, max(first, default=0) + 1), first, bwd, rows_out)
        # a backward-updating sweep estimates the second half from the other end
        second = {lat.input_read_layer[l]: l for l in range(half, L)}
        _exchange_sweep(Trellis.step_backward, Trellis.initial_backward_block, lat, stack,
                        range(len(lat.layers) - 2, min(second) - 1, -1), second, fwd,
                        rows_out)
    except InfeasibleTrellisError:
        if len(stack.index):
            raise
        # every row has left the stack, each with its own error
    return [stack.failed.get(r) or PosteriorTable.from_rows(rows_out[r])
            for r in range(len(betas))]


def run_trellis_bma(encoder, traces, params, betas, delta=None, offset=None):
    """Approximate message posteriors from K traces at per-trace trellis
    cost, one decode per entry of `betas`, a nonempty list or tuple of
    BetaParams.

    Each trace's one-trace trellis is swept once by the exact engine, all
    traces as rows of one lattice (`trellis.build_lattice`); one exchange
    then decodes
    every entry at once, its front holding one row per (trace, entry).
    Returns, per entry, its PosteriorTable (hard estimates are its row
    argmaxes) or the InfeasibleTrellisError its row of the exchange
    raised, equal to that entry decoded alone. Infeasible traces are
    dropped with a warning naming each one; every trace being infeasible
    is raised, and an empty trace list is a ConfigError.
    """
    if len(traces) == 0:
        raise ConfigError("Trellis BMA needs at least one trace")
    if (not isinstance(betas, (list, tuple)) or not betas
            or not all(isinstance(b, BetaParams) for b in betas)):
        raise ConfigError(f"betas must be a nonempty list or tuple of BetaParams, a single "
                          f"point being a sequence of them of length 1; got {betas!r}")
    lat, fwd, bwd, _ = init_single_trace_trellises(
        encoder, traces, params, delta=delta, offset=offset)
    return _exchange(encoder, lat, fwd, bwd, betas)


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
