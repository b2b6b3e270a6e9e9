"""Belief-exchanging reconstruction from per-trace trellises.

One exact trellis per trace is built and solved once. A forward sweep then
re-runs all K forward recursions in lockstep: at each message cycle the
per-trace beliefs are combined, an estimate is emitted, and every trellis's
forward values are reweighted per message symbol by a factor gamma derived
from the other trellises, steering each decoder's synchronisation with the
consensus. The first half of the message is estimated this way; a mirrored
sweep updating the backward values estimates the second half from the other
end. Total cost is linear in the number of traces.

A decode is always a stack of beta points, a single decode a stack of one.
The exact per-trace sweeps do not depend on the hyperparameters beta, so
they run once per stack; the exchange then runs once for the whole stack,
each trellis's front carrying one row per point (`Trellis._pull`).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .bcjr import PosteriorTable
from .errors import ConfigError, InfeasibleTrellisError
from .trellis import Trellis, build_trellis

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
    """Build one trellis per trace and run both exact sweeps on each.

    Each sweep keeps only the layers the exchange reads as its stale side:
    the forward sweep the input layers of the second half of the message,
    the backward sweep the post read layers of the first half.

    Traces whose trellis has no surviving path under `delta` are dropped
    with a warning (real clusters contain outlier reads); all traces being
    infeasible is an error. Returns (trellises, forward sweeps, backward
    sweeps, indices of the kept traces).
    """
    half = encoder.L // 2
    trellises, fwds, bwds, kept = [], [], [], []
    for k, y in enumerate(traces):
        try:
            tr = build_trellis(encoder, [y], params, delta=delta, offset=offset)
            fs = tr.forward(keep=tr.input_read_layer[half:])
            bs = tr.backward(keep=tr.post_read_layer[:half])
        except InfeasibleTrellisError as e:
            logger.warning("dropping trace %d: %s", k, e)
            continue
        trellises.append(tr)
        fwds.append(fs)
        bwds.append(bs)
        kept.append(k)
    if not trellises:
        raise InfeasibleTrellisError("every trace was infeasible under the drift bound")
    return trellises, fwds, bwds, kept


def combine_beliefs(fronts, stale, cm, mz, beta_b):
    """Per-trace beliefs about the current message symbol at a read layer,
    for each row of a stack of fronts (one (P, C, W) block per trace) and
    its `beta_b`. `cm` is the layer's per-combo message symbol, the same in
    every trellis of one encoder.

    For trace k the belief is sum_v front_k(v) * stale_k(v)**beta_b over
    the layer's vertices grouped by their message symbol. Rows are
    normalised (the sweeps rescale layers freely, so only ratios carry
    information). Returns ((P, K, mz) beliefs, their product over traces).
    """
    p, n = len(fronts[0]), len(fronts)
    joint = np.empty((p, n, len(cm)))
    for k, (front, old) in enumerate(zip(fronts, stale)):
        powed = _pow_rows(old, beta_b, shared=True)
        joint[:, k] = (front * powed).reshape(p, len(cm), -1).sum(axis=2)
    # one bincount of cm per (row, trace), each into its own mz bins
    bins = (cm + mz * np.arange(p * n)[:, None]).ravel()
    rows = np.bincount(bins, weights=joint.ravel(), minlength=p * n * mz).reshape(p, n, mz)
    tot = rows.sum(axis=2, keepdims=True)
    _vanished(tot.min(axis=1), "belief row lost all mass during the sweep")
    rows = rows / tot
    return rows, np.multiply.reduce(rows, axis=1)


def gamma_updates(rows, beta_e, beta_i):
    """The unnormalised update gamma for each stack row and trellis, shaped
    as the (P, K, mz) beliefs `rows`: a trellis's own belief to the beta_i
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


def update_forward(front, gamma, cm):
    """Rescale a trellis front by gamma(m(v)): the update applied to
    every vertex of the read layer, grouped by its message symbol. A stack
    of fronts (P, C, W) takes one gamma row per front. Scaling gamma by any
    positive constant leaves later estimates unchanged."""
    g = np.asarray(gamma, dtype=float)[..., cm]
    return front * g.reshape(g.shape + (1,) * (front.ndim - g.ndim))


def _posterior_row(combined, beta_o):
    row = _pow_rows(combined, beta_o)
    tot = row.sum(axis=1, keepdims=True)
    _vanished(tot, "combined belief has no mass")
    return row / tot


class _Stack:
    """The rows of a beta stack still in the exchange: their indices in the
    stack as given, their betas (columns b, e, i, o), and one (P, C, W)
    front per trellis; `failed` holds the error of each row that left."""

    def __init__(self, betas):
        self.index = np.arange(len(betas))
        self.beta = np.array([bp.as_tuple() for bp in betas])
        self.fronts, self.failed = [], {}

    def run(self, op):
        """op() on the rows left. The rows that an InfeasibleTrellisError of
        op marks leave with it, and op runs again on the others; the error
        is raised once no row is left."""
        while True:
            try:
                return op()
            except InfeasibleTrellisError as e:
                gone = np.ones(len(self.index), bool) if e.rows is None else e.rows
                self.failed.update(dict.fromkeys(self.index[gone].tolist(), e))
                self.index, self.beta = self.index[~gone], self.beta[~gone]
                self.fronts = [f[~gone] for f in self.fronts]
                if not len(self.index):
                    raise


def _exchange_sweep(step, initial, trellises, stack, layers, reads, stale, rows_out):
    """Step every trellis's stacked front, from its `initial` block, through
    `layers` in lockstep with `step` (`Trellis.step_forward` or
    `step_backward`). At each layer of `reads` ({layer: message position})
    the fronts are combined with the stale opposite sweeps into that
    position's posterior rows, and each front receives its gamma update."""
    stack.fronts = [np.broadcast_to(b, (len(stack.index),) + b.shape)
                    for b in map(initial, trellises)]
    for t in layers:
        for i, tr in enumerate(trellises):
            stack.fronts[i] = stack.run(lambda: step(tr, t, stack.fronts[i])[0])
        if t not in reads:
            continue
        cm, old = trellises[0].layers[t].cm, [sw.layers[t] for sw in stale]

        def read():
            beta_b, beta_e, beta_i, beta_o = stack.beta.T
            rows, combined = combine_beliefs(stack.fronts, old, cm, rows_out.shape[2], beta_b)
            post = _posterior_row(combined, beta_o)
            if not (beta_e.any() or beta_i.any()):
                return post, None
            return post, gamma_updates(rows, beta_e, beta_i)

        rows_out[stack.index, reads[t]], gammas = stack.run(read)
        if gammas is not None:
            stack.fronts = [update_forward(f, gammas[:, k], cm)
                            for k, f in enumerate(stack.fronts)]


def _exchange(encoder, trellises, fwds, bwds, betas):
    """Both exchange sweeps over the stored read layers of the exact
    per-trace sweeps, which they only read, for every point of `betas` at
    once: each trellis's front is a stack with one row per point. Returns
    per point its PosteriorTable, or the InfeasibleTrellisError that ended
    its row, as that point's exchange alone gives."""
    L = encoder.L
    half = L // 2
    stack = _Stack(betas)
    rows_out = np.empty((len(betas), L, encoder.msg_size))
    post_read = trellises[0].post_read_layer
    input_read = trellises[0].input_read_layer
    try:
        # a forward-updating sweep estimates the first half at its post layers
        first = {post_read[l]: l for l in range(half)}
        _exchange_sweep(Trellis.step_forward, Trellis.initial_forward_block, trellises, stack,
                        range(1, max(first, default=0) + 1), first, bwds, rows_out)
        # a backward-updating sweep estimates the second half from the other end
        second = {input_read[l]: l for l in range(half, L)}
        _exchange_sweep(Trellis.step_backward, Trellis.initial_backward_block, trellises,
                        stack, range(len(trellises[0].layers) - 2, min(second) - 1, -1),
                        second, fwds, rows_out)
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

    Each trace gets its own `trellis.Trellis`, swept once by the exact
    engine; one exchange then decodes every entry at once, as a stack of
    fronts with one row per entry. Returns, per entry, its PosteriorTable
    (hard estimates are its row argmaxes) or the InfeasibleTrellisError
    its row of the exchange raised, equal to that entry decoded alone.
    Infeasible traces are dropped with a warning naming each one; every
    trace being infeasible is raised, and an empty trace list is a
    ConfigError.
    """
    if len(traces) == 0:
        raise ConfigError("Trellis BMA needs at least one trace")
    if (not isinstance(betas, (list, tuple)) or not betas
            or not all(isinstance(b, BetaParams) for b in betas)):
        raise ConfigError(f"betas must be a nonempty list or tuple of BetaParams, a single "
                          f"point being a sequence of them of length 1; got {betas!r}")
    trellises, fwds, bwds, _ = init_single_trace_trellises(
        encoder, traces, params, delta=delta, offset=offset)
    return _exchange(encoder, trellises, fwds, bwds, betas)


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
