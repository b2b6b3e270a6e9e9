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
they run once per stack and only the exchange sweeps repeat per point.
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


def combine_beliefs(fronts, stale, cms, mz, beta_b):
    """Per-trace beliefs about the current message symbol at a read layer.

    For trace k the belief is sum_v front_k(v) * stale_k(v)**beta_b over
    the layer's vertices grouped by their message symbol. Rows are
    normalised (the sweeps rescale layers freely, so only ratios carry
    information). Returns (per-trace rows, entrywise product row).
    """
    rows = []
    for front, old, cm in zip(fronts, stale, cms):
        joint = (front * _pow(old, beta_b)).reshape(len(cm), -1).sum(axis=1)
        row = np.bincount(cm, weights=joint, minlength=mz)
        tot = row.sum()
        if tot <= 0.0:
            raise InfeasibleTrellisError("belief row lost all mass during the sweep")
        rows.append(row / tot)
    combined = rows[0].copy()
    for row in rows[1:]:
        combined = combined * row
    return rows, combined


def gamma_updates(rows, beta_e, beta_i):
    """The unnormalised update gamma for each trellis: its own belief to the
    beta_i power times every other trace's belief to the beta_e power."""
    gammas = []
    for k in range(len(rows)):
        g = _pow(rows[k], beta_i)
        for j in range(len(rows)):
            if j != k:
                g = g * _pow(rows[j], beta_e)
        m = g.max()
        if m <= 0.0:
            raise InfeasibleTrellisError("gamma update vanished for one trellis")
        gammas.append(g / m)
    return gammas


def update_forward(front, gamma, cm):
    """Rescale a trellis front by gamma(m(v)): the update applied to
    every vertex of the read layer, grouped by its message symbol. Scaling
    gamma by any positive constant leaves later estimates unchanged."""
    g = np.asarray(gamma, dtype=float)
    return front * g[cm].reshape((-1,) + (1,) * (front.ndim - 1))


def _posterior_row(combined, beta_o):
    row = _pow(combined, beta_o)
    tot = row.sum()
    if tot <= 0.0:
        raise InfeasibleTrellisError("combined belief has no mass")
    return row / tot


def _exchange_sweep(step, trellises, fronts, layers, reads, stale, betas, rows_out):
    """Step every trellis front through `layers` in lockstep with `step`
    (`Trellis.step_forward` or `step_backward`). At each layer of `reads`
    ({layer: message position}) the fronts are combined with the stale
    opposite sweeps into that position's posterior row, and each front
    receives its gamma update."""
    mz = rows_out.shape[1]
    for t in layers:
        for i, tr in enumerate(trellises):
            fronts[i], _ = step(tr, t, fronts[i])
        l = reads.get(t)
        if l is None:
            continue
        cms = [tr.layers[t].cm for tr in trellises]
        rows, combined = combine_beliefs(fronts, [sw.layers[t] for sw in stale],
                                         cms, mz, betas.beta_b)
        rows_out[l] = _posterior_row(combined, betas.beta_o)
        if betas.beta_e != 0.0 or betas.beta_i != 0.0:
            for i, g in enumerate(gamma_updates(rows, betas.beta_e, betas.beta_i)):
                fronts[i] = update_forward(fronts[i], g, cms[i])


def _exchange(encoder, trellises, fwds, bwds, betas):
    """Both exchange sweeps at `betas` over the stored read layers of the
    exact per-trace sweeps, which they only read. Returns the posterior."""
    L = encoder.L
    half = L // 2
    rows_out = np.empty((L, encoder.msg_size))
    post_read = trellises[0].post_read_layer
    input_read = trellises[0].input_read_layer

    # a forward-updating sweep estimates the first half at its post layers
    first = {post_read[l]: l for l in range(half)}
    _exchange_sweep(Trellis.step_forward, trellises,
                    [tr.initial_forward_block() for tr in trellises],
                    range(1, max(first, default=0) + 1), first, bwds, betas, rows_out)
    # a backward-updating sweep estimates the second half from the other end
    second = {input_read[l]: l for l in range(half, L)}
    _exchange_sweep(Trellis.step_backward, trellises,
                    [tr.initial_backward_block() for tr in trellises],
                    range(len(trellises[0].layers) - 2, min(second) - 1, -1),
                    second, fwds, betas, rows_out)
    return PosteriorTable.from_rows(rows_out)


def run_trellis_bma(encoder, traces, params, betas, delta=None, offset=None):
    """Approximate message posteriors from K traces at per-trace trellis
    cost, one decode per entry of `betas`, a nonempty list or tuple of
    BetaParams.

    Each trace gets its own `trellis.Trellis`, swept once by the exact
    engine; only the exchange runs per entry. Returns, per entry, its
    PosteriorTable (hard estimates are its row argmaxes) or the
    InfeasibleTrellisError its exchange raised. Infeasible traces are
    dropped with a warning naming each one; every trace being infeasible is
    raised, and an empty trace list is a ConfigError.
    """
    if len(traces) == 0:
        raise ConfigError("Trellis BMA needs at least one trace")
    if (not isinstance(betas, (list, tuple)) or not betas
            or not all(isinstance(b, BetaParams) for b in betas)):
        raise ConfigError(f"betas must be a nonempty list or tuple of BetaParams, a single "
                          f"point being a sequence of them of length 1; got {betas!r}")
    trellises, fwds, bwds, _ = init_single_trace_trellises(
        encoder, traces, params, delta=delta, offset=offset)
    out = []
    for bp in betas:
        try:
            out.append(_exchange(encoder, trellises, fwds, bwds, bp))
        except InfeasibleTrellisError as e:
            out.append(e)
    return out


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
