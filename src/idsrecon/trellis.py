"""Multi-trace IDS trellis: a layered weighted DAG whose origin-to-absorbing
paths enumerate joint (message, channel-event, trace) outcomes.

Stage schedule for one message symbol l (an "input cycle"):

    boundary -load-> input -advance-> ids(sym 0, trc 0) -consume-> ..
        ids(sym 0, trc K-1) -consume-> post(sym 0) -advance->
        ids(sym 1, trc 0) .. -> post(sym u-1) -clear-> boundary

* boundary: message and codeword buffers cleared; cells are (q, pointers).
* input: a message symbol m was accepted (weight 1/|M|, the uniform prior),
  the encoder advanced, and the first codeword symbol of the cycle is on
  deck.
* ids: channel events of one (codeword symbol, trace) pair. Insertions run
  inside the layer, each advancing that trace's pointer and explaining one
  trace symbol; deletion and substitute/correct lead to the next layer.
* post: the codeword symbol has been explained in every trace; the next
  symbol is loaded, or the buffers are cleared into the next boundary layer.
  These layers carry the cycle's message symbol and have no insertions, so
  they are where posteriors are read.

Pointers count explained trace symbols (0..R_k, i.e. the paper-style pointer
minus one); the origin is all-zeros and absorbing cells have every pointer
at R_k. Under a drift bound `delta`, the pointer window for trace k after n
codeword symbols is round(n*R_k/N) +- delta, clipped to [0, R_k].

The trellis exists only as these layer arrays. A layer's values come from
its predecessor's by one of four transfers, then, in an ids layer, the
insertion runs:

* load (boundary -> input): each combo gathers its encoder state's row,
  times the uniform message prior;
* advance (input or post -> the next symbol's first ids layer): window
  n -> n+1, the only transfer across which windows change;
* consume (ids layer of trace k -> the next layer): deletion, p_del times
  the cell, plus substitute/correct, a shift by one along pointer axis k
  times the weight of explaining that trace symbol;
* clear (post -> boundary): each combo is added into its next encoder
  state's row;
* insertion runs: a (W, W) matrix on the ids layer's pointer axis
  (`_chain`).

Each is written once and read in both directions: the backward sweep applies
it transposed, a gather becoming a scatter-add and back, the shift running
the other way, the matrix transposed.

The steps act on a stack (P, C, W...) of P independent rows of one layer,
each as it would be stepped alone: the exact sweeps step a stack of one,
the Trellis BMA exchange one row per beta point.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .alphabet import as_indices
from .channel import IDSParams
from .errors import ConfigError, InfeasibleTrellisError

BOUNDARY, INPUT, IDS, POST = "boundary", "input", "ids", "post"


@dataclass
class _Layer:
    kind: str
    trace: int = -1        # trace whose events this ids layer models
    wins: tuple = ()       # per trace (lo, hi), 0-based inclusive
    shape: tuple = ()      # combos (boundary: encoder states), then a pointer axis per trace
    cm: np.ndarray | None = None       # per-combo message symbol
    rows: np.ndarray | None = None     # input: the boundary row each combo loads;
                                       # boundary: the row each previous combo clears into
    subcor: np.ndarray | None = None   # ids: substitute/correct weights (`_subcor`)

    @property
    def n_combo(self):
        return self.shape[0]


@functools.lru_cache(maxsize=256)
def _chain(width, coeff):
    """An ids layer's insertion runs as a read-only (width, width) matrix,
    shared by layers of one width: entry (j, i) is coeff**(j-i), the weight
    of the insertions that move the pointer from i to j >= i."""
    j = np.arange(width)
    m = np.tril(coeff ** np.maximum(j[:, None] - j, 0))
    m.setflags(write=False)
    return m


def _scatter(arr, rows, shape):
    """The stack `arr` (P, C, W...) with combo c added into row rows[c] of
    a zero stack of layer shape `shape`."""
    out = np.zeros((len(arr),) + shape)
    np.add.at(out, (slice(None), rows), arr)
    return out


@dataclass
class SweepResult:
    """One direction of inference over the layer arrays.

    `layers[t]` holds that layer's values rescaled by exp(scales[t]),
    true value = layers[t] * exp(scales[t]), for each layer t the sweep was
    asked to keep, and None for every other layer. `scales` covers every
    layer.
    """
    layers: list
    scales: np.ndarray
    loglik: float


class Trellis:
    """Built by `build_trellis`: the layer arrays and the transfers between them."""

    def __init__(self, encoder, traces, params, delta, offset):
        self.encoder = encoder
        self.params = params
        self.traces = traces
        self.delta = delta
        self.offset = offset
        self.K = len(traces)
        self.R = tuple(len(y) for y in traces)
        self.A = encoder.alphabet.size
        self.L = encoder.L
        self.N = encoder.N
        self.layers: list[_Layer] = []
        self.post_read_layer = [None] * self.L   # last post layer per cycle
        self.input_read_layer = [None] * self.L  # input layer per cycle
        self._cell_axes = tuple(range(1, self.K + 2))  # every axis of a stack but the first
        self._build_layers()

    # ------------------------------------------------------------------
    # construction

    def _wins(self, npos):
        """Per trace, its pointer window (lo, hi) after `npos` codeword symbols."""
        if self.delta is None:
            return tuple((0, r) for r in self.R)
        centres = [int(math.floor(npos * r / self.N + 0.5)) for r in self.R]
        return tuple((max(0, c - self.delta), min(r, c + self.delta))
                     for c, r in zip(centres, self.R))

    def _shape(self, ncombo, wins):
        return (ncombo,) + tuple(hi - lo + 1 for lo, hi in wins)

    def _build_layers(self):
        enc = self.encoder
        Mz = enc.msg_size
        layers = self.layers
        states = np.array([enc.q_init], dtype=np.int32)
        npos = 0
        wins = self._wins(0)
        layers.append(_Layer(BOUNDARY, wins=wins, shape=self._shape(len(states), wins)))

        for l in range(self.L):
            u = enc.emission_counts[l]
            # this cycle's (state, message) transitions, one combo each
            qprev = np.repeat(states, Mz)
            cm = np.tile(np.arange(Mz, dtype=np.int32), len(states))
            cq, emit = enc.transition(qprev, cm, l)
            if self.offset is not None:
                emit = (emit + self.offset[npos:npos + u]) % self.A
            self.input_read_layer[l] = len(layers)
            # `wins` is still the boundary's: windows change only across an advance
            layers.append(_Layer(INPUT, wins=wins, cm=cm, shape=self._shape(len(cm), wins),
                                 rows=np.searchsorted(states, qprev).astype(np.int32)))

            for c in range(u):
                wins = self._wins(npos + c + 1)
                shape = self._shape(len(cm), wins)
                layers += [_Layer(IDS, trace=k, wins=wins, cm=cm, shape=shape,
                                  subcor=self._subcor(k, wins, emit[:, c]))
                           for k in range(self.K)]
                if c == u - 1:
                    self.post_read_layer[l] = len(layers)
                layers.append(_Layer(POST, wins=wins, cm=cm, shape=shape))
            npos += u
            states = np.unique(cq)
            layers.append(_Layer(BOUNDARY, wins=wins, shape=self._shape(len(states), wins),
                                 rows=np.searchsorted(states, cq).astype(np.int32)))

        for k in range(self.K):
            lo, hi = layers[-1].wins[k]
            if not lo <= self.R[k] <= hi:
                raise InfeasibleTrellisError(
                    f"trace {k} of length {self.R[k]} cannot be completed under delta={self.delta}")

    def _subcor(self, k, wins, cx):
        """Substitute/correct weights of an ids layer of trace k whose combos
        have the on-deck codeword symbols `cx` (as transmitted), by (combo,
        source pointer), for each pointer of the window but the last (its
        successor lies outside), shaped to broadcast along pointer axis k.
        Zero at pointer R_k: no symbol left to explain."""
        p = self.params
        lo, hi = wins[k]
        w = np.zeros((len(cx), hi - lo))
        top = min(hi, self.R[k]) - 1
        if top >= lo:
            match = self.traces[k][lo:top + 1][None, :] == cx[:, None]
            w[:, :top - lo + 1] = np.where(match, p.p_cor,
                                           p.p_sub / (self.A - 1) if self.A > 1 else 0.0)
        return w.reshape((len(cx),) + tuple(hi - lo if j == k else 1 for j in range(self.K)))

    # ------------------------------------------------------------------
    # the transfers: each moves a stack from layer a into the next layer b,
    # or with `back` from b into a by its transpose

    def _load(self, a, b, arr, back):
        """Boundary a -> input b: each combo gathers its encoder state's row,
        times the uniform message prior."""
        w = 1.0 / self.encoder.msg_size
        return _scatter(arr * w, b.rows, a.shape) if back else arr[:, b.rows] * w

    def _advance(self, a, b, arr, back):
        """Input or post a -> ids b of the next codeword symbol: window n ->
        n+1 on every pointer axis, the only transfer that moves windows.
        Cells the new window drops are lost; cells it adds start at zero."""
        if back:
            a, b = b, a
        out = np.zeros((len(arr),) + b.shape)
        src, dst = [slice(None)] * 2, [slice(None)] * 2  # stack and combo axes whole
        for (a_lo, a_hi), (b_lo, b_hi) in zip(a.wins, b.wins):
            lo, hi = max(a_lo, b_lo), min(a_hi, b_hi)
            if lo > hi:  # the windows do not meet
                return out
            src.append(slice(lo - a_lo, hi - a_lo + 1))
            dst.append(slice(lo - b_lo, hi - b_lo + 1))
        out[tuple(dst)] = arr[tuple(src)]
        return out

    def _consume(self, a, arr, back):
        """Ids a of trace k -> the next layer, in the same windows: deletion
        keeps the pointer, substitute/correct moves it up by one."""
        ax = (slice(None),) * (2 + a.trace)
        src, dst = ax + (slice(None, -1),), ax + (slice(1, None),)
        if back:
            src, dst = dst, src
        out = arr * self.params.p_del
        out[dst] += arr[src] * a.subcor
        return out

    def _clear(self, a, b, arr, back):
        """Post a -> boundary b: each combo is added into its next encoder
        state's row."""
        return arr[:, b.rows] if back else _scatter(arr, b.rows, b.shape)

    def _insert(self, lay, arr, back):
        """An ids layer's insertion runs along its trace's pointer axis."""
        ax = 2 + lay.trace
        chain = _chain(lay.shape[ax - 1], self.params.p_ins / self.A)
        if not back:
            chain = chain.T
        if ax == arr.ndim - 1:  # the swaps would be no-ops, at a cost per step
            return arr @ chain
        return (arr.swapaxes(ax, -1) @ chain).swapaxes(ax, -1)

    # ------------------------------------------------------------------
    # inference sweeps over the layer arrays

    def _pull(self, t, arr, back=False):
        """Layer t's values from layer t-1's by the transfer between them,
        or with `back` from layer t+1's by that transfer transposed; then an
        ids layer's insertion runs, transposed with `back`. `arr` and the
        result are stacks (P, C, W...) of independent rows."""
        s = t + 1 if back else t
        a, b = self.layers[s - 1], self.layers[s]
        if b.kind == INPUT:
            out = self._load(a, b, arr, back)
        elif b.kind == BOUNDARY:
            out = self._clear(a, b, arr, back)
        elif a.kind == IDS:
            out = self._consume(a, arr, back)
        else:
            out = self._advance(a, b, arr, back)
        lay = self.layers[t]
        return self._insert(lay, out, back) if lay.kind == IDS else out

    def initial_forward_block(self):
        arr = np.zeros(self.layers[0].shape)
        arr[(0,) + (0,) * self.K] = 1.0  # origin: q_init, nothing explained
        return arr

    def initial_backward_block(self):
        fin = self.layers[-1]
        arr = np.zeros(fin.shape)
        arr[(slice(None),) + self._absorbing_index()] = 1.0  # every pointer done
        return arr

    def _absorbing_index(self):
        fin = self.layers[-1]
        return tuple(self.R[k] - fin.wins[k][0] for k in range(self.K))

    def _rescale(self, t, arr, direction):
        """(each row of the stack `arr` over its own max, the row maxima
        shaped to broadcast over the stack). Raises unless every max is
        positive and finite; the error's `rows` marks the rows that fail."""
        s = np.maximum.reduce(arr, axis=self._cell_axes, keepdims=True)
        m = s.ravel().tolist()
        if not (min(m) > 0.0 and sum(m) < math.inf):  # the sum is NaN or inf if any one is
            raise InfeasibleTrellisError(
                f"{direction} mass vanished at layer {t} ({self.layers[t].kind}); "
                f"no path explains the traces (delta={self.delta})",
                rows=~((s > 0.0) & (s < math.inf)).ravel())
        return arr / s, s

    def step_forward(self, t, arr):
        """Advance a stack of forward fronts from layer t-1 into layer t.
        Returns (rescaled stack, the row maxima divided out)."""
        return self._rescale(t, self._pull(t, arr), "forward")

    def step_backward(self, t, arr):
        """Pull a stack of backward fronts from layer t+1 into layer t."""
        return self._rescale(t, self._pull(t, arr, back=True), "backward")

    def fronts(self, back=False):
        """The one sweep loop: step one direction's front, a stack of one,
        from its initial block through every layer, yielding (t, block, log
        scale) as it reaches layer t; the block's true values are block *
        exp(log scale). A block is not written to after it is yielded."""
        n = len(self.layers)
        order = range(n - 1, -1, -1) if back else range(n)
        step = self.step_backward if back else self.step_forward
        arr = (self.initial_backward_block() if back else self.initial_forward_block())[None]
        logtot = 0.0
        for i, t in enumerate(order):
            if i > 0:
                arr, s = step(t, arr)
                logtot += math.log(s.item())
            yield t, arr[0], logtot

    def _sweep(self, back, keep, end, vanished):
        """Run `fronts` to the end, keeping the blocks of the layers in
        `keep` (every layer when None). The last block's cells `end` hold
        the total mass."""
        n = len(self.layers)
        keep = range(n) if keep is None else frozenset(keep)
        kept = [None] * n
        scales = np.zeros(n)
        for t, arr, logtot in self.fronts(back):
            scales[t] = logtot
            if t in keep:
                kept[t] = arr
        tot = arr[end].sum()
        if tot <= 0.0:
            raise InfeasibleTrellisError(vanished)
        return SweepResult(kept, scales, math.log(tot) + logtot)

    def forward(self, keep=None):
        """Forward sweep from the origin, keeping the layers whose indices
        are in `keep` (every layer when None, none when empty)."""
        return self._sweep(False, keep, (slice(None),) + self._absorbing_index(),
                           "no forward mass reaches an absorbing vertex")

    def backward(self, keep=None):
        """Backward sweep from the absorbing vertices to the origin; `keep`
        as for `forward`."""
        return self._sweep(True, keep, (0,) * (1 + self.K), "no backward mass reaches the origin")


def build_trellis(encoder, traces, params, delta=None, offset=None):
    """Construct the trellis for `traces` (a list of K observed sequences)
    under a uniform message prior.

    `delta` bounds pointer drift (None = exact); `offset` is an optional
    length-N scrambling vector added to the encoder output before
    transmission.

    No sweep runs here: an infeasible trellis raises from its first sweep,
    at the layer where the mass vanishes.
    """
    if not isinstance(params, IDSParams):
        params = IDSParams(*params)
    traces = [as_indices(y, encoder.alphabet) for y in traces]
    if len(traces) < 1:
        raise ConfigError("need at least one trace")
    if delta is not None and delta < 0:
        raise ConfigError("delta must be nonnegative")
    if offset is not None:
        offset = as_indices(offset, encoder.alphabet).astype(np.int32)
        if len(offset) != encoder.N:
            raise ConfigError("offset length must equal the codeword length")
    if sum(encoder.emission_counts) != encoder.N:
        raise ConfigError("encoder emission counts do not sum to N")
    return Trellis(encoder, traces, params, delta, offset)
