"""Multi-trace IDS trellis: a layered weighted DAG whose origin-to-absorbing
paths enumerate joint (message, channel-event, trace) outcomes.

Stage schedule for one message symbol l (an "input cycle"):

    boundary -input-> input -load-> ids(sym 0, trc 0) .. ids(sym 0, trc K-1)
        -> post(sym 0) -update-> ids(sym 1, trc 0) .. -> post(sym u-1)
        -clear-> boundary

* boundary: message and codeword buffers cleared; cells are (q, pointers).
* input: a message symbol m was accepted (edge weight 1/|M|, the uniform
  prior), the encoder advanced, and the first codeword symbol of the cycle
  is on deck.
* ids: channel events of one (codeword symbol, trace) pair. An insertion is
  an intra-layer edge advancing that trace's pointer and explaining one
  trace symbol; deletion and substitute/correct edges lead to the next layer.
* post: the codeword symbol has been explained in every trace; an update
  edge loads the next symbol, or a clear edge empties the buffers into the
  next boundary layer. These layers carry the cycle's message symbol and
  have no intra-layer edges, so they are where posteriors are read.

Pointers count explained trace symbols (0..R_k, i.e. the paper-style pointer
minus one); the origin is all-zeros and absorbing cells have every pointer
at R_k. Under a drift bound `delta`, the pointer window for trace k after n
codeword symbols is round(n*R_k/N) +- delta.

The trellis exists only as these layer arrays. Each layer states its
in-edges from the previous layer once, as a tuple of `_Edges` families, and
one pull applies them in either direction: the backward sweep is the same
pull reading the next layer's families with source and target, gather and
scatter swapped. The insertion runs inside an ids layer are a matrix on its
trace's pointer axis, `_Layer.chain`, which the pull reads the same way:
applied forward, transposed backward.

The pull steps a stack (P, C, W...) of P independent rows of one layer,
each as it would be stepped alone: the exact sweeps step a stack of one,
the Trellis BMA exchange one row per beta point.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .alphabet import as_indices
from .channel import IDSParams
from .errors import ConfigError, InfeasibleTrellisError

BOUNDARY, INPUT, IDS, POST = "boundary", "input", "ids", "post"


class _Edges(NamedTuple):
    """One family of edges of a single event into a layer: source cells
    `layer_src[src]` lead to target cells `layer_dst[dst]` (index tuples
    from `_overlap_slices`, stack and combo axes whole), one edge per
    aligned cell pair. Families whose every weight is zero are not built;
    zero entries of an array weight are edges the trellis does not have.
    Gather and scatter index the combo axis, axis 1. The backward
    pull reads a family transposed with the same weight, which is exact:
    the weight broadcasts over the source block after gather, and that
    block has the shape of the target block before scatter."""
    src: tuple
    dst: tuple
    weight: object = None   # None (weight 1), a scalar, or an array broadcasting over the src block
    gather: tuple | None = None   # input edges: (whole stack axis, combo -> source boundary row)
    scatter: tuple | None = None  # clear edges: (whole stack axis, combo -> target boundary row)


@dataclass
class _Layer:
    kind: str
    trace: int = -1        # trace whose events this ids layer models
    wins: tuple = ()       # per trace (lo, hi), 0-based inclusive
    shape: tuple = ()      # combos (boundary: encoder states), then a pointer axis per trace
    cm: np.ndarray | None = None       # per-combo message symbol
    cx: np.ndarray | None = None       # per-combo on-deck codeword symbol (as transmitted)
    edges: tuple = ()      # _Edges families from the previous layer
    chain: np.ndarray | None = None    # ids layers: insertion runs on the trace axis (`_chain`)

    @property
    def n_combo(self):
        return self.shape[0]


def _axis_overlap(src_win, dst_win, shift):
    """Slices mapping source pointer j to target j+shift on one axis.

    Returns (src_slice, dst_slice) or None when the windows do not meet.
    """
    s_lo, s_hi = src_win
    d_lo, d_hi = dst_win
    t_lo = max(d_lo, s_lo + shift)
    t_hi = min(d_hi, s_hi + shift)
    if t_lo > t_hi:
        return None
    return (slice(t_lo - shift - s_lo, t_hi - shift - s_lo + 1),
            slice(t_lo - d_lo, t_hi - d_lo + 1))


def _overlap_slices(src_wins, dst_wins, axis=None, shift=0):
    """Index tuples (src, dst) that align a source block with a target
    block, window to window on every pointer axis, with source pointer j
    landing on target j+shift along `axis` (a trace index). The stack and
    combo axes are taken whole. None when the windows do not meet."""
    src_slices = [slice(None), slice(None)]
    dst_slices = [slice(None), slice(None)]
    for k in range(len(src_wins)):
        ov = _axis_overlap(src_wins[k], dst_wins[k], shift if k == axis else 0)
        if ov is None:
            return None
        src_slices.append(ov[0])
        dst_slices.append(ov[1])
    return tuple(src_slices), tuple(dst_slices)


@functools.lru_cache(maxsize=256)
def _chain(width, coeff):
    """An ids layer's insertion runs as a read-only (width, width) matrix,
    shared by layers of one width: entry (j, i) is coeff**(j-i), the weight
    of the insertions that move the pointer from i to j >= i."""
    j = np.arange(width)
    m = np.tril(coeff ** np.maximum(j[:, None] - j, 0))
    m.setflags(write=False)
    return m


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
    """Built by `build_trellis`: the layer arrays and their in-edge families."""

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

    def _window(self, npos, k):
        r = self.R[k]
        if self.delta is None:
            return (0, r)
        c = int(math.floor(npos * r / self.N + 0.5))
        return (max(0, c - self.delta), min(r, c + self.delta))

    def _wins(self, npos):
        return tuple(self._window(npos, k) for k in range(self.K))

    def _shape(self, ncombo, wins):
        return (ncombo,) + tuple(hi - lo + 1 for lo, hi in wins)

    def _build_layers(self):
        enc = self.encoder
        Mz = enc.msg_size
        layers = self.layers
        shared = {}

        def overlap(src_wins, dst_wins, axis=None, shift=0):
            # one object per distinct slice pair: most layers repeat a few of them
            pair = _overlap_slices(src_wins, dst_wins, axis, shift)
            if pair is None:
                return None
            return shared.setdefault(tuple((s.start, s.stop) for s in pair[0] + pair[1]), pair)

        def add(lay, rows=None):
            if layers:
                lay.edges = self._in_edges(layers[-1], lay, overlap, rows)
            layers.append(lay)

        states = np.array([enc.q_init], dtype=np.int32)
        npos = 0
        wins = self._wins(0)
        add(_Layer(BOUNDARY, wins=wins, shape=self._shape(len(states), wins)))

        for l in range(self.L):
            u = enc.emission_counts[l]
            # this cycle's (state, message) transitions, one combo each
            qprev = np.repeat(states, Mz)
            cm = np.tile(np.arange(Mz, dtype=np.int32), len(states))
            cq, emit = enc.transition(qprev, cm, l)
            if self.offset is not None:
                emit = (emit + self.offset[npos:npos + u]) % self.A
            wins = self._wins(npos)
            self.input_read_layer[l] = len(layers)
            add(_Layer(INPUT, wins=wins, cm=cm, cx=emit[:, 0],
                       shape=self._shape(len(cm), wins)),
                rows=np.searchsorted(states, qprev).astype(np.int32))

            for c in range(u):
                wins = self._wins(npos + c + 1)
                shape = self._shape(len(cm), wins)
                for k in range(self.K):
                    add(_Layer(IDS, trace=k, wins=wins, cm=cm, cx=emit[:, c], shape=shape,
                               chain=_chain(shape[1 + k], self.params.p_ins / self.A)))
                if c == u - 1:
                    self.post_read_layer[l] = len(layers)
                add(_Layer(POST, wins=wins, cm=cm, cx=emit[:, c], shape=shape))
            npos += u
            states = np.unique(cq)
            wins = self._wins(npos)
            add(_Layer(BOUNDARY, wins=wins, shape=self._shape(len(states), wins)),
                rows=np.searchsorted(states, cq).astype(np.int32))

        for k in range(self.K):
            lo, hi = layers[-1].wins[k]
            if not lo <= self.R[k] <= hi:
                raise InfeasibleTrellisError(
                    f"trace {k} of length {self.R[k]} cannot be completed under delta={self.delta}")

    def _in_edges(self, prev, lay, overlap, rows=None):
        """The edge families from layer `prev` into the next layer `lay`.
        `overlap` returns what `_overlap_slices` does; `rows` maps each combo
        to a boundary row, the source of its input edges or the target of
        its clear edges."""
        if prev.kind == IDS:
            # deletion, and substitute/correct explaining one symbol of the trace
            k = prev.trace
            fams = []
            ov = overlap(prev.wins, lay.wins)
            if self.params.p_del > 0.0 and ov is not None:
                fams.append(_Edges(*ov, weight=self.params.p_del))
            ov = overlap(prev.wins, lay.wins, k, 1)
            if ov is not None:
                w = self._subcor_weights(prev, k)[:, ov[0][2 + k]]
                w = w.reshape((prev.n_combo,) + tuple(w.shape[1] if j == k else 1
                                                      for j in range(self.K)))
                fams.append(_Edges(*ov, weight=w))
            return tuple(fams)
        ov = overlap(prev.wins, lay.wins)
        if ov is None:
            return ()
        if prev.kind == BOUNDARY:
            # input edges: gather state rows, weight by the uniform message prior
            return (_Edges(*ov, weight=1.0 / self.encoder.msg_size, gather=(slice(None), rows)),)
        if lay.kind == BOUNDARY:
            # clear edges: sum combos per next encoder state
            return (_Edges(*ov, scatter=(slice(None), rows)),)
        return (_Edges(*ov),)

    def _subcor_weights(self, lay, k):
        """Substitute/correct weights by (combo, source pointer). Zero in the
        pointer-exhausted column: no symbol left to explain."""
        p = self.params
        lo, hi = lay.wins[k]
        r = self.R[k]
        w = np.zeros((lay.n_combo, hi - lo + 1))
        top = min(hi, r - 1)
        if top >= lo:
            ywin = self.traces[k][lo:top + 1]
            match = ywin[None, :] == lay.cx[:, None]
            w[:, :top - lo + 1] = np.where(match, p.p_cor,
                                           p.p_sub / (self.A - 1) if self.A > 1 else 0.0)
        return w

    # ------------------------------------------------------------------
    # inference sweeps over the layer arrays

    def _pull(self, t, arr, back=False):
        """Layer t's values from layer t-1's over layer t's in-edge families,
        or with `back` from layer t+1's over layer t+1's families transposed;
        then an ids layer's insertion runs, transposed with `back`. `arr` and
        the result are stacks (P, C, W...) of independent rows."""
        lay = self.layers[t]
        out = np.zeros((len(arr),) + lay.shape)
        for e in self.layers[t + 1 if back else t].edges:
            src, dst, gather, scatter = e.src, e.dst, e.gather, e.scatter
            if back:
                src, dst, gather, scatter = dst, src, scatter, gather
            val = arr[src]
            if gather is not None:
                val = val[gather]
            if e.weight is not None:
                val = val * e.weight
            if scatter is not None:
                np.add.at(out[dst], scatter, val)
            else:
                out[dst] += val
        if lay.chain is not None:
            ax = 2 + lay.trace
            chain = lay.chain if back else lay.chain.T
            if ax == out.ndim - 1:  # the swaps would be no-ops, at a cost per step
                return out @ chain
            out = (out.swapaxes(ax, -1) @ chain).swapaxes(ax, -1)
        return out

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
