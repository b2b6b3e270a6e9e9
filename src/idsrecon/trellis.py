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
scatter swapped. The insertion chain inside an ids layer is the one rule
outside the families: the pull applies it as a first-order recursion along
its trace's pointer axis, reversed backward.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.signal import lfilter

from .alphabet import as_indices
from .channel import IDSParams
from .errors import ConfigError, InfeasibleTrellisError

BOUNDARY, INPUT, IDS, POST = "boundary", "input", "ids", "post"


class _Edges(NamedTuple):
    """One family of edges of a single event into a layer: source cells
    `layer_src[src]` lead to target cells `layer_dst[dst]` (index tuples
    from `_overlap_slices`, combo axis whole), one edge per aligned cell
    pair. Families whose every weight is zero are not built; zero entries
    of an array weight are edges the trellis does not have. The backward
    pull reads a family transposed with the same weight, which is exact:
    the weight broadcasts over the source block after gather, and that
    block has the shape of the target block before scatter."""
    src: tuple
    dst: tuple
    weight: object = None   # None (weight 1), a scalar, or an array broadcasting over the src block
    gather: np.ndarray | None = None   # input edges: combo -> source boundary row
    scatter: np.ndarray | None = None  # clear edges: combo -> target boundary row


@dataclass
class _Layer:
    kind: str
    trace: int = -1        # trace whose events this ids layer models
    wins: tuple = ()       # per trace (lo, hi), 0-based inclusive
    shape: tuple = ()      # combos (boundary: encoder states), then a pointer axis per trace
    cm: np.ndarray | None = None       # per-combo message symbol
    cx: np.ndarray | None = None       # per-combo on-deck codeword symbol (as transmitted)
    edges: tuple = ()      # _Edges families from the previous layer; every edge rule but insertion

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
    landing on target j+shift along `axis` (a trace index). The combo axis
    is taken whole. None when the windows do not meet."""
    src_slices = [slice(None)]
    dst_slices = [slice(None)]
    for k in range(len(src_wins)):
        ov = _axis_overlap(src_wins[k], dst_wins[k], shift if k == axis else 0)
        if ov is None:
            return None
        src_slices.append(ov[0])
        dst_slices.append(ov[1])
    return tuple(src_slices), tuple(dst_slices)


def _iir_along(arr, coeff, axis, reverse=False):
    """First-order recursion y[j] = x[j] + coeff*y[j-1] along one axis
    (j+1 feeding j when reversed): the closed form of an insertion chain."""
    if coeff == 0.0 or arr.shape[axis] == 1:
        return arr
    if reverse:
        arr = np.flip(arr, axis=axis)
    res = lfilter([1.0], [1.0, -coeff], arr, axis=axis)
    if reverse:
        res = np.flip(res, axis=axis)
    return res


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
                for k in range(self.K):
                    add(_Layer(IDS, trace=k, wins=wins, cm=cm, cx=emit[:, c],
                               shape=self._shape(len(cm), wins)))
                if c == u - 1:
                    self.post_read_layer[l] = len(layers)
                add(_Layer(POST, wins=wins, cm=cm, cx=emit[:, c],
                           shape=self._shape(len(cm), wins)))
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
                w = self._subcor_weights(prev, k)[:, ov[0][1 + k]]
                w = w.reshape((prev.n_combo,) + tuple(w.shape[1] if j == k else 1
                                                      for j in range(self.K)))
                fams.append(_Edges(*ov, weight=w))
            return tuple(fams)
        ov = overlap(prev.wins, lay.wins)
        if ov is None:
            return ()
        if prev.kind == BOUNDARY:
            # input edges: gather state rows, weight by the uniform message prior
            return (_Edges(*ov, weight=1.0 / self.encoder.msg_size, gather=rows),)
        if lay.kind == BOUNDARY:
            # clear edges: sum combos per next encoder state
            return (_Edges(*ov, scatter=rows),)
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
        then an ids layer's insertion chains."""
        lay = self.layers[t]
        out = np.zeros(lay.shape)
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
        if lay.kind == IDS:
            out = _iir_along(out, self.params.p_ins / self.A, 1 + lay.trace, reverse=back)
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
        """(arr / its max, log of the max); raises unless the max is positive and finite."""
        s = arr.max()
        if s <= 0.0 or not np.isfinite(s):
            raise InfeasibleTrellisError(
                f"{direction} mass vanished at layer {t} ({self.layers[t].kind}); "
                f"no path explains the traces (delta={self.delta})")
        return arr / s, math.log(s)

    def step_forward(self, t, arr):
        """Advance a forward front from layer t-1 into layer t.
        Returns (rescaled block, log of the scale divided out)."""
        return self._rescale(t, self._pull(t, arr), "forward")

    def step_backward(self, t, arr):
        """Pull a backward front from layer t+1 into layer t."""
        return self._rescale(t, self._pull(t, arr, back=True), "backward")

    def fronts(self, back=False):
        """The one sweep loop: step one direction's front from its initial
        block through every layer, yielding (t, block, log scale) as it
        reaches layer t; the block's true values are block * exp(log scale).
        A block is not written to after it is yielded."""
        n = len(self.layers)
        order = range(n - 1, -1, -1) if back else range(n)
        step = self.step_backward if back else self.step_forward
        arr = self.initial_backward_block() if back else self.initial_forward_block()
        logtot = 0.0
        for i, t in enumerate(order):
            if i > 0:
                arr, ls = step(t, arr)
                logtot += ls
            yield t, arr, logtot

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
