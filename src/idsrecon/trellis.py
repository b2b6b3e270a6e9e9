"""Multi-trace IDS trellis: a layered weighted DAG whose origin-to-absorbing
paths enumerate joint (message, channel-event, trace) outcomes.

Stage schedule for one message symbol l (an "input cycle"):

    boundary -input-> input -load-> ids(sym 0, trc 0) .. ids(sym 0, trc K-1)
        -> post(sym 0) -update-> ids(sym 1, trc 0) .. -> post(sym u-1)
        -clear-> boundary

* boundary: message and codeword buffers cleared; vertices are (q, pointers).
* input: a message symbol m was accepted (edge weight = its prior), the
  encoder advanced, and the first codeword symbol of the cycle is on deck.
* ids: channel events of one (codeword symbol, trace) pair. An insertion is
  an intra-layer edge advancing that trace's pointer and explaining one
  trace symbol; deletion and substitute/correct edges lead to the next layer.
* post: the codeword symbol has been explained in every trace; an update
  edge loads the next symbol, or a clear edge empties the buffers into the
  next boundary layer. These layers carry the cycle's message symbol and
  have no intra-layer edges, so they are where posteriors are read.

Pointers count explained trace symbols (0..R_k, i.e. the paper-style pointer
minus one); the origin is all-zeros and absorbing vertices have every
pointer at R_k. Under a drift bound `delta`, the pointer window for trace k
after n codeword symbols is round(n*R_k/N) +- delta.

Inference runs on the layer arrays directly (see bcjr); an explicit
vertex/edge view is materialised on demand for inspection, invariant checks,
path sampling, and debug dumps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.signal import lfilter

from .alphabet import as_indices
from .channel import IDSParams
from .errors import ConfigError, InfeasibleTrellisError

BOUNDARY, INPUT, IDS, POST = "boundary", "input", "ids", "post"

EVENT_INPUT, EVENT_LOAD, EVENT_DEL, EVENT_SUBCOR, EVENT_INS, EVENT_UPDATE, EVENT_CLEAR = range(7)
EVENT_NAMES = ("input", "load", "del", "subcor", "ins", "update", "clear")


@dataclass
class _Layer:
    kind: str
    cycle: int = -1
    trace: int = -1        # trace whose events this ids layer models
    wins: tuple = ()       # per trace (lo, hi), 0-based inclusive
    shape: tuple = ()
    states: np.ndarray | None = None   # boundary: encoder states
    cq: np.ndarray | None = None       # per-combo encoder state after accepting m
    cm: np.ndarray | None = None       # per-combo message symbol
    cx: np.ndarray | None = None       # per-combo on-deck codeword symbol (as transmitted)
    src_state: np.ndarray | None = None  # input layer: combo -> prev boundary state index
    dst_state: np.ndarray | None = None  # last post layer: combo -> next boundary state index
    w_sub: np.ndarray | None = None      # ids layer: (C, w) substitute/correct weights by source pointer

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


def _transfer(src, src_wins, dst_wins, dst_shape, axis=None, shift=0, out=None):
    """Move mass from a source layer block into target-layer coordinates
    (see `_overlap_slices`). Adds into `out` when given."""
    if out is None:
        out = np.zeros(dst_shape)
    pair = _overlap_slices(src_wins, dst_wins, axis, shift)
    if pair is not None:
        out[pair[1]] += src[pair[0]]
    return out


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


# edge-weight maps for the layer transfers: the weights themselves for
# sum-product inference, their support for reachability
def _same(w):
    return w


def _support(w):
    return np.greater(w, 0).astype(float)


@dataclass
class SweepResult:
    """One direction of inference over the layer arrays.

    `layers[t]` holds that layer's values rescaled by exp(scales[t]);
    true value = layers[t] * exp(scales[t]).
    """
    layers: list | None
    scales: np.ndarray
    loglik: float


class Trellis:
    """Built by `build_trellis`. Layer arrays are the primary form; the
    explicit vertex/edge tables are derived views."""

    def __init__(self, encoder, traces, params, prior, delta, offset):
        self.encoder = encoder
        self.params = params
        self.traces = traces
        self.prior = prior
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
        self._masks = None
        self._vertex_cache = None
        self._edge_cache = None

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

        states = np.array([enc.q_init], dtype=np.int32)
        npos = 0
        wins = self._wins(0)
        layers.append(_Layer(BOUNDARY, wins=wins, states=states,
                             shape=self._shape(len(states), wins)))

        for l in range(self.L):
            u = enc.emission_counts[l]
            # enumerate this cycle's (state, message) transitions
            qprev = np.repeat(states, Mz).astype(np.int32)
            cm = np.tile(np.arange(Mz, dtype=np.int32), len(states))
            cq = np.empty(len(qprev), dtype=np.int32)
            emit = np.empty((len(qprev), u), dtype=np.int32)
            for i, (q, m) in enumerate(zip(qprev, cm)):
                q2, em = enc.transition(int(q), int(m), l)
                cq[i] = q2
                emit[i] = em
            if self.offset is not None:
                base = npos
                emit = (emit + self.offset[base:base + u][None, :]) % self.A
            src_state = np.searchsorted(states, qprev).astype(np.int32)

            wins = self._wins(npos)
            lay = _Layer(INPUT, cycle=l, wins=wins,
                         cq=cq, cm=cm, cx=emit[:, 0],
                         src_state=src_state,
                         shape=self._shape(len(cm), wins))
            self.input_read_layer[l] = len(layers)
            layers.append(lay)

            next_states = np.unique(cq)
            for c in range(u):
                wins = self._wins(npos + c + 1)
                for k in range(self.K):
                    lay = _Layer(IDS, cycle=l, trace=k, wins=wins,
                                 cq=cq, cm=cm, cx=emit[:, c],
                                 shape=self._shape(len(cm), wins))
                    lay.w_sub = self._subcor_weights(lay, k)
                    layers.append(lay)
                lay = _Layer(POST, cycle=l, wins=wins,
                             cq=cq, cm=cm, cx=emit[:, c],
                             shape=self._shape(len(cm), wins))
                if c == u - 1:
                    lay.dst_state = np.searchsorted(next_states, cq).astype(np.int32)
                    self.post_read_layer[l] = len(layers)
                layers.append(lay)
            npos += u
            states = next_states
            wins = self._wins(npos)
            layers.append(_Layer(BOUNDARY, wins=wins,
                                 states=states, shape=self._shape(len(states), wins)))

        for k in range(self.K):
            lo, hi = layers[-1].wins[k]
            if not lo <= self.R[k] <= hi:
                raise InfeasibleTrellisError(
                    f"trace {k} of length {self.R[k]} cannot be completed under delta={self.delta}")

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

    def _expand(self, vec, nptr):
        return vec.reshape((-1,) + (1,) * nptr)

    def _inter_forward(self, prev, arr_prev, lay, wmap=_same):
        """Mass flowing from layer t-1 into layer t, before intra edges.
        Every edge weight w passes through `wmap(w)` first."""
        p = self.params
        if prev.kind == BOUNDARY:
            # input edges: gather state rows, weight by the message prior
            picked = arr_prev[lay.src_state]
            pr = wmap(self.prior[lay.cycle][lay.cm])
            src = picked * self._expand(pr, self.K)
            return _transfer(src, prev.wins, lay.wins, lay.shape)
        if prev.kind in (INPUT, POST):
            if prev.dst_state is not None:
                # clear edges into a boundary layer: sum combos per next state
                out = np.zeros(lay.shape)
                aligned = _transfer(arr_prev, prev.wins, lay.wins,
                                    (prev.n_combo,) + lay.shape[1:])
                np.add.at(out, prev.dst_state, aligned)
                return out
            # load/update edges: weight-1 identity on combos
            return _transfer(arr_prev, prev.wins, lay.wins, lay.shape)
        # prev is an ids layer: deletion plus substitute/correct on its trace
        k = prev.trace
        out = np.zeros(lay.shape)
        if p.p_del > 0.0:
            _transfer(arr_prev * wmap(p.p_del), prev.wins, lay.wins, lay.shape, out=out)
        wsub = wmap(prev.w_sub).reshape(
            (prev.n_combo,) + tuple(prev.shape[1 + j] if j == k else 1 for j in range(self.K)))
        _transfer(arr_prev * wsub, prev.wins, lay.wins, lay.shape,
                  axis=k, shift=1, out=out)
        return out

    def _inter_backward(self, lay, arr_next, nxt, wmap=_same):
        """Backward values induced on layer t by its own out-edges, each
        edge weight w passed through `wmap(w)` first."""
        p = self.params
        if lay.kind == BOUNDARY:
            out = np.zeros(lay.shape)
            pr = wmap(self.prior[nxt.cycle][nxt.cm])
            aligned = _transfer(arr_next, nxt.wins, lay.wins,
                                (nxt.n_combo,) + lay.shape[1:])
            np.add.at(out, nxt.src_state, aligned * self._expand(pr, self.K))
            return out
        if lay.kind in (INPUT, POST):
            if lay.dst_state is not None:
                picked = arr_next[lay.dst_state]
                return _transfer(picked, nxt.wins, lay.wins, lay.shape)
            return _transfer(arr_next, nxt.wins, lay.wins, lay.shape)
        k = lay.trace
        out = np.zeros(lay.shape)
        if p.p_del > 0.0:
            _transfer(arr_next, nxt.wins, lay.wins, lay.shape, out=out)
            out *= wmap(p.p_del)
        shifted = _transfer(arr_next, nxt.wins, lay.wins, lay.shape, axis=k, shift=-1)
        wsub = wmap(lay.w_sub).reshape(
            (lay.n_combo,) + tuple(lay.shape[1 + j] if j == k else 1 for j in range(self.K)))
        out += shifted * wsub
        return out

    def _pull_forward(self, t, arr, wmap=_same):
        """Layer t's forward values from layer t-1's: inter-layer edges,
        then the insertion chains inside an ids layer."""
        lay = self.layers[t]
        arr = self._inter_forward(self.layers[t - 1], arr, lay, wmap)
        if lay.kind == IDS:
            arr = _iir_along(arr, wmap(self.params.p_ins / self.A), 1 + lay.trace)
        return arr

    def _pull_backward(self, t, arr, wmap=_same):
        """Layer t's backward values from layer t+1's: mirror of
        `_pull_forward`."""
        lay = self.layers[t]
        arr = self._inter_backward(lay, arr, self.layers[t + 1], wmap)
        if lay.kind == IDS:
            arr = _iir_along(arr, wmap(self.params.p_ins / self.A), 1 + lay.trace,
                             reverse=True)
        return arr

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

    def step_forward(self, t, arr):
        """Advance a forward front from layer t-1 into layer t.
        Returns (rescaled block, log of the scale divided out)."""
        arr = self._pull_forward(t, arr)
        s = arr.max()
        if s <= 0.0 or not np.isfinite(s):
            raise InfeasibleTrellisError(
                f"forward mass vanished at layer {t} ({self.layers[t].kind}); "
                f"no path explains the traces (delta={self.delta})")
        return arr / s, math.log(s)

    def step_backward(self, t, arr):
        """Pull a backward front from layer t+1 into layer t."""
        arr = self._pull_backward(t, arr)
        s = arr.max()
        if s <= 0.0 or not np.isfinite(s):
            raise InfeasibleTrellisError(
                f"backward mass vanished at layer {t} ({self.layers[t].kind}); "
                f"no path explains the traces (delta={self.delta})")
        return arr / s, math.log(s)

    def forward(self, store=True):
        """Forward sweep from the origin; `store` keeps every layer."""
        layers = self.layers
        scales = np.zeros(len(layers))
        kept = [None] * len(layers) if store else None
        arr = self.initial_forward_block()
        logtot = 0.0
        for t in range(len(layers)):
            if t > 0:
                arr, ls = self.step_forward(t, arr)
                logtot += ls
            scales[t] = logtot
            if store:
                kept[t] = arr
        tot = arr[(slice(None),) + self._absorbing_index()].sum()
        if tot <= 0.0:
            raise InfeasibleTrellisError("no forward mass reaches an absorbing vertex")
        return SweepResult(kept, scales, math.log(tot) + logtot)

    def backward(self, store=True):
        """Backward sweep from the absorbing vertices, mirror of `forward`."""
        layers = self.layers
        scales = np.zeros(len(layers))
        kept = [None] * len(layers) if store else None
        arr = self.initial_backward_block()
        logtot = 0.0
        if store:
            kept[-1] = arr
        for t in range(len(layers) - 2, -1, -1):
            arr, ls = self.step_backward(t, arr)
            logtot += ls
            scales[t] = logtot
            if store:
                kept[t] = arr
        tot = arr[(0,) + (0,) * self.K]
        if tot <= 0.0:
            raise InfeasibleTrellisError("no backward mass reaches the origin")
        return SweepResult(kept, scales, math.log(tot) + logtot)

    # ------------------------------------------------------------------
    # structural reachability (used for feasibility and the explicit view):
    # the transfer code of the sweeps above, run in the boolean semiring:
    # every edge weight is replaced by its support (1 where w > 0) and each
    # layer is binarised, so a cell is True iff some path from the origin
    # (forward) or to an absorbing vertex (backward) passes through it

    def _reach_forward(self):
        masks = [self.initial_forward_block() > 0]
        for t in range(1, len(self.layers)):
            masks.append(self._pull_forward(t, masks[-1], _support) > 0)
        return masks

    def _reach_backward(self):
        masks = [None] * len(self.layers)
        masks[-1] = self.initial_backward_block() > 0
        for t in range(len(self.layers) - 2, -1, -1):
            masks[t] = self._pull_backward(t, masks[t + 1], _support) > 0
        return masks

    def reach_masks(self):
        if self._masks is None:
            fwd = self._reach_forward()
            bwd = self._reach_backward()
            self._masks = (fwd, bwd)
        return self._masks

    def is_feasible(self):
        fwd = self._reach_forward()
        return bool(fwd[-1][(slice(None),) + self._absorbing_index()].any())

    # ------------------------------------------------------------------
    # explicit vertex/edge view

    def _offsets(self):
        sizes = [math.prod(l.shape) for l in self.layers]
        off = np.zeros(len(sizes) + 1, dtype=np.int64)
        off[1:] = np.cumsum(sizes)
        return off

    @property
    def num_cells(self):
        return int(self._offsets()[-1])

    def vertex_table(self):
        """Arrays describing every grid cell: layer, cycle, q, m, x, pointer
        tuple, plus an `alive` mask marking vertices some surviving
        origin-to-absorbing path uses. Vertex ids are stable positions in
        the full grid."""
        if self._vertex_cache is None:
            off = self._offsets()
            n = int(off[-1])
            layer_id = np.empty(n, dtype=np.int32)
            cycle = np.full(n, -1, dtype=np.int32)
            q = np.empty(n, dtype=np.int32)
            m = np.full(n, -1, dtype=np.int32)
            x = np.full(n, -1, dtype=np.int32)
            ptr = np.empty((n, self.K), dtype=np.int32)
            for t, lay in enumerate(self.layers):
                sl = slice(off[t], off[t + 1])
                layer_id[sl] = t
                grids = np.meshgrid(*[np.arange(lo, hi + 1) for lo, hi in lay.wins],
                                    indexing="ij") if self.K else []
                reps = int(np.prod(lay.shape[1:]))
                for k in range(self.K):
                    ptr[sl, k] = np.tile(grids[k].ravel(), lay.n_combo)
                if lay.kind == BOUNDARY:
                    q[sl] = np.repeat(lay.states, reps)
                else:
                    q[sl] = np.repeat(lay.cq, reps)
                    m[sl] = np.repeat(lay.cm, reps)
                    x[sl] = np.repeat(lay.cx, reps)
                    cycle[sl] = lay.cycle
            fwd, bwd = self.reach_masks()
            alive = np.concatenate([(f & b).ravel() for f, b in zip(fwd, bwd)])
            self._vertex_cache = dict(layer=layer_id, cycle=cycle, q=q, m=m,
                                      x=x, ptr=ptr, alive=alive, offsets=off)
        return self._vertex_cache

    def _cell_ids(self, t):
        off = self._vertex_cache["offsets"] if self._vertex_cache else self._offsets()
        lay = self.layers[t]
        return np.arange(off[t], off[t + 1]).reshape(lay.shape)

    def edge_table(self, include_dead=False):
        """COO arrays (head, tail, weight, event, label_k, label_j) for every
        edge of the built trellis. Labels are 0-based (trace k explains its
        j-th symbol); unlabeled edges carry -1. With include_dead=False,
        edges touching vertices that no surviving path uses are dropped."""
        if self._edge_cache is None:
            self._edge_cache = self._build_edges()
        heads, tails, ws, evs, lks, ljs = self._edge_cache
        if include_dead:
            return self._edge_cache
        vt = self.vertex_table()
        alive = vt["alive"]
        keep = alive[heads] & alive[tails]
        return (heads[keep], tails[keep], ws[keep], evs[keep], lks[keep], ljs[keep])

    def _emit(self, acc, hids, tids, w, event, lk=-1, lj=None):
        h = hids.ravel()
        t = tids.ravel()
        wv = np.broadcast_to(w, hids.shape).ravel().astype(float)
        pos = wv > 0
        acc[0].append(h[pos])
        acc[1].append(t[pos])
        acc[2].append(wv[pos])
        acc[3].append(np.full(pos.sum(), event, dtype=np.int8))
        acc[4].append(np.full(pos.sum(), lk, dtype=np.int16))
        if lj is None:
            acc[5].append(np.full(pos.sum(), -1, dtype=np.int32))
        else:
            acc[5].append(np.broadcast_to(lj, hids.shape).ravel()[pos].astype(np.int32))

    def _build_edges(self):
        p = self.params
        c_ins = p.p_ins / self.A
        acc = ([], [], [], [], [], [])
        for t in range(len(self.layers)):
            lay = self.layers[t]
            ids_here = self._cell_ids(t)
            # intra-layer insertion edges
            if lay.kind == IDS and c_ins > 0.0:
                k = lay.trace
                lo, hi = lay.wins[k]
                if hi > lo:
                    sl_src = [slice(None)] * (1 + self.K)
                    sl_dst = [slice(None)] * (1 + self.K)
                    sl_src[1 + k] = slice(0, hi - lo)
                    sl_dst[1 + k] = slice(1, hi - lo + 1)
                    h = ids_here[tuple(sl_src)]
                    jvals = np.arange(lo, hi)
                    shape_j = tuple(h.shape[1 + j] if j == k else 1 for j in range(self.K))
                    lj = np.broadcast_to(jvals.reshape(shape_j), h.shape[1:])[None]
                    self._emit(acc, h, ids_here[tuple(sl_dst)], c_ins, EVENT_INS,
                               lk=k, lj=np.broadcast_to(lj, h.shape))
            if t + 1 == len(self.layers):
                continue
            nxt = self.layers[t + 1]
            ids_next = self._cell_ids(t + 1)
            if lay.kind == BOUNDARY:
                pair = _overlap_slices(lay.wins, nxt.wins)
                if pair is None:
                    continue
                ssl, dsl = pair
                h = ids_here[ssl][nxt.src_state]
                tl = ids_next[dsl]
                pr = self.prior[nxt.cycle][nxt.cm]
                self._emit(acc, h, tl, self._expand(pr, self.K), EVENT_INPUT)
            elif lay.kind in (INPUT, POST):
                pair = _overlap_slices(lay.wins, nxt.wins)
                if pair is None:
                    continue
                ssl, dsl = pair
                if lay.dst_state is not None:
                    h = ids_here[ssl]
                    tl = ids_next[dsl][lay.dst_state]
                    self._emit(acc, h, tl, 1.0, EVENT_CLEAR)
                else:
                    ev = EVENT_LOAD if lay.kind == INPUT else EVENT_UPDATE
                    self._emit(acc, ids_here[ssl], ids_next[dsl], 1.0, ev)
            else:
                k = lay.trace
                if p.p_del > 0.0:
                    pair = _overlap_slices(lay.wins, nxt.wins)
                    if pair is not None:
                        ssl, dsl = pair
                        self._emit(acc, ids_here[ssl], ids_next[dsl], p.p_del, EVENT_DEL)
                pair = _overlap_slices(lay.wins, nxt.wins, axis=k, shift=1)
                if pair is not None:
                    ssl, dsl = pair
                    h = ids_here[ssl]
                    wfull = lay.w_sub.reshape(
                        (lay.n_combo,) + tuple(lay.shape[1 + j] if j == k else 1
                                               for j in range(self.K)))
                    w = np.broadcast_to(wfull, lay.shape)[ssl]
                    lo = lay.wins[k][0]
                    jvals = lo + np.arange(lay.shape[1 + k])[ssl[1 + k]]
                    shape_j = tuple(h.shape[1 + j] if j == k else 1 for j in range(self.K))
                    lj = np.broadcast_to(jvals.reshape(shape_j), h.shape[1:])[None]
                    self._emit(acc, h, ids_next[dsl], w, EVENT_SUBCOR,
                               lk=k, lj=np.broadcast_to(lj, h.shape))
        heads = np.concatenate(acc[0]) if acc[0] else np.empty(0, dtype=np.int64)
        tails = np.concatenate(acc[1]) if acc[1] else np.empty(0, dtype=np.int64)
        ws = np.concatenate(acc[2]) if acc[2] else np.empty(0)
        evs = np.concatenate(acc[3]) if acc[3] else np.empty(0, dtype=np.int8)
        lks = np.concatenate(acc[4]) if acc[4] else np.empty(0, dtype=np.int16)
        ljs = np.concatenate(acc[5]) if acc[5] else np.empty(0, dtype=np.int32)
        if heads.size and not (tails > heads).all():
            raise ConfigError("trellis construction produced a non-topological edge")
        order = np.argsort(heads, kind="stable")
        return (heads[order], tails[order], ws[order], evs[order], lks[order], ljs[order])

    # ------------------------------------------------------------------
    # spec-facing helpers

    @property
    def origin(self):
        return 0

    def absorbing_vertices(self, include_dead=False):
        ids_fin = self._cell_ids(len(self.layers) - 1)
        vids = ids_fin[(slice(None),) + self._absorbing_index()].ravel()
        if include_dead:
            return vids
        alive = self.vertex_table()["alive"]
        return vids[alive[vids]]

    def topological_order(self, include_dead=False):
        """Vertex ids in a valid topological order (construction order:
        layer-major, pointers ascending). The origin comes first."""
        if include_dead:
            return np.arange(self.num_cells)
        alive = self.vertex_table()["alive"]
        return np.flatnonzero(alive)

    def num_vertices(self, include_dead=False):
        if include_dead:
            return self.num_cells
        return int(self.vertex_table()["alive"].sum())

    def num_edges(self, include_dead=False):
        return len(self.edge_table(include_dead)[0])

    def dump(self, fileobj):
        """Plain-text DAG listing, one vertex or edge per line."""
        vt = self.vertex_table()
        alive = vt["alive"]
        for vid in np.flatnonzero(alive):
            t = vt["layer"][vid]
            lay = self.layers[t]
            ptr = ",".join(str(int(v)) for v in vt["ptr"][vid])
            m = vt["m"][vid]
            x = vt["x"][vid]
            fileobj.write(
                f"v {vid} layer={t} kind={lay.kind} cycle={vt['cycle'][vid]} "
                f"q={vt['q'][vid]} ptr=({ptr}) m={'*' if m < 0 else int(m)} "
                f"x={'*' if x < 0 else int(x)}\n")
        heads, tails, ws, evs, lks, ljs = self.edge_table()
        for i in range(len(heads)):
            lbl = "-" if lks[i] < 0 else f"{int(lks[i])},{int(ljs[i])}"
            fileobj.write(f"e {heads[i]} {tails[i]} w={ws[i]:.12g} "
                          f"event={EVENT_NAMES[evs[i]]} label={lbl}\n")

    def path_log_weight(self, path):
        """Sum of log edge weights along a chained list of edge indices."""
        heads, tails, ws, _, _, _ = self.edge_table()
        total = 0.0
        prev_tail = None
        for e in path:
            if prev_tail is not None and heads[e] != prev_tail:
                raise ConfigError("path edges are not chained head-to-tail")
            prev_tail = tails[e]
            total += math.log(ws[e])
        return total

    def sample_path(self, rng, fb=None):
        """Sample one origin-to-absorbing path with probability proportional
        to its weight. Returns a list of edge indices."""
        if fb is None:
            fb = (self.forward(), self.backward())
        _, bwd = fb
        vt = self.vertex_table()
        off = vt["offsets"]
        layer_of = vt["layer"]
        heads, tails, ws, _, _, _ = self.edge_table()
        order = np.argsort(heads, kind="stable")
        heads_s, tails_s, ws_s = heads[order], tails[order], ws[order]
        starts = np.searchsorted(heads_s, np.arange(self.num_cells))
        ends = np.searchsorted(heads_s, np.arange(self.num_cells) + 1)

        def logb(vid):
            t = layer_of[vid]
            flat = vid - off[t]
            val = bwd.layers[t].ravel()[flat]
            if val <= 0:
                return -np.inf
            return math.log(val) + bwd.scales[t]

        path = []
        v = self.origin
        absorbing = set(int(a) for a in self.absorbing_vertices())
        while int(v) not in absorbing:
            lo, hi = starts[v], ends[v]
            if lo == hi:
                raise InfeasibleTrellisError("sample_path reached a dead end")
            cand = np.arange(lo, hi)
            logits = np.array([math.log(ws_s[i]) + logb(tails_s[i]) for i in cand])
            if np.all(np.isinf(logits)):
                raise InfeasibleTrellisError("sample_path reached a dead end")
            prob = np.exp(logits - logits.max())
            prob /= prob.sum()
            pick = rng.choice(len(cand), p=prob)
            path.append(int(order[cand[pick]]))
            v = tails_s[cand[pick]]
        return path

    def outgoing_marginal_sums(self):
        """Builder bookkeeping check: per-vertex outgoing mass with the
        observation pinning undone.

        Labeled edges are re-marginalised over what could have been emitted
        (a substitute/correct edge counts p_cor+p_sub, an insertion p_ins),
        and vertices whose trace pointer is exhausted are credited the mass
        of the emission events the fixed trace length forbids. Without a
        drift bound every non-terminal vertex must then account for exactly
        1; pruning only removes mass. Final-layer vertices have no outgoing
        edges and are excluded.

        Returns (sums, mask) over all grid cells, dead ones included.
        """
        p = self.params
        heads, tails, ws, evs, lks, ljs = self.edge_table(include_dead=True)
        marg = np.empty(len(ws))
        marg[evs == EVENT_INPUT] = ws[evs == EVENT_INPUT]
        for ev, w in ((EVENT_LOAD, 1.0), (EVENT_UPDATE, 1.0), (EVENT_CLEAR, 1.0),
                      (EVENT_DEL, p.p_del), (EVENT_SUBCOR, p.p_cor + p.p_sub),
                      (EVENT_INS, p.p_ins)):
            marg[evs == ev] = w
        sums = np.zeros(self.num_cells)
        np.add.at(sums, heads, marg)
        vt = self.vertex_table()
        mask = vt["layer"] < len(self.layers) - 1
        for t, lay in enumerate(self.layers):
            if lay.kind != IDS:
                continue
            k = lay.trace
            cells = self._cell_ids(t)
            sel = [slice(None)] * (1 + self.K)
            lo, hi = lay.wins[k]
            if hi == self.R[k]:
                sel[1 + k] = slice(hi - lo, hi - lo + 1)
                sums[cells[tuple(sel)].ravel()] += p.p_ins + p.p_sub + p.p_cor
        return sums, mask


def build_trellis(encoder, traces, params, prior=None, delta=None, offset=None,
                  check_feasible=True):
    """Construct the trellis for `traces` (a list of K observed sequences).

    `prior` is an (L, |M|) per-symbol message distribution (uniform when
    omitted); `delta` bounds pointer drift (None = exact); `offset` is an
    optional length-N scrambling vector added to the encoder output before
    transmission.
    """
    if not isinstance(params, IDSParams):
        params = IDSParams(*params)
    traces = [as_indices(y, encoder.alphabet) for y in traces]
    if len(traces) < 1:
        raise ConfigError("need at least one trace")
    if delta is not None and delta < 0:
        raise ConfigError("delta must be nonnegative")
    mz = encoder.msg_size
    if prior is None:
        prior = np.full((encoder.L, mz), 1.0 / mz)
    prior = np.asarray(prior, dtype=float)
    if prior.shape != (encoder.L, mz):
        raise ConfigError(f"prior must have shape ({encoder.L}, {mz})")
    if (prior < 0).any() or np.abs(prior.sum(axis=1) - 1.0).max() > 1e-9:
        raise ConfigError("prior rows must be distributions summing to 1")
    if offset is not None:
        offset = as_indices(offset, encoder.alphabet).astype(np.int32)
        if len(offset) != encoder.N:
            raise ConfigError("offset length must equal the codeword length")
    if sum(encoder.emission_counts) != encoder.N:
        raise ConfigError("encoder emission counts do not sum to N")
    tr = Trellis(encoder, traces, params, prior, delta, offset)
    if check_feasible and not tr.is_feasible():
        raise InfeasibleTrellisError(
            f"no origin-to-absorbing path under delta={delta}; try a larger bound")
    return tr
