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

Each layer states its in-edges from the previous layer once, as a tuple of
`_Edges` families, and one pull applies them in either direction. The
backward sweep is the transpose by construction: the same pull reads the
next layer's families with source and target, gather and scatter swapped.
Reachability is that pull with every weight mapped to its support, and the
explicit edge view enumerates the families. The insertion chain inside an
ids layer is the one rule outside the families: the pull applies it as a
first-order recursion along its trace's pointer axis, reversed backward.

Inference runs on the layer arrays directly (see bcjr); the explicit
vertex/edge view is materialised on demand for inspection, invariant checks,
path sampling, and debug dumps.
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

EVENT_INPUT, EVENT_LOAD, EVENT_DEL, EVENT_SUBCOR, EVENT_INS, EVENT_UPDATE, EVENT_CLEAR = range(7)
EVENT_NAMES = ("input", "load", "del", "subcor", "ins", "update", "clear")


class _Edges(NamedTuple):
    """One family of edges of a single event into a layer: source cells
    `layer_src[src]` lead to target cells `layer_dst[dst]` (index tuples
    from `_overlap_slices`, combo axis whole), one edge per aligned cell
    pair. Families whose every weight is zero are not built; zero entries
    of an array weight are edges the trellis does not have. The backward
    pull reads a family transposed with the same weight, which is exact:
    the weight broadcasts over the source block after gather, and that
    block has the shape of the target block before scatter."""
    event: int
    src: tuple
    dst: tuple
    weight: object = None   # None (weight 1), a scalar, or an array broadcasting over the src block
    gather: np.ndarray | None = None   # input edges: combo -> source boundary row
    scatter: np.ndarray | None = None  # clear edges: combo -> target boundary row
    axis: int = -1          # trace whose pointer the family advances (-1: none)


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


# edge-weight maps for the edge families: the weights themselves for
# sum-product inference, their support for reachability
def _same(w):
    return w


def _support(w):
    return np.greater(w, 0).astype(float)


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
        add(_Layer(BOUNDARY, wins=wins, states=states,
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
            wins = self._wins(npos)
            self.input_read_layer[l] = len(layers)
            add(_Layer(INPUT, cycle=l, wins=wins,
                       cq=cq, cm=cm, cx=emit[:, 0],
                       shape=self._shape(len(cm), wins)),
                rows=np.searchsorted(states, qprev).astype(np.int32))

            for c in range(u):
                wins = self._wins(npos + c + 1)
                for k in range(self.K):
                    add(_Layer(IDS, cycle=l, trace=k, wins=wins,
                               cq=cq, cm=cm, cx=emit[:, c],
                               shape=self._shape(len(cm), wins)))
                if c == u - 1:
                    self.post_read_layer[l] = len(layers)
                add(_Layer(POST, cycle=l, wins=wins,
                           cq=cq, cm=cm, cx=emit[:, c],
                           shape=self._shape(len(cm), wins)))
            npos += u
            states = np.unique(cq)
            wins = self._wins(npos)
            add(_Layer(BOUNDARY, wins=wins,
                       states=states, shape=self._shape(len(states), wins)),
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
                fams.append(_Edges(EVENT_DEL, *ov, weight=self.params.p_del))
            ov = overlap(prev.wins, lay.wins, k, 1)
            if ov is not None:
                w = self._subcor_weights(prev, k)[:, ov[0][1 + k]]
                w = w.reshape((prev.n_combo,) + tuple(w.shape[1] if j == k else 1
                                                      for j in range(self.K)))
                fams.append(_Edges(EVENT_SUBCOR, *ov, weight=w, axis=k))
            return tuple(fams)
        ov = overlap(prev.wins, lay.wins)
        if ov is None:
            return ()
        if prev.kind == BOUNDARY:
            # input edges: gather state rows, weight by the message prior
            w = self.prior[lay.cycle][(lay.cm,) + (None,) * self.K]
            return (_Edges(EVENT_INPUT, *ov, weight=w, gather=rows),)
        if lay.kind == BOUNDARY:
            # clear edges: sum combos per next encoder state
            return (_Edges(EVENT_CLEAR, *ov, scatter=rows),)
        return (_Edges(EVENT_LOAD if prev.kind == INPUT else EVENT_UPDATE, *ov),)

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

    def _pull(self, t, arr, back=False, wmap=_same):
        """Layer t's values from layer t-1's over layer t's in-edge families,
        or with `back` from layer t+1's over layer t+1's families transposed;
        then an ids layer's insertion chains. Every edge weight w passes
        through `wmap(w)` first."""
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
                val = val * wmap(e.weight)
            if scatter is not None:
                np.add.at(out[dst], scatter, val)
            else:
                out[dst] += val
        if lay.kind == IDS:
            out = _iir_along(out, wmap(self.params.p_ins / self.A), 1 + lay.trace,
                             reverse=back)
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

    def log_values(self, sweep):
        """Per-cell log values of a sweep that kept every layer, indexed by
        vertex id over the full cell grid; cells of value zero carry -inf."""
        off = self._offsets()
        out = np.full(int(off[-1]), -np.inf)
        for t, arr in enumerate(sweep.layers):
            flat = arr.ravel()
            seg = out[off[t]:off[t + 1]]
            pos = flat > 0
            seg[pos] = np.log(flat[pos]) + sweep.scales[t]
        return out

    # ------------------------------------------------------------------
    # structural reachability (used for feasibility and the explicit view):
    # the sweeps' pull run in the boolean semiring: every edge weight is
    # replaced by its support (1 where w > 0) and each layer is binarised,
    # so a cell is True iff some path from the origin (forward) or to an
    # absorbing vertex (backward) passes through it

    def _reach(self, back=False):
        n = len(self.layers)
        order = range(n - 1, -1, -1) if back else range(n)
        arr = self.initial_backward_block() if back else self.initial_forward_block()
        masks = [None] * n
        for i, t in enumerate(order):
            if i > 0:
                # a float front: np.add.at on bool values (clear edges) is several times slower
                arr = self._pull(t, arr.astype(float), back, _support)
            masks[t] = arr = arr > 0
        return masks

    def reach_masks(self):
        if self._masks is None:
            self._masks = (self._reach(), self._reach(back=True))
        return self._masks

    def is_feasible(self):
        fwd = self._reach()
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

    def _build_edges(self):
        """Enumerate every layer's edge families (plus each ids layer's
        insertion edges), keeping the edges of nonzero weight. An edge's
        label is its head's pointer on the family's trace axis."""
        ptr = self.vertex_table()["ptr"]
        c_ins = self.params.p_ins / self.A
        cols = []
        for t, lay in enumerate(self.layers):
            fams = [(t - 1, e) for e in lay.edges]
            if lay.kind == IDS and c_ins > 0.0:
                ov = _overlap_slices(lay.wins, lay.wins, lay.trace, 1)
                if ov is not None:
                    fams.append((t, _Edges(EVENT_INS, *ov, weight=c_ins, axis=lay.trace)))
            for s, e in fams:
                heads = self._cell_ids(s)[e.src]
                tails = self._cell_ids(t)[e.dst]
                if e.gather is not None:
                    heads = heads[e.gather]
                if e.scatter is not None:
                    tails = tails[e.scatter]
                w = np.broadcast_to(1.0 if e.weight is None else e.weight, heads.shape).ravel()
                pos = w > 0
                h = heads.ravel()[pos]
                lj = ptr[h, e.axis] if e.axis >= 0 else np.full(len(h), -1, dtype=np.int32)
                cols.append((h, tails.ravel()[pos], w[pos].astype(float),
                             np.full(len(h), e.event, dtype=np.int8),
                             np.full(len(h), e.axis, dtype=np.int16), lj))
        heads, tails, ws, evs, lks, ljs = (np.concatenate(c) for c in zip(*cols))
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
        logb = self.log_values(fb[1])
        heads, tails, ws, _, _, _ = self.edge_table()  # sorted by head
        starts = np.searchsorted(heads, np.arange(self.num_cells))
        ends = np.searchsorted(heads, np.arange(self.num_cells) + 1)
        path = []
        v = self.origin
        absorbing = set(int(a) for a in self.absorbing_vertices())
        while int(v) not in absorbing:
            lo, hi = starts[v], ends[v]
            if lo == hi:
                raise InfeasibleTrellisError("sample_path reached a dead end")
            logits = np.log(ws[lo:hi]) + logb[tails[lo:hi]]
            if np.all(np.isinf(logits)):
                raise InfeasibleTrellisError("sample_path reached a dead end")
            prob = np.exp(logits - logits.max())
            prob /= prob.sum()
            e = lo + rng.choice(hi - lo, p=prob)
            path.append(int(e))
            v = tails[e]
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


def build_trellis(encoder, traces, params, prior=None, delta=None, offset=None):
    """Construct the trellis for `traces` (a list of K observed sequences).

    `prior` is an (L, |M|) per-symbol message distribution (uniform when
    omitted); `delta` bounds pointer drift (None = exact); `offset` is an
    optional length-N scrambling vector added to the encoder output before
    transmission.

    No reachability sweep runs here: an infeasible trellis raises from its
    first sweep, at the layer where the mass vanishes (`is_feasible` asks).
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
    return Trellis(encoder, traces, params, prior, delta, offset)
