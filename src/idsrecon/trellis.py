"""IDS trellises over K traces, laid out as rows or as pointer axes.

Stage schedule for one message symbol l (an "input cycle"), for a trellis
with `a` pointer axes:

    boundary -load-> input -advance-> ids(sym 0, axis 0) -leave-> ..
        ids(sym 0, axis a-1) -leave-> post(sym 0) -advance->
        ids(sym 1, axis 0) .. -> post(sym u-1) -clear-> boundary

* boundary: message and codeword buffers cleared; cells are (q, pointers).
* input: a message symbol m was accepted in encoder state q (weight 1/|M|,
  the uniform prior), and the first codeword symbol of the cycle is on
  deck; cells are (q, m, pointers).
* ids: channel events of one codeword symbol on one pointer axis.
  Insertions run inside the layer, each advancing that axis's pointer and
  explaining one trace symbol; deletion and substitute/correct lead to the
  next layer. A forward ids block holds the mass entering the layer,
  before its insertion runs, which the step leaving the layer applies.
* post: the codeword symbol has been explained on every axis; the next
  symbol is loaded, or the buffers are cleared into the next boundary layer.

Every path enters each layer once, at one cell, so every layer is a cut:
forward times backward, summed over a layer's cells, is the total mass.
An ids layer is one because its forward block holds the mass entering it,
not the mass its insertion runs then spread along the axis. A cycle's
message symbol is read on its input layer, where every cell carries it
(`bcjr.compute_posteriors`). Its forward block is the preceding boundary
block repeated along the message axis, so a reader stores the boundary
block and multiplies it into the backward input block.

Pointers count explained trace symbols (0..R_k, i.e. the paper-style pointer
minus one); the origin is all-zeros and absorbing cells have every pointer
at R_k.

Layout. The K traces sit on a grid of rows x axes, trace r*axes + j on row
r and pointer axis j, and a layer's block is (rows, S, M, W_0 .. W_{a-1}):
the rows, the cycle's encoder states, its message symbols, then a pointer
axis each. An input, ids or post layer holds the cycle's full (state,
message) grid, the states being those the previous boundary reaches; a
boundary layer has a message axis of 1. Rows are independent, each built
from its own list of traces (`build_trellis`): the exact joint trellis is
a row of K axes per cluster, and Trellis BMA's per-trace trellises are K
rows of one axis, stepped beside each other: Davey & MacKay's drift
lattice ("Reliable communication over channels with insertions,
deletions, and substitutions", IEEE Trans. IT 2001). Rows may come from
several clusters of one encoder: each row carries its own scramble
offset, added to the encoder's output to give the symbol it transmitted.

The encoder's cycle table, each cycle's (state, message) transitions and
emissions, is computed once per encoder (`FSMEncoder.cycles`); a build
adds only each row's offset. An ids layer stores its substitute/correct
weights as indices into the (|A|, |A|+1) table of weights by (transmitted
symbol, trace symbol or none), in two parts summed and gathered at each
step.

One window rule. After n codeword symbols, the trace of length R on a
(row, axis) has the pointer window [lo, hi] with c = floor(n*R/N + 0.5),
lo = max(0, c - delta) and hi = min(R, c + delta) (no bound: lo = 0,
hi = R); cell v of the row on that axis holds pointer lo + v. An axis is as
wide as the widest window among its rows, and a per-position mask holds
the cells past a narrower row's hi at zero after every transfer into the
layer. With one row, every axis is exactly its window and nothing is
masked.

The trellis exists only as these layer arrays. A layer's values come from
its predecessor's by one of four transfers:

* load (boundary -> input): each state's cells are repeated along the
  message axis, times the uniform message prior;
* advance (input or post -> the next symbol's first ids layer): window
  n -> n+1, the only transfer across which windows change;
* leave (ids layer of axis k -> the next layer): the layer's insertion
  runs, then consume, one (W_k, W_k) operator per (row, state, message)
  on pointer axis k, F = (p_del I + shift diag(w)) Chain. Chain is the
  insertion runs (`_chain`); consume is deletion, p_del times the cell,
  plus substitute/correct, a shift by one up axis k times the weight w of
  explaining that trace symbol;
* clear (post -> boundary): each (state, message) cell is added into its
  next encoder state's.

F takes one of two forms, picked by the block's shape. On a block of
three or more pointer axes (the joint trellis at K >= 3), F is
materialised, one stack of W_k x W_k matrices (`_operators`), each
serving the W^(K-1) cells of the other axes, and applied as one batched
product over (rows, S, M). Everywhere else, on one-axis lattices and
joint trellises of K <= 2, where building F would cost about as much as
it saves, it is applied as its two factors:
* insertion runs: Chain times the block viewed as (..., W_k, cells after
  k); on the last axis, one product on the right of the block viewed as
  (cells, W_k);
* consume: one flat add on the C-ordered block, a stride (the cells of
  the axes after k) on; the window's edge cell has weight 0, so it adds
  nothing across into the next run of axis k. Its result is allocated
  before its one block-sized temporary: a temporary allocated first
  leaves a hole that the heap keeps once it is freed, which raises peak
  memory. The materialised form has neither temporary.

Each is written once and read in both directions: the backward sweep applies
it transposed, the repeat becoming a sum over the message axis, the clear's
scatter-add a gather, F transposed (consume's shift running the other way,
then Chain transposed).

The steps act on a stack (rows, P, S, M, W...) of P independent fronts per
row, each as it would be stepped alone: the exact sweeps step a stack of
one, the Trellis BMA exchange one front per beta point. A front whose mass
vanishes is dead: it stays in the stack as zeros with scale 1, and the step
marks it, so its neighbours step on untouched. A sweep records, per row,
where its front died and stops once every row is dead; the error text of a
dead row is formed from that record (`Trellis.vanished`).

Rescaling. Only the layers that are read or end a cycle are rescaled:
boundary layers, input layers and each cycle's last post layer
(`post_read_layer`), the only layers any reader reads. A step into one of
them divides each front by its maximum and checks it for death, except
backward into a last post layer: that step is a gather of a rescaled
boundary, whose maximum is already 1 (`_schedule`). A step into any other
layer (ids layers, inner post layers) divides by nothing, its maximum
counting as 1, so scales, log-likelihoods and kept blocks mean what they
would if every layer were rescaled. A front whose mass vanishes stays zero
and is marked dead at the next layer whose step takes a maximum, which is
where its death is recorded; a gathered last post layer never records one,
the boundary step before it having done so. Headroom: between two rescaled
layers a front passes u x axes ids layers (u the cycle's codeword
symbols). The transfers keep a cell's pointer with weight 1 (advance, an
insertion run's diagonal) or p_del (deletion, leaving each ids layer), so
a cell the windows keep falls by at most a factor p_del per ids layer:
p_del**(u x axes) over a cycle, 1e-12 at p_del = 0.01 for u = 2 and 3
axes, far inside the 1e-308 of a double.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .alphabet import as_indices
from .channel import IDSParams
from .errors import ConfigError

BOUNDARY, INPUT, IDS, POST = "boundary", "input", "ids", "post"
LAYER_BYTES = 64  # per row and step: windows, symbols, masks, scales, posterior rows
STEP_BLOCKS = 5  # largest blocks held in a step: the front, the block stepped into and
                 # temporaries, most (two) where F's factors leave an ids layer: the
                 # insertion runs' result and consume's weighted sources
LAYER_OBJECT_BYTES, IDS_OBJECT_BYTES = 256, 1024  # Python objects of any layer; more of an ids one
BUFFER_BYTES = 2 * 8 * 8192 + 4096  # numpy's buffers of 8 192 doubles for two operands of an op


@dataclass
class _Layer:
    kind: str
    npos: int              # codeword symbols explained: the layer has position npos's windows
    axis: int = -1         # ids: the pointer axis whose channel events it models
    shape: tuple = ()      # one row's block: (S, M, W_0 .. W_{a-1}), M = 1 at a boundary
    nxt: np.ndarray | None = None      # boundary: the (S, M) grid of the previous cycle,
                                       # the state each of its cells clears into
    onehot: np.ndarray | None = None   # boundary: nxt as a (states, S*M) indicator
    rescale: tuple = (False, False)    # whether a step into the layer rescales, forward
                                       # and backward (`_schedule`)
    subcor: tuple | None = None        # ids: weight indices in two parts (`_subcor`)


def _index_type(size):
    """The smallest integer type of a symbol index into an alphabet of
    `size` and of an index into the flat (size, size + 1) weight table."""
    return np.min_scalar_type(size * (size + 1))


@functools.lru_cache(maxsize=32)
def _indicators(encoder):
    """Per step of the encoder's cycle table, the (states, S*M) indicator of
    each (state, message) cell's next state, which the clear multiplies by:
    one read-only array per distinct indicator, as a multi-state code's
    cycles repeat a few."""
    made = {}
    for _, nxt in encoder.cycles:
        if nxt.tobytes() not in made:
            made[nxt.tobytes()] = (nxt.ravel() == np.arange(nxt.max() + 1)[:, None]).astype(float)
            made[nxt.tobytes()].setflags(write=False)
    return tuple(made[nxt.tobytes()] for _, nxt in encoder.cycles)


def _windows(N, R, delta):
    """The window rule: (lo, hi), shaped (N+1,) + R.shape, of every position
    n = 0..N for traces of the lengths in the integer array R. A bound
    below 1 admits no path and is refused."""
    if delta is None:
        lo = np.zeros((N + 1,) + R.shape, dtype=np.int64)
        return lo, lo + R
    if delta < 1:
        raise ConfigError(f"--delta must be at least 1, got {delta}: a drift bound of "
                          f"{delta} leaves no path through the trellis")
    c = np.floor(np.arange(N + 1).reshape((-1,) + (1,) * R.ndim) * R / N + 0.5).astype(np.int64)
    return np.maximum(c - delta, 0), np.minimum(c + delta, R)


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

    `layers[t]` holds that layer's (rows, S, M, W...) block rescaled per row
    by exp(scales[t]), true value = layers[t] * exp(scales[t]) row by row,
    for each layer t the sweep was asked to keep, and None for every other
    layer. A forward ids block is the mass entering the layer, before its
    insertion runs, a backward one the mass from the cell on, so the
    product of the two, summed over any layer, is the total mass. `scales`
    (layers, rows) covers every layer; `loglik` is (rows,).
    `died` (rows,) records where each row died: -1 if it lives, else the
    first layer after its mass vanished whose step takes the maximum (a
    boundary or input layer, or forward a cycle's last post layer), or
    len(layers) if none reached its end cells; a dead row is zero from the
    layer where it vanished on, with loglik -inf. A layer whose step
    divides by nothing has scale equal to its predecessor's in sweep order.
    """
    layers: list
    scales: np.ndarray
    loglik: np.ndarray
    died: np.ndarray


class Trellis:
    """Built by `build_trellis`: the layer arrays and the transfers between
    them. A step marks the fronts whose mass vanished and a sweep records
    where each row died; `vanished` gives the error text of a dead row."""

    def __init__(self, encoder, traces, params, delta, offsets, rows):
        self.encoder = encoder
        self.params = params
        self.traces = traces
        self.delta = delta
        self.offsets = offsets
        self.K = len(traces)
        self.rows = rows
        self.axes = self.K // rows
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

    def _build_layers(self):
        """Per position n = 0..N and (row, axis), the window [lo, hi]; from
        them, with array ops, the axis widths, the masks, the advance's
        shift groups and the trace symbol at every source cell; then the
        schedule."""
        rows, axes, N, A, p = self.rows, self.axes, self.N, self.A, self.params
        R = np.array(self.R).reshape(rows, axes)
        # lo, hi: (N+1, rows, axes), each window's first and last pointer
        self.lo, self.hi = _windows(N, R, self.delta)
        span = self.hi - self.lo + 1
        width = span.max(axis=1)  # (N+1, axes)
        self._widths = [tuple(w) for w in width.tolist()]
        wmax = int(width.max())
        # per position, (rows, 1, 1, 1, W...), True on each row's window;
        # None if no row is narrower
        inside = np.arange(wmax) < span[..., None]  # (N+1, rows, axes, wmax)
        narrow = (span < width[:, None]).any(axis=(1, 2)).tolist()
        self._masks = [functools.reduce(np.multiply, (
            inside[n, :, j, :w].reshape((rows, 1, 1, 1)
                                        + tuple(w if i == j else 1 for i in range(axes)))
            for j, w in enumerate(ws))) if nw else None
            for n, (nw, ws) in enumerate(zip(narrow, self._widths))]
        # per position n >= 1, the advance from n-1: (where, source, target) per group of
        # rows whose windows move up alike, `where` a row mask or True for every row
        self._moves = [None]
        shifts = np.diff(self.lo, axis=0)
        for n, (dn, keys) in enumerate(zip(shifts, shifts.tolist()), 1):
            groups = set(map(tuple, keys))
            wa, wb = self._widths[n - 1], self._widths[n]
            moves = []
            for s in groups:
                if any(d >= w for d, w in zip(s, wa)):  # the windows do not meet
                    continue
                where = True if len(groups) == 1 else (
                    (dn == s).all(axis=1).reshape((rows,) + (1,) * (axes + 3)))
                moves.append((where,
                              tuple(slice(d, min(a, b + d)) for d, a, b in zip(s, wa, wb)),
                              tuple(slice(0, min(a - d, b)) for d, a, b in zip(s, wa, wb))))
            self._moves.append(moves)
        # the trace symbol each cell's substitute/correct move explains, A for
        # none: per (row, axis), A, the run of symbols from each window's lo,
        # A at the axis's last cell; (N+1, rows, axes, wmax+1), read at cells
        # 1..W forward and 0..W-1 backward (`_subcor`)
        ypad = np.full((self.K, int(R.max()) + wmax), A, dtype=_index_type(A))
        for k, y in enumerate(self.traces):
            ypad[k, :len(y)] = y
        runs = np.lib.stride_tricks.sliding_window_view(ypad, wmax - 1, axis=1)
        runs = runs.reshape((rows, axes) + runs.shape[1:])[
            np.arange(rows)[:, None], np.arange(axes), self.lo]  # (N+1, rows, axes, wmax-1)
        self._sym = np.full(runs.shape[:-1] + (wmax + 1,), A, dtype=runs.dtype)
        self._sym[..., 1:wmax] = runs
        np.put_along_axis(self._sym, width[:, None, :, None], A, axis=-1)
        # substitute/correct weight by (on-deck symbol, trace symbol or A), flat
        w_sub = p.p_sub / (A - 1) if A > 1 else 0.0
        weight = np.where(np.arange(A)[:, None] == np.arange(A + 1), p.p_cor, w_sub)
        weight[:, A] = 0.0
        self._weight = weight.ravel()
        self._schedule()

    def _schedule(self):
        """The encoder's cycle table (`FSMEncoder.cycles`) with each row's
        scramble offset; `_add` gives each layer its geometry and whether a
        step into it rescales, forward and backward (module docstring,
        Rescaling)."""
        npos = 0
        self._add(BOUNDARY, npos, (1, 1), rescale=(True, True))
        for l, ((emit, nxt), onehot) in enumerate(zip(self.encoder.cycles, _indicators(self.encoder))):
            grid = nxt.shape
            self.input_read_layer[l] = len(self.layers)
            # `npos` is still the boundary's: windows change only across an advance
            self._add(INPUT, npos, grid, rescale=(True, True))
            for c in range(emit.shape[1]):
                npos += 1
                # the on-deck codeword symbol, as transmitted, by (row, state, message)
                cx = (emit[:, c] + self.offsets[:, npos - 1, None]) % self.A
                for k in range(self.axes):
                    self._add(IDS, npos, grid, axis=k, cx=cx.reshape((-1,) + grid))
                last = c == emit.shape[1] - 1
                if last:
                    self.post_read_layer[l] = len(self.layers)
                self._add(POST, npos, grid, rescale=(last, False))
            self._add(BOUNDARY, npos, (len(onehot), 1), nxt=nxt, onehot=onehot,
                      rescale=(True, True))

    def _add(self, kind, npos, grid, axis=-1, cx=None, nxt=None, onehot=None, rescale=(False, False)):
        """Append a layer with the (states, messages) `grid` after `npos`
        codeword symbols; an ids layer's cells have the on-deck codeword
        symbols `cx`, shaped (rows,) + grid."""
        lay = _Layer(kind, npos, axis=axis, shape=grid + self._widths[npos], nxt=nxt,
                     onehot=onehot, rescale=rescale)
        if kind == IDS:
            lay.subcor = self._subcor(npos, axis, cx)
        self.layers.append(lay)

    def _subcor(self, npos, axis, cx):
        """Substitute/correct weights of an ids layer on `axis` after `npos`
        codeword symbols whose cells have the on-deck codeword symbols `cx`,
        as indices into the flat weight table, one per cell of the axis:
        (on-deck symbol x (|A|+1) by (row, state, message), then the trace
        symbol by (row, pointer) forward and backward), the index being the
        first plus either of the others, each shaped to broadcast over a
        stack. Forward, cell v's is the weight of its move to v+1 and the
        last cell's is zero, its successor lying outside; backward, the
        weights are shifted up by one cell, the first cell's zero. The
        weight is zero at pointer R too: no symbol left to explain."""
        w, ones = self._widths[npos][axis], (1,) * self.axes
        shape = (self.rows, 1, 1, 1) + tuple(w if j == axis else 1 for j in range(self.axes))
        sym = self._sym[npos, :, axis, :w + 1]
        return ((cx * (self.A + 1)).reshape(cx.shape[:1] + (1,) + cx.shape[1:] + ones),
                sym[:, 1:].reshape(shape), sym[:, :-1].reshape(shape))

    def _origin(self):
        """Index of the origin cells in a first-layer block: q_init, nothing
        explained (every window starts at 0). Indexing with it leaves a
        trailing axis to sum."""
        return (slice(None), slice(0, 1), 0) + (0,) * self.axes

    def _absorbing(self):
        """Index of the absorbing cells in a last-layer block: every pointer
        at R, any encoder state."""
        cell = np.array(self.R).reshape(self.rows, self.axes) - self.lo[-1]
        return (np.arange(self.rows), slice(None), 0) + tuple(cell.T)

    # ------------------------------------------------------------------
    # the transfers: each moves a stack from layer a into the next layer b,
    # or with `back` from b into a by its transpose; a stack's message axis
    # is axis 3

    def _load(self, a, b, arr, back):
        """Boundary a -> input b: each state's cells are repeated along the
        message axis, times the uniform message prior w; backward, the sum
        over the message axis is multiplied by w."""
        w = 1.0 / self.encoder.msg_size
        if back:
            return arr.sum(axis=3, keepdims=True) * w
        return np.repeat(arr * w, b.shape[1], axis=3)

    def _advance(self, a, b, arr, back):
        """Input or post a -> ids b of the next codeword symbol: window n ->
        n+1 on every pointer axis, the only transfer that moves windows.
        Each group of rows whose windows move alike copies its overlap;
        cells the new window drops are lost, cells it adds start at zero."""
        out = np.zeros(arr.shape[:2] + (a if back else b).shape)
        for where, src, dst in self._moves[b.npos]:
            if back:
                src, dst = dst, src
            np.copyto(out[(Ellipsis,) + dst], arr[(Ellipsis,) + src], where=where)
        return out

    def _consume(self, a, arr, back):
        """Consume, F's left factor, from ids a of axis k into the next
        layer, in the same windows: deletion keeps the pointer,
        substitute/correct moves it up by one. The result is allocated
        first, then the C-ordered block of weighted sources, each cell
        times the weight of its move (`_subcor`); one cell up axis k is a
        stride of cells on in both, so the shift is one flat add, and the
        edge cell's zero weight keeps it inside each run of axis k. `arr`
        may be in any memory order."""
        cx, fwd, bwd = a.subcor
        out = np.multiply(arr, self.params.p_del, out=np.empty(arr.shape))
        src = np.multiply(arr, self._weight.take(np.add(cx, bwd if back else fwd)),
                          out=np.empty(arr.shape))
        stride = math.prod(arr.shape[5 + a.axis:])  # the cells of the pointer axes after k
        out, src = out.reshape(-1), src.reshape(-1)
        if back:
            out[:-stride] += src[stride:]
        else:
            out[stride:] += src[:-stride]
        return out.reshape(arr.shape)

    def _clear(self, a, b, arr, back):
        """Post a -> boundary b: each (state, message) cell is added into its
        next encoder state's, a product with the (next states, grid)
        indicator; backward each gathers its next state's, in C order, so
        that leaving the ids layer before it runs without numpy's buffers."""
        if back:
            return np.take(arr[:, :, :, 0], b.nxt, axis=2)
        lead = arr.shape[:2]
        return (b.onehot @ arr.reshape(lead + (b.nxt.size, -1))).reshape(lead + b.shape)

    def _insert(self, lay, arr, back):
        """Chain, F's right factor: an ids layer's insertion runs along its
        pointer axis k; on the last axis one product on the right of the
        (cells, W_k) view of the C-ordered block, on any other the matrix
        times its (..., W_k, cells after k) view."""
        ax = lay.axis - self.axes
        chain = _chain(lay.shape[ax], self.params.p_ins / self.A)
        if back:
            chain = chain.T
        if ax == -1:
            return (arr.reshape(-1, arr.shape[-1]) @ chain.T).reshape(arr.shape)
        return (chain @ arr.reshape(arr.shape[:ax] + (arr.shape[ax], -1))).reshape(arr.shape)

    def _leave(self, lay, arr, back):
        """Ids layer `lay` of axis k -> the next layer: its insertion runs,
        then consume, the operator F = (p_del I + shift diag(w)) Chain on
        axis k of each (row, state, message); backward F transposed. On a
        block of three or more pointer axes, one batched product with the
        materialised F (`_operators`); on any other, the two factors."""
        if self.axes >= 3:
            op = self._operators(lay)
            if back:
                op = op.swapaxes(-1, -2)
            k, lead = lay.axis, arr.shape[:4]
            if k == self.axes - 1:  # op on the right of the (cells, W_k) view, transposed
                return (arr.reshape(lead + (-1, arr.shape[-1])) @ op.swapaxes(-1, -2)
                        ).reshape(arr.shape)
            view = arr.reshape(lead + (-1, arr.shape[4 + k], math.prod(arr.shape[5 + k:])))
            return (op[..., None, :, :] @ view).reshape(arr.shape)
        if back:
            return self._insert(lay, self._consume(lay, arr, back), back)
        return self._consume(lay, self._insert(lay, arr, back), back)

    def _operators(self, lay):
        """Ids layer `lay`'s F as a (rows, 1, S, M, W_k, W_k) stack, one per
        (row, state, message): row j is p_del times the chain's row j plus
        the weight of the move from j-1 times the chain's row j-1."""
        cx, fwd, _ = lay.subcor
        w = lay.shape[lay.axis - self.axes]
        chain = _chain(w, self.params.p_ins / self.A)
        move = self._weight.take(np.add(cx, fwd)).reshape(cx.shape[:4] + (w, 1))
        op = np.multiply(chain, self.params.p_del, out=np.empty(move.shape[:4] + (w, w)))
        op[..., 1:, :] += move[..., :-1, :] * chain[:-1]
        return op

    # ------------------------------------------------------------------
    # inference sweeps over the layer arrays

    def _pull(self, t, arr, back=False):
        """Layer t's values from layer t-1's by the transfer between them,
        or with `back` from layer t+1's by that transfer transposed, then
        the mask of layer t's position. Leaving an ids layer applies its
        insertion runs with consume (`_leave`), so a forward step into an
        ids layer applies no insertion and a backward one applies both.
        `arr` and the result are stacks; the result is a fresh array, which
        `_rescale` may overwrite."""
        s = t + 1 if back else t
        a, b = self.layers[s - 1], self.layers[s]
        if b.kind == INPUT:
            out = self._load(a, b, arr, back)
        elif b.kind == BOUNDARY:
            out = self._clear(a, b, arr, back)
        elif a.kind == IDS:
            out = self._leave(a, arr, back)
        else:
            out = self._advance(a, b, arr, back)
        mask = self._masks[self.layers[t].npos]
        if mask is not None:
            out *= mask
        return out

    def initial_forward_block(self):
        arr = np.zeros((self.rows,) + self.layers[0].shape)
        arr[self._origin()] = 1.0
        return arr

    def initial_backward_block(self):
        arr = np.zeros((self.rows,) + self.layers[-1].shape)
        arr[self._absorbing()] = 1.0
        return arr

    def _rescale(self, t, arr, back):
        """(each front of the stack `arr` over its own max, divided in
        place, the maxima shaped to broadcast over the stack, the (rows, P)
        mask of the dead fronts or None if none is). A dead front, whose max
        is not positive and finite, comes back zero with scale 1. Where the
        step into layer t in the direction `back` does not rescale, `arr`
        comes back as it is, with no maxima and no mask (module docstring)."""
        if not self.layers[t].rescale[back]:
            return arr, None, None
        cells = len(self.layers[t].shape)
        s = np.maximum.reduce(arr, axis=tuple(range(-cells, 0)), keepdims=True)
        m = s.ravel().tolist()
        if min(m) > 0.0 and sum(m) < math.inf:  # the sum is NaN or inf if any one is
            arr /= s
            return arr, s, None
        live = (s > 0.0) & (s < math.inf)
        s = np.where(live, s, 1.0)
        arr /= s
        np.copyto(arr, 0.0, where=~live)
        return arr, s, ~live.reshape(arr.shape[:-cells])

    def step_forward(self, t, arr):
        """Advance a stack of forward fronts from layer t-1 into layer t.
        Returns (rescaled stack, maxima divided out, dead fronts or None)
        into a boundary, input or last post layer, or (stack, None, None)
        into an ids or inner post layer."""
        return self._rescale(t, self._pull(t, arr), False)

    def step_backward(self, t, arr):
        """Pull a stack of backward fronts from layer t+1 into layer t; as
        `step_forward`, but a last post layer, a gather of a rescaled
        boundary, is not rescaled either."""
        return self._rescale(t, self._pull(t, arr, back=True), True)

    def vanished(self, back, t):
        """The error text of a row that died at t (`SweepResult.died`); None
        if it lives. t is the first layer after the mass vanished whose step
        takes the maximum (module docstring)."""
        way = "backward" if back else "forward"
        if t < 0:
            return None
        if t == len(self.layers):
            return f"no {way} mass reaches " + ("the origin" if back else "an absorbing vertex")
        return (f"{way} mass vanished at layer {t} ({self.layers[t].kind}); "
                f"no path explains the traces (delta={self.delta})")

    def fronts(self, back=False):
        """The one sweep loop: step one direction's front, a stack of one
        per row, from its initial block through every layer, yielding
        (t, block, maxima, died) as it reaches layer t, `maxima` being what
        the step into t divided out of the block ((rows, 1, ...); None for
        the initial block and a layer whose step divides by nothing) and
        `died` the death record so far, which names the first layer after a
        row's mass vanished whose step takes the maximum. It stops at the
        layer where its last live row is recorded dead. A block is not
        written to after it is yielded."""
        n = len(self.layers)
        order = range(n - 1, -1, -1) if back else range(n)
        step = self.step_backward if back else self.step_forward
        arr = np.expand_dims(
            self.initial_backward_block() if back else self.initial_forward_block(), 1)
        s = dead = None
        died = np.full(self.rows, -1)
        for i, t in enumerate(order):
            if i > 0:
                arr, s, dead = step(t, arr)
                if dead is not None:
                    died[(died < 0) & dead[:, 0]] = t
            yield t, arr.squeeze(1), s, died
            if dead is not None and died.min() >= 0:
                return

    def _sweep(self, back, keep):
        """Run `fronts`, keeping the blocks of the layers in `keep` (every
        layer when None), each copied into its slot of one buffer as the
        sweep passes it; a row with no mass at its end cells dies too."""
        n = len(self.layers)
        keep = range(n) if keep is None else sorted(set(keep))
        shapes = [(self.rows,) + self.layers[t].shape for t in keep]
        ends = np.cumsum([0] + [math.prod(shape) for shape in shapes]).tolist()
        buf = np.empty(ends[-1])
        kept = [None] * n
        for t, shape, a, b in zip(keep, shapes, ends, ends[1:]):
            kept[t] = buf[a:b].reshape(shape)
        maxima = np.ones((n, self.rows))  # in sweep order
        for i, (t, arr, s, died) in enumerate(self.fronts(back)):
            if s is not None:
                maxima[i] = s.reshape(self.rows)
            if kept[t] is not None:
                np.copyto(kept[t], arr)
        for t in (range(n - 1 - i) if back else range(i + 1, n)):
            kept[t] = None  # not reached: every row died before it
        scales = np.cumsum(np.log(maxima, out=maxima), axis=0)
        tot = np.ones(self.rows)
        if i == n - 1:  # the last layer was reached
            tot = arr[self._origin() if back else self._absorbing()].sum(axis=-1)
            died[(died < 0) & (tot <= 0.0)] = n
        live = died < 0
        loglik = np.where(live, np.log(np.where(live, tot, 1.0)) + scales[-1], -math.inf)
        return SweepResult(kept, scales[::-1] if back else scales, loglik, died)

    def held_bytes(self, keep, fronts, rows=None):
        """What a reader holds at once on this trellis, or on `rows` rows of
        its geometry: per row, 8 bytes a cell of the blocks of the layers in
        `keep` (a layer kept by two sweeps counted twice) and of `fronts`
        largest blocks, the ids layers' weight indices and LAYER_BYTES a
        step; whatever the rows, the layers' objects and BUFFER_BYTES."""
        cells = [math.prod(lay.shape) for lay in self.layers]
        ids = [lay.subcor[0].nbytes for lay in self.layers if lay.kind == IDS]
        row = (8 * (sum(cells[t] for t in keep) + fronts * max(cells)) + sum(ids) // self.rows
               + LAYER_BYTES * (len(cells) - 1))
        return ((self.rows if rows is None else rows) * row + LAYER_OBJECT_BYTES * len(cells)
                + IDS_OBJECT_BYTES * len(ids) + BUFFER_BYTES)

    def forward(self, keep=None):
        """Forward sweep from the origin, keeping the layers whose indices
        are in `keep` (every layer when None, none when empty)."""
        return self._sweep(False, keep)

    def backward(self, keep=None):
        """Backward sweep from the absorbing vertices to the origin; `keep`
        as for `forward`."""
        return self._sweep(True, keep)


def build_trellis(encoder, rows, params, delta=None, offsets=None):
    """The trellis whose row r is the joint trellis, under a uniform message
    prior, of rows[r], a list of traces, one per pointer axis: a row of K
    traces is a cluster's joint trellis, and rows of one trace each are
    Trellis BMA's and BMALA-MAP's one-trace trellises. `delta` bounds
    pointer drift (None = exact); `offsets` is None or one scrambling
    vector per row (each None or length N), added to the encoder output.
    No sweep runs here: an infeasible row's sweeps record where its mass
    vanishes (`SweepResult.died`)."""
    if not isinstance(params, IDSParams):
        params = IDSParams(*params)
    if not rows or len(rows[0]) < 1:
        raise ConfigError("need at least one trace")
    if any(len(traces) != len(rows[0]) for traces in rows):
        raise ConfigError(f"every trellis row needs the same number of traces: got "
                          f"{sorted({len(traces) for traces in rows})}")
    traces = [as_indices(y, encoder.alphabet) for ys in rows for y in ys]
    offsets = [None] * len(rows) if offsets is None else offsets
    if len(offsets) != len(rows):
        raise ConfigError(f"need one offset per trellis row: got {len(offsets)} "
                          f"for {len(rows)} rows")
    offsets = [np.zeros(encoder.N, np.int8) if z is None
               else as_indices(z, encoder.alphabet) for z in offsets]
    if any(len(z) != encoder.N for z in offsets):
        raise ConfigError("offset length must equal the codeword length")
    offsets = np.array(offsets, dtype=_index_type(encoder.alphabet.size))
    if sum(encoder.emission_counts) != encoder.N:
        raise ConfigError("encoder emission counts do not sum to N")
    return Trellis(encoder, traces, params, delta, offsets, len(rows))
