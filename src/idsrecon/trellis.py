"""IDS trellises over K traces, laid out as rows or as pointer axes.

Stage schedule for one message symbol l (an "input cycle"), for a trellis
with `a` pointer axes:

    boundary -load-> input -advance-> ids(sym 0, axis 0) -consume-> ..
        ids(sym 0, axis a-1) -consume-> post(sym 0) -advance->
        ids(sym 1, axis 0) .. -> post(sym u-1) -clear-> boundary

* boundary: message and codeword buffers cleared; cells are (q, pointers).
* input: a message symbol m was accepted in encoder state q (weight 1/|M|,
  the uniform prior), and the first codeword symbol of the cycle is on
  deck; cells are (q, m, pointers).
* ids: channel events of one codeword symbol on one pointer axis.
  Insertions run inside the layer, each advancing that axis's pointer and
  explaining one trace symbol; deletion and substitute/correct lead to the
  next layer.
* post: the codeword symbol has been explained on every axis; the next
  symbol is loaded, or the buffers are cleared into the next boundary layer.

Every path crosses a cycle's input layer once, at a cell that carries the
cycle's message symbol, so that layer is a cut on which the symbol's
posterior is read (`bcjr.compute_posteriors`). Its forward block is the
preceding boundary block repeated along the message axis, so a reader
stores the boundary block and multiplies it into the backward input block.

Pointers count explained trace symbols (0..R_k, i.e. the paper-style pointer
minus one); the origin is all-zeros and absorbing cells have every pointer
at R_k.

Layout. The K traces sit on a grid of rows x axes, trace r*axes + j on row
r and pointer axis j, and a layer's block is (rows, S, M, W_0 .. W_{a-1}):
the rows, the cycle's encoder states, its message symbols, then a pointer
axis each. An input, ids or post layer holds the cycle's full (state,
message) grid, the states being those the previous boundary reaches; a
boundary layer has a message axis of 1. Rows are independent. The exact
joint trellis (`build_trellis`) is one row of K axes. Trellis BMA's
per-trace trellises (`build_lattice`) are K rows of one axis, each row its
trace's own one-trace trellis, stepped beside the others: Davey & MacKay's
drift lattice ("Reliable communication over channels with insertions,
deletions, and substitutions", IEEE Trans. IT 2001). Its rows may come from
several clusters of one encoder: each row carries its own scramble offset,
added to the encoder's output to give the symbol it transmitted (the joint
trellis has one row and one offset).

The encoder's cycle schedule, each cycle's (state, message) transitions
and emissions, is computed once per encoder (`_cycles`); a build adds only
each row's offset. An ids layer stores its substitute/correct weights as
indices into the (|A|, |A|+1) table of weights by (transmitted symbol,
trace symbol or none), gathered at each step.

One window rule. After n codeword symbols, the trace of length R on a
(row, axis) has the pointer window [lo, hi] with c = floor(n*R/N + 0.5),
lo = max(0, c - delta) and hi = min(R, c + delta) (no bound: lo = 0,
hi = R); cell v of the row on that axis holds pointer lo + v. An axis is as
wide as the widest window among its rows, and a per-position mask holds
the cells past a narrower row's hi at zero after every transfer into the
layer. With one row, every axis is exactly its window and nothing is
masked.

The trellis exists only as these layer arrays. A layer's values come from
its predecessor's by one of four transfers, then, in an ids layer, the
insertion runs:

* load (boundary -> input): each state's cells are repeated along the
  message axis, times the uniform message prior;
* advance (input or post -> the next symbol's first ids layer): window
  n -> n+1, the only transfer across which windows change;
* consume (ids layer of axis k -> the next layer): deletion, p_del times
  the cell, plus substitute/correct, a shift by one along pointer axis k
  times the weight of explaining that trace symbol;
* clear (post -> boundary): each (state, message) cell is added into its
  next encoder state's;
* insertion runs: a (W, W) matrix on the ids layer's pointer axis
  (`_chain`).

Each is written once and read in both directions: the backward sweep applies
it transposed, the repeat becoming a sum over the message axis, the clear's
scatter-add a gather, the shift running the other way, the matrix
transposed.

The steps act on a stack (rows, P, S, M, W...) of P independent fronts per
row, each as it would be stepped alone: the exact sweeps step a stack of
one, the Trellis BMA exchange one front per beta point. A front whose mass
vanishes is dead: it stays in the stack as zeros with scale 1, and the step
marks it, so its neighbours step on untouched. A sweep records, per row,
where its front died and stops once every row is dead; the error text of a
dead row is formed from that record (`Trellis.vanished`).
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


@dataclass
class _Layer:
    kind: str
    npos: int              # codeword symbols explained: the layer has position npos's windows
    axis: int = -1         # ids: the pointer axis whose channel events it models
    shape: tuple = ()      # one row's block: (S, M, W_0 .. W_{a-1}), M = 1 at a boundary
    rows: np.ndarray | None = None     # boundary: the (S, M) grid of the previous cycle,
                                       # the state each of its cells clears into
    subcor: np.ndarray | None = None   # ids: substitute/correct weights, as indices
                                       # into the trellis's flat weight table


def _index_type(size):
    """The smallest integer type of a symbol index into an alphabet of
    `size` and of an index into the flat (size, size + 1) weight table."""
    return np.min_scalar_type(size * (size + 1))


@functools.lru_cache(maxsize=32)
def _cycles(encoder):
    """The encoder's cycle schedule, which no trace or offset changes: per
    message cycle, the (S, M) grid of (state, message) transitions from the
    states the previous cycles reach, the codeword symbols each emits
    ((S*M, u), state-major, before scrambling), the index of each one's
    next state among the states reached after the cycle ((S, M)), and the
    number of those states."""
    Mz, A = encoder.msg_size, encoder.alphabet.size
    states = np.array([encoder.q_init], dtype=np.int32)
    out = []
    for l in range(encoder.L):
        grid = (len(states), Mz)
        cq, emit = encoder.transition(np.repeat(states, Mz),
                                      np.tile(np.arange(Mz, dtype=np.int32), len(states)), l)
        states = np.unique(cq)
        emit, nxt = (emit.astype(_index_type(A)),
                     np.searchsorted(states, cq).reshape(grid).astype(np.int32))
        emit.setflags(write=False)
        nxt.setflags(write=False)
        out.append((grid, emit, nxt, len(states)))
    return tuple(out)


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
    layer. `scales` (layers, rows) covers every layer; `loglik` is (rows,).
    `died` (rows,) records where each row died: -1 if it lives, else the
    layer where its mass vanished, or len(layers) if none reached its end
    cells; a dead row is zero from there on, with loglik -inf.
    """
    layers: list
    scales: np.ndarray
    loglik: np.ndarray
    died: np.ndarray


class Trellis:
    """Built by `build_trellis` (one row of K pointer axes) or
    `build_lattice` (K rows of one axis): the layer arrays and the
    transfers between them. A step marks the fronts whose mass vanished
    and a sweep records where each row died; `vanished` gives the error
    text of a dead row."""

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
        # per position, (rows, 1, 1, 1, W...) with 1 on each row's window;
        # None if no row is narrower
        inside = (np.arange(wmax) < span[..., None]).astype(float)  # (N+1, rows, axes, wmax)
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
        # the trace symbol each source cell (all but the last) explains, A for none
        ptr = self.lo[..., None] + np.arange(wmax - 1)  # (N+1, rows, axes, wmax-1)
        ypad = np.full((self.K, max(int(R.max()), 1)), A, dtype=_index_type(A))
        for k, y in enumerate(self.traces):
            ypad[k, :len(y)] = y
        ypad = ypad.reshape(rows, axes, -1)
        self._sym = np.where(ptr < R[..., None],
                             ypad[np.arange(rows)[:, None, None], np.arange(axes)[:, None],
                                  ptr.clip(max=ypad.shape[-1] - 1)], A)
        # substitute/correct weight by (on-deck symbol, trace symbol or A), flat
        w_sub = p.p_sub / (A - 1) if A > 1 else 0.0
        weight = np.where(np.arange(A)[:, None] == np.arange(A + 1), p.p_cor, w_sub)
        weight[:, A] = 0.0
        self._weight = weight.ravel()
        self._schedule()

    def _schedule(self):
        """The encoder's cycle schedule (`_cycles`) with each row's
        scramble offset; `_add` gives each layer its geometry."""
        npos = 0
        self._add(BOUNDARY, npos, (1, 1))
        for l, (grid, emit, nxt, n_next) in enumerate(_cycles(self.encoder)):
            self.input_read_layer[l] = len(self.layers)
            # `npos` is still the boundary's: windows change only across an advance
            self._add(INPUT, npos, grid)
            for c in range(emit.shape[1]):
                npos += 1
                # the on-deck codeword symbol, as transmitted, by (row, state, message)
                cx = emit[:, c] if self.offsets is None else (
                    (emit[:, c] + self.offsets[:, npos - 1, None]) % self.A)
                for k in range(self.axes):
                    self._add(IDS, npos, grid, axis=k, cx=cx.reshape((-1,) + grid))
                if c == emit.shape[1] - 1:
                    self.post_read_layer[l] = len(self.layers)
                self._add(POST, npos, grid)
            self._add(BOUNDARY, npos, (n_next, 1), rows=nxt)

    def _add(self, kind, npos, grid, axis=-1, cx=None, rows=None):
        """Append a layer with the (states, messages) `grid` after `npos`
        codeword symbols; an ids layer's cells have the on-deck codeword
        symbols `cx`, shaped (rows or 1,) + grid."""
        lay = _Layer(kind, npos, axis=axis, shape=grid + self._widths[npos], rows=rows)
        if kind == IDS:
            lay.subcor = self._subcor(npos, axis, cx)
        self.layers.append(lay)

    def _subcor(self, npos, axis, cx):
        """Substitute/correct weights of an ids layer on `axis` after `npos`
        codeword symbols whose cells have the on-deck codeword symbols `cx`,
        as indices into the flat weight table, by (row, state, message,
        source pointer), for each cell of the axis but the last (its
        successor lies outside), shaped to broadcast along the axis over a
        stack. The weight is zero at pointer R: no symbol left to explain."""
        w = self._widths[npos][axis]
        idx = cx[..., None] * (self.A + 1) + self._sym[npos, :, axis, None, None, :w - 1]
        return idx.reshape((self.rows, 1) + cx.shape[1:]
                           + tuple(w - 1 if j == axis else 1 for j in range(self.axes)))

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
        message axis, times the uniform message prior."""
        w = 1.0 / self.encoder.msg_size
        if back:
            return (arr * w).sum(axis=3, keepdims=True)
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
        """Ids a of axis k -> the next layer, in the same windows: deletion
        keeps the pointer, substitute/correct moves it up by one."""
        after = (slice(None),) * (self.axes - 1 - a.axis)  # the pointer axes after k
        src, dst = (Ellipsis, slice(None, -1)) + after, (Ellipsis, slice(1, None)) + after
        if back:
            src, dst = dst, src
        out = arr * self.params.p_del
        out[dst] += arr[src] * self._weight.take(a.subcor)
        return out

    def _clear(self, a, b, arr, back):
        """Post a -> boundary b: each (state, message) cell is added into its
        next encoder state's, a product with the (next states, grid)
        indicator; backward each gathers its next state's."""
        if back:
            return arr[:, :, b.rows, 0]
        lead = arr.shape[:2]
        onehot = (b.rows.ravel() == np.arange(b.shape[0])[:, None]).astype(float)
        return (onehot @ arr.reshape(lead + (b.rows.size, -1))).reshape(lead + b.shape)

    def _insert(self, lay, arr, back):
        """An ids layer's insertion runs along its pointer axis."""
        ax = lay.axis - self.axes
        chain = _chain(lay.shape[ax], self.params.p_ins / self.A)
        if not back:
            chain = chain.T
        if ax == -1:  # the swaps would be no-ops, at a cost per step
            return arr @ chain
        return (arr.swapaxes(ax, -1) @ chain).swapaxes(ax, -1)

    # ------------------------------------------------------------------
    # inference sweeps over the layer arrays

    def _pull(self, t, arr, back=False):
        """Layer t's values from layer t-1's by the transfer between them,
        or with `back` from layer t+1's by that transfer transposed; then an
        ids layer's insertion runs, transposed with `back`, and the mask of
        layer t's position. `arr` and the result are stacks; the result is a
        fresh array, which `_rescale` may overwrite."""
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
        if lay.kind == IDS:
            out = self._insert(lay, out, back)
        mask = self._masks[lay.npos]
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

    def _rescale(self, t, arr):
        """(each front of the stack `arr` over its own max, divided in
        place, the maxima shaped to broadcast over the stack, the (rows, P)
        mask of the dead fronts or None if none is). A dead front, whose max
        is not positive and finite, comes back zero with scale 1."""
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
        Returns (rescaled stack, maxima divided out, dead fronts or None)."""
        return self._rescale(t, self._pull(t, arr))

    def step_backward(self, t, arr):
        """Pull a stack of backward fronts from layer t+1 into layer t."""
        return self._rescale(t, self._pull(t, arr, back=True))

    def vanished(self, back, t):
        """The error text of a row that died at t (`SweepResult.died`); None if it lives."""
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
        the initial block) and `died` the death record so far. It stops at
        the layer where its last live row dies. A block is not written to
        after it is yielded."""
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
        scales = np.cumsum(np.log(maxima), axis=0)
        tot = np.ones(self.rows)
        if i == n - 1:  # the last layer was reached
            tot = arr[self._origin() if back else self._absorbing()].sum(axis=-1)
            died[(died < 0) & (tot <= 0.0)] = n
        live = died < 0
        loglik = np.where(live, np.log(np.where(live, tot, 1.0)) + scales[-1], -math.inf)
        return SweepResult(kept, scales[::-1] if back else scales, loglik, died)

    def forward(self, keep=None):
        """Forward sweep from the origin, keeping the layers whose indices
        are in `keep` (every layer when None, none when empty)."""
        return self._sweep(False, keep)

    def backward(self, keep=None):
        """Backward sweep from the absorbing vertices to the origin; `keep`
        as for `forward`."""
        return self._sweep(True, keep)


def _build(encoder, traces, params, delta, offsets, rows):
    """The `Trellis` of `rows` rows, its arguments checked and converted to
    index arrays; `offsets` (one per row, each None or length N) becomes a
    (rows, N) array, zero for None, or None if every one is zero."""
    if not isinstance(params, IDSParams):
        params = IDSParams(*params)
    traces = [as_indices(y, encoder.alphabet) for y in traces]
    if len(traces) < 1:
        raise ConfigError("need at least one trace")
    if offsets is not None:
        if len(offsets) != rows:
            raise ConfigError(f"need one offset per trellis row: got {len(offsets)} "
                              f"for {rows} rows")
        offsets = [np.zeros(encoder.N, np.int8) if z is None
                   else as_indices(z, encoder.alphabet) for z in offsets]
        if any(len(z) != encoder.N for z in offsets):
            raise ConfigError("offset length must equal the codeword length")
        offsets = np.array(offsets, dtype=_index_type(encoder.alphabet.size))
        if not offsets.any():
            offsets = None
    if sum(encoder.emission_counts) != encoder.N:
        raise ConfigError("encoder emission counts do not sum to N")
    return Trellis(encoder, traces, params, delta, offsets, rows)


def build_trellis(encoder, traces, params, delta=None, offset=None):
    """Construct the joint trellis for `traces` (a list of K observed
    sequences) under a uniform message prior: one row of K pointer axes.

    `delta` bounds pointer drift (None = exact); `offset` is an optional
    length-N scrambling vector added to the encoder output before
    transmission.

    No sweep runs here: an infeasible trellis's sweeps record where its
    mass vanishes (`SweepResult.died`).
    """
    return _build(encoder, traces, params, delta, None if offset is None else [offset], 1)


def build_lattice(encoder, traces, params, delta=None, offsets=None):
    """Construct the one-trace trellises of `traces` as K rows of one
    pointer axis, with the arguments of `build_trellis` but one scrambling
    vector per trace in `offsets` (each None or length N; None for all):
    row k is stepped exactly as trace k's own trellis steps it. The traces
    may come from several clusters, each row carrying its cluster's
    offset."""
    return _build(encoder, traces, params, delta, offsets, len(traces))
