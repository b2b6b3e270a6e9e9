"""IDS trellises: the exact joint trellis over K traces (`Trellis`), and K
one-trace trellises stepped as the rows of one stack (`Lattice`).

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

The steps act on a stack of P independent rows of one layer, each as it
would be stepped alone: the exact sweeps step a stack of one, the Trellis
BMA exchange one row per beta point. A `Trellis` stack is (P, C, W...),
with one pointer axis per trace and windows clipped to [0, R_k].

A `Lattice` holds K traces, each in its own one-trace trellis, and steps
them together as a (K, P, C, W) stack. Every trace keeps one fixed-width
window (Davey & MacKay's drift lattice): after n codeword symbols, cell v
of trace k is pointer lo_k(n) + v, with lo_k(n) = round(n*R_k/N) - delta
and W = 2*delta + 1 (no bound: lo = 0, W = max R_k + 1). Cells whose
pointer lies outside [0, R_k] are held at zero, so the others are exactly
the clipped windows of the trace's own trellis. The advance shifts each
trace's row by lo_k(n+1) - lo_k(n); the insertion runs are one shared
(W, W) matrix followed by the masking of those cells.
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
    wins: tuple = ()       # Trellis: per trace (lo, hi), 0-based inclusive
    shape: tuple = ()      # combos (boundary: encoder states), then a pointer axis per trace
    cm: np.ndarray | None = None       # per-combo message symbol
    rows: np.ndarray | None = None     # input: the boundary row each combo loads;
                                       # boundary: the row each previous combo clears into
    subcor: np.ndarray | None = None   # ids: substitute/correct weights
    mask: np.ndarray | None = None     # Lattice ids: 1 on pointers in [0, R_k], 0 elsewhere;
                                       # None when every cell is inside
    shift: list | None = None          # Lattice ids: (s, trace rows mask) whose windows move
                                       # up by s from the layer before; None when none moves

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
    """The stack `arr` with combo c added into row rows[c] of a zero stack
    of layer shape `shape`: a product with the (rows, combos) indicator."""
    lead = arr.shape[:arr.ndim - len(shape)]
    onehot = (rows == np.arange(shape[0])[:, None]).astype(float)
    return (onehot @ arr.reshape(lead + (len(rows), -1))).reshape(lead + shape)


@dataclass
class SweepResult:
    """One direction of inference over the layer arrays.

    `layers[t]` holds that layer's values rescaled by exp(scales[t]),
    true value = layers[t] * exp(scales[t]), for each layer t the sweep was
    asked to keep, and None for every other layer. `scales` covers every
    layer. In a Lattice every block, scale and log-likelihood carries a
    leading trace axis.
    """
    layers: list
    scales: np.ndarray
    loglik: float | np.ndarray


class Trellis:
    """Built by `build_trellis`: the layer arrays and the transfers between them."""

    _lead = ()  # a front block's axes before its combo axis

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

    @property
    def _n_axes(self):
        """Pointer axes of a layer block: one per trace."""
        return self.K

    # ------------------------------------------------------------------
    # construction

    def _build_layers(self):
        """Per position n = 0..N, the pointer windows; then the schedule."""
        self._windows = [self._wins(n) for n in range(self.N + 1)]
        self._schedule()

    def _schedule(self):
        """The cycle schedule; `_add` gives each layer its geometry."""
        enc = self.encoder
        Mz = enc.msg_size
        states = np.array([enc.q_init], dtype=np.int32)
        npos = 0
        self._add(BOUNDARY, npos, len(states))
        for l in range(self.L):
            u = enc.emission_counts[l]
            # this cycle's (state, message) transitions, one combo each
            qprev = np.repeat(states, Mz)
            cm = np.tile(np.arange(Mz, dtype=np.int32), len(states))
            cq, emit = enc.transition(qprev, cm, l)
            if self.offset is not None:
                emit = (emit + self.offset[npos:npos + u]) % self.A
            self.input_read_layer[l] = len(self.layers)
            # `npos` is still the boundary's: windows change only across an advance
            self._add(INPUT, npos, len(cm), cm=cm,
                      rows=np.searchsorted(states, qprev).astype(np.int32))
            for c in range(u):
                npos += 1
                for k in range(self._n_axes):
                    self._add(IDS, npos, len(cm), trace=k, cx=emit[:, c], cm=cm)
                if c == u - 1:
                    self.post_read_layer[l] = len(self.layers)
                self._add(POST, npos, len(cm), cm=cm)
            states = np.unique(cq)
            self._add(BOUNDARY, npos, len(states),
                      rows=np.searchsorted(states, cq).astype(np.int32))

    def _add(self, kind, npos, ncombo, trace=-1, cx=None, **fields):
        """Append a layer of `ncombo` combos after `npos` codeword symbols;
        an ids layer's combos have the on-deck codeword symbols `cx`."""
        wins = self._windows[npos]
        lay = _Layer(kind, trace=trace, wins=wins,
                     shape=(ncombo,) + tuple(hi - lo + 1 for lo, hi in wins), **fields)
        if kind == IDS:
            lay.subcor = self._subcor(trace, wins, cx)
        self.layers.append(lay)

    def _wins(self, npos):
        """Per trace, its pointer window (lo, hi) after `npos` codeword symbols.
        The last window, npos = N, is centred on R_k and so always holds it."""
        if self.delta is None:
            return tuple((0, r) for r in self.R)
        centres = [int(math.floor(npos * r / self.N + 0.5)) for r in self.R]
        return tuple((max(0, c - self.delta), min(r, c + self.delta))
                     for c, r in zip(centres, self.R))

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

    def _origin(self):
        """Index of the origin cells in a first-layer block: q_init, nothing
        explained. Indexing with it leaves a trailing axis to sum."""
        return (slice(0, 1),) + (0,) * self.K

    def _absorbing(self):
        """Index of the absorbing cells in a last-layer block: every pointer
        at R_k, any encoder state."""
        return (slice(None),) + tuple(r - lo for r, (lo, _) in zip(self.R, self.layers[-1].wins))

    # ------------------------------------------------------------------
    # the transfers: each moves a stack from layer a into the next layer b,
    # or with `back` from b into a by its transpose

    def _combos(self, rows):
        """Index of the combo rows `rows` of a stack."""
        return (Ellipsis, rows) + (slice(None),) * self._n_axes

    def _load(self, a, b, arr, back):
        """Boundary a -> input b: each combo gathers its encoder state's row,
        times the uniform message prior."""
        w = 1.0 / self.encoder.msg_size
        return _scatter(arr * w, b.rows, a.shape) if back else arr[self._combos(b.rows)] * w

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
        after = (slice(None),) * (self._n_axes - 1 - a.trace)  # the pointer axes after k
        src, dst = (Ellipsis, slice(None, -1)) + after, (Ellipsis, slice(1, None)) + after
        if back:
            src, dst = dst, src
        out = arr * self.params.p_del
        out[dst] += arr[src] * a.subcor
        return out

    def _clear(self, a, b, arr, back):
        """Post a -> boundary b: each combo is added into its next encoder
        state's row."""
        return arr[self._combos(b.rows)] if back else _scatter(arr, b.rows, b.shape)

    def _insert(self, lay, arr, back):
        """An ids layer's insertion runs along its trace's pointer axis, then
        the layer's mask."""
        ax = lay.trace - self._n_axes
        chain = _chain(lay.shape[ax], self.params.p_ins / self.A)
        if not back:
            chain = chain.T
        if ax == -1:  # the swaps would be no-ops, at a cost per step
            out = arr @ chain
        else:
            out = (arr.swapaxes(ax, -1) @ chain).swapaxes(ax, -1)
        return out if lay.mask is None else out * lay.mask

    # ------------------------------------------------------------------
    # inference sweeps over the layer arrays

    def _pull(self, t, arr, back=False):
        """Layer t's values from layer t-1's by the transfer between them,
        or with `back` from layer t+1's by that transfer transposed; then an
        ids layer's insertion runs, transposed with `back`. `arr` and the
        result are stacks of independent rows."""
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
        arr = np.zeros(self._lead + self.layers[0].shape)
        arr[self._origin()] = 1.0
        return arr

    def initial_backward_block(self):
        arr = np.zeros(self._lead + self.layers[-1].shape)
        arr[self._absorbing()] = 1.0
        return arr

    def _rescale(self, t, arr, direction):
        """(each row of the stack `arr` over its own max, the row maxima
        shaped to broadcast over the stack). Raises unless every max is
        positive and finite; the error's `rows` marks the rows that fail,
        shaped as the stack's axes before the cells."""
        cells = len(self.layers[t].shape)
        s = np.maximum.reduce(arr, axis=tuple(range(-cells, 0)), keepdims=True)
        m = s.ravel().tolist()
        if not (min(m) > 0.0 and sum(m) < math.inf):  # the sum is NaN or inf if any one is
            raise InfeasibleTrellisError(
                f"{direction} mass vanished at layer {t} ({self.layers[t].kind}); "
                f"no path explains the traces (delta={self.delta})",
                rows=~((s > 0.0) & (s < math.inf)).reshape(arr.shape[:-cells]))
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
        from its initial block through every layer, yielding (t, block,
        maxima) as it reaches layer t, `maxima` being what the step into t
        divided out of the block (shaped as a front's leading axes; None
        for the initial block). A block is not written to after it is
        yielded."""
        n = len(self.layers)
        order = range(n - 1, -1, -1) if back else range(n)
        step = self.step_backward if back else self.step_forward
        ax = len(self._lead)  # the stack's row axis
        arr = np.expand_dims(
            self.initial_backward_block() if back else self.initial_forward_block(), ax)
        s = None
        for i, t in enumerate(order):
            if i > 0:
                arr, s = step(t, arr)
            yield t, arr.squeeze(ax), s

    def _sweep(self, back, keep, end, vanished):
        """Run `fronts` to the end, keeping the blocks of the layers in
        `keep` (every layer when None). The last block's cells `end` hold
        the total mass."""
        n = len(self.layers)
        keep = range(n) if keep is None else frozenset(keep)
        kept = [None] * n
        maxima = np.ones((n,) + self._lead)  # in sweep order
        for i, (t, arr, s) in enumerate(self.fronts(back)):
            if s is not None:
                maxima[i] = s.reshape(self._lead)
            if t in keep:
                kept[t] = arr
        scales = np.cumsum(np.log(maxima), axis=0)
        tot = arr[end].sum(axis=-1)
        if (tot <= 0.0).any():
            raise InfeasibleTrellisError(vanished, rows=tot <= 0.0)
        return SweepResult(kept, scales[::-1] if back else scales, np.log(tot) + scales[-1])

    def forward(self, keep=None):
        """Forward sweep from the origin, keeping the layers whose indices
        are in `keep` (every layer when None, none when empty)."""
        return self._sweep(False, keep, self._absorbing(),
                           "no forward mass reaches an absorbing vertex")

    def backward(self, keep=None):
        """Backward sweep from the absorbing vertices to the origin; `keep`
        as for `forward`."""
        return self._sweep(True, keep, self._origin(), "no backward mass reaches the origin")


class Lattice(Trellis):
    """Built by `build_lattice`: K one-trace trellises on one cycle schedule,
    each trace a row of every stack (K, P, C, W) and of every front block
    (K, C, W), on fixed-width windows (see the module docstring). A row is
    stepped exactly as the trace's own `Trellis` steps it; the error of a
    step or sweep marks the (trace, row) pairs whose mass vanished."""

    _n_axes = 1

    @property
    def _lead(self):
        return (self.K,)

    def _build_layers(self):
        """Per position n = 0..N, the window offsets lo (N+1, K), then the
        trace symbol at every source cell, the masks and the shift groups,
        with array ops; then the schedule."""
        R = np.array(self.R)
        K, N, A, p = self.K, self.N, self.A, self.params
        n = np.arange(N + 1)[:, None]
        if self.delta is None:
            self.W = int(R.max()) + 1
            self.lo = np.zeros((N + 1, K), dtype=np.int64)
        else:
            self.W = 2 * self.delta + 1
            self.lo = np.floor(n * R / N + 0.5).astype(np.int64) - self.delta
        ptr = self.lo[:, :, None] + np.arange(self.W)  # (N+1, K, W)
        # the trace symbol each source cell (all but the last) explains, A for none
        src = ptr[:, :, :-1]
        ypad = np.full((K, max(int(R.max()), 1)), A)
        for k, y in enumerate(self.traces):
            ypad[k, :len(y)] = y
        self._sym = np.where((src >= 0) & (src < R[:, None]),
                             ypad[np.arange(K)[:, None], src.clip(0, ypad.shape[1] - 1)], A)
        # substitute/correct weight by (on-deck symbol, trace symbol or A)
        w_sub = p.p_sub / (A - 1) if A > 1 else 0.0
        self._weight = np.where(np.arange(A)[:, None] == np.arange(A + 1), p.p_cor, w_sub)
        self._weight[:, A] = 0.0
        inside = (ptr >= 0) & (ptr <= R[:, None])
        masks = inside[:, :, None, None].astype(float)
        self._masks = [None if ok else m for ok, m in zip(inside.all(axis=(1, 2)).tolist(), masks)]
        # per position n >= 1, (s, the trace rows whose window offset grows by s)
        self._shifts = [None] + [
            [(s, (dn == s)[:, None, None, None]) for s in set(dn.tolist())] if dn.any() else None
            for dn in np.diff(self.lo, axis=0)]
        self._schedule()

    def _add(self, kind, npos, ncombo, trace=-1, cx=None, **fields):
        lay = _Layer(kind, trace=trace, shape=(ncombo, self.W), **fields)
        if kind == IDS:
            # (K, 1, C, W-1), to broadcast over the beta rows
            lay.subcor = self._weight[cx[:, None], self._sym[npos][:, None, None]]
            lay.mask, lay.shift = self._masks[npos], self._shifts[npos]
        self.layers.append(lay)

    def _origin(self):
        return (np.arange(self.K), slice(0, 1), -self.lo[0])

    def _absorbing(self):
        return (np.arange(self.K), slice(None), np.array(self.R) - self.lo[-1])

    def _advance(self, a, b, arr, back):
        """Input or post a -> ids b of the next codeword symbol: each trace's
        row moves down by the growth s of its window offset, so its cells
        keep their pointers. Cells below the new window are lost; cells it
        adds on top start at zero."""
        if b.shift is None:
            return arr
        out = np.zeros_like(arr)
        W = self.W
        for s, rows in b.shift:
            if s >= W:  # the windows do not meet
                continue
            if back:
                np.copyto(out[..., s:], arr[..., :W - s], where=rows)
            else:
                np.copyto(out[..., :W - s], arr[..., s:], where=rows)
        return out


def _checked(encoder, traces, params, delta, offset):
    """The arguments of `build_trellis` and `build_lattice`, checked and
    converted to index arrays."""
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
    return encoder, traces, params, delta, offset


def build_trellis(encoder, traces, params, delta=None, offset=None):
    """Construct the joint trellis for `traces` (a list of K observed
    sequences) under a uniform message prior.

    `delta` bounds pointer drift (None = exact); `offset` is an optional
    length-N scrambling vector added to the encoder output before
    transmission.

    No sweep runs here: an infeasible trellis raises from its first sweep,
    at the layer where the mass vanishes.
    """
    return Trellis(*_checked(encoder, traces, params, delta, offset))


def build_lattice(encoder, traces, params, delta=None, offset=None):
    """Construct the one-trace trellises of `traces` as one `Lattice`, with
    the arguments of `build_trellis`."""
    return Lattice(*_checked(encoder, traces, params, delta, offset))
