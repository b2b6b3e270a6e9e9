"""Bitwise majority alignment with lookahead, and its trellis-assisted
coded variant.

The reconstructor keeps one hard input pointer per trace and emits, per
output position, the plurality of the symbols currently under the pointers.
A trace that disagrees with the vote is classified by comparing short
lookahead windows against the consensus lookahead:

  substitution: its next symbols already match the consensus, advance 1;
  deletion:     its current symbol matches what comes next, do not advance;
  insertion:    the vote reappears right after, skip 2.

A trace whose windows match nothing well is benched for a few positions
(its pointer keeps pace with the consensus) and then votes again.

A mis-resolved vote desynchronises everything downstream, so the front
half of a cluster's estimate comes from a sweep over its traces and the
back half from a sweep over the reversed traces. Each sweep runs only the
positions it emits: n//2 forward and n - n//2 reversed, or one forward
sweep of n positions for a single trace or n = 1.

`bmala_reconstruct` steps every sweep of a chunk of clusters in lockstep:
each (cluster, direction, trace) is a row of one padded uint8 trace
matrix, with per-row pointer and bench state, and one position is one
round of array operations over all rows. Its decisions, ties included,
are those of the scalar per-trace loop kept in `tests/oracle.py`, which
the tests compare it with exactly. `bmala_map` decodes a chunk's consensus
strings as the rows of one lattice; `evaluation.chunked` sizes the chunks.
"""

from __future__ import annotations

import numpy as np

from .bcjr import compute_posteriors
from .errors import ConfigError
from .trellis import build_trellis


# calibrated on simulated clusters at the measured channel rates
LOOKAHEAD = 5       # window length for disagreement classification
BENCH_STEPS = 6     # positions a confused trace sits out
MIN_AGREE = 0.7     # window match fraction below which we bench
RESYNC_WINDOW = 6   # consensus history matched when rejoining
RESYNC_SPAN = 5     # pointer offsets tried on rejoin

PAD = 255  # fills the trace matrix around each trace; equals no symbol
_D = np.arange(LOOKAHEAD)
# symbols ptr .. ptr+LOOKAHEAD+1 of an active row, and within them the
# deletion, substitution and insertion windows (starts ptr, ptr+1, ptr+2)
_SPAN = np.arange(LOOKAHEAD + 2)
_WINDOWS = np.arange(3)[:, None] + _D
# rejoin offsets in order of preference: ties go to the smaller |d|, then
# to the negative d
_OFFSETS = np.array(sorted(range(-RESYNC_SPAN, RESYNC_SPAN + 1), key=lambda d: (abs(d), d > 0)))


def bmala_reconstruct(clusters, n, alphabet_size=4):
    """Consensus estimates of the length-n channel inputs of a chunk of
    clusters from hard votes: a (clusters, n) int8 array, one row per
    entry of `clusters`, a nonempty sequence of trace lists (index
    arrays). An estimate has exactly length n: it is padded with symbol 0
    where every trace ran out. A symbol outside [0, alphabet_size) is a
    ConfigError naming its cluster and trace.
    """
    if not isinstance(clusters, (list, tuple)) or not clusters:
        raise ConfigError("clusters must be a nonempty list of trace lists, a single "
                          "cluster being a list of one")
    if n < 1:
        raise ConfigError("target length must be positive")
    if not 1 <= alphabet_size < PAD:
        raise ConfigError(f"bmala handles alphabets of 1 to {PAD - 1} symbols")
    half = n // 2
    rows, sweep, npos, first, pair = [], [], [], [], []
    for traces in clusters:
        if len(traces) == 0:
            raise ConfigError("bmala needs at least one trace")
        traces = [np.asarray(y) for y in traces]
        pair.append(n > 1 and len(traces) > 1)
        first.append(len(npos))  # the cluster's forward sweep; its reversed one is next
        rows += traces
        sweep += [len(npos)] * len(traces)
        npos.append(half if pair[-1] else n)
        if pair[-1]:
            rows += [y[::-1] for y in traces]
            sweep += [len(npos)] * len(traces)
            npos.append(n - half)
    flat = np.concatenate(rows)
    if ((flat < 0) | (flat >= alphabet_size)).any():
        for c, traces in enumerate(clusters):
            for k, y in enumerate(map(np.asarray, traces)):
                bad = y[(y < 0) | (y >= alphabet_size)]
                if len(bad):
                    raise ConfigError(f"cluster {c} trace {k}: symbol {bad[0]} is outside "
                                      f"the alphabet of {alphabet_size} symbols")
    out = _lockstep(flat, np.array([len(y) for y in rows]), np.array(sweep), np.array(npos),
                    alphabet_size)

    est = np.zeros((len(clusters), n), dtype=np.int8)
    for c, (f, both) in enumerate(zip(first, pair)):
        est[c] = np.concatenate([out[f, :half], out[f + 1, n - half - 1::-1]]) if both else out[f]
    return est


def _lockstep(flat, lens, sweep, npos, A):
    """Run every sweep to its npos positions; the rows are the traces
    `flat` cut at `lens`, row r belonging to sweep `sweep[r]`. Returns the
    (sweeps, max npos) int8 outputs, 0 past a sweep's stop."""
    R, S = len(lens), len(npos)
    # row r's symbol at pointer p sits at T[base[r] + p]; p = -1 and every
    # p >= lens[r] read PAD, up to the furthest window of an active row
    width = int(lens.max()) + LOOKAHEAD + 2
    T = np.full((R, width), PAD, dtype=np.uint8)
    T[:, 1:][np.arange(width - 1) < lens[:, None]] = flat
    T = T.ravel()
    base = np.arange(R) * width + 1
    ptr = np.zeros(R, dtype=np.int64)
    benched_until = np.zeros(R, dtype=np.int64)
    bench_pos = np.zeros(R, dtype=np.int64)
    stopped = np.zeros(S, dtype=bool)
    out = np.zeros((S, int(npos.max())), dtype=np.int8)
    state = (T, base, lens, width, ptr, bench_pos, sweep, out)

    for pos in range(out.shape[1]):
        running = (npos > pos) & ~stopped
        if not running.any():
            break
        live = running[sweep] & (ptr < lens)
        if pos:
            # rejoin benched traces whose bench expired, re-deriving their
            # pointer from the consensus emitted while they sat out
            back = np.flatnonzero(live & (benched_until == pos))
            if len(back):
                new, score = _resync(state, back, pos)
                ok = score >= MIN_AGREE
                ptr[back] = np.where(ok, np.minimum(new, lens[back]), ptr[back])
                benched_until[back[~ok]] = pos + BENCH_STEPS
                live = running[sweep] & (ptr < lens)
        active = live & (benched_until <= pos)
        idle = running & (np.bincount(sweep[active], minlength=S) == 0)
        if idle.any():
            # everyone benched or exhausted: recall the benched traces; a
            # sweep whose traces are all exhausted stops, its rest padded
            recall = np.flatnonzero(live & idle[sweep])
            if len(recall):
                new, _ = _resync(state, recall, pos)
                ptr[recall] = np.minimum(new, lens[recall])
                benched_until[recall] = pos
                active[recall] = ptr[recall] < lens[recall]
            stopped |= idle & (np.bincount(sweep[active], minlength=S) == 0)

        a = np.flatnonzero(active)
        sa = sweep[a]
        window = T[(base[a] + ptr[a])[:, None] + _SPAN]
        sym = window[:, 0]
        # plurality, ties to the lowest symbol; a sweep without votes emits 0
        vote = np.bincount(sa * A + sym, minlength=S * A).reshape(S, A).argmax(axis=1)
        out[:, pos] = vote
        agree = sym == vote[sa]
        # consensus lookahead: per offset, plurality of the agreeing traces'
        # post-advance symbols, as long as any of them has one
        ahead = window[agree, 1:LOOKAHEAD + 1]
        there = ahead != PAD
        slot = (sa[agree, None] * LOOKAHEAD + _D) * A + ahead
        counts = np.bincount(slot[there], minlength=S * LOOKAHEAD * A).reshape(S, LOOKAHEAD, A)
        ref = counts.argmax(axis=2)
        reflen = counts.any(axis=2).sum(axis=1)

        ptr[a[agree]] += 1
        if agree.all():
            continue
        d = a[~agree]
        sd = sa[~agree]
        win = window[~agree]
        m = reflen[sd][:, None]
        hits = ((win[:, _WINDOWS] == ref[sd][:, None, :]) & (_D < m[:, :, None])).sum(axis=2)
        score = np.where(m > 0, hits / np.maximum(m, 1), 1.0)
        s_del, s_sub, s_ins = score.T
        s_ins = np.where(win[:, 1] == vote[sd], s_ins, -1.0)
        bench = np.maximum(np.maximum(s_sub, s_del), s_ins) < MIN_AGREE
        sub = (s_sub >= s_del) & (s_sub >= s_ins)
        ins = ~sub & (s_del < s_ins)
        ptr[d] += np.where(bench, 0, sub + 2 * ins)
        # a trace that cannot explain the disagreement sits out; its pointer
        # freezes until it resyncs on rejoin
        benched_until[d[bench]] = pos + BENCH_STEPS
        bench_pos[d[bench]] = pos
    return out


def _resync(state, rows, pos):
    """New pointers of rejoining `rows` and their matched fractions.

    Candidate pointers p near the expected one, ptr + (pos - bench_pos),
    are scored by aligning the row's symbols p-w .. p-1 to the last w
    consensus symbols of its sweep; p below ptr (symbols the trace already
    consumed) or past the trace's end is never taken, so pointers stay
    monotone. Without a candidate, the pointer is the expected one, at
    least ptr, and the fraction 0; the caller clips pointers to the end.
    """
    T, base, lens, width, ptr, bench_pos, sweep, out = state
    w = min(RESYNC_WINDOW, pos)  # pos >= 1: a trace rejoins at pos 1 at the earliest
    start = ptr[rows]
    expected = start + (pos - bench_pos[rows])
    p = expected[:, None] + _OFFSETS
    q = np.clip(p[:, :, None] + np.arange(-w, 0), -1, width - 2)
    hits = (T[base[rows, None, None] + q] == out[sweep[rows], pos - w:pos][:, None, :]).sum(axis=2)
    hits = np.where((p >= start[:, None]) & (p <= lens[rows, None]), hits, -1)
    best = hits.argmax(axis=1)
    top = hits[np.arange(len(rows)), best]
    new = np.where(top >= 0, p[np.arange(len(rows)), best], np.maximum(start, expected))
    return new, np.where(top >= 0, top / w, 0.0)


def bmala_map(clusters, encoder, params, delta=None, offsets=None):
    """Coded variant, per cluster of a chunk: its consensus estimate is
    treated as a single observed trace and decoded exactly on a one-trace
    trellis under the channel estimate `params`, every message equally
    likely. `offsets` is None or one scrambling vector (or None) per
    cluster. Returns per cluster its PosteriorTable or the
    InfeasibleTrellisError of its trellis. The consensus strings are the
    rows of one lattice, each carrying its cluster's offset and decoding
    as its one-trace trellis would."""
    offsets = [None] * len(clusters) if offsets is None else offsets
    if len(offsets) != len(clusters):
        raise ConfigError(f"need one offset per cluster: got {len(offsets)} "
                          f"for {len(clusters)} clusters")
    x_hats = bmala_reconstruct(clusters, encoder.N, encoder.alphabet.size)
    return compute_posteriors(build_trellis(encoder, [[x] for x in x_hats], params,
                                            delta=delta, offsets=offsets))
