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
"""

from __future__ import annotations

import numpy as np

from .alphabet import as_indices
from .bcjr import compute_posteriors
from .errors import ConfigError
from .trellis import build_trellis


# calibrated on simulated clusters at the measured channel rates
LOOKAHEAD = 5       # window length for disagreement classification
BENCH_STEPS = 6     # positions a confused trace sits out
MIN_AGREE = 0.7     # window match fraction below which we bench
RESYNC_WINDOW = 6   # consensus history matched when rejoining
RESYNC_SPAN = 5     # pointer offsets tried on rejoin


def _window_score(trace, start, ref):
    """Fraction of `ref` matched by trace[start:]; absent symbols mismatch."""
    if len(ref) == 0:
        return 1.0
    hits = 0
    for d, r in enumerate(ref):
        p = start + d
        if p < len(trace) and trace[p] == r:
            hits += 1
    return hits / len(ref)


def _resync(trace, base, expected, out, pos):
    """Re-derive a pointer for a rejoining trace by matching its recent
    symbols against the consensus emitted while it sat out.

    Candidate pointers near `expected` are scored by aligning trace[p-w:p]
    to the last w consensus symbols; candidates below `base` (symbols the
    trace already consumed before benching) are never considered, so
    pointers stay monotone. Returns (new pointer, matched fraction).
    """
    w = min(RESYNC_WINDOW, pos)
    if w == 0:
        return max(base, expected), 1.0
    ref = out[pos - w:pos]
    best = (-1.0, 0)
    for d in range(-RESYNC_SPAN, RESYNC_SPAN + 1):
        p = expected + d
        if p < base or p > len(trace):
            continue
        hits = 0
        for i in range(w):
            q = p - w + i
            if 0 <= q < len(trace) and trace[q] == ref[i]:
                hits += 1
        score = hits / w
        if score > best[0] or (score == best[0] and abs(d) < abs(best[1])):
            best = (score, d)
    if best[0] < 0.0:
        return min(max(base, expected), len(trace)), 0.0
    return expected + best[1], best[0]


def bmala_reconstruct(traces, n, alphabet=None, alphabet_size=4, pointer_log=None):
    """Consensus estimate of the length-n channel input from hard votes.

    Accepts index arrays (or symbol strings together with `alphabet`).
    Output has exactly length n: short inputs are padded with symbol 0.
    `pointer_log`, when a list, receives the pointer vector after every
    emitted position (diagnostics; forward half only).

    A mis-resolved vote desynchronises everything downstream, so the back
    half is estimated by the same sweep over the reversed traces.
    """
    as_text = alphabet is not None and traces and isinstance(traces[0], str)
    if alphabet is not None:
        traces = [as_indices(y, alphabet) for y in traces]
        alphabet_size = alphabet.size
    traces = [np.asarray(y) for y in traces]
    if not traces:
        raise ConfigError("bmala needs at least one trace")
    if n < 1:
        raise ConfigError("target length must be positive")
    fwd = _sweep(traces, n, alphabet_size, pointer_log)
    if n > 1 and len(traces) > 1:
        rev = _sweep([y[::-1] for y in traces], n, alphabet_size, None)[::-1]
        out = np.concatenate([fwd[:n // 2], rev[n // 2:]])
    else:
        out = fwd
    if as_text:
        return alphabet.decode(out)
    return out


def _sweep(traces, n, alphabet_size, pointer_log):
    K = len(traces)
    ptr = [0] * K
    benched_until = [0] * K
    bench_pos = [0] * K  # consensus position at bench time, for rejoin pacing
    out = np.zeros(n, dtype=np.int8)

    for pos in range(n):
        # rejoin benched traces whose bench expired, re-deriving their
        # pointer from the consensus emitted while they sat out
        for k in range(K):
            if benched_until[k] == pos and pos > 0 and ptr[k] < len(traces[k]):
                expected = ptr[k] + (pos - bench_pos[k])
                new_ptr, score = _resync(traces[k], ptr[k], expected, out, pos)
                if score >= MIN_AGREE:
                    ptr[k] = min(new_ptr, len(traces[k]))
                else:
                    benched_until[k] = pos + BENCH_STEPS
        active = [k for k in range(K)
                  if benched_until[k] <= pos and ptr[k] < len(traces[k])]
        if not active:
            # everyone benched or exhausted: recall the benched traces
            for k in range(K):
                if benched_until[k] > pos and ptr[k] < len(traces[k]):
                    expected = ptr[k] + (pos - bench_pos[k])
                    new_ptr, _ = _resync(traces[k], ptr[k], expected, out, pos)
                    ptr[k] = min(new_ptr, len(traces[k]))
                    benched_until[k] = pos
            active = [k for k in range(K) if ptr[k] < len(traces[k])]
            if not active:
                break  # all traces exhausted; remaining output stays padded
        votes = np.zeros(alphabet_size, dtype=np.int32)
        for k in active:
            votes[traces[k][ptr[k]]] += 1
        s_hat = int(np.argmax(votes))  # plurality, ties to the lowest symbol
        out[pos] = s_hat

        agree = [k for k in active if traces[k][ptr[k]] == s_hat]
        # consensus lookahead: per offset, plurality of the agreeing traces'
        # post-advance symbols
        ref = []
        for d in range(LOOKAHEAD):
            v = np.zeros(alphabet_size, dtype=np.int32)
            any_vote = False
            for k in agree:
                p = ptr[k] + 1 + d
                if p < len(traces[k]):
                    v[traces[k][p]] += 1
                    any_vote = True
            if not any_vote:
                break
            ref.append(int(np.argmax(v)))

        for k in active:
            if traces[k][ptr[k]] == s_hat:
                ptr[k] += 1
                continue
            tr = traces[k]
            s_sub = _window_score(tr, ptr[k] + 1, ref)
            s_del = _window_score(tr, ptr[k], ref)
            if ptr[k] + 1 < len(tr) and tr[ptr[k] + 1] == s_hat:
                s_ins = _window_score(tr, ptr[k] + 2, ref)
            else:
                s_ins = -1.0
            best = max(s_sub, s_del, s_ins)
            if best < MIN_AGREE:
                # cannot explain the disagreement: bench the trace; its
                # pointer freezes until it resyncs on rejoin
                benched_until[k] = pos + BENCH_STEPS
                bench_pos[k] = pos
            elif s_sub >= s_del and s_sub >= s_ins:
                ptr[k] += 1
            elif s_del >= s_ins:
                pass
            else:
                ptr[k] += 2
        if pointer_log is not None:
            pointer_log.append(tuple(ptr))

    return out


def bmala_map(traces, encoder, params, delta=None, offset=None):
    """Coded variant: the consensus estimate is treated as a single observed
    trace and decoded exactly on a one-trace trellis under the channel
    estimate `params`, every message equally likely."""
    x_hat = bmala_reconstruct(traces, encoder.N, alphabet_size=encoder.alphabet.size)
    tr = build_trellis(encoder, [x_hat], params, delta=delta, offset=offset)
    return compute_posteriors(tr)
