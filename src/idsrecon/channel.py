"""The insertion-deletion-substitution channel.

The channel walks an input pointer i and output pointer j. Until the
whole input is consumed, one of four events is drawn per step:

  insertion  (p_ins): emit a uniform symbol, j += 1
  deletion   (p_del): consume silently, i += 1
  substitution (p_sub): emit a uniform symbol != x[i], i += 1, j += 1
  correct    (p_cor): emit x[i], i += 1, j += 1

The walk stops once the input is consumed, so traces never carry
trailing insertions past the last consumed input symbol. Equivalently,
each input symbol is preceded by a geometric run of insertions (success
probability 1 - p_ins) and is then deleted, substituted or copied with
the conditional probabilities p_del, p_sub, p_cor over 1 - p_ins. The
sampler `transmit_batch` draws that form for many traces at once;
`transmit` is its one-trace case.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .alphabet import as_indices
from .errors import ConfigError

_SUM_TOL = 1e-12


@dataclass(frozen=True)
class IDSParams:
    """The four channel event probabilities. Must sum to one."""

    p_ins: float
    p_del: float
    p_sub: float
    p_cor: float

    def __post_init__(self):
        probs = (self.p_ins, self.p_del, self.p_sub, self.p_cor)
        if not all(0.0 <= p <= 1.0 for p in probs):  # also refuses NaN
            raise ConfigError(f"channel probabilities must lie in [0,1]: {probs}")
        if abs(sum(probs) - 1.0) > _SUM_TOL:
            raise ConfigError(f"channel probabilities must sum to 1, got {sum(probs)!r}")
        if self.p_ins >= 1.0:
            raise ConfigError("p_ins = 1 never terminates")

    @classmethod
    def from_error_rates(cls, p_ins, p_del, p_sub):
        return cls(p_ins, p_del, p_sub, 1.0 - p_ins - p_del - p_sub)

    def as_tuple(self):
        return (self.p_ins, self.p_del, self.p_sub, self.p_cor)


def transmit(x, params, seed, alphabet=None):
    """Push one input sequence through the channel and return one trace.

    `x` is an index array or a symbol string (in which case a string is
    returned) over `alphabet`, which is required: inserted and substituted
    symbols are drawn from all of it. `seed` is an int, seed tuple, or
    numpy Generator; equal (x, params, seed) give identical traces. This is
    the one-trace case of `transmit_batch`.
    """
    if alphabet is None:
        raise ConfigError("transmit needs `alphabet`: inserted and substituted "
                          "symbols are drawn from the whole alphabet")
    trace = transmit_batch(as_indices(x, alphabet), params, 1, seed,
                           alphabet_size=alphabet.size)[0]
    return alphabet.decode(trace) if isinstance(x, str) else trace


def transmit_batch(x, params, count, seed, alphabet_size=None):
    """Draw `count` independent traces of the index array `x` at once.

    The number of insertions preceding each consume step is geometric
    with success probability 1 - p_ins, and each consume is deletion /
    substitution / correct with the conditional probabilities.
    `alphabet_size` is required: inserted and substituted symbols are
    drawn from the whole alphabet. Returns a list of int8 arrays.
    """
    if not isinstance(params, IDSParams):
        params = IDSParams(*params)
    if alphabet_size is None:
        raise ConfigError("transmit_batch needs `alphabet_size`: inserted and "
                          "substituted symbols are drawn from the whole alphabet")
    x = np.asarray(x, dtype=np.int8)
    if x.size == 0:
        raise ConfigError("cannot transmit an empty sequence")
    size = int(alphabet_size)
    if size < 2 or x.min() < 0 or x.max() >= size:
        raise ConfigError(f"`alphabet_size` {size} must be at least 2 and cover "
                          f"every symbol of x")
    rng = np.random.default_rng(seed)  # a Generator comes back as itself

    traces = []
    chunk = max(1, (1 << 21) // max(len(x), 1))
    done = 0
    while done < count:
        traces.extend(_transmit_chunk(x, params, min(chunk, count - done), rng, size))
        done += chunk
    return traces


def _transmit_chunk(x, params, count, rng, size):
    n = len(x)
    if params.p_ins > 0.0:
        cnt = (rng.geometric(1.0 - params.p_ins, size=(count, n)) - 1).astype(np.int64)
    else:
        cnt = np.zeros((count, n), dtype=np.int64)
    rest = 1.0 - params.p_ins
    u = rng.random((count, n))
    deleted = u < params.p_del / rest
    substituted = (~deleted) & (u < (params.p_del + params.p_sub) / rest)
    emitted = np.where(substituted,
                       (x[None, :] + 1 + rng.integers(size - 1, size=(count, n))) % size,
                       x[None, :]).astype(np.int8)
    keep = ~deleted

    # flat layout: per input position, its insertion run then its emission;
    # emissions go to explicit slots, insertions fill every remaining slot
    # in order
    lengths = cnt.sum(axis=1) + keep.sum(axis=1)
    offsets = np.zeros(count + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    total = int(offsets[-1])
    ins_before = np.cumsum(cnt, axis=1)  # inclusive of position i's run
    keep_before = np.cumsum(keep, axis=1) - keep
    emit_pos = (offsets[:-1, None] + ins_before + keep_before)[keep]

    big = np.empty(total, dtype=np.int8)
    is_emit = np.zeros(total, dtype=bool)
    is_emit[emit_pos] = True
    big[emit_pos] = emitted[keep]
    n_ins = total - len(emit_pos)
    if n_ins:
        big[~is_emit] = rng.integers(size, size=n_ins).astype(np.int8)
    return [big[offsets[t]:offsets[t + 1]].copy() for t in range(count)]


def _edit_dp(a, b):
    """Unit-cost edit distance matrix between index arrays a (input) and
    b (trace). Rows follow the input. Vectorised over rows; the in-row
    dependency is resolved with a prefix-minimum."""
    n, m = len(a), len(b)
    d = np.empty((n + 1, m + 1), dtype=np.int32)
    d[0] = np.arange(m + 1)
    cols = np.arange(m + 1)
    for i in range(1, n + 1):
        sub = d[i - 1, :-1] + (b != a[i - 1])
        best = np.minimum(d[i - 1, 1:] + 1, sub)  # delete input / diagonal
        row = np.empty(m + 1, dtype=np.int32)
        row[0] = i
        # allow any run of trace insertions: min over k<=j of best[k] + (j-k)
        run = np.minimum.accumulate(np.concatenate(([row[0] - 0], best)) - cols)
        row[1:] = run[1:] + cols[1:]
        d[i] = row
    return d


def _count_events(a, b, d):
    """Backtrace the edit matrix and count channel events.

    Ties prefer the diagonal (match/substitute), then input deletion,
    then trace insertion, which makes the counts deterministic.
    Returns (n_cor, n_sub, n_del, n_ins).
    """
    i, j = len(a), len(b)
    cor = sub = dele = ins = 0
    while i > 0 or j > 0:
        if i > 0 and j > 0 and d[i, j] == d[i - 1, j - 1] + (a[i - 1] != b[j - 1]):
            if a[i - 1] == b[j - 1]:
                cor += 1
            else:
                sub += 1
            i -= 1
            j -= 1
        elif i > 0 and d[i, j] == d[i - 1, j] + 1:
            dele += 1
            i -= 1
        else:
            ins += 1
            j -= 1
    return cor, sub, dele, ins


def estimate_params(pairs, alphabet=None):
    """Estimate IDS probabilities from aligned (input, trace) pairs.

    Each pair is aligned with a unit-cost minimum-edit alignment and the
    event frequencies over all pairs are normalised to sum to one.
    """
    pairs = list(pairs)
    if not pairs:
        raise ConfigError("estimate_params needs at least one (input, trace) pair")
    tot = np.zeros(4, dtype=np.int64)  # cor, sub, del, ins
    for x, y in pairs:
        if alphabet is not None:
            x = as_indices(x, alphabet)
            y = as_indices(y, alphabet)
        x = np.asarray(x)
        y = np.asarray(y)
        if x.size == 0:
            raise ConfigError("estimate_params: empty input sequence")
        d = _edit_dp(x, y)
        tot += np.asarray(_count_events(x, y, d))
    cor, sub, dele, ins = tot / tot.sum()
    return IDSParams(p_ins=float(ins), p_del=float(dele), p_sub=float(sub), p_cor=float(cor))
