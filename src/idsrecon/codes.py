"""Deterministic finite-state inner encoders and random scrambling.

Every encoder exposes its FSM explicitly (state count, per-step emission
counts, and a transition map) because the trellis is built directly from
that interface. Message and codeword symbols share the channel alphabet.

The transition map is one broadcasting function, `transition(q, m, step)`:
`q` and `m` are ints or integer arrays of one shape (a scalar `q` also
broadcasts against an array `m`). It returns the next states, with that
shape, and the emitted codeword symbols, with that shape plus a trailing
axis of length `emission_counts[step]`. Scalar inputs give a scalar next
state.

`FSMEncoder.cycles` calls it once per message step, on every (state,
message) pair of the states reachable there, and keeps the result as the
encoder's one cycle table. The trellis is built from that table, `encode`
walks it and `decode` inverts the walk; none of them calls `transition`.
"""

from __future__ import annotations

from functools import cached_property, reduce

import numpy as np

from .alphabet import DNA, Alphabet, as_indices
from .errors import ConfigError

# GF(4) as GF(2)[x]/(x^2+x+1): addition is xor, multiplication below.
_GF4_MUL = np.array(
    [[0, 0, 0, 0],
     [0, 1, 2, 3],
     [0, 2, 3, 1],
     [0, 3, 1, 2]], dtype=np.int8)


class FSMEncoder:
    """Base class: deterministic (state, message symbol, step) -> (state, emissions).

    Subclasses set `n_states`, `L`, `N`, `emission_counts` (one entry per
    message step, summing to N) and implement `transition`, which
    broadcasts: states `q` and message symbols `m` of one shape (or a
    scalar `q` with an array `m`) give next states of that shape and
    emissions of that shape + (emission_counts[step],); a scalar pair
    gives a scalar next state. The initial state is always 0.
    """

    alphabet: Alphabet
    n_states: int
    L: int
    N: int
    emission_counts: tuple

    q_init = 0

    @property
    def msg_size(self):
        return self.alphabet.size

    @property
    def rate(self):
        return (self.L * np.log2(self.msg_size)) / (self.N * np.log2(self.alphabet.size))

    def transition(self, q, m, step):
        raise NotImplementedError

    @cached_property
    def cycles(self):
        """The cycle table, one (emit, nxt) pair per message step over the
        states the earlier steps reach from q_init, in increasing order:
        emit[i*M + m] are the codeword symbols state i emits on message
        symbol m ((S*M, u), uint8) and nxt[i, m] is the index of its next
        state among the states reached after the step ((S, M), int32)."""
        Mz = self.msg_size
        states = np.array([self.q_init], dtype=np.int32)
        table = []
        for l in range(self.L):
            cq, emit = self.transition(np.repeat(states, Mz),
                                       np.tile(np.arange(Mz, dtype=np.int32), len(states)), l)
            states = np.unique(cq)
            emit, nxt = (emit.astype(np.uint8),
                         np.searchsorted(states, cq).reshape(-1, Mz).astype(np.int32))
            emit.setflags(write=False)
            nxt.setflags(write=False)
            table.append((emit, nxt))
        return tuple(table)

    def encode(self, message):
        """Walk the cycle table from state index 0, one message symbol a step."""
        message = as_indices(message, self.alphabet)
        if len(message) != self.L:
            raise ConfigError(f"message length {len(message)} != L={self.L}")
        out, i, Mz = [], 0, self.msg_size
        for (emit, nxt), m in zip(self.cycles, message.tolist()):
            out.append(emit[i * Mz + m])
            i = nxt[i, m]
        return np.concatenate(out).astype(np.int8)

    def decode(self, codeword):
        """Invert the walk: at each step, the one message symbol whose
        emissions from the current state match the codeword segment."""
        codeword = as_indices(codeword, self.alphabet)
        if len(codeword) != self.N:
            raise ConfigError(f"codeword length {len(codeword)} != N={self.N}")
        msg = np.empty(self.L, dtype=np.int8)
        i, pos, Mz = 0, 0, self.msg_size
        for step, (emit, nxt) in enumerate(self.cycles):
            u = emit.shape[1]
            hits = np.flatnonzero((emit[i * Mz:(i + 1) * Mz] == codeword[pos:pos + u]).all(axis=-1))
            if len(hits) != 1:
                raise ConfigError(f"codeword segment at step {step} is not uniquely decodable")
            msg[step] = hits[0]
            i = nxt[i, hits[0]]
            pos += u
        return msg

    def __repr__(self):
        return f"<{type(self).__name__} {self.spec}>"


class IdentityEncoder(FSMEncoder):
    """Stateless rate-1 encoder: output equals input."""

    def __init__(self, n, alphabet=DNA):
        if n < 1:
            raise ConfigError("identity encoder needs N >= 1")
        self.alphabet = alphabet
        self.n_states = 1
        self.L = n
        self.N = n
        self.emission_counts = (1,) * n
        self.spec = f"identity:{n}"

    def transition(self, q, m, step):
        return 0 * m, np.expand_dims(m, -1)


class MarkerRepeatEncoder(FSMEncoder):
    """Copies the message and duplicates the symbol at r spaced marker
    positions, giving the decoder synchronisation anchors.

    Positions are 1-based; position n is a marker when n = floor(i*N/(r+1))
    for some i in 1..r, and then the codeword satisfies x[n+1] = x[n].
    Coinciding markers collapse, shrinking the repeat count accordingly.
    """

    def __init__(self, n, r, alphabet=DNA):
        if not 0 <= r < n:
            raise ConfigError(f"repeat count r={r} out of range for N={n}")
        self.alphabet = alphabet
        self.n_states = 1
        self.N = n
        markers = sorted({(i * n) // (r + 1) for i in range(1, r + 1)})
        self.marker_positions = tuple(markers)
        # position p (1-based) repeats its predecessor when p-1 is a marker
        is_copy = np.zeros(n + 1, dtype=bool)
        for mpos in markers:
            is_copy[mpos + 1] = True
        counts = []
        p = 1
        while p <= n:
            u = 1
            while p + u <= n and is_copy[p + u]:
                u += 1
            counts.append(u)
            p += u
        self.emission_counts = tuple(counts)
        self.L = len(counts)
        self.spec = f"mr:{n}:{r}"

    def transition(self, q, m, step):
        return 0 * m, np.repeat(np.expand_dims(m, -1), self.emission_counts[step], axis=-1)


class ConvolutionalEncoderGF4(FSMEncoder):
    """Rate-1/2 quaternary convolutional encoder, or a higher rate when a
    codeword length is given.

    The state is the last `memory` inputs (4^memory states). Each step
    produces two base outputs o_j = g_j[0]*m + sum_i g_j[i]*state_i over
    GF(4) with a fixed generator pair. With `codeword_len`, the second
    output of evenly spread steps is dropped to raise the rate; the first
    output of every step is kept.
    """

    def __init__(self, memory, msg_len, alphabet=DNA, codeword_len=None):
        if alphabet.size != 4:
            raise ConfigError("convolutional encoder is defined over a quaternary alphabet")
        if not 1 <= memory <= 8:
            raise ConfigError(f"unsupported memory {memory}")
        if msg_len < 1:
            raise ConfigError("msg_len must be >= 1")
        self.alphabet = alphabet
        self.memory = memory
        # cycle the nonzero field elements: ((1, 2, 3, 1), (1, 1, 2, 3)) at memory 3;
        # both tap the current input, so the codeword determines the message
        cyc = (1, 2, 3)
        self.generators = (tuple(cyc[i % 3] for i in range(memory + 1)),
                           (1,) + tuple(cyc[i % 3] for i in range(memory)))
        self.n_states = 4 ** memory
        self.L = msg_len

        keep = np.ones((msg_len, 2), dtype=bool)
        if codeword_len is not None:
            if not msg_len <= codeword_len <= 2 * msg_len:
                raise ConfigError(
                    f"codeword length {codeword_len} must lie in [{msg_len}, {2 * msg_len}]")
            extra = codeword_len - msg_len
            keep[:, 1] = [(i + 1) * extra // msg_len > i * extra // msg_len
                          for i in range(msg_len)]
        self._keep = keep
        self.emission_counts = tuple(int(c) for c in keep.sum(axis=1))
        self.N = int(keep.sum())
        # the shortest rate that `parse_encoder_spec` reads back to this L and N
        rates = (f"{self.L / self.N:.{d}g}" for d in range(1, 18))
        rate = next(r for r in rates if round(self.N * float(r)) == self.L)
        self.spec = f"cc:{memory}:{rate}:{self.N}"

    def transition(self, q, m, step):
        # taps[i] for i >= 1 is the i-th most recent input, held in bits 2i-2, 2i-1 of q
        taps = [m] + [(q >> 2 * i) & 3 for i in range(self.memory)]
        emitted = [reduce(np.bitwise_xor, (_GF4_MUL[c, v] for c, v in zip(g, taps)))
                   for g, k in zip(self.generators, self._keep[step]) if k]
        return m + ((q % 4 ** (self.memory - 1)) << 2), np.stack(emitted, axis=-1)


def identity_encoder(n, alphabet=DNA):
    return IdentityEncoder(n, alphabet)


def mr_encoder(n, r, alphabet=DNA):
    return MarkerRepeatEncoder(n, r, alphabet)


def cc_encoder(memory, msg_len, alphabet=DNA, codeword_len=None):
    return ConvolutionalEncoderGF4(memory, msg_len, alphabet, codeword_len)


def scramble(x, z, size):
    """Coordinate-wise addition mod `size`."""
    x = np.asarray(x)
    z = np.asarray(z)
    if x.shape != z.shape:
        raise ConfigError(f"scramble length mismatch: {x.shape} vs {z.shape}")
    return ((x.astype(np.int16) + z) % size).astype(np.int8)


def unscramble(x, z, size):
    """Coordinate-wise subtraction mod `size`; inverse of scramble."""
    x = np.asarray(x)
    z = np.asarray(z)
    if x.shape != z.shape:
        raise ConfigError(f"unscramble length mismatch: {x.shape} vs {z.shape}")
    return ((x.astype(np.int16) - z) % size).astype(np.int8)


def parse_encoder_spec(spec, alphabet=DNA, default_n=110):
    """Build an encoder from a config string.

    Forms: `identity:N`, `mr:N:r`, `cc:memory:rate[:N]`.
    """
    parts = str(spec).strip().split(":")
    kind = parts[0].lower()
    try:
        if kind == "identity" and len(parts) == 2:
            return identity_encoder(int(parts[1]), alphabet)
        if kind == "mr" and len(parts) == 3:
            return mr_encoder(int(parts[1]), int(parts[2]), alphabet)
        if kind == "cc" and len(parts) in (3, 4):
            memory = int(parts[1])
            rate = float(parts[2])
            n = int(parts[3]) if len(parts) == 4 else default_n
            if not 0.5 <= rate <= 1.0:
                raise ConfigError(f"cc rate {rate} outside [0.5, 1]")
            msg_len = round(n * rate)
            return cc_encoder(memory, msg_len, alphabet, codeword_len=n)
    except ValueError as e:
        raise ConfigError(f"bad encoder spec {spec!r}: {e}") from None
    raise ConfigError(f"unrecognised encoder spec {spec!r}")
