"""Finite symbol alphabets and integer-coded sequences.

Sequences are numpy int8 arrays of symbol indices. An Alphabet maps
between those indices and display characters, and supplies the mod-q
group structure used for scrambling.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError


class Alphabet:
    """Ordered finite set of symbols with stable integer indices 0..size-1."""

    def __init__(self, symbols):
        symbols = tuple(str(s) for s in symbols)
        if len(symbols) < 2:
            raise ConfigError("alphabet needs at least 2 symbols")
        if len(set(symbols)) != len(symbols):
            raise ConfigError("alphabet symbols must be distinct")
        if any(len(s) != 1 for s in symbols):
            raise ConfigError("alphabet symbols must be single characters")
        self.symbols = symbols
        self._index = {s: i for i, s in enumerate(symbols)}

    @property
    def size(self):
        return len(self.symbols)

    def __len__(self):
        return len(self.symbols)

    def __eq__(self, other):
        return isinstance(other, Alphabet) and self.symbols == other.symbols

    def __hash__(self):
        return hash(self.symbols)

    def __repr__(self):
        return f"Alphabet({''.join(self.symbols)!r})"

    def encode(self, text):
        """String of symbol characters -> int8 index array."""
        try:
            idx = [self._index[c] for c in text]
        except KeyError as e:
            raise ConfigError(f"symbol {e.args[0]!r} not in alphabet {''.join(self.symbols)!r}") from None
        return np.asarray(idx, dtype=np.int8)

    def decode(self, seq):
        """Index array -> string of symbol characters."""
        return "".join(self.symbols[int(i)] for i in self.validate(seq))

    def validate(self, seq):
        seq = np.asarray(seq)
        if seq.ndim != 1:
            raise ConfigError("sequence must be one-dimensional")
        if seq.size and (seq.min() < 0 or seq.max() >= self.size):
            raise ConfigError("sequence contains indices outside the alphabet")
        return seq.astype(np.int8, copy=False)


DNA = Alphabet("ACGT")
BINARY = Alphabet("01")


def as_indices(seq, alphabet):
    """Accept either a symbol string or an index array; return int8 indices."""
    if isinstance(seq, str):
        return alphabet.encode(seq)
    return alphabet.validate(seq)
