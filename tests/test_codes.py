import itertools

import numpy as np
import pytest

from idsrecon import (DNA, ConfigError, cc_encoder, identity_encoder,
                      mr_encoder, parse_encoder_spec, scramble, unscramble)


def encode_text(enc, message):
    """The codeword of `message` as a string of the encoder's alphabet."""
    return enc.alphabet.decode(enc.encode(message))


def test_identity_encoder_basics():
    enc = identity_encoder(4, DNA)
    assert encode_text(enc, "ACGT") == "ACGT"
    assert enc.n_states == 1
    assert enc.rate == pytest.approx(1.0)
    assert enc.emission_counts == (1, 1, 1, 1)


def test_mr_rates_at_standard_lengths():
    assert mr_encoder(110, 6).rate == pytest.approx(104 / 110)
    assert mr_encoder(110, 10).rate == pytest.approx(100 / 110)
    assert mr_encoder(110, 6).L == 104
    assert mr_encoder(110, 10).L == 100


def test_mr_small_example():
    # N=5, r=1: marker at position 2 forces the third symbol to repeat
    enc = mr_encoder(5, 1, DNA)
    assert enc.L == 4
    assert encode_text(enc, "ACGT") == "ACCGT"


def test_mr_zero_repeats_is_identity():
    enc = mr_encoder(8, 0, DNA)
    msg = "ACGTTGCA"
    assert encode_text(enc, msg) == msg
    assert enc.L == enc.N == 8


def test_mr_constraint_positions():
    rng = np.random.default_rng(3)
    for n, r in ((110, 6), (110, 10), (20, 5), (9, 4)):
        enc = mr_encoder(n, r, DNA)
        msg = rng.integers(4, size=enc.L).astype(np.int8)
        cw = enc.encode(msg)
        assert len(cw) == n
        for pos in enc.marker_positions:  # 1-based: x[pos+1] == x[pos]
            assert cw[pos] == cw[pos - 1]
        # dropping the repeated symbols recovers the message
        keep = np.ones(n, dtype=bool)
        for pos in enc.marker_positions:
            keep[pos] = False
        assert np.array_equal(cw[keep], msg)


def test_mr_out_of_range():
    with pytest.raises(ConfigError):
        mr_encoder(5, 5)
    with pytest.raises(ConfigError):
        mr_encoder(5, -1)


def test_encoders_injective_exhaustively():
    for enc in (identity_encoder(3, DNA), mr_encoder(5, 2, DNA),
                cc_encoder(3, 3, DNA)):
        seen = set()
        for msg in itertools.product(range(4), repeat=enc.L):
            cw = tuple(enc.encode(np.array(msg, dtype=np.int8)))
            assert cw not in seen
            seen.add(cw)


def test_fsm_round_trip():
    rng = np.random.default_rng(5)
    for enc in (identity_encoder(12, DNA), mr_encoder(12, 3, DNA),
                cc_encoder(3, 10, DNA), cc_encoder(4, 8, DNA, codeword_len=12)):
        for _ in range(10):
            msg = rng.integers(4, size=enc.L).astype(np.int8)
            assert np.array_equal(enc.decode(enc.encode(msg)), msg)


def test_encoders_known_codewords():
    # known answers: a change to a generator, the state update or the puncturing moves them
    msg = "ACGTTGCACTAG"
    assert encode_text(cc_encoder(1, 12, DNA), msg) == "AACCATACGATCGTGCCCCGCTGG"
    assert encode_text(cc_encoder(2, 12, DNA), msg) == "AACCATTTTTCAAGTGGTCGGCAT"
    assert encode_text(cc_encoder(3, 12, DNA), msg) == "AACCATTTGATCTAAAAGACGCCA"
    assert encode_text(cc_encoder(3, 8, DNA, codeword_len=12), msg[:8]) == "ACCATTGTCTAA"
    assert encode_text(mr_encoder(12, 3, DNA), msg[:9]) == "ACGGTTTGCCAC"


def test_transition_on_arrays_equals_each_pair():
    # memory 1 (next state is the input), and punctured steps emitting 1 and 2 symbols
    for enc in (identity_encoder(4, DNA), mr_encoder(12, 3, DNA), cc_encoder(1, 4, DNA),
                cc_encoder(2, 6, DNA, codeword_len=9), cc_encoder(3, 4, DNA, codeword_len=6)):
        q, m = np.divmod(np.arange(enc.n_states * enc.msg_size), enc.msg_size)
        for step, u in enumerate(enc.emission_counts):
            q2, em = enc.transition(q, m, step)
            assert q2.shape == q.shape and em.shape == q.shape + (u,)
            for i in range(len(q)):
                q2_i, em_i = enc.transition(int(q[i]), int(m[i]), step)
                assert isinstance(q2_i, int) and q2_i == q2[i]
                assert np.array_equal(em_i, em[i])
            # a scalar state broadcasts against every message symbol, as `decode` calls it
            q2_0, em_0 = enc.transition(0, np.arange(enc.msg_size), step)
            assert np.array_equal(q2_0, q2[:enc.msg_size])
            assert np.array_equal(em_0, em[:enc.msg_size])
    q, m = np.divmod(np.arange(16), 4)
    assert np.array_equal(cc_encoder(1, 4, DNA).transition(q, m, 0)[0], m)  # state = last input


def test_cc_state_count_and_rates():
    assert cc_encoder(3, 10, DNA).n_states == 64
    assert cc_encoder(4, 10, DNA).n_states == 256
    enc = cc_encoder(3, 55, DNA)
    assert enc.L == 55 and enc.N == 110
    assert enc.rate == pytest.approx(0.5)
    punct = cc_encoder(3, 80, DNA, codeword_len=110)
    assert punct.N == 110
    assert punct.rate == pytest.approx(80 / 110)
    assert sum(punct.emission_counts) == 110


def test_cc_puncture_validation():
    with pytest.raises(ConfigError):
        cc_encoder(3, 4, DNA, codeword_len=3)  # below rate 1
    # the second output survives on evenly spread steps
    assert cc_encoder(3, 4, DNA, codeword_len=6).emission_counts == (1, 2, 1, 2)


def test_scramble_round_trip_and_examples():
    z = np.zeros(4, dtype=np.int8)
    x = DNA.encode("ACGT")
    assert np.array_equal(scramble(x, z, 4), x)
    assert np.array_equal(scramble(np.array([1, 2]), np.array([3, 3]), 4),
                          np.array([0, 1]))
    rng = np.random.default_rng(9)
    for _ in range(20):
        n = rng.integers(1, 30)
        x = rng.integers(4, size=n).astype(np.int8)
        z = rng.integers(4, size=n).astype(np.int8)
        assert np.array_equal(unscramble(scramble(x, z, 4), z, 4), x)
    with pytest.raises(ConfigError):
        scramble(np.zeros(3), np.zeros(4), 4)


def test_scramble_translates_onto_whole_space():
    # for a fixed codeword, {c + z} over all z covers every word exactly once
    for n in (1, 2, 3):
        c = np.arange(n, dtype=np.int8) % 4
        seen = set()
        for z in itertools.product(range(4), repeat=n):
            seen.add(tuple(scramble(c, np.array(z, dtype=np.int8), 4)))
        assert len(seen) == 4 ** n


def test_scramble_bijective_for_fixed_z():
    for n in (1, 2, 4):
        z = (np.arange(n) * 3 % 4).astype(np.int8)
        outs = {tuple(scramble(np.array(x, dtype=np.int8), z, 4))
                for x in itertools.product(range(4), repeat=n)}
        assert len(outs) == 4 ** n


def test_parse_encoder_spec():
    assert parse_encoder_spec("identity:110").spec == "identity:110"
    enc = parse_encoder_spec("mr:110:6")
    assert enc.L == 104
    enc = parse_encoder_spec("cc:3:0.7272", default_n=110)
    assert enc.N == 110 and enc.L == 80
    enc = parse_encoder_spec("cc:3:0.5:20")
    assert enc.N == 20 and enc.L == 10
    # every encoder's spec parses back to the same encoder
    for enc in (identity_encoder(24, DNA), mr_encoder(110, 10, DNA), cc_encoder(2, 55, DNA),
                cc_encoder(3, 80, DNA, codeword_len=110)):
        back = parse_encoder_spec(enc.spec)
        assert (back.spec, back.L, back.N) == (enc.spec, enc.L, enc.N)
    assert cc_encoder(2, 55, DNA).spec == "cc:2:0.5:110"
    for bad in ("identity", "mr:110", "xx:1", "cc:3:0.3", "mr:110:200"):
        with pytest.raises(ConfigError):
            parse_encoder_spec(bad)
