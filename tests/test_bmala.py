from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracle
from idsrecon import (DNA, ConfigError, IDSParams, InfeasibleTrellisError, PosteriorTable,
                      bmala_map, bmala_reconstruct, cc_encoder, hamming_rate,
                      mr_encoder, parse_encoder_spec, simulate_clusters, transmit,
                      transmit_batch)
from idsrecon import bcjr, bmala, evaluation
from idsrecon.trellis import build_lattice

PAPER = IDSParams.from_error_rates(0.017, 0.02, 0.022)


def test_unanimous_traces_return_the_strand():
    x = DNA.encode("ACGTTGCAAC")
    [out] = bmala_reconstruct([[x, x, x]], 10)
    assert DNA.decode(out) == "ACGTTGCAAC"


def test_single_trace_truncates_and_pads():
    y = DNA.encode("ACGT")
    [out] = bmala_reconstruct([[y]], 6)
    assert len(out) == 6
    assert np.array_equal(out[:4], y)
    assert (out[4:] == 0).all()  # padded with the first symbol
    [out] = bmala_reconstruct([[DNA.encode("ACGTACGT")]], 5)
    assert np.array_equal(out, DNA.encode("ACGTA"))


def test_output_length_always_n():
    rng = np.random.default_rng(1)
    for _ in range(30):
        n = int(rng.integers(1, 40))
        k = int(rng.integers(1, 6))
        traces = [rng.integers(4, size=rng.integers(0, 50)).astype(np.int8)
                  for _ in range(k)]
        out = bmala_reconstruct([traces, traces[:1]], n)
        assert out.shape == (2, n) and out.dtype == np.int8


def test_deterministic():
    rng = np.random.default_rng(2)
    x = rng.integers(4, size=30).astype(np.int8)
    traces = [np.asarray(transmit(x, PAPER, (2, i), DNA)) for i in range(5)]
    a = bmala_reconstruct([traces], 30)
    b = bmala_reconstruct([traces], 30)
    assert np.array_equal(a, b)


def test_trace_order_does_not_matter():
    rng = np.random.default_rng(6)
    enc = mr_encoder(40, 3, DNA)
    for trial in range(10):
        x = enc.encode(rng.integers(4, size=enc.L).astype(np.int8))
        traces = [np.asarray(transmit(x, PAPER, (6, trial, i), DNA)) for i in range(5)]
        perm = [traces[i] for i in rng.permutation(5)]
        assert np.array_equal(bmala_reconstruct([traces], 40), bmala_reconstruct([perm], 40))
        [a] = bmala_map([traces], enc, PAPER, delta=10)
        [b] = bmala_map([perm], enc, PAPER, delta=10)
        assert np.array_equal(a.probs, b.probs)


def test_empty_trace_set_rejected():
    with pytest.raises(ConfigError):
        bmala_reconstruct([[]], 10)
    with pytest.raises(ConfigError, match="nonempty list"):
        bmala_reconstruct([], 10)


def test_symbols_outside_the_alphabet_rejected():
    # a negative symbol would vote for symbol A-1, and one >= A in the next
    # cluster's bins of the chunk's vote: both are refused, naming the trace
    good = [np.array([0, 1, 2, 3], np.int8)] * 3
    for bad in (-1, 4):
        traces = good[:2] + [np.array([0, 1, bad, 3], np.int8)]
        with pytest.raises(ConfigError, match=f"cluster 1 trace 2: symbol {bad} is outside"):
            bmala_reconstruct([good, traces, good], 4)
    with pytest.raises(ConfigError, match="cluster 0 trace 0: symbol 2"):
        bmala_reconstruct([[np.array([0, 1, 2])]], 3, alphabet_size=2)


def test_pointers_never_decrease():
    rng = np.random.default_rng(3)
    for trial in range(20):
        x = rng.integers(4, size=60).astype(np.int8)
        k = int(rng.integers(1, 7))
        traces = [np.asarray(transmit(x, PAPER, (3, trial, i), DNA)) for i in range(k)]
        log = []
        out = oracle.bmala_reconstruct(traces, 60, pointer_log=log)
        arr = np.asarray(log)
        assert (np.diff(arr, axis=0) >= 0).all()
        assert np.array_equal(bmala_reconstruct([traces], 60)[0], out)


@st.composite
def bmala_chunks(draw):
    """A chunk of clusters of mixed K and trace lengths, at rates high
    enough to bench, resync, recall and exhaust traces, some traces cut
    short or empty."""
    size = draw(st.sampled_from([2, 4]))
    n = draw(st.integers(1, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**31)))
    clusters = []
    for _ in range(draw(st.integers(1, 5))):
        rate = draw(st.sampled_from([0.0, 0.03, 0.1, 0.2, 0.3]))
        params = IDSParams.from_error_rates(rate, rate, rate)
        x = rng.integers(size, size=max(1, n + draw(st.integers(-4, 4)))).astype(np.int8)
        traces = transmit_batch(x, params, draw(st.integers(1, 10)), rng, alphabet_size=size)
        clusters.append([y[:draw(st.integers(0, len(y)))] if draw(st.booleans()) else y
                         for y in traces])
    return clusters, n, size


@settings(derandomize=True, deadline=None, max_examples=150)
@given(bmala_chunks())
def test_lockstep_equals_the_scalar_loop(case):
    clusters, n, size = case
    out = bmala_reconstruct(clusters, n, size)
    for c, traces in enumerate(clusters):
        assert np.array_equal(out[c], oracle.bmala_reconstruct(traces, n, size)), c


def test_pure_substitution_noise_reduces_to_voting():
    # with mild substitution-only noise every trace stays aligned, so the
    # estimate is the per-position plurality
    rng = np.random.default_rng(3)
    params = IDSParams(0, 0, 0.05, 0.95)
    x = rng.integers(4, size=60).astype(np.int8)
    traces = [np.asarray(transmit(x, params, (3, i), DNA)) for i in range(5)]
    [out] = bmala_reconstruct([traces], 60)
    votes = np.zeros((60, 4), dtype=int)
    for y in traces:
        for pos in range(60):
            votes[pos, y[pos]] += 1
    assert np.mean(out == votes.argmax(axis=1)) > 0.95


def test_error_rate_improves_with_more_traces():
    rng = np.random.default_rng(4)
    means = {}
    for k in (2, 6):
        strands, clusters = [], []
        for i in range(60):
            x = rng.integers(4, size=110).astype(np.int8)
            strands.append(x)
            clusters.append([np.asarray(transmit(x, PAPER, (4, i, j), DNA)) for j in range(k)])
        out = bmala_reconstruct(clusters, 110)
        means[k] = np.mean([hamming_rate(o, x) for o, x in zip(out, strands)])
    assert means[6] < means[2]
    assert means[6] < 0.08


def test_bmala_map_noiseless_and_coded():
    enc = mr_encoder(20, 3, DNA)
    rng = np.random.default_rng(5)
    msg = rng.integers(4, size=enc.L).astype(np.int8)
    x = enc.encode(msg)
    noiseless = IDSParams(0, 0, 0, 1)
    [post] = bmala_map([[x, x, x]], enc, noiseless)
    assert np.array_equal(post.hard, msg)
    assert post.probs.max(axis=1).min() > 0.999

    # decodes through the trellis even with noisy traces
    traces = [np.asarray(transmit(x, PAPER, (5, j), DNA)) for j in range(4)]
    [post] = bmala_map([traces], enc, PAPER, delta=10)
    assert post.probs.shape == (enc.L, 4)
    assert hamming_rate(post.hard, msg) < 0.5


def test_bmala_map_chunk_returns_each_clusters_outcome():
    # without insertions and substitutions a consensus must be a codeword
    # exactly: a cluster whose consensus is not gets its own error, and the
    # others decode as they would alone
    enc = cc_encoder(2, 8, DNA)
    rng = np.random.default_rng(7)
    x = enc.encode(rng.integers(4, size=enc.L).astype(np.int8))
    noise = [rng.integers(4, size=enc.N).astype(np.int8) for _ in range(3)]
    clusters = [[x, x], noise, [x, x, noise[0]]]
    exact = IDSParams(0.0, 0.05, 0.0, 0.95)
    posts = bmala_map(clusters, enc, exact, delta=2)
    assert isinstance(posts[1], InfeasibleTrellisError)
    for c in (0, 2):
        [alone] = bmala_map([clusters[c]], enc, exact, delta=2)
        assert isinstance(posts[c], PosteriorTable)
        assert np.array_equal(posts[c].probs, alone.probs)
    with pytest.raises(ConfigError, match="one offset per cluster"):
        bmala_map(clusters, enc, exact, offsets=[None])


def test_lattice_row_bytes_is_what_the_reader_stores():
    # known from the encoder and delta alone, it is what compute_posteriors
    # stores per row of a lattice of length-N consensus strings
    for spec, delta in (("cc:2:0.5:110", 12), ("identity:110", 12), ("mr:24:3", 3),
                        ("cc:1:0.5:12", None)):
        enc = parse_encoder_spec(spec)
        x = np.zeros(enc.N, np.int8)
        row = bcjr.lattice_row_bytes(enc, delta)
        for rows in (1, 3):
            assert bcjr.stored_bytes(build_lattice(enc, [x] * rows, PAPER, delta=delta)) \
                == rows * row, spec
    # at delta = 12, 5 rows of the 16-state code fit the cap, and identity:110
    # is held to a chunk of CHUNK_ROWS clusters before the cap binds
    cc, identity = parse_encoder_spec("cc:2:0.5:110"), parse_encoder_spec("identity:110")
    assert bcjr.lattice_row_bytes(cc, 12) == 189384
    assert bcjr.lattice_row_bytes(identity, 12) == 22448
    assert bmala.LATTICE_BYTES // 189384 == 5
    assert bmala.LATTICE_BYTES // 22448 > evaluation.CHUNK_ROWS
    with pytest.raises(ConfigError, match="--delta must be at least 1"):
        bmala_map([[np.zeros(110, np.int8)]], cc, PAPER, delta=0)


def test_bmala_map_decodes_lattices_cut_by_stored_bytes(monkeypatch):
    # 12 consensus strings of the 16-state code at delta = 12 decode as
    # lattices of 5, 5 and 2 rows, each row as it does alone
    enc = parse_encoder_spec("cc:2:0.5:110")
    rng = np.random.default_rng(4)
    clusters = [c.traces[:4] for c in simulate_clusters(12, 4, 110, PAPER, seed=4)]
    offsets = [rng.integers(4, size=110).astype(np.int8) for _ in clusters]
    runs = []
    for cap in (bmala.LATTICE_BYTES, 1):
        monkeypatch.setattr(bmala, "LATTICE_BYTES", cap)
        with mock.patch.object(bmala, "build_lattice", wraps=bmala.build_lattice) as build:
            runs.append(bmala_map(clusters, enc, PAPER, delta=12, offsets=offsets))
        runs.append([len(call.args[1]) for call in build.call_args_list])
    posts, rows, alone, ones = runs
    assert rows == [5, 5, 2] and ones == [1] * 12
    for a, b in zip(posts, alone):
        assert np.array_equal(a.probs, b.probs) and a.log_likelihood == b.log_likelihood
