import numpy as np
import pytest

from idsrecon import (DNA, BmalaConfig, ConfigError, IDSParams,
                      bmala_map, bmala_reconstruct, hamming_rate,
                      identity_encoder, mr_encoder, transmit)

PAPER = IDSParams.from_error_rates(0.017, 0.02, 0.022)


def test_unanimous_traces_return_the_strand():
    x = "ACGTTGCAAC"
    out = bmala_reconstruct([x, x, x], 10, alphabet=DNA)
    assert out == x


def test_single_trace_truncates_and_pads():
    y = DNA.encode("ACGT")
    out = bmala_reconstruct([y], 6)
    assert len(out) == 6
    assert np.array_equal(out[:4], y)
    assert (out[4:] == 0).all()  # padded with the first symbol
    out = bmala_reconstruct([DNA.encode("ACGTACGT")], 5)
    assert np.array_equal(out, DNA.encode("ACGTA"))


def test_output_length_always_n():
    rng = np.random.default_rng(1)
    for _ in range(30):
        n = int(rng.integers(1, 40))
        k = int(rng.integers(1, 6))
        traces = [rng.integers(4, size=rng.integers(0, 50)).astype(np.int8)
                  for _ in range(k)]
        out = bmala_reconstruct(traces, n)
        assert len(out) == n


def test_deterministic():
    rng = np.random.default_rng(2)
    x = rng.integers(4, size=30).astype(np.int8)
    traces = [np.asarray(transmit(x, PAPER, (2, i), DNA)) for i in range(5)]
    a = bmala_reconstruct(traces, 30)
    b = bmala_reconstruct(traces, 30)
    assert np.array_equal(a, b)


def test_empty_trace_set_rejected():
    with pytest.raises(ConfigError):
        bmala_reconstruct([], 10)


def test_pointers_never_decrease():
    rng = np.random.default_rng(3)
    for trial in range(20):
        x = rng.integers(4, size=60).astype(np.int8)
        k = int(rng.integers(1, 7))
        traces = [np.asarray(transmit(x, PAPER, (3, trial, i), DNA)) for i in range(k)]
        log = []
        bmala_reconstruct(traces, 60, pointer_log=log)
        arr = np.asarray(log)
        assert (np.diff(arr, axis=0) >= 0).all()


def test_pure_substitution_noise_reduces_to_voting():
    # with mild substitution-only noise every trace stays aligned, so the
    # estimate is the per-position plurality
    rng = np.random.default_rng(3)
    params = IDSParams(0, 0, 0.05, 0.95)
    x = rng.integers(4, size=60).astype(np.int8)
    traces = [np.asarray(transmit(x, params, (3, i), DNA)) for i in range(5)]
    out = bmala_reconstruct(traces, 60)
    votes = np.zeros((60, 4), dtype=int)
    for y in traces:
        for pos in range(60):
            votes[pos, y[pos]] += 1
    assert np.mean(out == votes.argmax(axis=1)) > 0.95


def test_error_rate_improves_with_more_traces():
    rng = np.random.default_rng(4)
    means = {}
    for k in (2, 6):
        errs = []
        for i in range(60):
            x = rng.integers(4, size=110).astype(np.int8)
            traces = [np.asarray(transmit(x, PAPER, (4, i, j), DNA)) for j in range(k)]
            errs.append(hamming_rate(bmala_reconstruct(traces, 110), x))
        means[k] = np.mean(errs)
    assert means[6] < means[2]
    assert means[6] < 0.08


def test_bmala_map_noiseless_and_coded():
    enc = mr_encoder(20, 3, DNA)
    rng = np.random.default_rng(5)
    msg = rng.integers(4, size=enc.L).astype(np.int8)
    x = enc.encode(msg)
    noiseless = IDSParams(0, 0, 0, 1)
    post = bmala_map([x, x, x], enc, noiseless)
    assert np.array_equal(post.hard, msg)
    assert post.probs.max(axis=1).min() > 0.999

    # decodes through the trellis even with noisy traces
    traces = [np.asarray(transmit(x, PAPER, (5, j), DNA)) for j in range(4)]
    post = bmala_map(traces, enc, PAPER, delta=10)
    assert post.probs.shape == (enc.L, 4)
    assert hamming_rate(post.hard, msg) < 0.5
