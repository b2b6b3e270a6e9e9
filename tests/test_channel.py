import itertools
from collections import Counter

import numpy as np
import pytest
from scipy.stats import chi2

from idsrecon import (BINARY, DNA, ConfigError, IDSParams, estimate_params, transmit,
                      transmit_batch)
from oracle import trace_likelihood


def expected_trace_length(n, params):
    """Mean trace length for an input of length n."""
    return n * (1.0 - params.p_del) / (1.0 - params.p_ins)


def test_params_validation():
    IDSParams(0.25, 0.25, 0.25, 0.25)
    with pytest.raises(ConfigError):
        IDSParams(0.5, 0.5, 0.5, 0.5)
    with pytest.raises(ConfigError):
        IDSParams(-0.1, 0.5, 0.3, 0.3)
    with pytest.raises(ConfigError):
        IDSParams(1.0, 0.0, 0.0, 0.0)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ConfigError):
            IDSParams.from_error_rates(bad, 0.02, 0.02)
        with pytest.raises(ConfigError):
            IDSParams(0.1, 0.1, 0.1, bad)
    p = IDSParams.from_error_rates(0.017, 0.02, 0.022)
    assert abs(sum(p.as_tuple()) - 1.0) < 1e-15


def test_noiseless_is_identity():
    assert transmit("ACGT", IDSParams(0, 0, 0, 1), 0, DNA) == "ACGT"


def test_pure_deletion_gives_empty_trace():
    assert transmit("ACGT", IDSParams(0, 1, 0, 0), 0, DNA) == ""


def test_empty_input_rejected():
    with pytest.raises(ConfigError):
        transmit(np.empty(0, dtype=np.int8), IDSParams(0, 0, 0, 1), 0, DNA)


def test_alphabet_is_explicit():
    # a strand that lacks a symbol still receives it from insertions and
    # substitutions; the alphabet is never inferred from the data
    p = IDSParams(0.2, 0.1, 0.3, 0.4)
    x = np.tile(np.array([0, 1, 2], dtype=np.int8), 100)
    with pytest.raises(ConfigError, match="`alphabet`"):
        transmit(x, p, 0)
    with pytest.raises(ConfigError, match="`alphabet_size`"):
        transmit_batch(x, p, 1, 0)
    assert (transmit(x, p, 0, DNA) == 3).sum() > 0
    assert (transmit_batch(x, p, 1, 0, alphabet_size=4)[0] == 3).sum() > 0


def test_transmit_deterministic_under_seed():
    p = IDSParams(0.1, 0.1, 0.1, 0.7)
    x = DNA.encode("ACGTACGTACGTACGT")
    a = transmit(x, p, 1234, DNA)
    b = transmit(x, p, 1234, DNA)
    assert np.array_equal(a, b)
    c = transmit(x, p, 1235, DNA)
    assert not np.array_equal(a, c) or len(a) != len(c)


def test_substitution_never_reproduces_input_symbol():
    p = IDSParams(0, 0, 1, 0)
    x = np.zeros(2000, dtype=np.int8)
    y = transmit(x, p, 7, alphabet=DNA)
    assert len(y) == 2000
    assert (np.asarray(y) != 0).all()


def test_mean_trace_length_matches_closed_form():
    # event-process algebra: consumes N inputs, each preceded by a geometric
    # run of insertions; emissions per consume are (1 - p_del)/(1 - p_ins)
    p = IDSParams(0.017, 0.02, 0.022, 0.941)
    n = 110
    expect = expected_trace_length(n, p)
    assert abs(expect - 109.664) < 5e-3
    x = np.zeros(n, dtype=np.int8)
    lengths = [len(t) for t in transmit_batch(x, p, 100_000, 5, alphabet_size=4)]
    assert abs(np.mean(lengths) - expect) < 0.1


def test_sampler_matches_exact_channel_law():
    # chi-squared fit of sampled traces to Pr(y | x) from the oracle's
    # enumeration of event walks, over every trace of length <= 7: cells
    # expected below 5 are pooled, and longer traces form one more cell
    p = IDSParams(0.15, 0.1, 0.1, 0.65)
    draws = 40_000
    for x, size, seed in (([0, 1, 0], 2, 31), ([0, 2], 4, 32)):
        x = np.array(x, dtype=np.int8)
        counts = Counter(y.tobytes() if len(y) <= 7 else None
                         for y in transmit_batch(x, p, draws, seed, alphabet_size=size))
        listed = [np.array(y, dtype=np.int8)
                  for r in range(8) for y in itertools.product(range(size), repeat=r)]
        law = np.array([trace_likelihood(x, y, *p.as_tuple(), size) for y in listed])
        obs = np.array([counts[y.tobytes()] for y in listed])
        big = draws * law >= 5
        expected = draws * np.append(law[big], [law[~big].sum(), 1.0 - law.sum()])
        observed = np.append(obs[big], [obs[~big].sum(), counts[None]])
        assert observed.sum() == draws
        stat = ((observed - expected) ** 2 / expected).sum()
        assert chi2.sf(stat, len(expected) - 1) > 1e-3, (stat, len(expected) - 1)


def test_no_indels_means_equal_length_and_sub_rate():
    p = IDSParams(0.0, 0.0, 0.3, 0.7)
    x = np.asarray(np.random.default_rng(0).integers(4, size=200), dtype=np.int8)
    mism = 0
    total = 0
    for i in range(600):
        y = transmit(x, p, (11, i), DNA)
        assert len(y) == len(x)
        mism += int((y != x).sum())
        total += len(x)
    rate = mism / total
    sigma = np.sqrt(0.3 * 0.7 / total)
    assert abs(rate - 0.3) < 3 * sigma + 1e-9


def test_no_insertions_never_lengthens():
    p = IDSParams(0.0, 0.1, 0.1, 0.8)
    x = np.zeros(50, dtype=np.int8)
    for i in range(200):
        assert len(transmit(x, p, (13, i), DNA)) <= 50


def test_estimate_params_trivial_pairs():
    est = estimate_params([("ACGT", "ACGT")], alphabet=DNA)
    assert est.as_tuple() == (0.0, 0.0, 0.0, 1.0)

    est = estimate_params([("AAAA", "AAA")], alphabet=DNA)
    assert est.p_del == pytest.approx(0.25)
    assert est.p_cor == pytest.approx(0.75)
    assert est.p_ins == 0.0 and est.p_sub == 0.0


def test_estimate_params_brute_force_alignment_check():
    # independent check of the minimal alignment: enumerate all event
    # decompositions of a short pair and confirm the counted cost is minimal
    def brute_min_cost(a, b):
        best = [len(a) + len(b)]

        def rec(i, j, cost):
            if cost >= best[0]:
                return
            if i == len(a) and j == len(b):
                best[0] = min(best[0], cost)
                return
            if i < len(a) and j < len(b):
                rec(i + 1, j + 1, cost + (a[i] != b[j]))
            if i < len(a):
                rec(i + 1, j, cost + 1)
            if j < len(b):
                rec(i, j + 1, cost + 1)

        rec(0, 0, 0)
        return best[0]

    from idsrecon.channel import _count_events, _edit_dp

    rng = np.random.default_rng(17)
    for _ in range(40):
        a = rng.integers(2, size=rng.integers(1, 7)).astype(np.int8)
        b = rng.integers(2, size=rng.integers(0, 7)).astype(np.int8)
        cor, sub, dele, ins = _count_events(a, b, _edit_dp(a, b))
        assert sub + dele + ins == brute_min_cost(list(a), list(b))


def test_estimate_params_empty_list_rejected():
    with pytest.raises(ConfigError):
        estimate_params([])


def test_estimate_params_recovers_generating_channel():
    p = IDSParams.from_error_rates(0.017, 0.02, 0.022)
    rng = np.random.default_rng(23)
    pairs = []
    for i in range(2000):
        x = rng.integers(4, size=110).astype(np.int8)
        y = transmit_batch(x, p, 1, (23, i), alphabet_size=4)[0]
        pairs.append((x, y))
    est = estimate_params(pairs)
    for got, want in zip(est.as_tuple(), p.as_tuple()):
        assert abs(got - want) < 0.003
