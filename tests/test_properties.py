"""Property tests: random tiny trellises against the brute-force oracles.

The sweeps step each layer by one of a few transfers, so these properties
tie them back to what does not: exhaustive enumeration (posteriors) and a
rule-by-rule constructor with its own forward-backward pass (every cell of
both sweeps, under a drift bound too). The lattice that steps Trellis BMA's
per-trace trellises together is tied back to each trace's own trellis, and
a Trellis BMA decode of a beta stack to each point decoded alone, and a
decode of a chunk of clusters to each cluster decoded alone."""

import functools
import logging
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from idsrecon import (BINARY, DNA, BetaParams, IDSParams, InfeasibleTrellisError,
                      build_trellis, cc_encoder, compute_posteriors,
                      identity_encoder, init_single_trace_trellises, mr_encoder,
                      run_trellis_bma, simulate_clusters, transmit_batch)
from idsrecon import trellis_bma
from idsrecon.bcjr import PosteriorTable
from idsrecon.evaluation import DEFAULT_SWEEP_GRID
from oracle import (assert_cells_match, assert_lattice_row_matches, joint_posteriors,
                    uniform_prior)


@st.composite
def instances(draw):
    kind = draw(st.sampled_from(["identity", "mr", "cc"]))
    if kind == "identity":
        enc = identity_encoder(draw(st.integers(1, 3)), draw(st.sampled_from([BINARY, DNA])))
    elif kind == "mr":
        enc = mr_encoder(draw(st.integers(2, 4)), 1, BINARY)
    else:
        enc = cc_encoder(1, draw(st.integers(1, 2)), DNA)
    size = enc.alphabet.size
    # rates from small integer weights, so zero entries come up often
    w = [draw(st.integers(0, 2)), draw(st.integers(0, 3)), draw(st.integers(0, 3)),
         draw(st.integers(1, 6))]
    params = IDSParams(*[v / sum(w) for v in w])
    offset = None
    if draw(st.booleans()):
        offset = np.array(draw(st.lists(st.integers(0, size - 1), min_size=enc.N,
                                        max_size=enc.N)), dtype=np.int8)
    msg = np.array(draw(st.lists(st.integers(0, size - 1), min_size=enc.L,
                                 max_size=enc.L)), dtype=np.int8)
    x = enc.encode(msg)
    if offset is not None:
        x = (x + offset) % size
    # traces cut to N + 2 symbols keep the oracle small; a cut trace may be
    # unexplainable, which the properties cover too
    traces = [y[:enc.N + 2] for y in transmit_batch(
        np.asarray(x, dtype=np.int8), params, draw(st.integers(1, 2)),
        draw(st.integers(0, 2**31)), alphabet_size=size)]
    delta = draw(st.sampled_from([None, 1, 2, 3]))
    return enc, traces, params, offset, delta


@settings(derandomize=True, deadline=None, max_examples=50)
@given(instances())
def test_trellis_readers_agree_with_references(case):
    enc, traces, params, offset, delta = case
    try:
        tr = build_trellis(enc, traces, params, delta=delta, offset=offset)
    except InfeasibleTrellisError:
        # only a drift bound can shut the absorbing pointers out of the last layer
        assert delta is not None
        return
    try:
        rows, loglik = joint_posteriors(enc, traces, params, uniform_prior(enc), offset=offset)
    except ValueError:
        rows = None
    full_f = tr.forward()
    if full_f.died[0] >= 0:
        # the posterior reader raises the error of the sweep's death record
        with pytest.raises(InfeasibleTrellisError) as e:
            compute_posteriors(tr)
        assert str(e.value) == tr.vanished(False, full_f.died[0])
        full_f = None
    # a drift bound only removes paths: unexplainable traces stay infeasible
    if rows is None or delta is None:
        assert (full_f is not None) == (rows is not None)
    if full_f is None:
        return
    full_b = tr.backward()
    loglik_f = full_f.loglik[0]
    assert abs(full_b.loglik[0] - loglik_f) < 1e-9 * max(1.0, abs(loglik_f))
    # the streamed posteriors are the whole sweeps' product at the read layers
    post = compute_posteriors(tr)
    # a read block is (S, M, W...): a symbol's mass sums its states and pointers
    prod = [(full_f.layers[t][0] * full_b.layers[t][0])
            .reshape(tr.layers[t].shape[:2] + (-1,)).sum(axis=2).sum(axis=0)
            for t in tr.post_read_layer]
    assert np.array_equal(post.probs, PosteriorTable.from_rows(prod).probs)
    assert post.log_likelihood == loglik_f
    # the oracle walks the same drift bound, so every cell is checked, the
    # clipped windows and their advance included
    assert_cells_match(tr, enc, traces, params, offset)
    if delta is None:
        assert np.abs(post.probs - rows).max() < 1e-9
        assert abs(post.log_likelihood - loglik) < 1e-9 * max(1.0, abs(loglik))


@st.composite
def trace_sets(draw):
    """A code, 1-4 traces of mixed lengths (some cut, some random and likely
    unexplainable under a tight bound), rates, an optional offset and a
    drift bound."""
    kind = draw(st.sampled_from(["identity", "mr", "cc"]))
    if kind == "identity":
        enc = identity_encoder(draw(st.integers(1, 12)), draw(st.sampled_from([BINARY, DNA])))
    elif kind == "mr":
        n = draw(st.integers(2, 12))
        enc = mr_encoder(n, draw(st.integers(1, min(3, n - 1))), DNA)
    else:
        enc = cc_encoder(draw(st.integers(1, 2)), draw(st.integers(1, 6)), DNA)
    size = enc.alphabet.size
    w = [draw(st.integers(0, 2)), draw(st.integers(0, 3)), draw(st.integers(0, 3)),
         draw(st.integers(1, 6))]
    params = IDSParams(*[v / sum(w) for v in w])
    offset = None
    if draw(st.booleans()):
        offset = np.array(draw(st.lists(st.integers(0, size - 1), min_size=enc.N,
                                        max_size=enc.N)), dtype=np.int8)
    msg = np.array(draw(st.lists(st.integers(0, size - 1), min_size=enc.L,
                                 max_size=enc.L)), dtype=np.int8)
    x = enc.encode(msg)
    if offset is not None:
        x = (x + offset) % size
    traces = list(transmit_batch(np.asarray(x, dtype=np.int8), params,
                                 draw(st.sampled_from([3, 2, 4, 1])),
                                 draw(st.integers(0, 2**31)),
                                 alphabet_size=size))
    for i in range(len(traces)):
        how = draw(st.sampled_from(["keep", "keep", "cut", "random"]))
        if how == "cut":
            traces[i] = traces[i][:draw(st.integers(0, len(traces[i])))]
        elif how == "random":
            traces[i] = np.array(draw(st.lists(st.integers(0, size - 1), max_size=enc.N + 6)),
                                 dtype=np.int8)
    delta = draw(st.sampled_from([3, 8, 2, 5, None, 1, 0]))
    return enc, traces, params, offset, delta


@settings(derandomize=True, deadline=None, max_examples=150)
@given(trace_sets())
def test_lattice_rows_equal_each_traces_own_trellis(case):
    # the lattice keeps exactly the traces whose own trellis has a path, and
    # warns about each other one with the error its own trellis raises; the
    # dead traces stay rows of the lattice. At every layer of both full
    # sweeps each kept row holds that trellis's cells in its clipped window
    # and exact zeros past it (the mask after every transfer), and the init
    # keeps the exchange's read layers of them
    enc, traces, params, offset, delta = case
    own, lost = {}, []
    for k, y in enumerate(traces):
        tr = build_trellis(enc, [y], params, delta=delta, offset=offset)
        f, b = tr.forward(), tr.backward()
        if f.died[0] < 0 and b.died[0] < 0:
            own[k] = tr, f, b
            continue
        with pytest.raises(InfeasibleTrellisError) as e:
            compute_posteriors(tr)
        lost.append(f"dropping trace {k}: {e.value}")
    (lat, fs, bs, kept), lines = _logged(init_single_trace_trellises, enc, traces, params,
                                         delta=delta, offsets=[offset] * len(traces))
    assert kept == sorted(own) and lines == lost
    assert lat.rows == len(traces)
    if not own:
        [got] = run_trellis_bma(enc, [traces], params, [BetaParams()], delta=delta,
                                offsets=[offset])
        assert str(got) == "every trace was infeasible under the drift bound"
        return
    full_f, full_b = lat.forward(), lat.backward()
    for part, full in ((fs, full_f), (bs, full_b)):
        assert np.array_equal(part.loglik, full.loglik)
        assert np.array_equal(part.died, full.died)
        for t, block in enumerate(part.layers):
            assert block is None or np.array_equal(block, full.layers[t])
    half = enc.L // 2
    assert [t for t, a in enumerate(fs.layers) if a is not None] == lat.input_read_layer[half:]
    everywhere = range(len(lat.layers))
    for k in kept:
        tr, f, b = own[k]
        assert_lattice_row_matches(full_f, k, tr, f, everywhere)
        assert_lattice_row_matches(full_b, k, tr, b, everywhere)
        for mine, ref in ((full_f, f), (full_b, b)):
            assert abs(mine.loglik[k] - ref.loglik[0]) <= 1e-12 * max(1.0, abs(ref.loglik[0]))


BETA_VALUES = sorted({0.0}.union(*DEFAULT_SWEEP_GRID.values()))
_STACK_PARAMS = IDSParams.from_error_rates(0.017, 0.02, 0.022)
_STACK_ENC = mr_encoder(24, 4, DNA)
_rng = np.random.default_rng(2024)
_STACK_Z = _rng.integers(4, size=_STACK_ENC.N).astype(np.int8)
_STACK_TRACES = transmit_batch(
    (_STACK_ENC.encode(_rng.integers(4, size=_STACK_ENC.L).astype(np.int8)) + _STACK_Z) % 4,
    _STACK_PARAMS, 3, 7, alphabet_size=4)


def _decode(points):
    [out] = run_trellis_bma(_STACK_ENC, [_STACK_TRACES], _STACK_PARAMS, points, delta=6,
                            offsets=[_STACK_Z])
    return out


@functools.lru_cache(maxsize=None)
def _alone(bp):
    return _decode([bp])[0]


def _assert_same(a, b):
    if isinstance(a, InfeasibleTrellisError) or isinstance(b, InfeasibleTrellisError):
        assert type(a) is type(b) and str(a) == str(b)
    else:
        assert np.array_equal(a.probs, b.probs) and np.array_equal(a.hard, b.hard)


@st.composite
def beta_stacks(draw):
    """1-6 points from the default grid's values and 0: some that do not
    update (beta_e = beta_i = 0), some repeated; and a permutation."""
    value = st.sampled_from(BETA_VALUES)
    points = []
    for _ in range(draw(st.integers(1, 6))):
        if points and draw(st.integers(0, 3)) == 0:
            points.append(draw(st.sampled_from(points)))
            continue
        b, e, i = draw(value), draw(value), draw(value)
        if draw(st.booleans()):
            e = i = 0.0
        points.append(BetaParams(b, e, i, draw(st.sampled_from(BETA_VALUES[1:]))))
    return points, draw(st.permutations(range(len(points))))


@settings(derandomize=True, deadline=None, max_examples=30)
@given(beta_stacks())
def test_beta_stack_rows_equal_single_decodes(case):
    # results must not depend on the stack they are decoded in, nor its order
    points, perm = case
    got = _decode(points)
    assert len(got) == len(points)
    for bp, out in zip(points, got):
        _assert_same(out, _alone(bp))
    for i, out in zip(perm, _decode([points[i] for i in perm])):
        _assert_same(out, got[i])


class _Lines(logging.Handler):
    def __init__(self):
        super().__init__(logging.WARNING)
        self.lines = []

    def emit(self, record):
        self.lines.append(record.getMessage())


def _logged(fn, *args, **kwargs):
    """fn's result and the warning lines the package logged during it."""
    handler, log = _Lines(), logging.getLogger("idsrecon")
    log.addHandler(handler)
    try:
        return fn(*args, **kwargs), handler.lines
    finally:
        log.removeHandler(handler)


def _decode_once(*args, **kwargs):
    """run_trellis_bma's result and warning lines, checking that the call
    built exactly one lattice, whatever died in it."""
    with mock.patch.object(trellis_bma, "build_lattice",
                           wraps=trellis_bma.build_lattice) as build:
        out = _logged(run_trellis_bma, *args, **kwargs)
    assert build.call_count == 1
    return out


def _assert_chunk_size_free(enc, clusters, params, delta, offsets, betas):
    """The clusters decoded as one chunk and as chunks of one give the same
    results (posteriors within 1e-12; hard estimates, errors and warnings
    identical), each call building one lattice, and return them."""
    whole, lines = _decode_once(enc, clusters, params, betas, delta=delta, offsets=offsets)
    alone_lines = []
    for got, ys, z in zip(whole, clusters, offsets):
        [one], more = _decode_once(enc, [ys], params, betas, delta=delta, offsets=[z])
        alone_lines += more
        if isinstance(one, InfeasibleTrellisError):
            assert type(got) is type(one) and str(got) == str(one)
            continue
        assert len(got) == len(one) == len(betas)
        for a, b in zip(got, one):
            if isinstance(b, InfeasibleTrellisError):
                assert type(a) is type(b) and str(a) == str(b)
            else:
                assert np.abs(a.probs - b.probs).max() <= 1e-12
                assert np.array_equal(a.hard, b.hard)
    # the chunk warns about each cluster's dropped traces in cluster order
    assert lines == alone_lines
    return whole, lines


CHUNK_BETAS = [BetaParams(1, 0, 0, 1), BetaParams(0, 0.5, 0.1, 0.5),
               BetaParams(1, 5.0, 0.5, 1.0), BetaParams(1, 0.1, 0, 300.0)]


@st.composite
def chunks(draw):
    """A code, rates, a drift bound and 2-4 clusters of 1-3 traces of mixed
    lengths (noisy, cut, random, or noiseless copies), each with its own
    message and optional offset; and 1-3 beta points, beta_o = 300 among
    them, which underflows all but confident clusters."""
    kind = draw(st.sampled_from(["identity", "mr", "cc"]))
    if kind == "identity":
        enc = identity_encoder(draw(st.integers(1, 10)), draw(st.sampled_from([BINARY, DNA])))
    elif kind == "mr":
        n = draw(st.integers(2, 10))
        enc = mr_encoder(n, draw(st.integers(1, min(3, n - 1))), DNA)
    else:
        enc = cc_encoder(draw(st.integers(1, 2)), draw(st.integers(1, 5)), DNA)
    size = enc.alphabet.size
    w = [draw(st.integers(0, 2)), draw(st.integers(0, 3)), draw(st.integers(0, 3)),
         draw(st.integers(1, 6))]
    params = IDSParams(*[v / sum(w) for v in w])
    clusters, offsets = [], []
    for _ in range(draw(st.integers(2, 4))):
        offset = None
        if draw(st.booleans()):
            offset = np.array(draw(st.lists(st.integers(0, size - 1), min_size=enc.N,
                                            max_size=enc.N)), dtype=np.int8)
        msg = np.array(draw(st.lists(st.integers(0, size - 1), min_size=enc.L,
                                     max_size=enc.L)), dtype=np.int8)
        x = enc.encode(msg)
        if offset is not None:
            x = ((x + offset) % size).astype(np.int8)
        n = draw(st.integers(1, 3))
        if draw(st.integers(0, 3)) == 0:
            traces = [x] * n
        else:
            traces = list(transmit_batch(x, params, n, draw(st.integers(0, 2**31)),
                                         alphabet_size=size))
        for i in range(n):
            how = draw(st.sampled_from(["keep", "keep", "cut", "random"]))
            if how == "cut":
                traces[i] = traces[i][:draw(st.integers(0, len(traces[i])))]
            elif how == "random":
                traces[i] = np.array(draw(st.lists(st.integers(0, size - 1),
                                                   max_size=enc.N + 4)), dtype=np.int8)
        clusters.append(traces)
        offsets.append(offset)
    delta = draw(st.sampled_from([3, 8, 2, None, 1]))
    betas = draw(st.lists(st.sampled_from(CHUNK_BETAS), min_size=1, max_size=3))
    return enc, clusters, params, delta, offsets, betas


@settings(derandomize=True, deadline=None, max_examples=60)
@given(chunks())
def test_results_do_not_depend_on_chunk_size(case):
    _assert_chunk_size_free(*case)


def test_chunk_with_dropped_traces_and_a_row_lost_by_one_cluster():
    # without insertions a trace longer than its strand is unexplainable: one
    # cluster drops one trace, one drops all; beta_o = 300 underflows the
    # noisy clusters' combined beliefs but not the noiseless one's, so the
    # chunk ends those (cluster, beta) decodes alone while the rest decode on
    params = IDSParams(0.0, 0.05, 0.05, 0.9)
    enc = mr_encoder(24, 3, DNA)
    rng = np.random.default_rng(0)
    noisy = [c.traces[:3] for c in simulate_clusters(2, 3, 24, params, seed=1)]
    center = rng.integers(4, size=24).astype(np.int8)
    clusters = [noisy[0], noisy[1][:2] + [rng.integers(4, size=27).astype(np.int8)],
                [rng.integers(4, size=27).astype(np.int8) for _ in range(2)], [center] * 3]
    offsets = [rng.integers(4, size=24).astype(np.int8), None,
               rng.integers(4, size=24).astype(np.int8), None]
    betas = [BetaParams(1, 0.1, 0, 0.5), BetaParams(1, 0.1, 0, 300.0)]
    whole, lines = _assert_chunk_size_free(enc, clusters, params, 8, offsets, betas)
    assert [line.split(":")[0] for line in lines] == [
        "dropping trace 2", "dropping trace 0", "dropping trace 1"]
    assert str(whole[2]) == "every trace was infeasible under the drift bound"
    assert all(isinstance(whole[c][0], PosteriorTable) for c in (0, 1, 3))
    assert isinstance(whole[0][1], InfeasibleTrellisError)
    assert isinstance(whole[3][1], PosteriorTable)
