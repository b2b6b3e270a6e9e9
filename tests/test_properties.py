"""Property tests: random tiny trellises against the brute-force oracles.

The sweeps step each layer by one of a few transfers, so these properties
tie them back to what does not: exhaustive enumeration (posteriors) and a
rule-by-rule constructor with its own forward-backward pass (every cell of
both sweeps, under a drift bound too). The lattice that steps Trellis BMA's
per-trace trellises together is tied back to each trace's own trellis, as
is each row the posterior reader reads from a lattice of equal-length
traces (BMALA-MAP's consensus strings); a Trellis BMA decode of a beta
stack to each point decoded alone, and a decode of a chunk of clusters to
each cluster decoded alone."""

import functools
import logging
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from idsrecon import (BINARY, DNA, BetaParams, ConfigError, IDSParams, InfeasibleTrellisError,
                      build_trellis, cc_encoder, compute_posteriors,
                      identity_encoder, init_single_trace_trellises, mr_encoder,
                      parse_encoder_spec,
                      run_trellis_bma, simulate_clusters, transmit_batch)
from idsrecon import evaluation, trellis_bma
from idsrecon.bcjr import PosteriorTable
from idsrecon.evaluation import DEFAULT_SWEEP_GRID
from oracle import (assert_cells_match, assert_lattice_row_matches, joint_posteriors,
                    trellis_bma_posteriors, uniform_prior)


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
    # unexplainable, which the properties cover too. Up to 3 traces: the
    # middle of 3 pointer axes is the only one with axes on both sides
    traces = [y[:enc.N + 2] for y in transmit_batch(
        np.asarray(x, dtype=np.int8), params, draw(st.integers(1, 3)),
        draw(st.integers(0, 2**31)), alphabet_size=size)]
    delta = draw(st.sampled_from([None, 1, 2, 3]))
    return enc, traces, params, offset, delta


@settings(derandomize=True, deadline=None, max_examples=50)
@given(instances())
def test_trellis_readers_agree_with_references(case):
    enc, traces, params, offset, delta = case
    try:
        tr = build_trellis(enc, [traces], params, delta=delta, offsets=[offset])
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
        # the posterior reader returns the error of the sweep's death record
        [err] = compute_posteriors(tr)
        assert isinstance(err, InfeasibleTrellisError)
        assert str(err) == tr.vanished(False, full_f.died[0])
        full_f = None
    # a drift bound only removes paths: unexplainable traces stay infeasible
    if rows is None or delta is None:
        assert (full_f is not None) == (rows is not None)
    if full_f is None:
        return
    full_b = tr.backward()
    loglik_f = full_f.loglik[0]
    assert abs(full_b.loglik[0] - loglik_f) < 1e-9 * max(1.0, abs(loglik_f))
    # the streamed posteriors are the whole sweeps' product on each cycle's
    # input layer, the forward side read at the boundary before it: an input
    # block is (S, M, W...), the boundary's (S, 1, W...) repeated along the
    # message axis, and a symbol's mass sums its states and pointers
    [post] = compute_posteriors(tr)
    prod = [(full_f.layers[t - 1][0] * full_b.layers[t][0])
            .reshape(tr.layers[t].shape[:2] + (-1,)).sum(axis=2).sum(axis=0)
            for t in tr.input_read_layer]
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
    # keeps the boundary blocks beside the exchange's read layers, from
    # which each read block is rebuilt exactly. A drift bound of 0 admits
    # no path and is refused before anything is built
    enc, traces, params, offset, delta = case
    if delta == 0:
        with pytest.raises(ConfigError, match="^--delta must be at least 1, got 0"):
            init_single_trace_trellises(enc, traces, params, delta=delta)
        return
    own, lost = {}, []
    for k, y in enumerate(traces):
        tr = build_trellis(enc, [[y]], params, delta=delta, offsets=[offset])
        f, b = tr.forward(), tr.backward()
        if f.died[0] < 0 and b.died[0] < 0:
            own[k] = tr, f, b
            continue
        [err] = compute_posteriors(tr)
        assert isinstance(err, InfeasibleTrellisError)
        lost.append(f"dropping trace {k}: {err}")
    (lat, fs, bs, kept), lines = _logged(init_single_trace_trellises, enc, traces, params,
                                         delta=delta, offsets=[offset] * len(traces))
    assert kept == sorted(own) and lines == lost
    assert lat.rows == len(traces)
    if not own:
        [[got]] = run_trellis_bma(enc, [traces], params, [BetaParams()], delta=delta,
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
    assert ([t for t, a in enumerate(fs.layers) if a is not None]
            == [t - 1 for t in lat.input_read_layer[half:]])
    for t in lat.input_read_layer[half:]:
        assert np.array_equal(trellis_bma._stale(lat, fs, False, t), full_f.layers[t])
    for t in lat.post_read_layer[:half]:
        assert np.array_equal(trellis_bma._stale(lat, bs, True, t), full_b.layers[t])
    everywhere = range(len(lat.layers))
    for k in kept:
        tr, f, b = own[k]
        assert_lattice_row_matches(full_f, k, tr, f, everywhere)
        assert_lattice_row_matches(full_b, k, tr, b, everywhere)
        for mine, ref in ((full_f, f), (full_b, b)):
            assert abs(mine.loglik[k] - ref.loglik[0]) <= 1e-12 * max(1.0, abs(ref.loglik[0]))


@st.composite
def equal_length_lattices(draw):
    """A code, rates (zero entries often) and 1-5 traces of one length R
    near N (BMALA-MAP's consensus strings have R = N), each with its own
    message and optional offset: codewords sent through the channel or
    not, or random strings, cut or padded to R; and a drift bound."""
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
    R = max(0, enc.N + draw(st.sampled_from([0, 0, 1, -1, 2, 4])))
    symbols = st.lists(st.integers(0, size - 1), min_size=R, max_size=R)
    traces, offsets = [], []
    for _ in range(draw(st.sampled_from([3, 1, 5, 2, 4]))):
        offset = None
        if draw(st.booleans()):
            offset = np.array(draw(st.lists(st.integers(0, size - 1), min_size=enc.N,
                                            max_size=enc.N)), dtype=np.int8)
        msg = np.array(draw(st.lists(st.integers(0, size - 1), min_size=enc.L,
                                     max_size=enc.L)), dtype=np.int8)
        x = enc.encode(msg)
        if offset is not None:
            x = ((x + offset) % size).astype(np.int8)
        y = np.array(draw(symbols), dtype=np.int8)
        how = draw(st.sampled_from(["sent", "clean", "random"]))
        if how != "random":
            if how == "sent":
                [x] = transmit_batch(x, params, 1, draw(st.integers(0, 2**31)),
                                     alphabet_size=size)
            y[:len(x)] = x[:R]
        traces.append(y)
        offsets.append(offset)
    delta = draw(st.sampled_from([None, 1, 2, 3, 8]))
    return enc, traces, params, offsets, delta


def _drift_case():
    """Three codewords of mr:12:3 with two insertions each, at rates with
    no deletions or substitutions: with a drift bound of 1, the middle one,
    whose insertions sit at a third and two thirds of it, has no path (it
    has one under a bound of 2), while its neighbours, with both insertions
    in front, decode."""
    enc = mr_encoder(12, 3, DNA)
    rng = np.random.default_rng(0)
    traces, offsets = [], []
    for c in range(3):
        z = rng.integers(4, size=enc.N).astype(np.int8)
        x = (enc.encode(rng.integers(4, size=enc.L).astype(np.int8)) + z) % 4
        cuts = [0, 0] if c != 1 else [4, 8]
        traces.append(np.insert(x, cuts, [1, 2]).astype(np.int8))
        offsets.append(z)
    return enc, traces, IDSParams(0.1, 0.0, 0.0, 0.9), offsets, 1


DRIFT_CASE = _drift_case()


@settings(derandomize=True, deadline=None, max_examples=100)
@given(equal_length_lattices())
@example(DRIFT_CASE)
def test_equal_length_lattice_rows_read_as_their_own_trellis(case):
    # the per-row reader on a lattice of equal-length traces, each row with
    # its own offset: every row's posteriors, hard estimate and
    # log-likelihood equal its own one-row trellis's bit for bit, and a row
    # with no path gets its own trellis's error while its neighbours decode
    enc, traces, params, offsets, delta = case
    got = compute_posteriors(build_trellis(enc, [[y] for y in traces], params, delta=delta,
                                            offsets=offsets))
    assert len(got) == len(traces)
    for y, z, mine in zip(traces, offsets, got):
        [own] = compute_posteriors(build_trellis(enc, [[y]], params, delta=delta, offsets=[z]))
        if isinstance(own, InfeasibleTrellisError):
            assert type(mine) is InfeasibleTrellisError and str(mine) == str(own)
        else:
            assert isinstance(mine, PosteriorTable)
            assert np.array_equal(mine.probs, own.probs)
            assert np.array_equal(mine.hard, own.hard)
            assert mine.log_likelihood == own.log_likelihood
    if case is DRIFT_CASE:
        assert [type(p) for p in got] == [PosteriorTable, InfeasibleTrellisError, PosteriorTable]
        assert str(got[1]).endswith("no path explains the traces (delta=1)")
        [wider] = compute_posteriors(build_trellis(enc, [traces[1:2]], params, delta=2,
                                                   offsets=offsets[1:2]))
        assert isinstance(wider, PosteriorTable)


def test_joint_chunk_rows_equal_each_clusters_own_trellis():
    # a joint chunk is one row of K pointer axes per cluster. Its rows'
    # traces differ in length, so their windows differ and the narrower are
    # masked; without insertions a trace longer than its strand has no path,
    # so one row is infeasible while its neighbours decode. Every row's
    # log-likelihood, hard estimate and error text equal its cluster's own
    # trellis's; its posteriors agree to rounding, since the reader's
    # pairwise sums over a row's pointer cells follow the padded widths
    params = IDSParams(0.0, 0.05, 0.05, 0.9)
    rng = np.random.default_rng(5)
    for spec, k in (("identity:40", 1), ("mr:40:8", 2), ("cc:2:0.5:24", 2), ("identity:16", 3)):
        enc = parse_encoder_spec(spec)
        clusters = [c.traces for c in simulate_clusters(4, k, enc.N, params, seed=k)]
        clusters.insert(2, [rng.integers(4, size=enc.N + 3).astype(np.int8)] + clusters[0][1:])
        assert len({len(y) for ys in clusters for y in ys}) > 2
        offsets = [rng.integers(4, size=enc.N).astype(np.int8), None] * 2 + [None]
        got = compute_posteriors(build_trellis(enc, clusters, params, delta=6, offsets=offsets))
        assert [type(p) for p in got].count(InfeasibleTrellisError) == 1
        for ys, z, mine in zip(clusters, offsets, got):
            [own] = compute_posteriors(build_trellis(enc, [ys], params, delta=6, offsets=[z]))
            assert type(mine) is type(own) and str(mine) == str(own)
            if isinstance(own, PosteriorTable):
                assert np.abs(mine.probs - own.probs).max() <= 1e-15, spec
                assert np.array_equal(mine.hard, own.hard), spec
                assert mine.log_likelihood == own.log_likelihood, spec


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


@st.composite
def exchange_cases(draw):
    """A small identity, marker-repeat or convolutional code, rates, 1-4
    traces of its codeword (some cut), an optional offset, a drift bound,
    and 1-3 random beta points, beta_b not only 0 or 1."""
    kind = draw(st.sampled_from(["identity", "mr", "cc"]))
    if kind == "identity":
        enc = identity_encoder(draw(st.integers(1, 4)), draw(st.sampled_from([BINARY, DNA])))
    elif kind == "mr":
        enc = mr_encoder(draw(st.integers(2, 4)), 1, draw(st.sampled_from([BINARY, DNA])))
    else:
        enc = cc_encoder(1, draw(st.integers(1, 2)), DNA)
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
        x = ((x + offset) % size).astype(np.int8)
    traces = [y[:draw(st.integers(max(0, enc.N - 1), enc.N + 2))] for y in transmit_batch(
        x, params, draw(st.integers(1, 4)), draw(st.integers(0, 2**31)), alphabet_size=size)]
    beta = st.floats(0.0, 3.0).map(lambda v: round(v, 2))
    betas = [BetaParams(draw(st.sampled_from([0.0, 1.0, 0.3, 2.5])), draw(beta), draw(beta),
                        draw(st.floats(0.1, 3.0)))
             for _ in range(draw(st.integers(1, 3)))]
    delta = draw(st.sampled_from([None, 1, 2, 3]))
    return enc, traces, params, offset, delta, betas


@settings(derandomize=True, deadline=None, max_examples=60)
@given(exchange_cases())
def test_exchange_matches_its_oracle(case):
    # the whole exchange, gamma on each front at its read layer, stale**beta_b,
    # the leave-one-out product and beta_o at read, against plain loops over
    # each trace's explicit trellis; a decode ends exactly where the oracle
    # loses its mass
    enc, traces, params, offset, delta, betas = case
    [got] = run_trellis_bma(enc, [traces], params, betas, delta=delta, offsets=[offset])
    want = trellis_bma_posteriors(enc, traces, params, betas, delta=delta, offset=offset)
    for post, rows in zip(got, want):
        assert isinstance(post, InfeasibleTrellisError) == (rows is None)
        if rows is not None:
            assert np.abs(post.probs - rows).max() < 1e-9


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


def _decode_chunks(algorithm, enc, clusters, params, delta, offsets, betas):
    """run_algorithm's outcomes per cluster over the chunks that `chunked`
    cuts, and the warning lines, checking that each call built exactly one
    trellis, whatever died in it."""
    module = trellis_bma if algorithm == "trellis-bma" else evaluation
    out, lines = [], []
    for chunk in evaluation.chunked(list(range(len(clusters))), [len(c) for c in clusters],
                                    algorithm, enc, delta, len(betas)):
        with mock.patch.object(module, "build_trellis", wraps=module.build_trellis) as build:
            got, more = _logged(evaluation.run_algorithm, algorithm, enc,
                                [clusters[c] for c in chunk], params, delta=delta,
                                offsets=[offsets[c] for c in chunk], betas=betas)
        assert build.call_count == 1
        out += got
        lines += more
    return out, lines


def _assert_chunk_size_free(enc, clusters, params, delta, offsets, betas,
                            algorithm="trellis-bma"):
    """The clusters decoded in the chunks of the default CHUNK_BYTES and of
    a budget of 1 byte, each cluster alone, give the same results
    (posteriors within 1e-12; hard estimates, errors and warnings
    identical), and return them."""
    whole, lines = _decode_chunks(algorithm, enc, clusters, params, delta, offsets, betas)
    with mock.patch.object(evaluation, "CHUNK_BYTES", 1):
        alone, alone_lines = _decode_chunks(algorithm, enc, clusters, params, delta, offsets,
                                            betas)
    for got, one in zip(whole, alone):
        assert len(got) == len(one) == (len(betas) if algorithm == "trellis-bma" else 1)
        for a, b in zip(got, one):
            if isinstance(b, InfeasibleTrellisError):
                assert type(a) is type(b) and str(a) == str(b)
            else:
                assert np.abs(a[0].probs - b[0].probs).max() <= 1e-12
                assert np.array_equal(a[1], b[1])
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
    # the joint trellis decodes a chunk of clusters of one trace count as
    # one trellis, a row of K pointer axes per cluster
    _assert_chunk_size_free(*case, algorithm="bcjr-multitrace")


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
    assert [str(e) for e in whole[2]] == ["every trace was infeasible under the drift bound"] * 2
    assert all(isinstance(whole[c][0][0], PosteriorTable) for c in (0, 1, 3))
    assert isinstance(whole[0][1], InfeasibleTrellisError)
    assert isinstance(whole[3][1][0], PosteriorTable)
