"""Property tests: random tiny trellises against the brute-force oracles.

The sweeps step each layer by one of a few transfers, so these properties
tie them back to what does not: exhaustive enumeration (posteriors) and a
rule-by-rule constructor with its own forward-backward pass (every cell of
both sweeps, under a drift bound too). The lattice that steps Trellis BMA's
per-trace trellises together is tied back to each trace's own trellis, and
a Trellis BMA decode of a beta stack to each point decoded alone."""

import functools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from idsrecon import (BINARY, DNA, BetaParams, IDSParams, InfeasibleTrellisError,
                      build_trellis, cc_encoder, compute_posteriors,
                      identity_encoder, init_single_trace_trellises, mr_encoder,
                      run_trellis_bma, transmit_batch)
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
    try:
        full_f = tr.forward()
    except InfeasibleTrellisError:
        full_f = None
    # a drift bound only removes paths: unexplainable traces stay infeasible
    if rows is None or delta is None:
        assert (full_f is not None) == (rows is not None)
    if full_f is None:
        return
    full_b = tr.backward()
    assert abs(full_b.loglik - full_f.loglik) < 1e-9 * max(1.0, abs(full_f.loglik))
    # the streamed posteriors are the whole sweeps' product at the read layers
    post = compute_posteriors(tr)
    prod = [np.bincount(tr.layers[t].cm, minlength=enc.msg_size,
                        weights=(full_f.layers[t] * full_b.layers[t])
                        .reshape(tr.layers[t].n_combo, -1).sum(axis=1))
            for t in tr.post_read_layer]
    assert np.array_equal(post.probs, PosteriorTable.from_rows(prod).probs)
    assert post.log_likelihood == full_f.loglik
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


@settings(derandomize=True, deadline=None, max_examples=100)
@given(trace_sets())
def test_lattice_rows_equal_each_traces_own_trellis(case):
    # the lattice keeps exactly the traces whose own trellis has a path, and
    # each kept row's read layers are that trellis's cells in its window
    enc, traces, params, offset, delta = case
    own = {}
    for k, y in enumerate(traces):
        tr = build_trellis(enc, [y], params, delta=delta, offset=offset)
        try:
            own[k] = tr, tr.forward(), tr.backward()
        except InfeasibleTrellisError:
            pass
    if not own:
        with pytest.raises(InfeasibleTrellisError, match="every trace was infeasible"):
            init_single_trace_trellises(enc, traces, params, delta=delta, offset=offset)
        return
    lat, fs, bs, kept = init_single_trace_trellises(enc, traces, params, delta=delta,
                                                    offset=offset)
    assert kept == sorted(own)
    half = enc.L // 2
    for i, k in enumerate(kept):
        tr, f, b = own[k]
        assert_lattice_row_matches(fs, i, tr, f, lat.input_read_layer[half:])
        assert_lattice_row_matches(bs, i, tr, b, lat.post_read_layer[:half])
        for mine, ref in ((fs, f), (bs, b)):
            assert abs(mine.loglik[i] - ref.loglik) <= 1e-12 * max(1.0, abs(ref.loglik))


BETA_VALUES = sorted({0.0}.union(*DEFAULT_SWEEP_GRID.values()))
_STACK_PARAMS = IDSParams.from_error_rates(0.017, 0.02, 0.022)
_STACK_ENC = mr_encoder(24, 4, DNA)
_rng = np.random.default_rng(2024)
_STACK_Z = _rng.integers(4, size=_STACK_ENC.N).astype(np.int8)
_STACK_TRACES = transmit_batch(
    (_STACK_ENC.encode(_rng.integers(4, size=_STACK_ENC.L).astype(np.int8)) + _STACK_Z) % 4,
    _STACK_PARAMS, 3, 7, alphabet_size=4)


def _decode(points):
    return run_trellis_bma(_STACK_ENC, _STACK_TRACES, _STACK_PARAMS, points, delta=6,
                           offset=_STACK_Z)


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
