"""Property tests: random tiny trellises against the brute-force oracle and
against the independent per-edge reference sweeps.

The sweeps, reachability and the edge table all read one per-layer edge
description, so these properties tie each reader back to something that
does not: exhaustive enumeration (posteriors), a log-domain walk over the
edge list (forward/backward values), and the sum-product values themselves
(reachability)."""

import numpy as np
from hypothesis import given, settings, strategies as st

from idsrecon import (BINARY, DNA, IDSParams, InfeasibleTrellisError,
                      backward_pass, backward_pass_edges, build_trellis,
                      cc_encoder, compute_posteriors, forward_pass,
                      forward_pass_edges, identity_encoder, mr_encoder,
                      transmit_batch)
from oracle import joint_posteriors


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
    pw = np.array(draw(st.lists(st.lists(st.integers(0, 3), min_size=size, max_size=size),
                                min_size=enc.L, max_size=enc.L)), dtype=float)
    pw[pw.sum(axis=1) == 0, 0] = 1.0
    prior = pw / pw.sum(axis=1, keepdims=True)
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
    return enc, traces, params, prior, offset, delta


@settings(derandomize=True, deadline=None, max_examples=50)
@given(instances())
def test_trellis_readers_agree_with_references(case):
    enc, traces, params, prior, offset, delta = case
    try:
        tr = build_trellis(enc, traces, params, prior=prior, delta=delta,
                           offset=offset)
    except InfeasibleTrellisError:
        # only a drift bound can shut the absorbing pointers out of the last layer
        assert delta is not None
        return
    fwd, bwd = tr.reach_masks()
    origin = (0,) * (1 + tr.K)
    alive = tr.vertex_table()["alive"]
    assert tr.is_feasible() == bool(bwd[0][origin]) == bool(alive.any())
    try:
        rows, loglik = joint_posteriors(enc, traces, params, prior, offset=offset)
    except ValueError:
        rows = None
    # a drift bound only removes paths: unexplainable traces stay infeasible
    if rows is None or delta is None:
        assert tr.is_feasible() == (rows is not None)
    if not tr.is_feasible():
        return
    f, b = forward_pass(tr), backward_pass(tr)
    # a cell is reachable both ways exactly where both sum-product values are positive
    assert np.array_equal(alive, np.isfinite(f.log_value) & np.isfinite(b.log_value))
    for eng, ref in ((f, forward_pass_edges(tr)), (b, backward_pass_edges(tr))):
        assert np.allclose(eng.log_value[alive], ref.log_value[alive], rtol=0, atol=1e-9)
    if delta is None:
        post = compute_posteriors(tr)
        assert np.abs(post.probs - rows).max() < 1e-9
        assert abs(post.log_likelihood - loglik) < 1e-9 * max(1.0, abs(loglik))
