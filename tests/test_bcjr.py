import math

import numpy as np
import pytest

from idsrecon import (BINARY, DNA, ConfigError, IDSParams, InfeasibleTrellisError,
                      backward_pass, backward_pass_edges, build_trellis,
                      compute_posteriors, forward_pass, forward_pass_edges,
                      identity_encoder, mr_encoder,
                      sequence_log_likelihood, transmit, vertex_posterior)
from idsrecon import bcjr
from idsrecon.bcjr import cut_totals
from oracle import joint_posteriors, random_params, random_prior


def _instance(seed, k=1, n=None, alphabet=BINARY, encoder=None, max_trace=7):
    rng = np.random.default_rng(seed)
    n = n or int(rng.integers(1, 5))
    params = random_params(rng)
    enc = encoder or identity_encoder(n, alphabet)
    prior = random_prior(rng, enc.L, alphabet.size)
    msg = rng.integers(alphabet.size, size=enc.L).astype(np.int8)
    x = enc.encode(msg)
    traces = []
    guard = 0
    while len(traces) < k:
        y = np.asarray(transmit(x, params, rng, alphabet=alphabet))
        guard += 1
        if len(y) <= max_trace or guard > 60:
            traces.append(y[:max_trace])
    return enc, traces, params, prior


def test_forward_backward_trivials():
    enc, traces, params, prior = _instance(1)
    tr = build_trellis(enc, traces, params, prior=prior)
    f = forward_pass(tr)
    b = backward_pass(tr)
    assert f.log_value[tr.origin] == 0.0
    for a in tr.absorbing_vertices():
        assert b.log_value[a] == 0.0
    # B(origin) equals the summed absorbing forward mass
    assert b.log_value[tr.origin] == pytest.approx(
        sequence_log_likelihood(tr, f), abs=1e-9)
    assert f.loglik == pytest.approx(b.loglik, abs=1e-9)


def test_vertex_posterior_identities():
    enc, traces, params, prior = _instance(2, k=2)
    tr = build_trellis(enc, traces, params, prior=prior)
    f, b = forward_pass(tr), backward_pass(tr)
    total = sequence_log_likelihood(tr, f)
    assert vertex_posterior(tr, f, b, tr.origin) == pytest.approx(total, abs=1e-9)


def test_posteriors_match_enumeration_oracle():
    checked = 0
    for seed in range(40):
        enc, traces, params, prior = _instance(seed, k=1 + seed % 2)
        try:
            rows, ll = joint_posteriors(enc, traces, params, prior)
        except ValueError:
            continue
        tr = build_trellis(enc, traces, params, prior=prior)
        post = compute_posteriors(tr)
        assert np.max(np.abs(post.probs - rows)) < 1e-9
        assert post.log_likelihood == pytest.approx(ll, abs=1e-9 * max(1, abs(ll)))
        checked += 1
    assert checked >= 25


def test_edge_sweep_reference_agrees_with_engine():
    for seed in range(10):
        enc, traces, params, prior = _instance(seed + 500, k=1 + seed % 2)
        tr = build_trellis(enc, traces, params, prior=prior)
        f, b = forward_pass(tr), backward_pass(tr)
        fe, be = forward_pass_edges(tr), backward_pass_edges(tr)
        alive = tr.vertex_table()["alive"]
        for eng, ref in ((f, fe), (b, be)):
            a = eng.log_value[alive]
            r = ref.log_value[alive]
            both = np.isfinite(a) & np.isfinite(r)
            assert np.allclose(a[both], r[both], rtol=0, atol=1e-9)
        assert fe.loglik == pytest.approx(f.loglik, abs=1e-9)
        # the reference sweeps touch each edge exactly once
        assert fe.n_edge_visits == tr.num_edges()
        assert be.n_edge_visits == tr.num_edges()


def test_cut_conservation_across_intra_free_layers():
    for seed in range(6):
        enc, traces, params, prior = _instance(seed + 900, k=2)
        tr = build_trellis(enc, traces, params, prior=prior)
        totals = [v for _, v in cut_totals(tr)]
        ref = totals[0]
        for v in totals[1:]:
            assert v == pytest.approx(ref, abs=1e-9)


def test_trace_order_symmetry():
    enc, traces, params, prior = _instance(31, k=2)
    tr_ab = build_trellis(enc, traces, params, prior=prior)
    tr_ba = build_trellis(enc, traces[::-1], params, prior=prior)
    pa = compute_posteriors(tr_ab)
    pb = compute_posteriors(tr_ba)
    assert np.max(np.abs(pa.probs - pb.probs)) < 1e-9


def test_noiseless_uniform_loglik():
    enc = identity_encoder(5, DNA)
    params = IDSParams(0, 0, 0, 1)
    x = DNA.encode("GATTA")
    tr = build_trellis(enc, [x], params)
    f = forward_pass(tr)
    assert sequence_log_likelihood(tr, f) == pytest.approx(5 * np.log(0.25), abs=1e-9)
    post = compute_posteriors(tr)
    assert np.allclose(post.probs, np.eye(4)[x])


def test_mr_coded_posteriors_match_oracle():
    for seed in (3, 4, 5):
        rng = np.random.default_rng(seed)
        enc = mr_encoder(4, 1, BINARY)
        params = IDSParams(0.15, 0.1, 0.1, 0.65)
        prior = random_prior(rng, enc.L, 2)
        msg = rng.integers(2, size=enc.L).astype(np.int8)
        y = np.asarray(transmit(enc.encode(msg), params, rng, alphabet=BINARY))[:7]
        try:
            rows, _ = joint_posteriors(enc, [y], params, prior)
        except ValueError:
            continue
        tr = build_trellis(enc, [y], params, prior=prior)
        post = compute_posteriors(tr)
        assert np.max(np.abs(post.probs - rows)) < 1e-9


def test_budget_counts_read_layers_and_two_fronts(monkeypatch):
    # a budget between what is stored (read layers plus two of the largest
    # layer) and both whole sweeps lets the posteriors run, unchanged
    enc, traces, params, prior = _instance(9, k=2, n=4, alphabet=DNA)
    tr = build_trellis(enc, traces, params, prior=prior)
    sizes = [math.prod(lay.shape) for lay in tr.layers]
    stored = 8 * (sum(sizes[t] for t in tr.post_read_layer) + 2 * max(sizes))
    whole = 2 * 8 * tr.num_cells
    assert stored < whole
    ref = compute_posteriors(tr)
    monkeypatch.setattr(bcjr, "STORED_BUDGET_BYTES", (stored + whole) // 2)
    got = compute_posteriors(tr)
    assert np.array_equal(got.probs, ref.probs)
    assert got.log_likelihood == ref.log_likelihood
    monkeypatch.setattr(bcjr, "STORED_BUDGET_BYTES", stored - 1)
    with pytest.raises(ConfigError, match="fewer traces, a smaller --delta"):
        compute_posteriors(tr)


def test_zero_likelihood_reports_infeasible():
    # with no insertions a trace longer than the input is impossible
    enc = identity_encoder(3, BINARY)
    params = IDSParams(0.0, 0.2, 0.2, 0.6)
    y = np.zeros(5, dtype=np.int8)
    tr = build_trellis(enc, [y], params)
    assert not tr.is_feasible()
    with pytest.raises(InfeasibleTrellisError):
        tr.forward(keep=())
