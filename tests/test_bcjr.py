import math

import numpy as np
import pytest

from idsrecon import (BINARY, DNA, ConfigError, IDSParams, InfeasibleTrellisError,
                      build_trellis, compute_posteriors, identity_encoder,
                      mr_encoder, transmit)
from idsrecon import bcjr
from oracle import assert_cells_match, joint_posteriors, random_params, uniform_prior


def _instance(seed, k=1, n=None, alphabet=BINARY, encoder=None, max_trace=7):
    rng = np.random.default_rng(seed)
    n = n or int(rng.integers(1, 5))
    params = random_params(rng)
    enc = encoder or identity_encoder(n, alphabet)
    msg = rng.integers(alphabet.size, size=enc.L).astype(np.int8)
    x = enc.encode(msg)
    traces = []
    guard = 0
    while len(traces) < k:
        y = np.asarray(transmit(x, params, rng, alphabet=alphabet))
        guard += 1
        if len(y) <= max_trace or guard > 60:
            traces.append(y[:max_trace])
    return enc, traces, params


def _true_values(sweep, t):
    """Layer t's cells of a joint trellis's one row."""
    return sweep.layers[t][0] * math.exp(sweep.scales[t, 0])


def test_forward_backward_trivials():
    enc, traces, params = _instance(1)
    tr = build_trellis(enc, traces, params)
    f, b = tr.forward(), tr.backward()
    # a boundary block is (S, 1, W...): index its message axis with 0
    origin = (0,) * (2 + tr.K)
    lo = tr.lo[tr.layers[-1].npos, 0].tolist()
    absorbing = (slice(None), 0) + tuple(len(y) - a for y, a in zip(traces, lo))
    assert _true_values(f, 0)[origin] == 1.0
    assert (_true_values(b, len(tr.layers) - 1)[absorbing] == 1.0).all()
    # B(origin) equals the summed absorbing forward mass
    fin = _true_values(f, len(tr.layers) - 1)[absorbing].sum()
    assert math.log(_true_values(b, 0)[origin]) == pytest.approx(math.log(fin), abs=1e-9)
    assert f.loglik[0] == pytest.approx(b.loglik[0], abs=1e-9)


def test_vertex_posterior_identities():
    # F(s)B(s) is the mass of the paths through s: at the origin, all of it
    enc, traces, params = _instance(2, k=2)
    tr = build_trellis(enc, traces, params)
    f, b = tr.forward(), tr.backward()
    origin = (0,) * (2 + tr.K)
    fb = _true_values(f, 0)[origin] * _true_values(b, 0)[origin]
    assert math.log(fb) == pytest.approx(f.loglik[0], abs=1e-9)


def test_posteriors_match_enumeration_oracle():
    checked = 0
    for seed in range(40):
        enc, traces, params = _instance(seed, k=1 + seed % 2)
        try:
            rows, ll = joint_posteriors(enc, traces, params, uniform_prior(enc))
        except ValueError:
            continue
        tr = build_trellis(enc, traces, params)
        [post] = compute_posteriors(tr)
        assert type(post.log_likelihood) is float
        assert np.max(np.abs(post.probs - rows)) < 1e-9
        assert post.log_likelihood == pytest.approx(ll, abs=1e-9 * max(1, abs(ll)))
        checked += 1
    assert checked >= 25


def test_edge_sweep_reference_agrees_with_engine():
    # the oracle's forward-backward walk over its own edges against every
    # cell of the layered sweeps
    for seed in range(10):
        enc, traces, params = _instance(seed + 500, k=1 + seed % 2)
        assert_cells_match(build_trellis(enc, traces, params), enc, traces, params,
                           label=seed)


def test_cut_conservation_across_intra_free_layers():
    # every path crosses each layer without intra-layer edges once, so the
    # summed F(s)B(s) over each such layer is the total mass
    for seed in range(6):
        enc, traces, params = _instance(seed + 900, k=2)
        tr = build_trellis(enc, traces, params)
        f, b = tr.forward(), tr.backward()
        for t, lay in enumerate(tr.layers):
            if lay.kind == "ids":
                continue
            tot = (f.layers[t][0] * b.layers[t][0]).sum()
            assert (math.log(tot) + f.scales[t, 0] + b.scales[t, 0]
                    == pytest.approx(f.loglik[0], abs=1e-9))


def test_trace_order_symmetry():
    enc, traces, params = _instance(31, k=2)
    tr_ab = build_trellis(enc, traces, params)
    tr_ba = build_trellis(enc, traces[::-1], params)
    [pa] = compute_posteriors(tr_ab)
    [pb] = compute_posteriors(tr_ba)
    assert np.max(np.abs(pa.probs - pb.probs)) < 1e-9


def test_noiseless_uniform_loglik():
    enc = identity_encoder(5, DNA)
    params = IDSParams(0, 0, 0, 1)
    x = DNA.encode("GATTA")
    tr = build_trellis(enc, [x], params)
    assert tr.forward(keep=()).loglik[0] == pytest.approx(5 * np.log(0.25), abs=1e-9)
    [post] = compute_posteriors(tr)
    assert np.allclose(post.probs, np.eye(4)[x])


def test_mr_coded_posteriors_match_oracle():
    for seed in (3, 4, 5):
        rng = np.random.default_rng(seed)
        enc = mr_encoder(4, 1, BINARY)
        params = IDSParams(0.15, 0.1, 0.1, 0.65)
        msg = rng.integers(2, size=enc.L).astype(np.int8)
        y = np.asarray(transmit(enc.encode(msg), params, rng, alphabet=BINARY))[:7]
        try:
            rows, _ = joint_posteriors(enc, [y], params, uniform_prior(enc))
        except ValueError:
            continue
        tr = build_trellis(enc, [y], params)
        [post] = compute_posteriors(tr)
        assert np.max(np.abs(post.probs - rows)) < 1e-9


def test_budget_counts_read_layers_and_two_fronts(monkeypatch):
    # a budget between what is stored (each cycle's boundary block, the
    # layer before its input layer, plus two of the largest layer) and both
    # whole sweeps lets the posteriors run, unchanged
    enc, traces, params = _instance(9, k=2, n=4, alphabet=DNA)
    tr = build_trellis(enc, traces, params)
    sizes = [math.prod(lay.shape) for lay in tr.layers]
    assert all(tr.layers[t - 1].kind == "boundary" for t in tr.input_read_layer)
    stored = 8 * (sum(sizes[t - 1] for t in tr.input_read_layer) + 2 * max(sizes))
    whole = 2 * 8 * sum(sizes)
    assert stored == bcjr.stored_bytes(tr) < whole
    [ref] = compute_posteriors(tr)
    monkeypatch.setattr(bcjr, "STORED_BUDGET_BYTES", (stored + whole) // 2)
    [got] = compute_posteriors(tr)
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
    # the front lives to the last layer with no mass at the absorbing cell
    f = tr.forward(keep=())
    assert f.died.tolist() == [len(tr.layers)] and f.loglik.tolist() == [-np.inf]
    [err] = compute_posteriors(tr)
    assert isinstance(err, InfeasibleTrellisError)
    assert str(err) == "no forward mass reaches an absorbing vertex"
