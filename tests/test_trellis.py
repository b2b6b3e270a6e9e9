import io
from collections import Counter

import numpy as np
import pytest
from scipy.stats import chisquare

from idsrecon import (BINARY, DNA, IDSParams, InfeasibleTrellisError,
                      build_trellis, cc_encoder, identity_encoder, mr_encoder,
                      transmit)
from idsrecon.trellis import EVENT_INS, EVENT_NAMES, EVENT_SUBCOR
from oracle import enumerate_trellis_states, random_params, random_prior, trace_likelihood


def _tiny(seed=0, n=None, k=1, alphabet=BINARY, params=None, delta=None,
          encoder=None, prior=None):
    rng = np.random.default_rng(seed)
    n = n or int(rng.integers(1, 5))
    params = params or random_params(rng)
    enc = encoder or identity_encoder(n, alphabet)
    x = enc.encode(rng.integers(alphabet.size, size=enc.L).astype(np.int8))
    traces = []
    while len(traces) < k:
        y = np.asarray(transmit(x, params, rng, alphabet=alphabet))
        if len(y) <= 7:
            traces.append(y)
    if prior is None:
        prior = random_prior(rng, enc.L, alphabet.size)
    tr = build_trellis(enc, traces, params, prior=prior, delta=delta)
    return tr, enc, traces, params, prior


def _assert_matches_oracle(case, label):
    tr, enc, traces, params, prior = case
    nv, ne, weights = enumerate_trellis_states(enc, traces, params, prior)
    assert tr.num_vertices() == nv, label
    assert tr.num_edges() == ne, label
    assert np.abs(np.sort(tr.edge_table()[2]) - weights).max() < 1e-12, label


def test_structure_matches_independent_constructor():
    # vertex/edge counts and edge weights against a naive rule-by-rule enumerator
    for seed in range(12):
        _assert_matches_oracle(_tiny(seed), seed)
    for seed in range(6):
        _assert_matches_oracle(_tiny(100 + seed, k=2), seed)
    # multi-state encoders gather and scatter boundary rows by encoder state;
    # zero prior entries take input edges out of the support
    zero_prior = np.array([[0.5, 0.0, 0.5, 0.0], [0.0, 0.0, 0.0, 1.0],
                           [0.2, 0.3, 0.5, 0.0]])
    for case in (_tiny(0, alphabet=DNA, encoder=cc_encoder(2, 2, DNA)),
                 _tiny(0, alphabet=DNA, encoder=cc_encoder(2, 3, DNA)),
                 _tiny(1, n=3, alphabet=DNA, prior=zero_prior)):
        _assert_matches_oracle(case, case[1])


def test_structure_constructor_with_mr_encoder():
    rng = np.random.default_rng(42)
    params = IDSParams(0.15, 0.1, 0.1, 0.65)
    enc = mr_encoder(4, 1, BINARY)
    msg = rng.integers(2, size=enc.L).astype(np.int8)
    x = enc.encode(msg)
    y = np.asarray(transmit(x, params, rng, alphabet=BINARY))
    prior = random_prior(rng, enc.L, 2)
    tr = build_trellis(enc, [y], params, prior=prior)
    _assert_matches_oracle((tr, enc, [y], params, prior), enc)


def test_topological_order_basics():
    tr, *_ = _tiny(3)
    order = tr.topological_order()
    assert order[0] == tr.origin
    heads, tails, *_ = tr.edge_table()
    assert (tails > heads).all()
    assert len(order) == tr.num_vertices()
    absorbing = set(tr.absorbing_vertices().tolist())
    pos = {v: i for i, v in enumerate(order.tolist())}
    for h, t in zip(heads, tails):
        assert pos[h] < pos[t]
    # absorbing vertices come after everything that reaches them
    for a in absorbing:
        assert pos[a] > 0


def test_path_weight_and_total_probability():
    # sum of all origin->absorbing path weights equals Pr(Y = y)
    rng = np.random.default_rng(8)
    params = IDSParams(0.2, 0.15, 0.1, 0.55)
    enc = identity_encoder(2, BINARY)
    x = np.array([0, 1], dtype=np.int8)
    y = np.asarray(transmit(x, params, rng, alphabet=BINARY))
    prior = np.full((2, 2), 0.5)
    tr = build_trellis(enc, [y], params, prior=prior)

    heads, tails, ws, _, _, _ = tr.edge_table()
    out_edges = {}
    for i, h in enumerate(heads):
        out_edges.setdefault(int(h), []).append(i)
    absorbing = set(tr.absorbing_vertices().tolist())

    total = 0.0
    stack = [(tr.origin, [])]
    weights = {}
    while stack:
        v, path = stack.pop()
        if v in absorbing:
            weights[tuple(path)] = float(np.exp(tr.path_log_weight(path)))
            total += weights[tuple(path)]
            continue
        for e in out_edges.get(int(v), []):
            stack.append((int(tails[e]), path + [e]))

    truth = 0.0
    for m0 in range(2):
        for m1 in range(2):
            xx = np.array([m0, m1], dtype=np.int8)
            w = prior[0, m0] * prior[1, m1]
            truth += w * trace_likelihood(xx, y, params.p_ins, params.p_del,
                                          params.p_sub, params.p_cor, 2)
    assert len(weights) == 64
    assert total == pytest.approx(truth, rel=1e-9)

    # sample_path draws each path with probability weight / total: a chi-square
    # test of 4 000 draws, cells expecting fewer than 5 draws pooled into one
    n = 4000
    sample_rng = np.random.default_rng(0)
    fb = (tr.forward(), tr.backward())
    drawn = Counter(tuple(tr.sample_path(sample_rng, fb)) for _ in range(n))
    assert set(drawn) <= set(weights)
    expected = np.array([n * w / total for w in weights.values()])
    observed = np.array([drawn[p] for p in weights])
    small = expected < 5
    expected = np.append(expected[~small], expected[small].sum())
    observed = np.append(observed[~small], observed[small].sum())
    assert chisquare(observed, expected * n / expected.sum()).pvalue > 0.01


def test_path_weight_trivials():
    tr, *_ = _tiny(5)
    assert tr.path_log_weight([]) == 0.0
    heads, tails, ws, _, _, _ = tr.edge_table()
    assert tr.path_log_weight([0]) == pytest.approx(np.log(ws[0]))
    # a broken chain is rejected
    nxt = np.flatnonzero(heads != tails[0])
    with pytest.raises(Exception):
        tr.path_log_weight([0, int(nxt[-1])])


def test_label_coverage_on_sampled_paths():
    for seed in (0, 1, 2):
        tr, enc, traces, params, prior = _tiny(seed + 50, k=2)
        rng = np.random.default_rng(seed)
        fb = (tr.forward(), tr.backward())
        _, _, _, evs, lks, ljs = tr.edge_table()
        want = {(k, j) for k, y in enumerate(traces) for j in range(len(y))}
        for _ in range(40):
            path = tr.sample_path(rng, fb)
            got = [(int(lks[e]), int(ljs[e])) for e in path if lks[e] >= 0]
            assert len(got) == len(set(got)), "a label repeated on a path"
            assert set(got) == want


def test_outgoing_marginal_sums_unpruned():
    for seed in range(8):
        rng = np.random.default_rng(seed + 200)
        params = random_params(rng)
        while min(params.as_tuple()) <= 0:  # the bookkeeping check needs full fan-out
            params = random_params(rng)
        tr, enc, traces, *_ = _tiny(seed + 300, k=int(rng.integers(1, 3)), params=params)
        sums, mask = tr.outgoing_marginal_sums()
        assert np.abs(sums[mask] - 1.0).max() < 1e-12


def test_outgoing_marginal_sums_pruned_never_exceed_one():
    rng = np.random.default_rng(77)
    params = IDSParams(0.1, 0.1, 0.1, 0.7)
    enc = identity_encoder(8, DNA)
    x = rng.integers(4, size=8).astype(np.int8)
    y = np.asarray(transmit(x, params, rng, DNA))
    tr = build_trellis(enc, [y], params, delta=2)
    sums, mask = tr.outgoing_marginal_sums()
    assert sums[mask].max() < 1.0 + 1e-12
    assert sums[mask].min() < 1.0 - 1e-12  # pruning really removed mass


def test_intra_edges_only_in_ids_layers_and_advance_one():
    tr, *_ = _tiny(9, n=3, k=2)
    vt = tr.vertex_table()
    heads, tails, ws, evs, lks, ljs = tr.edge_table()
    layer_of = vt["layer"]
    for i in range(len(heads)):
        h, t = heads[i], tails[i]
        if layer_of[h] == layer_of[t]:
            lay = tr.layers[layer_of[h]]
            assert lay.kind == "ids"
            assert evs[i] == EVENT_INS
            dp = vt["ptr"][t] - vt["ptr"][h]
            assert dp[lay.trace] == 1 and (np.delete(dp, lay.trace) == 0).all()
        else:
            assert layer_of[t] == layer_of[h] + 1


def test_pruning_monotone_and_exact_at_max_drift():
    rng = np.random.default_rng(15)
    params = IDSParams(0.08, 0.06, 0.05, 0.81)
    enc = identity_encoder(14, DNA)
    x = rng.integers(4, size=14).astype(np.int8)
    y = np.asarray(transmit(x, params, rng, DNA))
    logliks = []
    for delta in (1, 2, 4, 8, max(len(y), 14)):
        tr = build_trellis(enc, [y], params, delta=delta)
        logliks.append(tr.forward(keep=()).loglik)
    exact = build_trellis(enc, [y], params, delta=None).forward(keep=()).loglik
    assert all(a <= b + 1e-12 for a, b in zip(logliks, logliks[1:]))
    assert logliks[-1] == pytest.approx(exact, abs=1e-9)


def test_infeasible_under_tight_delta():
    params = IDSParams(0.4, 0.05, 0.05, 0.5)
    enc = identity_encoder(4, BINARY)
    # a trace far longer than the drift bound allows
    y = np.zeros(12, dtype=np.int8)
    tr = build_trellis(enc, [y], params, delta=1)
    assert not tr.is_feasible()
    with pytest.raises(InfeasibleTrellisError):
        tr.forward(keep=())


def test_keep_set_stores_only_its_layers():
    tr, *_ = _tiny(4, n=3, k=2)
    n = len(tr.layers)
    keep = {0, tr.post_read_layer[1], n - 1}
    for sweep in (tr.forward, tr.backward):
        full = sweep()
        for ks in (keep, ()):
            part = sweep(keep=ks)
            assert np.array_equal(part.scales, full.scales)
            assert part.loglik == full.loglik
            for t in range(n):
                if t in ks:
                    assert np.array_equal(part.layers[t], full.layers[t])
                else:
                    assert part.layers[t] is None


def test_dump_lists_vertices_and_edges():
    tr, *_ = _tiny(21, n=2)
    buf = io.StringIO()
    tr.dump(buf)
    lines = buf.getvalue().strip().splitlines()
    n_v = sum(1 for ln in lines if ln.startswith("v "))
    n_e = sum(1 for ln in lines if ln.startswith("e "))
    assert n_v == tr.num_vertices()
    assert n_e == tr.num_edges()
    assert any("kind=boundary" in ln for ln in lines)
    for name in EVENT_NAMES[2:5]:
        assert any(f"event={name}" in ln for ln in lines)


def test_origin_and_absorbing_forms():
    tr, enc, traces, *_ = _tiny(33, k=2)
    vt = tr.vertex_table()
    assert vt["layer"][tr.origin] == 0
    assert (vt["ptr"][tr.origin] == 0).all()
    assert vt["m"][tr.origin] == -1 and vt["x"][tr.origin] == -1
    for a in tr.absorbing_vertices():
        assert vt["layer"][a] == len(tr.layers) - 1
        assert (vt["ptr"][a] == [len(y) for y in traces]).all()
        assert vt["m"][a] == -1 and vt["x"][a] == -1


def test_edge_count_scaling_with_traces():
    # pruned edge counts grow roughly by the extra window factor per trace
    rng = np.random.default_rng(4)
    params = IDSParams(0.05, 0.05, 0.05, 0.85)
    enc = identity_encoder(20, BINARY)
    x = rng.integers(2, size=20).astype(np.int8)
    delta = 4
    counts = {}
    for k in (1, 2):
        traces = [np.asarray(transmit(x, params, (4, i), alphabet=BINARY))
                  for i in range(k)]
        tr = build_trellis(enc, traces, params, delta=delta)
        counts[k] = tr.num_edges()
    bound_ratio = 2 * (2 * delta + 1)
    measured = counts[2] / counts[1]
    assert bound_ratio / 4 <= measured <= bound_ratio * 4
