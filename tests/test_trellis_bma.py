import logging
import re

import numpy as np
import pytest

from idsrecon import (DNA, BetaParams, ConfigError, IDSParams, InfeasibleTrellisError,
                      build_trellis, cc_encoder, combine_beliefs, compute_posteriors,
                      default_betas, identity_encoder, init_single_trace_trellises, mr_encoder,
                      run_algorithm, run_trellis_bma, scramble, transmit, update_forward)
from idsrecon.trellis import build_lattice
from idsrecon.trellis_bma import TUNED_BETAS, _Chunk, code_tag, gamma_updates
from oracle import assert_lattice_row_matches

PAPER = IDSParams.from_error_rates(0.017, 0.02, 0.022)


def _cluster(seed, n=20, k=3, encoder=None, offset=False):
    rng = np.random.default_rng(seed)
    enc = encoder or identity_encoder(n, DNA)
    msg = rng.integers(4, size=enc.L).astype(np.int8)
    z = rng.integers(4, size=enc.N).astype(np.int8) if offset else None
    x = enc.encode(msg)
    if z is not None:
        x = scramble(x, z, 4)
    traces = [np.asarray(transmit(x, PAPER, rng, alphabet=DNA)) for _ in range(k)]
    return enc, msg, z, traces


def test_beta_validation():
    BetaParams(0, 0, 0, 0.5)
    with pytest.raises(ConfigError):
        BetaParams(-1, 0, 0, 1)
    with pytest.raises(ConfigError):
        BetaParams(1, 0, 0, 0)
    for bad in (float("nan"), float("inf")):
        for i in range(4):
            betas = [1.0, 0.1, 0.0, 0.5]
            betas[i] = bad
            with pytest.raises(ConfigError, match="finite"):
                BetaParams(*betas)


def test_init_keeps_only_the_exchange_read_layers():
    # every trace is a row of one lattice; each row's kept layers are its
    # own trellis's cells, through the map from pointers to lattice cells
    enc, _, z, traces = _cluster(3, k=3, encoder=mr_encoder(16, 3, DNA), offset=True)
    half = enc.L // 2
    lat, fs, bs, kept = init_single_trace_trellises(enc, traces, PAPER, delta=8,
                                                    offsets=[z] * len(traces))
    assert kept == [0, 1, 2]
    reads = ((fs, lat.input_read_layer[half:]), (bs, lat.post_read_layer[:half]))
    for part, want in reads:
        assert [t for t, a in enumerate(part.layers) if a is not None] == sorted(want)
    for i, y in enumerate(traces):
        tr = build_trellis(enc, [y], PAPER, delta=8, offset=z)
        for (part, want), full in zip(reads, (tr.forward(), tr.backward())):
            assert_lattice_row_matches(part, i, tr, full, want)
            assert abs(part.loglik[i] - full.loglik[0]) < 1e-12 * abs(full.loglik[0])


def test_reduction_identity_multiply_posteriors():
    # (beta_b=1, beta_e=0, beta_i=0, beta_o=1) is exactly the product of
    # per-trace posteriors, and multiply_posteriors is that call bit-for-bit
    cases = []
    for seed in range(8):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(5, 31))
        k = int(rng.integers(1, 5))
        cases.append(_cluster(seed, n=n, k=k))
    cases.append(_cluster(8, k=3, encoder=mr_encoder(16, 3, DNA), offset=True))
    # a multi-state encoder, and L=1, where the forward exchange sweep is empty
    cases.append(_cluster(9, k=3, encoder=cc_encoder(2, 6, DNA), offset=True))
    cases.append(_cluster(10, k=2, encoder=identity_encoder(1, DNA)))
    for enc, msg, z, traces in cases:
        [[got]] = run_trellis_bma(enc, [traces], PAPER, betas=[BetaParams(1, 0, 0, 1)],
                                  offsets=[z])
        prod = np.ones((enc.L, 4))
        for y in traces:
            prod *= compute_posteriors(build_trellis(enc, [y], PAPER, offset=z))[0].probs
        prod /= prod.sum(axis=1, keepdims=True)
        assert np.max(np.abs(got.probs - prod) / np.maximum(prod, 1e-12)) < 1e-9
        [[(mp, _)]] = run_algorithm("multiply-posteriors", enc, [traces], PAPER, offsets=[z])
        assert np.array_equal(mp.probs, got.probs)


def test_k1_reduces_to_exact_posterior():
    # the last case is a 16-state code, so the exchange reads a state axis
    cases = [_cluster(40, n=17, k=1), _cluster(41, n=17, k=1),
             _cluster(42, k=1, encoder=mr_encoder(16, 3, DNA), offset=True),
             _cluster(44, k=1, encoder=cc_encoder(2, 10, DNA, codeword_len=14), offset=True)]
    for enc, msg, z, traces in cases:
        [[got]] = run_trellis_bma(enc, [traces], PAPER, betas=[BetaParams(1, 0, 0, 1)],
                                  offsets=[z])
        [exact] = compute_posteriors(build_trellis(enc, traces, PAPER, offset=z))
        assert np.max(np.abs(got.probs - exact.probs)) < 1e-9
        # beta_e is irrelevant with a single trace when beta_i = 0
        [[other]] = run_trellis_bma(enc, [traces], PAPER,
                                    betas=[BetaParams(1, 3.0, 0, 1)], offsets=[z])
        assert np.max(np.abs(other.probs - exact.probs)) < 1e-9


def test_readers_sum_states_and_window_of_each_message():
    # on a multi-state stack, against explicit per-cell loops: the belief in
    # message m sums front * stale**beta_b over the states and the window at
    # index m of the message axis, and the update scales those cells by gamma
    rng = np.random.default_rng(11)
    K, P, S, M, W = 3, 3, 4, 4, 5
    front = rng.random((K, P, S, M, W))
    stale = rng.random((K, S, M, W))
    stale[1, 2, 0, 3] = 0.0  # 0**0 = 1 for the row with beta_b = 0
    front[2, 1, :, 3] = 0.0  # one belief entry is zero
    beta_b = np.array([0.0, 0.5, 1.0])
    rows, combined = combine_beliefs(front, stale, beta_b, _Chunk([K], list(range(K)), P))
    # one cluster: its K traces fill the one row of the (P, 1, K, M) layout
    assert rows.shape == (P, 1, K, M) and combined.shape == (P, 1, M)
    rows, combined = rows[:, 0], combined[:, 0]
    want = np.zeros((P, K, M))
    for k, p, s, m, w in np.ndindex(K, P, S, M, W):
        weight = 1.0 if beta_b[p] == 0 else stale[k, s, m, w] ** beta_b[p]
        want[p, k, m] += front[k, p, s, m, w] * weight
    want /= want.sum(axis=2, keepdims=True)
    assert rows[1, 2, 3] == 0.0
    assert np.allclose(rows, want, rtol=1e-12, atol=0)
    assert np.allclose(combined, want.prod(axis=1), rtol=1e-12, atol=0)
    gamma = rng.random((K, P, M))
    out = update_forward(front, gamma)
    assert out.shape == front.shape
    for k, p, s, m, w in np.ndindex(K, P, S, M, W):
        assert out[k, p, s, m, w] == front[k, p, s, m, w] * gamma[k, p, m]


def test_gamma_scale_invariance():
    # scaling the new prior by any positive constant changes nothing: feed a
    # manually scaled gamma through update_forward and compare
    rng = np.random.default_rng(5)
    front = rng.random((3, 4, 6))  # (S, M, W)
    gamma = rng.random(4)
    a = update_forward(front, gamma)
    b = update_forward(front, gamma * 37.5)
    a_norm = a / a.sum()
    b_norm = b / b.sum()
    assert np.allclose(a_norm, b_norm, rtol=1e-12)


def test_no_update_when_exchange_weights_zero():
    # beta_e = beta_i = 0 leaves the sweep equal to multiply-posteriors even
    # with beta_b and beta_o varied
    enc, msg, _, traces = _cluster(77, n=12, k=3)
    [[a]] = run_trellis_bma(enc, [traces], PAPER, betas=[BetaParams(0.5, 0, 0, 0.7)])
    [[b]] = run_trellis_bma(enc, [traces], PAPER, betas=[BetaParams(0.5, 1e-12, 1e-12, 0.7)])
    assert np.max(np.abs(a.probs - b.probs)) < 1e-6


def test_rows_normalised_and_beta_o_preserves_argmax():
    enc, msg, _, traces = _cluster(90, n=25, k=4)
    [[a]] = run_trellis_bma(enc, [traces], PAPER, betas=[BetaParams(1, 0.5, 0.1, 1.0)])
    [[b]] = run_trellis_bma(enc, [traces], PAPER, betas=[BetaParams(1, 0.5, 0.1, 0.3)])
    assert np.abs(a.probs.sum(axis=1) - 1).max() < 1e-9
    assert np.abs(b.probs.sum(axis=1) - 1).max() < 1e-9
    assert np.array_equal(a.hard, b.hard)


def test_trace_permutation_invariance():
    enc, msg, _, traces = _cluster(91, n=18, k=4)
    betas = BetaParams(1, 0.5, 0.1, 0.5)
    [[a]] = run_trellis_bma(enc, [traces], PAPER, betas=[betas])
    [[b]] = run_trellis_bma(enc, [traces[::-1]], PAPER, betas=[betas])
    assert np.max(np.abs(a.probs - b.probs)) < 1e-9
    assert np.array_equal(a.hard, b.hard)


def test_infeasible_traces_dropped_with_warning(caplog):
    # without insertions a trace longer than the strand is unexplainable
    params = IDSParams(0.0, 0.02, 0.022, 0.958)
    rng = np.random.default_rng(92)
    enc = identity_encoder(12, DNA)
    x = rng.integers(4, size=12).astype(np.int8)
    traces = [np.asarray(transmit(x, params, rng, alphabet=DNA)) for _ in range(2)]
    bogus = np.zeros(17, dtype=np.int8)
    with caplog.at_level(logging.WARNING):
        [[got]] = run_trellis_bma(enc, [traces + [bogus]], params,
                                  betas=[BetaParams(1, 0, 0, 1)])
    dropped = [r.getMessage() for r in caplog.records
               if r.getMessage().startswith("dropping trace")]
    assert len(dropped) == 1 and dropped[0].startswith("dropping trace 2: "), dropped
    [[ref]] = run_trellis_bma(enc, [traces], params, betas=[BetaParams(1, 0, 0, 1)])
    assert np.max(np.abs(got.probs - ref.probs)) < 1e-9


def test_sequence_of_betas_equals_single_calls(caplog):
    enc, _, z, traces = _cluster(93, k=3, encoder=mr_encoder(16, 3, DNA), offset=True)
    # the last point's beta_o underflows the combined belief of this cluster
    points = [BetaParams(1, 0.5, 0.1, 0.5), BetaParams(0, 1.0, 0, 1.0),
              BetaParams(1, 0, 0, 1), BetaParams(1, 0.1, 0, 1e4)]
    [got] = run_trellis_bma(enc, [traces], PAPER, delta=8, betas=points, offsets=[z])
    assert len(got) == len(points)
    for bp, post in zip(points[:3], got):
        [[one]] = run_trellis_bma(enc, [traces], PAPER, delta=8, betas=[bp], offsets=[z])
        assert np.array_equal(post.probs, one.probs)
    # an exchange that loses its mass fails its own entry only
    assert isinstance(got[3], InfeasibleTrellisError)
    with pytest.raises(InfeasibleTrellisError, match=re.escape(str(got[3]))):
        raise run_trellis_bma(enc, [traces], PAPER, delta=8, betas=points[3:4],
                              offsets=[z])[0][0]

    # the per-trace init runs once for the whole sequence, so an infeasible
    # trace is warned about once, not once per entry
    params = IDSParams(0.0, 0.02, 0.022, 0.958)
    rng = np.random.default_rng(92)
    enc = identity_encoder(12, DNA)
    x = rng.integers(4, size=12).astype(np.int8)
    traces = [np.asarray(transmit(x, params, rng, alphabet=DNA)) for _ in range(2)]
    with caplog.at_level(logging.WARNING):
        [got] = run_trellis_bma(enc, [traces + [np.zeros(17, dtype=np.int8)]], params,
                                betas=points[:3])
    dropped = [r.getMessage() for r in caplog.records
               if r.getMessage().startswith("dropping trace")]
    assert len(dropped) == 1 and dropped[0].startswith("dropping trace 2: "), dropped
    for bp, post in zip(points, got):
        [[ref]] = run_trellis_bma(enc, [traces], params, betas=[bp])
        assert np.array_equal(post.probs, ref.probs)

    for bad in ([], [(1, 0, 0, 1)], (1, 0, 0, 1), None):
        with pytest.raises(ConfigError, match="sequence of them"):
            run_trellis_bma(enc, [traces], params, betas=bad)


def test_gamma_updates_equal_nested_powers():
    # each belief raised once per exponent and multiplied in trace order is
    # bit-identical to raising every other belief again for each trellis
    def pow0(a, b):
        return np.ones_like(a) if b == 0.0 else np.power(a, b)

    rng = np.random.default_rng(11)
    for k in (1, 2, 3, 6, 10):
        rows = rng.random((7, k, 4))
        rows[rng.random(rows.shape) < 0.3] = 0.0
        rows[:, :, 2] += 0.1  # one symbol keeps mass in every belief
        beta_e = rng.choice([0.0, 0.02, 0.5, 1.0, 5.0], size=7)
        beta_i = rng.choice([0.0, 0.1, 0.5], size=7)
        got = gamma_updates(rows[:, None], beta_e, beta_i)[:, 0]  # one cluster of k
        for p in range(7):
            for i in range(k):
                g = pow0(rows[p, i], beta_i[p])
                for j in range(k):
                    if j != i:
                        g = g * pow0(rows[p, j], beta_e[p])
                assert np.array_equal(got[p, i], g / g.max())


def test_stacked_step_marks_only_its_dead_rows():
    # a joint trellis stack is (1 row, P fronts, S, M, W...): the dead front
    # comes back zero with scale 1 and marked, and its neighbours as if
    # stepped alone
    enc, _, z, traces = _cluster(94, k=1, encoder=mr_encoder(16, 3, DNA), offset=True)
    tr = build_trellis(enc, traces, PAPER, delta=8, offset=z)
    t = 6
    good = tr.forward().layers[t - 1]
    stack = np.stack([good, np.zeros_like(good), 3.0 * good], axis=1)
    out, s, dead = tr.step_forward(t, stack)
    assert dead.tolist() == [[False, True, False]]
    assert not out[0, 1].any() and s[0, 1].item() == 1.0
    for p, alone in ((0, good), (2, 3.0 * good)):
        one, s_one, none = tr.step_forward(t, alone[:, None])
        assert none is None
        assert np.array_equal(out[0, p], one[0, 0]) and s[0, p] == s_one[0, 0]
    assert tr.vanished(False, t) == (f"forward mass vanished at layer {t} "
                                     f"({tr.layers[t].kind}); no path explains the traces "
                                     f"(delta=8)")


def test_lattice_step_marks_only_its_dead_trace_rows():
    # a lattice step marks a dead front per (trace, beta row); the exchange
    # ends the decode that holds it, and the other fronts step on untouched
    enc, _, z, traces = _cluster(94, k=3, encoder=mr_encoder(16, 3, DNA), offset=True)
    lat = build_lattice(enc, traces, PAPER, delta=8, offsets=[z] * len(traces))
    t = 6
    good = lat.forward().layers[t - 1]
    front = np.stack([good, 3.0 * good, 2.0 * good], axis=1)
    front[1, 1] = 0.0  # trace 1's row of beta row 1
    out, s, dead = lat.step_forward(t, front)
    assert dead.tolist() == [[False] * 3, [False, True, False], [False] * 3]
    assert not out[1, 1].any() and s[1, 1].item() == 1.0
    for p, alone in enumerate((good, 3.0 * good, 2.0 * good)):
        one, s_one, _ = lat.step_forward(t, alone[:, None])
        for k in range(3):
            if (k, p) != (1, 1):
                assert np.array_equal(out[k, p], one[k, 0]) and s[k, p] == s_one[k, 0]
    chunk = _Chunk([3], [0, 1, 2], 3)
    assert chunk.end(chunk.pad(dead.T, fill=False), lat.vanished(False, t))
    assert list(chunk.errors) == [(1, 0)] and not chunk.over
    assert str(chunk.errors[1, 0]).startswith(f"forward mass vanished at layer {t} ")
    # an ended decode's slots read 1.0, and it does not end again
    assert chunk.pad(np.zeros((3, 3))).tolist() == [[[0.0] * 3], [[1.0] * 3], [[0.0] * 3]]
    again = np.zeros((3, 1, 3), bool)
    again[1] = True
    assert not chunk.end(again, "again") and str(chunk.errors[1, 0]) != "again"


def test_row_that_vanishes_leaves_the_stack_alone():
    # beta_e = 300 underflows a gamma of this cluster at the 11th of its 13
    # read layers; the rows around it decode on as if alone
    enc, _, z, traces = _cluster(93, k=3, encoder=mr_encoder(16, 3, DNA), offset=True)
    points = [BetaParams(1, 0.5, 0.1, 0.5), BetaParams(0, 300.0, 0, 1), BetaParams(1, 0, 0, 1)]
    [got] = run_trellis_bma(enc, [traces], PAPER, delta=8, betas=points, offsets=[z])
    alone = [run_trellis_bma(enc, [traces], PAPER, delta=8, betas=[bp], offsets=[z])[0][0]
             for bp in points]
    assert isinstance(got[1], InfeasibleTrellisError)
    assert isinstance(alone[1], InfeasibleTrellisError)
    assert str(got[1]) == str(alone[1]) == "gamma update vanished for one trellis"
    for i in (0, 2):
        assert np.array_equal(got[i].probs, alone[i].probs)


def test_empty_trace_set_rejected():
    enc = identity_encoder(10, DNA)
    with pytest.raises(ConfigError, match="at least one trace"):
        run_trellis_bma(enc, [[]], PAPER, [BetaParams(1, 0, 0, 1)])


def test_tuned_default_tables():
    enc = identity_encoder(110, DNA)
    bp = default_betas("real", "hamming", enc, 2)
    assert bp.as_tuple() == (0, 0.1, 0.5, 0.5)
    bp = default_betas("sim", "hamming", enc, 4)
    assert bp.as_tuple() == (0, 1.0, 0.5, 0.5)
    mr = mr_encoder(110, 10, DNA)
    assert code_tag(mr) == "mr100"
    assert code_tag(mr_encoder(110, 6, DNA)) == "mr104"
    bp = default_betas("sim", "hamming", mr, 10)
    assert bp.as_tuple() == (1, 5.0, 0, 0.5)
    # the entropy metric tunes like AIR = (2 - H) * rate
    assert default_betas("sim", "entropy", enc, 1) == default_betas("sim", "air", enc, 1)
    # nearest-K fallback
    assert default_betas("real", "hamming", enc, 3).as_tuple() in (
        default_betas("real", "hamming", enc, 2).as_tuple(),
        default_betas("real", "hamming", enc, 4).as_tuple())
    # every table covers the published trace counts
    for table in TUNED_BETAS.values():
        assert set(table) == {1, 2, 4, 6, 8, 10}


def test_no_tuned_betas_for_multi_state_codes():
    # the tables were tuned on uncoded and marker-repeat strands only; a
    # convolutional code, even at rate 1, is refused and not filed under them
    for enc in (cc_encoder(2, 55, DNA), cc_encoder(1, 24, DNA)):
        with pytest.raises(ConfigError, match="--beta-b/e/i/o"):
            code_tag(enc)
        with pytest.raises(ConfigError, match=enc.spec):
            default_betas("real", "hamming", enc, 2)


def test_linear_cost_in_traces():
    import time

    enc = identity_encoder(110, DNA)
    rng = np.random.default_rng(10)
    x = rng.integers(4, size=110).astype(np.int8)
    # the lattice steps all K traces with one call per layer, and that call
    # overhead is shared; the per-trace term shows above it (and above the
    # host's noise) only over tens of traces. A cost growing as K**2 fits a
    # line over these sizes with R^2 0.949, so it fails
    sizes = (4, 8, 16, 32, 64)
    traces = [np.asarray(transmit(x, PAPER, rng, alphabet=DNA)) for _ in range(max(sizes))]
    betas = BetaParams(0, 0.5, 0.1, 0.5)
    for k in sizes:  # warm every size
        run_trellis_bma(enc, [traces[:k]], PAPER, delta=12, betas=[betas])
    best_r2 = -np.inf
    for _ in range(3):  # wall-clock noise only ever hurts linearity
        times = {}
        for k in sizes:
            best = np.inf
            for _ in range(7):
                t0 = time.perf_counter()
                run_trellis_bma(enc, [traces[:k]], PAPER, delta=12, betas=[betas])
                best = min(best, time.perf_counter() - t0)
            times[k] = best
        ks = np.array(sorted(times))
        ts = np.array([times[k] for k in ks])
        slope, icpt = np.polyfit(ks, ts, 1)
        ss_res = ((ts - (slope * ks + icpt)) ** 2).sum()
        ss_tot = ((ts - ts.mean()) ** 2).sum()
        best_r2 = max(best_r2, 1 - ss_res / ss_tot)
        if best_r2 > 0.95:
            break
    assert best_r2 > 0.95
