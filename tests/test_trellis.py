import math

import numpy as np
import pytest

from idsrecon import (BINARY, DNA, ConfigError, IDSParams, InfeasibleTrellisError,
                      build_trellis, cc_encoder, compute_posteriors, identity_encoder,
                      mr_encoder, transmit)
from oracle import assert_cells_match, random_params, trace_likelihood


def _tiny(seed=0, n=None, k=1, alphabet=BINARY, params=None, encoder=None,
          scrambled=False):
    rng = np.random.default_rng(seed)
    n = n or int(rng.integers(1, 5))
    params = params or random_params(rng)
    enc = encoder or identity_encoder(n, alphabet)
    x = enc.encode(rng.integers(alphabet.size, size=enc.L).astype(np.int8))
    offset = None
    if scrambled:
        offset = rng.integers(alphabet.size, size=enc.N).astype(np.int8)
        x = (x + offset) % alphabet.size
    traces = []
    while len(traces) < k:
        y = np.asarray(transmit(x, params, rng, alphabet=alphabet))
        if len(y) <= 7:
            traces.append(y)
    tr = build_trellis(enc, [traces], params, offsets=[offset])
    return tr, enc, traces, params, offset


def test_structure_matches_independent_constructor():
    # every cell of both sweeps against a naive rule-by-rule enumerator with
    # its own forward-backward pass
    for seed in range(12):
        case = _tiny(seed, scrambled=seed % 3 == 2)
        assert_cells_match(*case, label=seed)
    for seed in range(6):
        case = _tiny(100 + seed, k=2, scrambled=seed % 2 == 1)
        assert_cells_match(*case, label=seed)
    # multi-state encoders gather and scatter boundary rows by encoder state
    for case in (_tiny(0, alphabet=DNA, encoder=cc_encoder(1, 2, DNA), k=2),
                 _tiny(1, alphabet=DNA, encoder=cc_encoder(1, 3, DNA), scrambled=True),
                 _tiny(0, alphabet=DNA, encoder=cc_encoder(2, 2, DNA)),
                 _tiny(0, alphabet=DNA, encoder=cc_encoder(2, 3, DNA)),
                 _tiny(2, alphabet=DNA, encoder=cc_encoder(2, 2, DNA), k=2, scrambled=True)):
        assert_cells_match(*case, label=case[1])


def test_structure_constructor_with_mr_encoder():
    rng = np.random.default_rng(42)
    params = IDSParams(0.15, 0.1, 0.1, 0.65)
    enc = mr_encoder(4, 1, BINARY)
    for offset in (None, rng.integers(2, size=enc.N).astype(np.int8)):
        msg = rng.integers(2, size=enc.L).astype(np.int8)
        x = enc.encode(msg)
        if offset is not None:
            x = (x + offset) % 2
        y = np.asarray(transmit(x, params, rng, alphabet=BINARY))
        tr = build_trellis(enc, [[y]], params, offsets=[offset])
        assert_cells_match(tr, enc, [y], params, offset, label=offset)


def test_path_weight_and_total_probability():
    # the summed weight of all origin->absorbing paths equals Pr(Y = y)
    rng = np.random.default_rng(8)
    params = IDSParams(0.2, 0.15, 0.1, 0.55)
    enc = identity_encoder(2, BINARY)
    x = np.array([0, 1], dtype=np.int8)
    y = np.asarray(transmit(x, params, rng, alphabet=BINARY))
    tr = build_trellis(enc, [[y]], params)
    truth = 0.0
    for m0 in range(2):
        for m1 in range(2):
            xx = np.array([m0, m1], dtype=np.int8)
            truth += 0.25 * trace_likelihood(xx, y, params.p_ins, params.p_del,
                                             params.p_sub, params.p_cor, 2)
    for sweep in (tr.forward(), tr.backward()):
        assert sweep.loglik[0] == pytest.approx(math.log(truth), abs=1e-12)


def test_pruning_monotone_and_exact_at_max_drift():
    rng = np.random.default_rng(15)
    params = IDSParams(0.08, 0.06, 0.05, 0.81)
    enc = identity_encoder(14, DNA)
    x = rng.integers(4, size=14).astype(np.int8)
    y = np.asarray(transmit(x, params, rng, DNA))
    logliks = []
    for delta in (1, 2, 4, 8, max(len(y), 14)):
        tr = build_trellis(enc, [[y]], params, delta=delta)
        logliks.append(tr.forward(keep=()).loglik[0])
    exact = build_trellis(enc, [[y]], params, delta=None).forward(keep=()).loglik[0]
    assert all(a <= b + 1e-12 for a, b in zip(logliks, logliks[1:]))
    assert logliks[-1] == pytest.approx(exact, abs=1e-9)


def test_infeasible_under_tight_delta():
    params = IDSParams(0.4, 0.05, 0.05, 0.5)
    enc = identity_encoder(4, BINARY)
    # a trace far longer than the drift bound allows
    y = np.zeros(12, dtype=np.int8)
    tr = build_trellis(enc, [[y]], params, delta=1)
    # the mass vanishes in the ids layer 2, which is not rescaled; the sweep
    # records the next rescaled layer, the post layer 3, and stops there, no
    # row being left; the posterior reader raises that record's error
    f = tr.forward()
    assert [lay.kind for lay in tr.layers[1:4]] == ["input", "ids", "post"]
    assert f.layers[1].any() and not f.layers[2].any()
    assert f.died.tolist() == [3] and f.loglik.tolist() == [-math.inf]
    assert not f.layers[3].any() and f.layers[4] is None
    # beside a live row the sweep steps on to the last layer: every later
    # block of the dead row is zero, its scale flat and its record still 3
    both = build_trellis(enc, [[y], [y[:4]]], params, delta=1).forward()
    assert both.died.tolist() == [3, -1] and both.loglik[1] > -math.inf
    assert not any(a[0].any() for a in both.layers[3:]) and both.layers[-1][1].any()
    assert (both.scales[3:, 0] == both.scales[2, 0]).all()
    msg = "forward mass vanished at layer 3 (post); no path explains the traces (delta=1)"
    assert tr.vanished(False, 3) == msg
    [err] = compute_posteriors(tr)
    assert isinstance(err, InfeasibleTrellisError) and str(err) == msg


def test_drift_bound_below_one_refused():
    # a bound of 0 leaves no path, even for one noiseless trace equal to its
    # strand: it is refused by its flag's name; a bound of 1 decodes that trace
    enc = identity_encoder(6, DNA)
    y = DNA.encode("ACGTAC")
    params = IDSParams(0.01, 0.01, 0.01, 0.97)
    for delta in (0, -1):
        with pytest.raises(ConfigError, match=f"^--delta must be at least 1, got {delta}"):
            build_trellis(enc, [[y]], params, delta=delta)
    [post] = compute_posteriors(build_trellis(enc, [[y]], params, delta=1))
    assert np.array_equal(post.hard, y)


def test_steps_rescale_only_the_read_and_cycle_end_layers():
    # both sweeps divide out a maximum exactly at the boundary, input and
    # last post layers, a post layer being last when a boundary follows it:
    # not at ids layers (one per axis) nor at the inner post layers of the
    # marker-repeat and convolutional codes' 2-symbol cycles; a layer that
    # is not rescaled keeps its predecessor's scale
    rng = np.random.default_rng(5)
    params = IDSParams(0.05, 0.05, 0.05, 0.85)
    for enc, k in ((identity_encoder(6, DNA), 1), (mr_encoder(12, 2, DNA), 1),
                   (cc_encoder(2, 5, DNA), 1), (identity_encoder(4, DNA), 3)):
        x = enc.encode(rng.integers(4, size=enc.L))
        traces = [np.asarray(transmit(x, params, rng, DNA)) for _ in range(k)]
        tr = build_trellis(enc, [traces], params, delta=3)
        kinds = [lay.kind for lay in tr.layers] + ["boundary"]
        want = {t for t, kind in enumerate(kinds[:-1]) if kind in ("boundary", "input")
                or kind == "post" and kinds[t + 1] == "boundary"}
        assert len(want) == 1 + 3 * enc.L
        assert sum(kind == "post" for kind in kinds) == enc.N
        for back in (False, True):
            got = {t for t, _, s, _ in tr.fronts(back) if s is not None}
            assert got == want - {len(tr.layers) - 1 if back else 0}
            scales = (tr.backward() if back else tr.forward()).scales[:, 0]
            for t in set(range(len(tr.layers))) - want:
                assert scales[t] == scales[t + 1 if back else t - 1]


def test_keep_set_stores_only_its_layers():
    tr, *_ = _tiny(4, n=3, k=2)
    n = len(tr.layers)
    keep = {0, tr.post_read_layer[1], n - 1}
    for sweep in (tr.forward, tr.backward):
        full = sweep()
        # the kept blocks are slots of one buffer
        layers = sweep(keep=keep).layers
        assert len({id(layers[t].base) for t in keep}) == 1
        for ks in (keep, ()):
            part = sweep(keep=ks)
            assert np.array_equal(part.scales, full.scales)
            assert np.array_equal(part.loglik, full.loglik)
            for t in range(n):
                if t in ks:
                    assert np.array_equal(part.layers[t], full.layers[t])
                else:
                    assert part.layers[t] is None


def test_origin_and_absorbing_forms():
    # the forward sweep starts from one origin cell, the initial encoder
    # state with nothing explained; the backward sweep from every encoder
    # state of the last layer with every trace explained
    tr, enc, traces, *_ = _tiny(33, k=2, encoder=cc_encoder(1, 2, DNA), alphabet=DNA)
    first, last = tr.layers[0], tr.layers[-1]
    assert first.kind == last.kind == "boundary"
    assert first.shape[:2] == (1, 1) and not tr.lo[first.npos].any()
    # blocks are (rows, states, messages, pointers): the joint trellis is one
    # row, and a boundary's message axis has size 1
    origin = tr.initial_forward_block()
    assert origin.shape[0] == 1 and origin.sum() == 1.0 and origin[(0,) * 5] == 1.0
    absorbing = tr.initial_backward_block()
    idx = np.argwhere(absorbing)
    assert last.shape[1] == 1
    assert absorbing.sum() == len(idx) == last.shape[0] > 1
    for row in idx:
        ptr = [lo + j for lo, j in zip(tr.lo[last.npos, 0].tolist(), row[3:])]
        assert ptr == [len(y) for y in traces]


def test_cell_count_scaling_with_traces():
    # a second trace multiplies each layer's cells by its window width
    # (delta + 1 to 2 * delta + 1) and adds an ids layer per codeword
    # symbol to the three with that window (two ids, one post)
    rng = np.random.default_rng(4)
    params = IDSParams(0.05, 0.05, 0.05, 0.85)
    enc = identity_encoder(20, BINARY)
    x = rng.integers(2, size=20).astype(np.int8)
    delta = 4
    counts = {}
    for k in (1, 2):
        traces = [np.asarray(transmit(x, params, (4, i), alphabet=BINARY))
                  for i in range(k)]
        tr = build_trellis(enc, [traces], params, delta=delta)
        counts[k] = sum(math.prod(lay.shape) for lay in tr.layers)
    assert delta + 1 <= counts[2] / counts[1] <= 1.5 * (2 * delta + 1)


def test_steps_do_not_depend_on_memory_order():
    # a front may come in any memory order (the clear's backward gather
    # returns one that is not C-ordered): C- and F-ordered copies of each
    # front step into equal blocks, maxima and death masks, in both
    # directions through every layer. The joint chunk's rows differ in
    # length, so the narrower row's cells past its window are masked
    rng = np.random.default_rng(11)
    params = IDSParams(0.1, 0.1, 0.05, 0.75)
    joint = identity_encoder(5, DNA)
    x = joint.encode(rng.integers(4, size=joint.L))
    rows = [[np.asarray(transmit(x, params, rng, DNA)) for _ in range(3)] for _ in range(2)]
    rows[1][0] = rows[1][0][:3]
    lattice = mr_encoder(12, 2, DNA)
    x = lattice.encode(rng.integers(4, size=lattice.L))
    cc = cc_encoder(1, 4, DNA)
    y = cc.encode(rng.integers(4, size=cc.L))
    cases = ((joint, rows, None),
             (lattice, [[np.asarray(transmit(x, params, rng, DNA))] for _ in range(4)], 3),
             (cc, [[np.asarray(transmit(y, params, rng, DNA)) for _ in range(2)]], 3))
    for enc, trace_rows, delta in cases:
        tr = build_trellis(enc, trace_rows, params, delta=delta)
        if enc is joint:
            assert any(mask is not None for mask in tr._masks)
        n = len(tr.layers)
        for back, order in ((False, range(1, n)), (True, range(n - 2, -1, -1))):
            step = tr.step_backward if back else tr.step_forward
            arr = np.expand_dims(
                tr.initial_backward_block() if back else tr.initial_forward_block(), 1)
            for t in order:
                c_out = step(t, np.ascontiguousarray(arr))
                f_out = step(t, np.asfortranarray(arr))
                for c, f in zip(c_out, f_out):
                    assert (c is None) == (f is None) and (c is None or np.array_equal(c, f))
                arr = c_out[0]
            assert arr.any()
