import itertools
import logging

import numpy as np
import pytest

from idsrecon import (DNA, BetaParams, Cluster, ConfigError, DatasetError,
                      IDSParams, air_random_k, bcjr_once_rate, cc_encoder, hamming_rate,
                      identity_encoder, load_dataset, mr_encoder,
                      run_algorithm, run_trellis_bma, scramble, scrambled_eval,
                      simulate_clusters, split_dataset, sweep_betas,
                      symbolwise_cross_entropy, transmit, write_dataset)
from idsrecon import bmala, evaluation, trellis_bma
from idsrecon.bcjr import PosteriorTable
from idsrecon.evaluation import write_plot_csv, write_report_csv

PAPER = IDSParams.from_error_rates(0.017, 0.02, 0.022)


def test_hamming_rate():
    assert hamming_rate(DNA.encode("ACGT"), DNA.encode("ACGT")) == 0.0
    assert hamming_rate(DNA.encode("ACGT"), DNA.encode("TGCA")) == 1.0
    assert hamming_rate(DNA.encode("ACGT"), DNA.encode("ACGA")) == 0.25
    with pytest.raises(ConfigError):
        hamming_rate(DNA.encode("ACG"), DNA.encode("ACGT"))


def test_cross_entropy_values():
    truth = DNA.encode("ACGT")
    delta = np.eye(4)[truth]
    assert symbolwise_cross_entropy(delta, truth) == pytest.approx(0.0, abs=1e-9)
    uniform = np.full((4, 4), 0.25)
    assert symbolwise_cross_entropy(uniform, truth) == pytest.approx(2.0)
    half = np.full((4, 4), 1 / 6)
    half[np.arange(4), truth] = 0.5
    assert symbolwise_cross_entropy(half, truth) == pytest.approx(1.0)


def test_cross_entropy_clipping_floor():
    truth = np.array([0], dtype=np.int8)
    wrong = np.array([[0.0, 1.0, 0.0, 0.0]])
    h = symbolwise_cross_entropy(wrong, truth)
    assert h == pytest.approx(-np.log2(1e-12))


def test_bcjr_once_rate():
    assert bcjr_once_rate(0.0, 1.0) == 2.0
    assert bcjr_once_rate(2.0, 1.0) == 0.0
    assert bcjr_once_rate(2.5, 0.5) == 0.0  # floored
    assert bcjr_once_rate(0.5, 104 / 110) == pytest.approx(1.5 * 104 / 110)
    with pytest.raises(ConfigError):
        bcjr_once_rate(-0.1, 1.0)


def test_air_random_k():
    rates = {4: 1.2554, 10: 1.5279}
    assert air_random_k(rates, {4: 1.0}) == pytest.approx(1.2554)
    assert air_random_k({1: 1.0, 2: 2.0}, {1: 0.5, 2: 0.5}) == pytest.approx(1.5)
    assert air_random_k(rates, {4: 0.5, 10: 0.5}) == pytest.approx(1.39165)
    with pytest.raises(ConfigError):
        air_random_k(rates, {4: 0.5, 10: 0.4})
    with pytest.raises(ConfigError):
        air_random_k(rates, {4: 0.5, 6: 0.5})


def test_dataset_round_trip(tmp_path):
    clusters = simulate_clusters(3, 4, 20, PAPER, seed=5)
    write_dataset(clusters, tmp_path / "c.txt", tmp_path / "t.txt")
    loaded = load_dataset(tmp_path / "c.txt", tmp_path / "t.txt")
    assert len(loaded) == 3
    for a, b in zip(clusters, loaded):
        assert np.array_equal(a.center, b.center)
        assert len(a.traces) == len(b.traces)
        for x, y in zip(a.traces, b.traces):
            assert np.array_equal(x, y)


def test_dataset_two_groups(tmp_path):
    (tmp_path / "c.txt").write_text("ACGT\nTTTT\n")
    (tmp_path / "t.txt").write_text("====\nACG\nACGT\n====\nTTT\n")
    clusters = load_dataset(tmp_path / "c.txt", tmp_path / "t.txt")
    assert len(clusters) == 2
    assert len(clusters[0].traces) == 2
    assert len(clusters[1].traces) == 1


def test_dataset_empty_clusters_file_warns(tmp_path):
    (tmp_path / "c.txt").write_text("ACGT\n")
    (tmp_path / "t.txt").write_text("")
    with pytest.warns(UserWarning):
        clusters = load_dataset(tmp_path / "c.txt", tmp_path / "t.txt")
    assert clusters == []


def test_dataset_count_mismatch(tmp_path):
    (tmp_path / "c.txt").write_text("ACGT\nTTTT\n")
    (tmp_path / "t.txt").write_text("====\nACG\n")
    with pytest.raises(DatasetError):
        load_dataset(tmp_path / "c.txt", tmp_path / "t.txt")


def test_dataset_bad_symbol_reports_line(tmp_path):
    (tmp_path / "c.txt").write_text("ACGT\n")
    (tmp_path / "t.txt").write_text("====\nACXT\n")
    with pytest.raises(DatasetError, match="t.txt:2"):
        load_dataset(tmp_path / "c.txt", tmp_path / "t.txt")


def test_split_dataset():
    clusters = [Cluster(np.zeros(4, dtype=np.int8), []) for _ in range(10)]
    tr, va, te = split_dataset(clusters, (1, 6), (7, 8), (9, 10))
    assert (len(tr), len(va), len(te)) == (6, 2, 2)
    with pytest.raises(ConfigError):
        split_dataset(clusters, (1, 6), (5, 8), (9, 10))
    with pytest.raises(ConfigError):
        split_dataset(clusters, (1, 12), (13, 14), (15, 16))
    # canonical split sizes on a full-size dataset
    big = clusters * 1000
    tr, va, te = split_dataset(big)
    assert (len(tr), len(va), len(te)) == (2000, 500, 7500)


def test_run_algorithm_dispatch():
    enc = identity_encoder(15, DNA)
    rng = np.random.default_rng(2)
    x = rng.integers(4, size=15).astype(np.int8)
    traces = [np.asarray(transmit(x, PAPER, rng, DNA)) for _ in range(3)]
    for algo in ("bcjr-multitrace", "trellis-bma", "multiply-posteriors", "bmala"):
        [[(post, hard)]] = run_algorithm(algo, enc, [traces], PAPER, delta=8,
                                         betas=[BetaParams(1, 0.5, 0, 1)])
        assert len(hard) == 15
        if post is not None:
            assert post.probs.shape == (15, 4)
    [[(post, hard)]] = run_algorithm("bmala-map", enc, [traces], PAPER, delta=8)
    assert post.probs.shape == (15, 4)
    with pytest.raises(ConfigError, match="default_betas"):
        run_algorithm("trellis-bma", enc, [traces], PAPER, delta=8)
    with pytest.raises(ConfigError):
        run_algorithm("nope", enc, [traces], PAPER)
    with pytest.raises(ConfigError):
        run_algorithm("bmala", mr_encoder(15, 2, DNA), [traces], PAPER)


def test_scrambled_eval_reproducible_and_consistent():
    clusters = simulate_clusters(40, 6, 30, PAPER, seed=9)
    enc = identity_encoder(30, DNA)
    a = scrambled_eval(clusters, enc, "trellis-bma", 3, "hamming", 11, PAPER,
                       delta=8, betas=BetaParams(1, 0.5, 0, 1))
    b = scrambled_eval(clusters, enc, "trellis-bma", 3, "hamming", 11, PAPER,
                       delta=8, betas=BetaParams(1, 0.5, 0, 1))
    assert a.metrics == b.metrics
    assert a.n_samples == 40
    # entropy and rate come along for posterior algorithms and stay coupled
    h = a.metrics["entropy"][0]
    assert a.metrics["air"][0] == pytest.approx(max(0.0, (2 - h) * enc.rate))
    c = scrambled_eval(clusters, enc, "trellis-bma", 3, "hamming", 12, PAPER,
                       delta=8, betas=BetaParams(1, 0.5, 0, 1))
    assert c.metrics["hamming"] != a.metrics["hamming"]


def test_scrambled_eval_coded_descrambles_correctly():
    # noiseless channel: decoding through the scramble offset must recover
    # the drawn message exactly for every cluster
    noiseless = IDSParams(0, 0, 0, 1)
    rng = np.random.default_rng(14)
    enc = mr_encoder(24, 3, DNA)
    clusters = []
    for _ in range(12):
        center = rng.integers(4, size=24).astype(np.int8)
        clusters.append(Cluster(center, [center.copy() for _ in range(3)]))
    rep = scrambled_eval(clusters, enc, "trellis-bma", 2, "hamming", 3,
                         noiseless, betas=BetaParams(1, 0, 0, 1))
    assert rep.metrics["hamming"][0] == 0.0
    assert rep.metrics["air"][0] == pytest.approx(2.0 * enc.rate)


def test_scrambled_eval_looks_up_betas_for_trellis_bma_only():
    # a multi-state code has no tuned betas: only the algorithm that reads
    # them asks for them
    enc = cc_encoder(1, 12, DNA)
    clusters = simulate_clusters(3, 3, enc.N, PAPER, seed=4)
    rep = scrambled_eval(clusters, enc, "bmala-map", 2, "hamming", 1, PAPER, delta=6)
    assert rep.n_samples == 3
    with pytest.raises(ConfigError, match="--beta-b/e/i/o"):
        scrambled_eval(clusters, enc, "trellis-bma", 2, "hamming", 1, PAPER, delta=6)
    rep = scrambled_eval(clusters, enc, "trellis-bma", 2, "hamming", 1, PAPER, delta=6,
                         betas=BetaParams(1, 0.1, 0, 0.5))
    assert rep.n_samples == 3


def test_scrambled_eval_skips_small_clusters():
    clusters = simulate_clusters(10, 3, 20, PAPER, seed=3)
    clusters += simulate_clusters(5, 1, 20, PAPER, seed=4)
    enc = identity_encoder(20, DNA)
    rep = scrambled_eval(clusters, enc, "multiply-posteriors", 2, "hamming", 1,
                         PAPER, delta=8)
    assert rep.skipped == 5
    assert rep.n_samples == 10
    with pytest.raises(ConfigError):
        scrambled_eval(clusters, enc, "multiply-posteriors", 7, "hamming", 1,
                       PAPER, delta=8)
    with pytest.raises(ConfigError, match="max_clusters"):
        scrambled_eval(clusters, enc, "multiply-posteriors", 2, "hamming", 1,
                       PAPER, delta=8, max_clusters=0)


def test_scrambled_eval_jobs_equivalence():
    clusters = simulate_clusters(12, 4, 20, PAPER, seed=6)
    enc = identity_encoder(20, DNA)
    a = scrambled_eval(clusters, enc, "bmala", 3, "hamming", 2, PAPER)
    b = scrambled_eval(clusters, enc, "bmala", 3, "hamming", 2, PAPER, jobs=2)
    assert a.metrics == b.metrics
    # the posterior decoders, scored on entropy
    mr_clusters = simulate_clusters(12, 4, 24, PAPER, seed=6)
    for algorithm, cls, code, k, kind in (
            ("trellis-bma", mr_clusters, mr_encoder(24, 3, DNA), 3, "sim"),
            ("bcjr-multitrace", clusters, enc, 2, "real"),
            ("bmala-map", clusters, enc, 3, "real")):
        a = scrambled_eval(cls, code, algorithm, k, "entropy", 2, PAPER, delta=8,
                           data_kind=kind)
        b = scrambled_eval(cls, code, algorithm, k, "entropy", 2, PAPER, delta=8,
                           data_kind=kind, jobs=2)
        assert a.n_samples == 12 and a.metrics == b.metrics, algorithm


def test_sweep_single_point_and_best():
    clusters = simulate_clusters(15, 4, 20, PAPER, seed=8)
    enc = identity_encoder(20, DNA)
    grid = {"beta_b": (1.0,), "beta_e": (0.1,), "beta_i": (0.0,), "beta_o": (0.5,)}
    best, table = sweep_betas(clusters, enc, 2, "hamming", 5, PAPER, delta=8,
                              grid=grid)
    assert best == BetaParams(1.0, 0.1, 0.0, 0.5)
    assert len(table) == 1
    grid["beta_o"] = (0.5, 1.0)
    best, table = sweep_betas(clusters, enc, 2, "hamming", 5, PAPER, delta=8,
                              grid=grid)
    assert len(table) == 2
    assert best in [bp for bp, _ in table]
    scores = dict(table)
    assert scores[best] == min(scores.values())


def test_sweep_winner_does_not_depend_on_grid_order():
    # beta_o reshapes posteriors but not their argmax, so every beta_o ties
    # on Hamming; the tie goes to the smallest point in either grid order
    clusters = simulate_clusters(6, 3, 20, PAPER, seed=8)
    enc = identity_encoder(20, DNA)
    grid = {"beta_b": (1.0, 0.0), "beta_e": (0.1,), "beta_i": (0.0,), "beta_o": (1.0, 0.5)}
    best, table = sweep_betas(clusters, enc, 2, "hamming", 5, PAPER, delta=8, grid=grid)
    scores = dict(table)
    assert sum(s == scores[best] for s in scores.values()) >= 2
    assert best == min((bp for bp in scores if scores[bp] == scores[best]),
                       key=BetaParams.as_tuple)
    for metric in ("hamming", "air"):
        got = {sweep_betas(clusters, enc, 2, metric, 5, PAPER, delta=8,
                           grid={n: v[::d] for n, v in grid.items()})[0] for d in (1, -1)}
        assert len(got) == 1, (metric, got)


def test_sweep_refuses_grid_point_where_no_cluster_decoded():
    enc = identity_encoder(20, DNA)
    grid = {"beta_b": (1.0,), "beta_e": (0.1,), "beta_i": (0.0,), "beta_o": (0.5,)}
    clusters = simulate_clusters(4, 3, 20, PAPER, seed=8)
    with pytest.raises(ConfigError, match="4 traces"):
        sweep_betas(clusters, enc, 4, "hamming", 5, PAPER, delta=8, grid=grid)
    # without insertions no trace longer than its strand can be explained
    rng = np.random.default_rng(3)
    clusters = [Cluster(rng.integers(4, size=20).astype(np.int8),
                        [rng.integers(4, size=23).astype(np.int8) for _ in range(3)])
                for _ in range(4)]
    with pytest.raises(ConfigError, match=r"grid point .*\(1\.0, 0\.1, 0\.0, 0\.5\)"):
        sweep_betas(clusters, enc, 2, "hamming", 5, IDSParams(0.0, 0.05, 0.05, 0.9),
                    delta=8, grid=grid)


def test_sweep_matches_scoring_each_point_alone():
    # without insertions a trace longer than its strand is unexplainable
    params = IDSParams(0.0, 0.05, 0.05, 0.9)
    enc = mr_encoder(24, 3, DNA)
    rng = np.random.default_rng(0)
    clusters = simulate_clusters(6, 4, 24, params, seed=1)
    # a cluster infeasible at init, one with too few traces, and two
    # noiseless ones: beta_o = 300 underflows every posterior but theirs,
    # so there the exchange fails on the other clusters only
    clusters.insert(2, Cluster(rng.integers(4, size=24),
                               [rng.integers(4, size=27) for _ in range(4)]))
    clusters.insert(4, Cluster(rng.integers(4, size=24),
                               [rng.integers(4, size=24) for _ in range(2)]))
    for _ in range(2):
        center = rng.integers(4, size=24)
        clusters.append(Cluster(center, [center] * 4))
    grid = {"beta_b": (0.0, 1.0), "beta_e": (0.1,), "beta_i": (0.0, 0.5),
            "beta_o": (0.5, 300.0)}
    kw = dict(delta=8, grid=grid, max_clusters=8)
    alone = {}
    for bp in (BetaParams(*p) for p in itertools.product(*grid.values())):
        alone[bp] = scrambled_eval(clusters, enc, "trellis-bma", 3, "hamming", 5, params,
                                   delta=8, betas=bp, max_clusters=8)
    # 8 clusters scored, 9 read: too few traces and infeasible at init skip
    # 2 everywhere; at beta_o = 300 only the one noiseless cluster read decodes
    assert {rep.skipped for rep in alone.values()} == {2, 8}
    for metric in ("hamming", "entropy", "air"):
        _, table = sweep_betas(clusters, enc, 3, metric, 5, params, **kw)
        assert [bp for bp, _ in table] == list(alone)
        assert all(score == alone[bp].value(metric) for bp, score in table), metric
    _, table2 = sweep_betas(clusters, enc, 3, "air", 5, params, jobs=2, **kw)
    assert table2 == table


def test_reports_do_not_depend_on_chunk_size(monkeypatch, caplog):
    # the usable clusters are cut into chunks in cluster order; chunks of one
    # (CHUNK_ROWS = 1), and BMALA-MAP lattices of one consensus each
    # (LATTICE_BYTES = 1), give the same tables, reports and warnings. Without
    # insertions a trace longer than its strand is unexplainable: cluster 2
    # is infeasible at init, and beta_o = 300 underflows every noisy cluster.
    # BMALA and BMALA-MAP step a chunk's sweeps in lockstep; decoded without
    # substitutions too, a consensus must be a scrambled codeword exactly,
    # so cluster 2's and four noisy clusters' are infeasible, the noiseless
    # one's is not
    params = IDSParams(0.0, 0.05, 0.05, 0.9)
    exact = IDSParams(0.0, 0.05, 0.0, 0.95)
    cc = cc_encoder(2, 12, DNA)
    enc = mr_encoder(24, 3, DNA)
    rng = np.random.default_rng(0)
    clusters = simulate_clusters(6, 4, 24, params, seed=1)
    clusters.insert(2, Cluster(rng.integers(4, size=24),
                               [rng.integers(4, size=27) for _ in range(4)]))
    center = rng.integers(4, size=24)
    clusters.append(Cluster(center, [center] * 4))
    grid = {"beta_b": (1.0,), "beta_e": (0.1,), "beta_i": (0.0,), "beta_o": (0.5, 300.0)}
    assert len(evaluation.chunked(clusters, "trellis-bma", 3, 2)) == 2
    assert len(evaluation.chunked(clusters, "bmala-map", 3, 1)) == 1
    runs = []
    for rows, cap in ((evaluation.CHUNK_ROWS, bmala.LATTICE_BYTES), (1, bmala.LATTICE_BYTES),
                      (evaluation.CHUNK_ROWS, 1)):
        monkeypatch.setattr(evaluation, "CHUNK_ROWS", rows)
        monkeypatch.setattr(bmala, "LATTICE_BYTES", cap)
        caplog.clear()
        with caplog.at_level(logging.WARNING):
            _, table = sweep_betas(clusters, enc, 3, "entropy", 5, params, delta=8, grid=grid)
            rep = scrambled_eval(clusters, enc, "trellis-bma", 3, "entropy", 5, params,
                                 delta=8, betas=BetaParams(1, 0.1, 0, 0.5))
            hard = [scrambled_eval(clusters, identity_encoder(24, DNA), "bmala", 3, "hamming",
                                   5, params),
                    scrambled_eval(clusters, cc, "bmala-map", 3, "entropy", 5, params, delta=8)]
            bmala_lines = len(caplog.records)
            hard.append(scrambled_eval(clusters, cc, "bmala-map", 3, "entropy", 5, exact,
                                       delta=2))
        lines = [r.getMessage() for r in caplog.records]
        runs.append((table, [rep] + hard, lines, lines[bmala_lines:]))
    (table, reps, lines, exact_lines) = runs[0]
    assert [(r.n_samples, r.skipped) for r in reps] == [(7, 1), (8, 0), (8, 0), (3, 5)]
    assert any(line.startswith("cluster 2 infeasible: every trace") for line in lines)
    assert any("infeasible at beta point 1" in line for line in lines)
    # the exact decode's errors, one per infeasible cluster, in cluster order
    assert [int(line.split()[1]) for line in exact_lines] == [1, 2, 3, 4, 6]
    assert all(line.endswith("no path explains the traces (delta=2)") for line in exact_lines)
    for table1, reps1, lines1, _ in runs[1:]:
        assert [bp for bp, _ in table] == [bp for bp, _ in table1]
        assert [v for _, v in table] == pytest.approx([v for _, v in table1], rel=1e-12)
        for rep, rep1 in zip(reps, reps1):
            assert (rep.n_samples, rep.skipped) == (rep1.n_samples, rep1.skipped)
            for name, (value, half) in rep.metrics.items():
                assert (value, half) == pytest.approx(rep1.metrics[name], rel=1e-12), name
        for prefix in ("cluster", "dropping"):
            assert ([line for line in lines if line.startswith(prefix)]
                    == [line for line in lines1 if line.startswith(prefix)])


def test_sweep_decodes_each_cluster_once_through_run_algorithm(monkeypatch):
    # the sweep and the evaluation share one chunk task: each chunk of usable
    # clusters is decoded by one run_algorithm call at the whole grid, whose
    # per-trace trellises are built and swept once; 5 clusters of 2 traces x
    # 4 points cut into chunks of 3 and 2 (CHUNK_ROWS = 24)
    calls = {"run_algorithm": 0, "init": 0}

    def counted(module, name, key):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[key] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    counted(evaluation, "run_algorithm", "run_algorithm")
    counted(trellis_bma, "init_single_trace_trellises", "init")
    clusters = simulate_clusters(5, 3, 20, PAPER, seed=8)
    clusters.insert(1, Cluster(clusters[0].center, clusters[0].traces[:1]))
    enc = identity_encoder(20, DNA)
    grid = {"beta_b": (0.0, 1.0), "beta_e": (0.1, 0.5), "beta_i": (0.0,),
            "beta_o": (0.5,)}
    _, table = sweep_betas(clusters, enc, 2, "hamming", 5, PAPER, delta=8, grid=grid)
    assert len(table) == 4
    assert calls == {"run_algorithm": 2, "init": 2}
    # a decode is always a stack of betas: none, or a bare BetaParams, is refused
    with pytest.raises(TypeError, match="betas"):
        run_trellis_bma(enc, [clusters[0].traces], PAPER, delta=8)
    with pytest.raises(ConfigError, match="sequence of them"):
        run_trellis_bma(enc, [clusters[0].traces], PAPER, BetaParams(1, 0, 0, 1), delta=8)


def test_sweep_grid_keys_checked():
    clusters = simulate_clusters(2, 3, 20, PAPER, seed=8)
    enc = identity_encoder(20, DNA)
    full = {"beta_b": (1.0,), "beta_e": (0.1,), "beta_i": (0.0,), "beta_o": (0.5,)}
    for grid, message in (({"beta_b": (1.0,)}, r"missing \['beta_e', 'beta_i', 'beta_o'\]"),
                          ({**full, "beta_x": (1.0,)}, r"unknown \['beta_x'\]"),
                          ({**full, "beta_i": ()}, "empty sweep grid")):
        with pytest.raises(ConfigError, match=message):
            sweep_betas(clusters, enc, 2, "hamming", 5, PAPER, delta=8, grid=grid)


def test_jobs_below_one_rejected():
    clusters = simulate_clusters(2, 3, 20, PAPER, seed=8)
    enc = identity_encoder(20, DNA)
    grid = {"beta_b": (1.0,), "beta_e": (0.1,), "beta_i": (0.0,), "beta_o": (0.5,)}
    for jobs in (0, -1):
        with pytest.raises(ConfigError, match=f"jobs must be at least 1, got {jobs}"):
            scrambled_eval(clusters, enc, "bmala", 2, "hamming", 1, PAPER, jobs=jobs)
        with pytest.raises(ConfigError, match=f"jobs must be at least 1, got {jobs}"):
            sweep_betas(clusters, enc, 2, "hamming", 5, PAPER, delta=8, grid=grid,
                        jobs=jobs)


def test_csv_output(tmp_path):
    clusters = simulate_clusters(8, 4, 20, PAPER, seed=2)
    enc = identity_encoder(20, DNA)
    reps = [scrambled_eval(clusters, enc, "multiply-posteriors", k, "hamming",
                           1, PAPER, delta=8) for k in (1, 2)]
    out = tmp_path / "report.csv"
    write_report_csv(reps, out)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "algorithm,code,K,metric,value,ci,half_width,n_samples,skipped"
    assert len(lines) == 1 + 2 * 3  # hamming, entropy, air per K
    plot = tmp_path / "plot.csv"
    write_plot_csv(reps, "hamming", plot)
    rows = plot.read_text().strip().splitlines()
    assert rows[0] == "K,hamming"
    assert [r.split(",")[0] for r in rows[1:]] == ["1", "2"]
