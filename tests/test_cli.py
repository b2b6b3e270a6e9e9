import json
import logging
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from idsrecon import (DNA, BetaParams, IDSParams, cli, default_betas, evaluation,
                      load_dataset, parse_encoder_spec, write_dataset)
from idsrecon.cli import main


def _simulate(tmp_path, n=20, traces=6, length=24, seed=7):
    out = tmp_path / "data"
    rc = main(["simulate", "-o", str(out), "--num-clusters", str(n),
               "--traces-per-cluster", str(traces), "--length", str(length),
               "--seed", str(seed)])
    assert rc == 0
    return out


def test_simulate_writes_files_and_is_reproducible(tmp_path):
    out1 = _simulate(tmp_path / "a")
    out2 = _simulate(tmp_path / "b")
    c1 = (out1 / "centers.txt").read_bytes()
    c2 = (out2 / "centers.txt").read_bytes()
    t1 = (out1 / "clusters.txt").read_bytes()
    t2 = (out2 / "clusters.txt").read_bytes()
    assert c1 == c2 and t1 == t2
    assert len(c1.splitlines()) == 20
    assert (out1 / "effective_config.txt").exists()


def test_simulate_seed_changes_output(tmp_path):
    out1 = _simulate(tmp_path / "a", seed=7)
    out2 = _simulate(tmp_path / "b", seed=8)
    assert (out1 / "centers.txt").read_bytes() != (out2 / "centers.txt").read_bytes()


def test_estimate_channel(tmp_path, capsys):
    out = _simulate(tmp_path, n=60, traces=4, length=60)
    rc = main(["estimate-channel", "--centers", str(out / "centers.txt"),
               "--clusters", str(out / "clusters.txt"),
               "--train-range", "1-60"])
    assert rc == 0
    text = capsys.readouterr().out
    est = {}
    for line in text.splitlines():
        parts = line.split()
        if len(parts) == 2 and parts[0].startswith("p_"):
            est[parts[0]] = float(parts[1])
    assert abs(est["p_ins"] - 0.017) < 0.02
    assert abs(est["p_del"] - 0.02) < 0.02
    assert abs(est["p_sub"] - 0.022) < 0.02


def test_estimate_channel_empty_range_is_config_error(tmp_path):
    out = _simulate(tmp_path)
    rc = main(["estimate-channel", "--centers", str(out / "centers.txt"),
               "--clusters", str(out / "clusters.txt"),
               "--train-range", "30-40"])
    assert rc == 2


def test_reconstruct_noiseless_recovers_centers(tmp_path):
    out = tmp_path / "data"
    main(["simulate", "-o", str(out), "--num-clusters", "5",
          "--traces-per-cluster", "3", "--length", "18", "--seed", "1",
          "--p-ins", "0", "--p-del", "0", "--p-sub", "0"])
    res = tmp_path / "res"
    rc = main(["reconstruct", "--centers", str(out / "centers.txt"),
               "--clusters", str(out / "clusters.txt"), "--code", "identity:18",
               "--algo", "multiply-posteriors", "--k", "2", "--delta", "6",
               "-o", str(res), "--dump-posteriors"])
    assert rc == 0
    ests = (res / "estimates.txt").read_text().strip().splitlines()
    centers = (out / "centers.txt").read_text().strip().splitlines()
    assert ests == centers
    assert (res / "posteriors.csv").read_text().startswith("cluster,position,")


def test_reconstruct_refuses_large_multitrace(tmp_path, capsys):
    # the joint trellis at identity:24, K=5, delta=12 would hold about
    # 1.2 GiB of boundary blocks and sweep fronts: refused before any sweep,
    # from either command
    out = _simulate(tmp_path)
    rc = main(["reconstruct", "--centers", str(out / "centers.txt"),
               "--clusters", str(out / "clusters.txt"), "--code", "identity:24",
               "--algo", "bcjr-multitrace", "--k", "5",
               "-o", str(tmp_path / "r")])
    assert rc == 2
    assert "fewer traces, a smaller --delta, or trellis-bma" in capsys.readouterr().err
    rc = main(["evaluate", "--centers", str(out / "centers.txt"),
               "--clusters", str(out / "clusters.txt"), "--code", "identity:24",
               "--algo", "bcjr-multitrace", "--k-list", "1,5", "--split", "all",
               "--seed", "0", "-o", str(tmp_path / "e")])
    assert rc == 2
    assert "fewer traces, a smaller --delta, or trellis-bma" in capsys.readouterr().err
    # the K=1 results that finished before the refusal are kept
    rows = (tmp_path / "e" / "report.csv").read_text().strip().splitlines()[1:]
    assert rows and all(row.split(",")[2] == "1" for row in rows)


@pytest.mark.parametrize("algo", ["bcjr-multitrace", "trellis-bma", "bmala-map"])
def test_reconstruct_joint_trellis_over_clusters_of_2_and_3_traces(tmp_path, monkeypatch,
                                                                   algo):
    # reconstruct decodes a cluster's first K traces, fewer where it has
    # fewer: every chunk holds one trace count, so the clusters are stably
    # sorted by it before `chunked` cuts them, and each cluster's estimate
    # and posteriors, written in cluster order, are its own decode's
    out = _simulate(tmp_path, n=8, traces=3, length=16)
    clusters = load_dataset(out / "centers.txt", out / "clusters.txt")
    for c in (2, 5):
        clusters[c].traces = clusters[c].traces[:2]
    write_dataset(clusters, out / "centers.txt", out / "clusters.txt")
    enc = parse_encoder_spec("identity:16")
    order = [2, 5, 0, 1, 3, 4, 6, 7]
    counts = [len(clusters[c].traces) for c in order]
    cut = evaluation.chunked(order, counts, algo, enc, 6, 1)
    assert [c for chunk in cut for c in chunk] == order and len(cut) >= 2
    assert all(len({len(clusters[c].traces) for c in chunk}) == 1 for chunk in cut)
    calls = []
    decode = evaluation.run_algorithm
    monkeypatch.setattr(cli, "run_algorithm",
                        lambda *args, **kw: calls.append(len(args[2])) or decode(*args, **kw))
    res = tmp_path / "res"
    rc = main(["reconstruct", "--centers", str(out / "centers.txt"),
               "--clusters", str(out / "clusters.txt"), "--code", "identity:16",
               "--algo", algo, "--k", "3", "--delta", "6",
               "-o", str(res), "--dump-posteriors"])
    assert rc == 0
    assert calls == [len(chunk) for chunk in cut]
    ests = (res / "estimates.txt").read_text().splitlines()
    rows = (res / "posteriors.csv").read_text().splitlines()[1:]
    assert rows == sorted(rows, key=lambda row: int(row.split(",")[0]))
    params = IDSParams.from_error_rates(0.017, 0.02, 0.022)
    betas = [default_betas("real", "hamming", enc, 3)] if algo == "trellis-bma" else None
    for c, cl in enumerate(clusters):
        [[(post, hard)]] = decode(algo, enc, [cl.traces], params, delta=6, betas=betas)
        assert ests[c] == DNA.decode(hard)
        mine = [list(map(float, row.split(",")[2:])) for row in rows if row.startswith(f"{c},")]
        assert np.allclose(mine, post.probs, rtol=1e-7, atol=0)


def test_reconstruct_default_betas_are_the_tuned_ones(tmp_path):
    # without beta flags, reconstruct decodes with the tuned real-data betas,
    # as evaluate does, not with the multiply-posteriors baseline
    out = _simulate(tmp_path, n=6, traces=4, length=30)
    posteriors = {}
    for name, extra in (("default", []), ("real", ["--betas-preset", "real"]),
                        ("multiply", ["--algo", "multiply-posteriors"])):
        rc = main(["reconstruct", "--centers", str(out / "centers.txt"),
                   "--clusters", str(out / "clusters.txt"), "--code", "identity:30",
                   "--k", "2", "--dump-posteriors",
                   "-o", str(tmp_path / name)] + extra)
        assert rc == 0
        posteriors[name] = (tmp_path / name / "posteriors.csv").read_bytes()
    assert posteriors["default"] == posteriors["real"]
    assert posteriors["default"] != posteriors["multiply"]


def test_reconstruct_range_beta_flags_and_blank_estimates(tmp_path, capsys):
    # --range decodes its slice of the clusters alone; a cluster with no
    # trace, and one whose every trace is too long for a channel without
    # insertions, each get a blank estimate line; the four --beta-b/e/i/o
    # flags decode at that point, and fewer than four are refused
    out = _simulate(tmp_path, n=6, traces=3, length=20)
    clusters = load_dataset(out / "centers.txt", out / "clusters.txt")
    clusters[2].traces = []
    clusters[4].traces = [np.zeros(24, np.int8)] * 3
    write_dataset(clusters, out / "centers.txt", out / "clusters.txt")
    data = ["--centers", str(out / "centers.txt"), "--clusters", str(out / "clusters.txt"),
            "--code", "identity:20", "--k", "2", "--delta", "6", "--p-ins", "0"]
    flags = ["--beta-b", "1", "--beta-e", "0.1", "--beta-i", "0", "--beta-o", "0.5"]
    capsys.readouterr()
    assert main(["reconstruct"] + data + flags + ["-o", str(tmp_path / "all"),
                                                  "--dump-posteriors"]) == 0
    assert "reconstructed 4/6 clusters" in capsys.readouterr().out
    ests = (tmp_path / "all" / "estimates.txt").read_text().splitlines()
    assert len(ests) == 6 and ests[2] == ests[4] == ""
    rows = (tmp_path / "all" / "posteriors.csv").read_text().splitlines()[1:]
    params = IDSParams.from_error_rates(0, 0.02, 0.022)
    for c in (0, 1, 3, 5):
        [[(post, hard)]] = evaluation.run_algorithm(
            "trellis-bma", parse_encoder_spec("identity:20"), [clusters[c].traces[:2]],
            params, delta=6, betas=[BetaParams(1, 0.1, 0, 0.5)])
        assert ests[c] == DNA.decode(hard)
        mine = [list(map(float, row.split(",")[2:])) for row in rows if row.startswith(f"{c},")]
        assert np.allclose(mine, post.probs, rtol=1e-7, atol=0)
    assert main(["reconstruct"] + data + flags + ["--range", "2-5",
                                                  "-o", str(tmp_path / "part")]) == 0
    assert (tmp_path / "part" / "estimates.txt").read_text().splitlines() == ests[1:5]
    capsys.readouterr()
    assert main(["reconstruct"] + data + flags[:6] + ["-o", str(tmp_path / "three")]) == 2
    assert capsys.readouterr().err.startswith(
        "error: give all four of --beta-b/e/i/o or none")
    assert not (tmp_path / "three").exists()


def test_reconstruct_warns_why_each_estimate_is_blank(tmp_path, caplog):
    # without insertions, beta_o = 300 underflows the combined belief of
    # three clusters, a cluster of traces too long for the strand keeps none
    # and one has no trace: each blank estimate line has one warning naming
    # its cluster and why it is blank
    out = _simulate(tmp_path, n=6, traces=3, length=24, seed=1)
    clusters = load_dataset(out / "centers.txt", out / "clusters.txt")
    clusters[2].traces = [np.zeros(30, np.int8)] * 3
    clusters[5].traces = []
    write_dataset(clusters, out / "centers.txt", out / "clusters.txt")
    with caplog.at_level(logging.WARNING):
        assert main(["reconstruct", "--centers", str(out / "centers.txt"),
                     "--clusters", str(out / "clusters.txt"), "--code", "identity:24",
                     "--k", "2", "--p-ins", "0", "--delta", "3", "--beta-b", "1",
                     "--beta-e", "0.1", "--beta-i", "0", "--beta-o", "300",
                     "-o", str(tmp_path / "rec")]) == 0
    ests = (tmp_path / "rec" / "estimates.txt").read_text().splitlines()
    assert [i for i, e in enumerate(ests) if not e] == [0, 1, 2, 3, 5]
    assert [r.getMessage() for r in caplog.records if r.getMessage().startswith("cluster")] == [
        "cluster 0 infeasible: combined belief has no mass",
        "cluster 1 infeasible: combined belief has no mass",
        "cluster 2 infeasible: every trace was infeasible under the drift bound",
        "cluster 3 infeasible: combined belief has no mass",
        "cluster 5 has no traces"]


def test_dataset_error_exits_4(tmp_path, capsys):
    # a dataset that does not parse is an i/o failure, exit code 4
    out = _simulate(tmp_path, n=3, traces=2, length=12)
    (out / "centers.txt").write_text("ACGT\nACGX\nACGT\n")
    rc = main(["reconstruct", "--centers", str(out / "centers.txt"),
               "--clusters", str(out / "clusters.txt"), "--code", "identity:12",
               "-o", str(tmp_path / "r")])
    assert rc == 4
    assert capsys.readouterr().err.startswith(f"i/o error: {out / 'centers.txt'}:2: ")


@pytest.mark.parametrize("command,flag,argv", [
    ("reconstruct", "--k", ["--k", "0"]),
    ("evaluate", "--k-list", ["--k-list", "0"]),
    ("evaluate", "--k-list", ["--k-list", "2,-1"]),
    ("evaluate", "--k-list", ["--k-list", ","]),
    ("evaluate", "--max-clusters", ["--max-clusters", "0"]),
    ("sweep", "--k", ["--k", "0"]),
    ("sweep", "--max-clusters", ["--max-clusters", "0"]),
    ("evaluate", "--jobs", ["--jobs", "0"]),
    ("evaluate", "--jobs", ["--jobs", "-1"]),
    ("sweep", "--jobs", ["--jobs", "0"]),
    ("sweep", "--jobs", ["--jobs", "-1"]),
])
def test_counts_below_one_rejected(tmp_path, capsys, command, flag, argv):
    out = _simulate(tmp_path, n=6, traces=4, length=24)
    seed = [] if command == "reconstruct" else ["--seed", "0"]
    rc = main([command, "--centers", str(out / "centers.txt"),
               "--clusters", str(out / "clusters.txt"), "--code", "identity:24",
               "-o", str(tmp_path / "r")] + seed + argv)
    assert rc == 2
    assert capsys.readouterr().err.startswith(f"error: {flag} ")
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("command,flag,argv", [
    ("simulate", "--num-clusters", ["--num-clusters", "0"]),
    ("simulate", "--traces-per-cluster", ["--traces-per-cluster", "-2"]),
    ("simulate", "--length", ["--length", "0"]),
    ("estimate-channel", "--max-pairs", ["--max-pairs", "0"]),
    ("estimate-channel", "--max-pairs", ["--max-pairs", "-5"]),
])
def test_dataset_counts_below_one_rejected(tmp_path, capsys, command, flag, argv):
    if command == "simulate":
        base = ["simulate", "--seed", "0", "-o", str(tmp_path / "r")]
    else:
        out = _simulate(tmp_path, n=6, traces=4, length=24)
        capsys.readouterr()
        base = ["estimate-channel", "--centers", str(out / "centers.txt"),
                "--clusters", str(out / "clusters.txt"), "--train-range", "1-6"]
    rc = main(base + argv)
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {flag} must be at least 1")
    assert captured.out == ""
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("command,flag,argv", [
    ("evaluate", "--k-list", ["--k-list", "1,x"]),
    ("evaluate", "--k-list", ["--k-list", "2.5"]),
    ("reconstruct", "--range", ["--range", "3"]),
    ("estimate-channel", "--train-range", ["--train-range", "x"]),
    ("evaluate", "--validation-range", ["--validation-range", "2-"]),
    ("sweep", "--test-range", ["--test-range", "1-2-3"]),
    ("sweep", "--grid-beta-e", ["--train-range", "1-2", "--validation-range", "3-4",
                                "--test-range", "5-6", "--grid-beta-e", "0.1,y"]),
])
def test_malformed_numbers_rejected(tmp_path, capsys, command, flag, argv):
    out = _simulate(tmp_path, n=6, traces=4, length=24)
    base = [command, "--centers", str(out / "centers.txt"),
            "--clusters", str(out / "clusters.txt")]
    if command != "estimate-channel":
        base += ["--code", "identity:24", "-o", str(tmp_path / "r")]
    if command in ("evaluate", "sweep"):
        base += ["--seed", "0"]
    rc = main(base + argv)
    assert rc == 2
    assert capsys.readouterr().err.startswith(f"error: {flag} ")
    assert not (tmp_path / "r").exists()


def test_evaluate_writes_reports(tmp_path):
    out = _simulate(tmp_path, n=30, traces=5, length=24)
    res = tmp_path / "eval"
    rc = main(["evaluate", "--centers", str(out / "centers.txt"),
               "--clusters", str(out / "clusters.txt"), "--code", "identity:24",
               "--algo", "multiply-posteriors", "--k-list", "1,2,3",
               "--metric", "hamming", "--delta", "8", "--split", "all",
               "--seed", "3", "-o", str(res)])
    assert rc == 0
    lines = (res / "report.csv").read_text().strip().splitlines()
    assert len(lines) == 1 + 3 * 3
    plot = (res / "plot.csv").read_text().strip().splitlines()
    assert plot == ["K,hamming"] + [l for l in plot[1:]]
    assert len(plot) == 4


def test_evaluate_missing_dataset_path_fails_fast(tmp_path):
    rc = main(["evaluate", "--centers", str(tmp_path / "nope.txt"),
               "--clusters", str(tmp_path / "nope2.txt"),
               "--seed", "0", "-o", str(tmp_path / "e")])
    assert rc == 2


def test_ci_mode_requires_seed(tmp_path):
    rc = main(["simulate", "-o", str(tmp_path / "x"), "--ci",
               "--num-clusters", "2", "--traces-per-cluster", "1",
               "--length", "8"])
    assert rc == 2


def test_config_file_round_trip(tmp_path):
    out = _simulate(tmp_path)
    # rerun purely from the echoed config: byte-identical dataset
    cfg = out / "effective_config.txt"
    text = cfg.read_text().replace(str(out), str(tmp_path / "again"))
    cfg2 = tmp_path / "cfg.txt"
    cfg2.write_text(text)
    rc = main(["simulate", "--config", str(cfg2), "-o", str(tmp_path / "again")])
    assert rc == 0
    assert (out / "centers.txt").read_bytes() == \
        (tmp_path / "again" / "centers.txt").read_bytes()


def test_rerun_from_echoed_config_alone(tmp_path, capsys):
    # the echoed file names the output directory, so it needs no -o
    out = _simulate(tmp_path)
    before = {name: (out / name).read_bytes() for name in ("centers.txt", "clusters.txt")}
    for name in before:
        (out / name).unlink()
    capsys.readouterr()
    rc = main(["simulate", "--config", str(out / "effective_config.txt")])
    assert rc == 0
    assert f"to {out}" in capsys.readouterr().out
    assert {name: (out / name).read_bytes() for name in before} == before
    # without an output in the file or on the command line it is a ConfigError
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("num_clusters = 2\nseed = 5\n")
    rc = main(["simulate", "--config", str(cfg)])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: --output/-o is required")


def test_config_unknown_key_rejected(tmp_path):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("bogus_key = 7\n")
    rc = main(["simulate", "--config", str(cfg), "-o", str(tmp_path / "x"),
               "--seed", "0"])
    assert rc == 2


def test_flags_override_config(tmp_path):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("num_clusters = 4\nseed = 5\n")
    out = tmp_path / "y"
    rc = main(["simulate", "--config", str(cfg), "-o", str(out),
               "--num-clusters", "2"])
    assert rc == 0
    assert len((out / "centers.txt").read_text().strip().splitlines()) == 2


@pytest.mark.parametrize("algo", ["bmala", "bmala-map", "trellis-bma"])
def test_evaluate_jobs_identical(tmp_path, monkeypatch, algo):
    # 50 clusters at K=2, under a budget of 20 clusters' bytes: each
    # algorithm decodes them in 3 chunks, in forked workers that inherit it
    out = _simulate(tmp_path, n=50, traces=4, length=20)
    enc = parse_encoder_spec("identity:20")
    budget = evaluation.cluster_bytes(algo, enc, 12, 2, 1, 20)
    monkeypatch.setattr(evaluation, "CHUNK_BYTES", budget)
    assert len(evaluation.chunked(list(range(50)), [2] * 50, algo, enc, 12, 1)) >= 3
    reports = []
    for jobs, name in (("1", "j1"), ("2", "j2")):
        res = tmp_path / name
        rc = main(["evaluate", "--centers", str(out / "centers.txt"),
                   "--clusters", str(out / "clusters.txt"),
                   "--code", "identity:20", "--algo", algo,
                   "--k-list", "2", "--metric", "hamming", "--split", "all",
                   "--seed", "3", "--jobs", jobs, "-o", str(res)])
        assert rc == 0
        reports.append((res / "report.csv").read_text())
    assert reports[0] == reports[1]


def test_nan_channel_rate_rejected(tmp_path, capsys):
    out = _simulate(tmp_path, n=6, traces=3, length=20)
    rc = main(["evaluate", "--centers", str(out / "centers.txt"),
               "--clusters", str(out / "clusters.txt"), "--code", "identity:20",
               "--algo", "multiply-posteriors", "--k-list", "2", "--split", "all",
               "--p-ins", "nan", "--seed", "0", "-o", str(tmp_path / "e")])
    assert rc == 2
    assert "channel probabilities" in capsys.readouterr().err
    assert not (tmp_path / "e" / "report.csv").exists()


def test_sweep_nan_beta_rejected(tmp_path, capsys):
    out = _simulate(tmp_path, n=12, traces=4, length=20)
    rc = main(["sweep", "--centers", str(out / "centers.txt"),
               "--clusters", str(out / "clusters.txt"), "--code", "identity:20",
               "--k", "2", "--metric", "hamming", "--delta", "8",
               "--train-range", "1-4", "--validation-range", "5-8",
               "--test-range", "9-12", "--seed", "2", "--grid-beta-e", "nan",
               "-o", str(tmp_path / "sw")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "finite" in err and "Traceback" not in err
    assert not (tmp_path / "sw" / "sweep.csv").exists()


def test_sweep_writes_table(tmp_path):
    out = _simulate(tmp_path, n=12, traces=4, length=20)
    res = tmp_path / "sw"
    rc = main(["sweep", "--centers", str(out / "centers.txt"),
               "--clusters", str(out / "clusters.txt"), "--code", "identity:20",
               "--k", "2", "--metric", "hamming", "--delta", "8",
               "--train-range", "1-4", "--validation-range", "5-8",
               "--test-range", "9-12", "--seed", "2",
               "--grid-beta-b", "1", "--grid-beta-e", "0.1,0.5",
               "--grid-beta-i", "0", "--grid-beta-o", "0.5",
               "-o", str(res)])
    assert rc == 0
    lines = (res / "sweep.csv").read_text().strip().splitlines()
    assert lines[0] == "beta_b,beta_e,beta_i,beta_o,hamming"
    assert len(lines) == 3


@pytest.mark.parametrize("line,flag", [("p_ins = abc", "--p-ins"),
                                       ("split = bogus", "--split")])
def test_config_values_checked_like_flags(tmp_path, capsys, line, flag):
    # a value the flag would refuse is refused from a config file too, naming
    # the file's line and the flag, before anything is decoded or written
    out = _simulate(tmp_path, n=6, traces=4, length=24)
    base = ["evaluate", "--centers", str(out / "centers.txt"),
            "--clusters", str(out / "clusters.txt"), "--code", "identity:24",
            "--k-list", "2", "--seed", "0", "-o", str(tmp_path / "e")]
    key, _, raw = line.partition(" = ")
    with pytest.raises(SystemExit) as exc:
        main(base + [flag, raw])
    assert exc.value.code == 2
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(f"# evaluation settings\nmetric = hamming\n{line}\n")
    capsys.readouterr()
    rc = main(base + ["--config", str(cfg)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {cfg}:3: argument {flag}: ") and repr(raw) in err
    assert not (tmp_path / "e").exists()


@pytest.mark.parametrize("command,flag", [
    ("simulate", ["--jobs", "2"]),
    ("estimate-channel", ["--jobs", "2"]),
    ("reconstruct", ["--jobs", "2"]),
    ("estimate-channel", ["--seed", "1"]),
    ("estimate-channel", ["--ci"]),
    ("reconstruct", ["--seed", "1"]),
    ("reconstruct", ["--ci"]),
])
def test_flags_a_command_never_reads_are_rejected(tmp_path, capsys, command, flag):
    data = ["--centers", str(tmp_path / "c.txt"), "--clusters", str(tmp_path / "t.txt")]
    base = {"simulate": ["--num-clusters", "2", "--length", "8", "--seed", "0"],
            "estimate-channel": data,
            "reconstruct": data}[command]
    out = [] if command == "estimate-channel" else ["-o", str(tmp_path / "x")]
    with pytest.raises(SystemExit) as exc:
        main([command] + base + out + flag)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag[0]}" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


NO_SCIPY = """
import json, sys
sys.modules["scipy"] = None  # every scipy import now raises ImportError
from idsrecon import evaluation
from idsrecon.cli import main
root = sys.argv[1]
data = ["--centers", root + "/data/centers.txt", "--clusters", root + "/data/clusters.txt",
        "--code", "identity:24"]
runs = [["simulate", "--num-clusters", "3", "--traces-per-cluster", "3", "--length", "24",
         "--seed", "1", "-o", root + "/data"]]
runs += [["evaluate"] + data + ["--split", "all", "--algo", algo, "--k-list", "2",
                                "--seed", "1", "-o", root + "/" + algo]
         for algo in ("trellis-bma", "bcjr-multitrace")]
runs += [["reconstruct"] + data + ["--k", "2", "-o", root + "/rec"]]
print(json.dumps([main(argv) for argv in runs]))
"""


def test_runs_without_scipy(tmp_path):
    # scipy is a test dependency only: the program imports and decodes without it
    import idsrecon

    src = str(Path(idsrecon.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    proc = subprocess.run([sys.executable, "-c", NO_SCIPY, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.strip().splitlines()[-1]) == [0, 0, 0, 0]
    assert len((tmp_path / "rec" / "estimates.txt").read_text().splitlines()) == 3
