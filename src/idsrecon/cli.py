"""Command-line front end.

Subcommands: simulate, estimate-channel, reconstruct, evaluate, sweep.
Options may come from a key=value config file (--config); explicit flags
win. Every run that writes output echoes its effective configuration so it
can be reproduced with --config alone.

Exit codes: 0 success, 2 configuration error, 3 infeasible trellis, 4 I/O
or dataset failure.
"""

from __future__ import annotations

import argparse
import logging
import secrets
import sys
from pathlib import Path

import numpy as np

from . import evaluation
from .alphabet import DNA
from .channel import IDSParams, estimate_params
from .codes import parse_encoder_spec
from .errors import ConfigError, DatasetError, InfeasibleTrellisError
from .evaluation import (load_dataset, parse_range, run_algorithm,
                         scrambled_eval, simulate_clusters, split_dataset,
                         sweep_betas, write_dataset, write_plot_csv,
                         write_report_csv)
from .trellis_bma import BetaParams, default_betas

logger = logging.getLogger(__name__)

PAPER_RATES = (0.017, 0.02, 0.022)  # measured nanopore ins/del/sub rates


def _channel_args(p):
    p.add_argument("--p-ins", type=float, default=PAPER_RATES[0])
    p.add_argument("--p-del", type=float, default=PAPER_RATES[1])
    p.add_argument("--p-sub", type=float, default=PAPER_RATES[2])


def _dataset_args(p):
    p.add_argument("--centers", type=str, default=None, help="centers file path")
    p.add_argument("--clusters", type=str, default=None, help="clusters file path")


def _common_args(p):
    p.add_argument("--config", type=str, default=None, help="key=value config file")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--ci", action="store_true",
                   help="strict mode: a seed must be given explicitly")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--verbose", action="store_true")


def _beta_args(p):
    p.add_argument("--beta-b", type=float, default=None)
    p.add_argument("--beta-e", type=float, default=None)
    p.add_argument("--beta-i", type=float, default=None)
    p.add_argument("--beta-o", type=float, default=None)
    p.add_argument("--betas-preset", choices=("real", "sim"), default=None,
                   help="data kind whose tuned betas are used when --beta-b/e/i/o "
                        "are not given (default: real)")


def build_parser():
    ap = argparse.ArgumentParser(prog="idsrecon", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="command", required=True)
    subparsers = {}

    p = sub.add_parser("simulate", help="generate a synthetic dataset")
    _common_args(p)
    _channel_args(p)
    p.add_argument("--num-clusters", type=int, default=100)
    p.add_argument("--traces-per-cluster", type=int, default=10)
    p.add_argument("--length", type=int, default=110)
    p.add_argument("--output", "-o", type=str, required=True)
    subparsers["simulate"] = p

    p = sub.add_parser("estimate-channel", help="fit IDS rates from a training split")
    _common_args(p)
    _dataset_args(p)
    p.add_argument("--train-range", type=str, default="1-2000")
    p.add_argument("--max-pairs", type=int, default=None)
    subparsers["estimate-channel"] = p

    p = sub.add_parser("reconstruct", help="decode each cluster and write estimates")
    _common_args(p)
    _dataset_args(p)
    _channel_args(p)
    _beta_args(p)
    p.add_argument("--algo", choices=evaluation.ALGORITHMS, default="trellis-bma")
    p.add_argument("--code", type=str, default="identity:110")
    p.add_argument("--k", type=int, default=4, help="traces used per cluster")
    p.add_argument("--delta", type=int, default=12)
    p.add_argument("--range", dest="cluster_range", type=str, default=None,
                   help="1-based inclusive cluster range, e.g. 1-100")
    p.add_argument("--dump-posteriors", action="store_true")
    p.add_argument("--output", "-o", type=str, required=True)
    subparsers["reconstruct"] = p

    p = sub.add_parser("evaluate", help="scrambled-encoder evaluation over a split")
    _common_args(p)
    _dataset_args(p)
    _channel_args(p)
    _beta_args(p)
    p.add_argument("--algo", choices=evaluation.ALGORITHMS, default="trellis-bma")
    p.add_argument("--code", type=str, default="identity:110")
    p.add_argument("--k-list", type=str, default="1,2,4,6,8,10")
    p.add_argument("--metric", choices=("hamming", "entropy", "air"), default="hamming")
    p.add_argument("--delta", type=int, default=12)
    p.add_argument("--split", choices=("train", "validation", "test", "all"),
                   default="test")
    p.add_argument("--train-range", type=str, default="1-2000")
    p.add_argument("--validation-range", type=str, default="2001-2500")
    p.add_argument("--test-range", type=str, default="2501-10000")
    p.add_argument("--max-clusters", type=int, default=None)
    p.add_argument("--output", "-o", type=str, required=True)
    subparsers["evaluate"] = p

    p = sub.add_parser("sweep", help="grid-search sweep hyperparameters on validation")
    _common_args(p)
    _dataset_args(p)
    _channel_args(p)
    p.add_argument("--code", type=str, default="identity:110")
    p.add_argument("--k", type=int, default=4)
    p.add_argument("--metric", choices=("hamming", "entropy", "air"), default="hamming")
    p.add_argument("--delta", type=int, default=12)
    p.add_argument("--train-range", type=str, default="1-2000")
    p.add_argument("--validation-range", type=str, default="2001-2500")
    p.add_argument("--test-range", type=str, default="2501-10000")
    p.add_argument("--max-clusters", type=int, default=None)
    p.add_argument("--grid-beta-b", type=str, default=None, help="comma list")
    p.add_argument("--grid-beta-e", type=str, default=None)
    p.add_argument("--grid-beta-i", type=str, default=None)
    p.add_argument("--grid-beta-o", type=str, default=None)
    p.add_argument("--output", "-o", type=str, required=True)
    subparsers["sweep"] = p

    return ap, subparsers


def _load_config(path, subparser):
    values = {}
    actions = {a.dest: a for a in subparser._actions}
    with open(path) as fh:
        for ln, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{ln}: expected key = value")
            key, _, raw = line.partition("=")
            key = key.strip().replace("-", "_")
            raw = raw.strip()
            if key not in actions or key in ("config", "help"):
                raise ConfigError(f"{path}:{ln}: unknown option {key!r}")
            act = actions[key]
            if isinstance(act, argparse._StoreTrueAction):
                values[key] = raw.lower() in ("1", "true", "yes", "on")
            elif raw.lower() == "none":
                values[key] = None
            elif act.type is not None:
                values[key] = act.type(raw)
            else:
                values[key] = raw
    return values


def _echo_config(args, outdir):
    skip = {"config", "command", "verbose"}
    lines = []
    for key, val in sorted(vars(args).items()):
        if key in skip or val is None:
            continue
        if isinstance(val, bool):
            val = "true" if val else "false"
        lines.append(f"{key} = {val}")
    (Path(outdir) / "effective_config.txt").write_text("\n".join(lines) + "\n")


def _resolve_seed(args):
    if args.seed is None:
        if args.ci:
            raise ConfigError("--seed is mandatory in CI mode")
        args.seed = secrets.randbits(31)
        print(f"seed not given; using {args.seed}")
    return args.seed


def _params(args):
    return IDSParams.from_error_rates(args.p_ins, args.p_del, args.p_sub)


def _betas(args, metric, encoder, k):
    """The four --beta-b/e/i/o flags if given, else the tuned defaults for
    --betas-preset (real data when it is not given)."""
    given = [args.beta_b, args.beta_e, args.beta_i, args.beta_o]
    if any(v is not None for v in given):
        if any(v is None for v in given):
            raise ConfigError("give all four of --beta-b/e/i/o or none")
        return BetaParams(*given)
    return default_betas(args.betas_preset or "real", metric, encoder, k)


def _numbers(text, flag, kind):
    """The comma list `text` as `kind` numbers; a bad entry is a ConfigError naming `flag`."""
    try:
        return [kind(v) for v in text.split(",") if v.strip()]
    except ValueError:
        raise ConfigError(f"{flag} expects a comma list of numbers, got {text!r}") from None


def _at_least_one(value, flag):
    if value is not None and value < 1:
        raise ConfigError(f"{flag} must be at least 1, got {value}")
    return value


def _load_clusters(args):
    if not args.centers or not args.clusters:
        raise ConfigError("--centers and --clusters are required")
    for path in (args.centers, args.clusters):
        if not Path(path).exists():
            raise ConfigError(f"dataset path {path} does not exist")
    return load_dataset(args.centers, args.clusters)


def cmd_simulate(args):
    _resolve_seed(args)
    outdir = Path(args.output)
    outdir.mkdir(parents=True, exist_ok=True)
    params = _params(args)
    clusters = simulate_clusters(args.num_clusters, args.traces_per_cluster,
                                 args.length, params, args.seed)
    write_dataset(clusters, outdir / "centers.txt", outdir / "clusters.txt")
    _echo_config(args, outdir)
    total = sum(len(c.traces) for c in clusters)
    print(f"wrote {len(clusters)} clusters / {total} traces to {outdir}")
    print(f"channel: p_ins={params.p_ins} p_del={params.p_del} "
          f"p_sub={params.p_sub} p_cor={params.p_cor:.6g}")
    return 0


def cmd_estimate_channel(args):
    clusters = _load_clusters(args)
    a, b = parse_range(args.train_range, "--train-range")
    if not 1 <= a <= b <= len(clusters):
        raise ConfigError(f"train range {args.train_range} invalid "
                          f"for {len(clusters)} clusters")
    pairs = []
    for cl in clusters[a - 1:b]:
        for tr in cl.traces:
            pairs.append((cl.center, tr))
            if args.max_pairs and len(pairs) >= args.max_pairs:
                break
        if args.max_pairs and len(pairs) >= args.max_pairs:
            break
    if not pairs:
        raise ConfigError("training range holds no (center, trace) pairs")
    est = estimate_params(pairs)
    print(f"pairs      {len(pairs)}")
    print(f"p_ins      {est.p_ins:.6f}")
    print(f"p_del      {est.p_del:.6f}")
    print(f"p_sub      {est.p_sub:.6f}")
    print(f"p_cor      {est.p_cor:.6f}")
    return 0


def cmd_reconstruct(args):
    _at_least_one(args.k, "--k")
    _resolve_seed(args)
    clusters = _load_clusters(args)
    if args.cluster_range:
        a, b = parse_range(args.cluster_range, "--range")
        if not 1 <= a <= b <= len(clusters):
            raise ConfigError(f"cluster range {args.cluster_range} out of bounds")
        clusters = clusters[a - 1:b]
    encoder = parse_encoder_spec(args.code, default_n=len(clusters[0].center)
                                 if clusters else 110)
    params = _params(args)
    betas = _betas(args, "hamming", encoder, args.k)
    outdir = Path(args.output)
    outdir.mkdir(parents=True, exist_ok=True)
    est_path = outdir / "estimates.txt"
    post_path = outdir / "posteriors.csv"
    post_fh = open(post_path, "w") if args.dump_posteriors else None
    if post_fh:
        post_fh.write("cluster,position," +
                      ",".join(f"p_{s}" for s in DNA.symbols) + "\n")
    n_fail = 0
    with open(est_path, "w") as fh:
        for i, cl in enumerate(clusters):
            traces = cl.traces[:args.k]
            if not traces:
                fh.write("\n")
                n_fail += 1
                continue
            try:
                post, hard = run_algorithm(args.algo, encoder, traces, params,
                                           delta=args.delta, betas=betas)
            except InfeasibleTrellisError:
                fh.write("\n")
                n_fail += 1
                continue
            fh.write(DNA.decode(hard) + "\n")
            if post_fh and post is not None:
                for l in range(post.probs.shape[0]):
                    row = ",".join(f"{v:.8g}" for v in post.probs[l])
                    post_fh.write(f"{i},{l},{row}\n")
    if post_fh:
        post_fh.close()
    _echo_config(args, outdir)
    print(f"reconstructed {len(clusters) - n_fail}/{len(clusters)} clusters "
          f"-> {est_path}")
    return 0


def _pick_split(args, clusters, split):
    if split == "all":
        return clusters
    tr, va, te = split_dataset(clusters, *[
        parse_range(getattr(args, f"{name}_range"), f"--{name}-range")
        for name in ("train", "validation", "test")])
    return {"train": tr, "validation": va, "test": te}[split]


def cmd_evaluate(args):
    ks = [_at_least_one(k, "--k-list") for k in _numbers(args.k_list, "--k-list", int)]
    if not ks:
        raise ConfigError("--k-list names no trace count")
    _at_least_one(args.max_clusters, "--max-clusters")
    _resolve_seed(args)
    clusters = _load_clusters(args)
    part = _pick_split(args, clusters, args.split)
    encoder = parse_encoder_spec(args.code, default_n=len(clusters[0].center)
                                 if clusters else 110)
    params = _params(args)
    outdir = Path(args.output)
    outdir.mkdir(parents=True, exist_ok=True)
    reports = []
    for k in ks:
        rep = scrambled_eval(part, encoder, args.algo, k, args.metric,
                             args.seed, params, delta=args.delta,
                             betas=_betas(args, args.metric, encoder, k), jobs=args.jobs,
                             max_clusters=args.max_clusters)
        reports.append(rep)
        shown = rep.metrics.get(args.metric)
        if shown:
            print(f"K={k}: {args.metric}={shown[0]:.6g} (+-{shown[1]:.2g}, "
                  f"n={rep.n_samples}, skipped={rep.skipped})")
        # rewritten after every K, so a later K that fails keeps the finished ones
        write_report_csv(reports, outdir / "report.csv")
        write_plot_csv(reports, args.metric, outdir / "plot.csv")
    _echo_config(args, outdir)
    print(f"wrote {outdir / 'report.csv'}")
    return 0


def cmd_sweep(args):
    _at_least_one(args.k, "--k")
    _at_least_one(args.max_clusters, "--max-clusters")
    _resolve_seed(args)
    clusters = _load_clusters(args)
    validation = _pick_split(args, clusters, "validation")
    encoder = parse_encoder_spec(args.code, default_n=len(clusters[0].center)
                                 if clusters else 110)
    params = _params(args)
    grid = dict(evaluation.DEFAULT_SWEEP_GRID)
    for name in ("beta_b", "beta_e", "beta_i", "beta_o"):
        arg = getattr(args, f"grid_{name}")
        if arg:
            grid[name] = tuple(_numbers(arg, f"--grid-{name.replace('_', '-')}", float))
    best, table = sweep_betas(validation, encoder, args.k, args.metric,
                              args.seed, params, delta=args.delta, grid=grid,
                              jobs=args.jobs, max_clusters=args.max_clusters)
    outdir = Path(args.output)
    outdir.mkdir(parents=True, exist_ok=True)
    with open(outdir / "sweep.csv", "w") as fh:
        fh.write("beta_b,beta_e,beta_i,beta_o," + args.metric + "\n")
        for bp, score in table:
            fh.write(",".join(str(v) for v in bp.as_tuple()) + f",{score:.8g}\n")
    _echo_config(args, outdir)
    print(f"best betas for {args.metric} at K={args.k}: "
          f"beta_b={best.beta_b} beta_e={best.beta_e} "
          f"beta_i={best.beta_i} beta_o={best.beta_o}")
    print(f"wrote {outdir / 'sweep.csv'}")
    return 0


COMMANDS = {
    "simulate": cmd_simulate,
    "estimate-channel": cmd_estimate_channel,
    "reconstruct": cmd_reconstruct,
    "evaluate": cmd_evaluate,
    "sweep": cmd_sweep,
}


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    ap, subparsers = build_parser()
    args = ap.parse_args(argv)
    logging.basicConfig(level=logging.INFO if args.verbose else logging.WARNING,
                        format="%(levelname)s %(name)s: %(message)s")
    try:
        if args.config:
            sp = subparsers[args.command]
            sp.set_defaults(**_load_config(args.config, sp))
            args = ap.parse_args(argv)
        np.seterr(over="raise")
        return COMMANDS[args.command](args)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except InfeasibleTrellisError as e:
        print(f"infeasible: {e}", file=sys.stderr)
        return 3
    except (DatasetError, OSError) as e:
        print(f"i/o error: {e}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
