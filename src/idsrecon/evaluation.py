"""Metrics, dataset handling, and the scrambled-encoder evaluation protocol.

A dataset is a set of clusters: a true strand (center) with the traces it
produced. Coded performance is estimated from such uniform-random strands by
drawing a uniform message per sample, solving for the scrambling vector that
maps its codeword onto the cluster center, and decoding with the scramble
offset inside the channel model. Per-cluster randomness is derived from
(seed, cluster index), so parallel evaluation order cannot change results.
"""

from __future__ import annotations

import csv
import logging
import math
import warnings
from dataclasses import dataclass, field
from multiprocessing import get_context

import numpy as np

from .alphabet import DNA
from .bcjr import compute_posteriors
from .bmala import bmala_map, bmala_reconstruct
from .channel import IDSParams
from .codes import scramble, unscramble
from .errors import ConfigError, DatasetError, InfeasibleTrellisError
from .trellis import build_trellis
from .trellis_bma import BetaParams, default_betas, multiply_posteriors, run_trellis_bma

logger = logging.getLogger(__name__)

ALGORITHMS = ("bcjr-multitrace", "trellis-bma", "multiply-posteriors",
              "bmala", "bmala-map")

POSTERIOR_FLOOR = 1e-12  # clip before logs so one confident miss cannot sink a rate
CONFIDENCE = 0.95
_Z = 1.959963984540054  # two-sided 95% normal quantile


@dataclass
class Cluster:
    center: np.ndarray
    traces: list

    def __post_init__(self):
        self.center = np.asarray(self.center, dtype=np.int8)
        self.traces = [np.asarray(t, dtype=np.int8) for t in self.traces]


@dataclass
class EvalReport:
    algorithm: str
    code: str
    k: int
    metrics: dict = field(default_factory=dict)  # name -> (value, half_width)
    n_samples: int = 0
    skipped: int = 0

    def value(self, name):
        return self.metrics[name][0]


# ----------------------------------------------------------------------
# metrics

def hamming_rate(estimate, truth):
    """Fraction of mismatched positions between equal-length sequences."""
    estimate = np.asarray(estimate)
    truth = np.asarray(truth)
    if estimate.shape != truth.shape:
        raise ConfigError(f"length mismatch: {estimate.shape} vs {truth.shape}")
    return float(np.mean(estimate != truth))


def symbolwise_cross_entropy(posteriors, truth):
    """Mean over positions of -log2 of the probability the reported
    posterior gives the true symbol, clipped below at POSTERIOR_FLOOR."""
    probs = getattr(posteriors, "probs", posteriors)
    probs = np.asarray(probs, dtype=float)
    truth = np.asarray(truth)
    if len(truth) != probs.shape[0]:
        raise ConfigError("truth length does not match the posterior table")
    p = probs[np.arange(len(truth)), truth]
    return float(np.mean(-np.log2(np.maximum(p, POSTERIOR_FLOOR))))


def bcjr_once_rate(h, rate):
    """Achievable rate (bits/base) of detect-then-decode: (2 - H) * R,
    floored at zero."""
    if h < 0 or not 0 < rate <= 1:
        raise ConfigError("need H >= 0 and 0 < R <= 1")
    return max(0.0, (2.0 - h) * rate)


def air_random_k(per_k_rates, k_distribution):
    """Expected rate when the trace count is random: sum over K of
    Pr(K) * rate(K)."""
    dist = dict(k_distribution)
    tot = sum(dist.values())
    if abs(tot - 1.0) > 1e-9:
        raise ConfigError(f"K distribution sums to {tot}, not 1")
    missing = [k for k in dist if k not in per_k_rates]
    if missing:
        raise ConfigError(f"no computed rate for K={missing}")
    return float(sum(p * per_k_rates[k] for k, p in dist.items()))


# ----------------------------------------------------------------------
# dataset files

def load_dataset(centers_path, clusters_path, alphabet=DNA):
    """Read center sequences (one per line) and the matching trace groups
    (groups separated by lines starting with '=')."""
    centers = []
    with open(centers_path) as fh:
        for ln, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                centers.append(alphabet.encode(line))
            except ConfigError as e:
                raise DatasetError(f"{centers_path}:{ln}: {e}") from None

    groups = []
    current = None
    saw_any = False
    with open(clusters_path) as fh:
        for ln, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            saw_any = True
            if line.startswith("="):
                if current is not None:
                    groups.append(current)
                current = []
                continue
            if current is None:
                current = []
            try:
                current.append(alphabet.encode(line))
            except ConfigError as e:
                raise DatasetError(f"{clusters_path}:{ln}: {e}") from None
    if current is not None:
        groups.append(current)

    if not saw_any:
        warnings.warn(f"{clusters_path} is empty: 0 clusters loaded")
        return []
    if len(groups) != len(centers):
        raise DatasetError(
            f"{len(centers)} centers but {len(groups)} trace groups")
    return [Cluster(c, g) for c, g in zip(centers, groups)]


def split_dataset(clusters, train=(1, 2000), validation=(2001, 2500),
                  test=(2501, 10000)):
    """Cut the cluster list into disjoint 1-based inclusive index ranges.
    The final range is capped at the dataset size."""
    n = len(clusters)
    ranges = [tuple(train), tuple(validation), tuple(test)]
    capped = []
    for i, (a, b) in enumerate(ranges):
        if i == len(ranges) - 1:
            b = min(b, n)
        if a < 1 or b > n or a > b:
            raise ConfigError(f"split range {a}-{b} invalid for {n} clusters")
        capped.append((a, b))
    for (a1, b1), (a2, b2) in zip(capped, capped[1:]):
        if b1 >= a2:
            raise ConfigError("split ranges overlap")
    return tuple(clusters[a - 1:b] for a, b in capped)


def parse_range(text, flag):
    """'A-B' as the pair (A, B); a malformed range is a ConfigError naming `flag`."""
    try:
        a, b = str(text).split("-")
        return int(a), int(b)
    except ValueError:
        raise ConfigError(f"{flag} expects a range A-B of cluster numbers, "
                          f"got {text!r}") from None


# ----------------------------------------------------------------------
# algorithm dispatch

def run_algorithm(algorithm, encoder, traces, params, delta=None, offset=None,
                  betas=None):
    """Decode one cluster, every message equally likely; trellis-bma needs
    `betas` (see `default_betas`). Returns (PosteriorTable or None, hard)."""
    if algorithm == "bcjr-multitrace":
        tr = build_trellis(encoder, traces, params, delta=delta, offset=offset)
        post = compute_posteriors(tr)
        return post, post.hard
    if algorithm == "trellis-bma":
        if betas is None:
            raise ConfigError("trellis-bma needs betas; take the tuned ones from "
                              "default_betas(kind, metric, encoder, k)")
        post = run_trellis_bma(encoder, traces, params, delta=delta, betas=betas,
                               offset=offset)
        return post, post.hard
    if algorithm == "multiply-posteriors":
        post = multiply_posteriors(encoder, traces, params, delta=delta, offset=offset)
        return post, post.hard
    if algorithm == "bmala":
        if encoder.L != encoder.N or encoder.n_states != 1:
            raise ConfigError("plain bmala handles uncoded strands only; use bmala-map")
        x_hat = bmala_reconstruct(traces, encoder.N, alphabet_size=encoder.alphabet.size)
        hard = x_hat if offset is None else unscramble(x_hat, offset, encoder.alphabet.size)
        return None, hard
    if algorithm == "bmala-map":
        post = bmala_map(traces, encoder, params, delta=delta, offset=offset)
        return post, post.hard
    raise ConfigError(f"unknown algorithm {algorithm!r}; choose from {ALGORITHMS}")


# ----------------------------------------------------------------------
# the scrambled sampling protocol

def _eval_one(args):
    idx, cluster, encoder, algorithm, k, params, delta, betas, seed = args
    rng = np.random.default_rng((seed, idx))
    size = encoder.alphabet.size
    message = rng.integers(size, size=encoder.L).astype(np.int8)
    codeword = encoder.encode(message)
    z = unscramble(cluster.center, codeword, size)  # center - E(m)
    if not np.array_equal(scramble(codeword, z, size), cluster.center):
        raise AssertionError("scrambling bookkeeping broke: E(m) + z != center")
    pick = rng.choice(len(cluster.traces), size=k, replace=False)
    traces = [cluster.traces[i] for i in pick]
    try:
        post, hard = run_algorithm(algorithm, encoder, traces, params,
                                   delta=delta, offset=z, betas=betas)
    except InfeasibleTrellisError as e:
        logger.warning("cluster %d infeasible: %s", idx, e)
        return idx, None
    out = {"hamming": hamming_rate(hard, message)}
    if post is not None:
        out["entropy"] = symbolwise_cross_entropy(post, message)
    return idx, out


def scrambled_eval(clusters, encoder, algorithm, k, metric, seed, params,
                   delta=None, betas="auto", data_kind="real", jobs=1,
                   max_clusters=None):
    """Estimate a performance metric over clusters with the scrambled
    encoder: per cluster, draw a uniform message, set z = center - E(m),
    decode K sampled traces with the scramble offset in the channel model,
    and score against the drawn message.

    Clusters with fewer than K traces are skipped (and counted). Returns an
    EvalReport holding every metric the algorithm supports; `metric` picks
    the tuned sweep defaults when `betas` is "auto".
    """
    if algorithm not in ALGORITHMS:
        raise ConfigError(f"unknown algorithm {algorithm!r}")
    if metric not in ("hamming", "entropy", "air"):
        raise ConfigError(f"unknown metric {metric!r}")
    if metric in ("entropy", "air") and algorithm == "bmala":
        raise ConfigError("bmala gives hard output only; no soft metric")
    if max_clusters is not None and max_clusters < 1:
        raise ConfigError(f"max_clusters must be at least 1, got {max_clusters}")
    if not isinstance(params, IDSParams):
        params = IDSParams(*params)
    if isinstance(betas, str) and betas == "auto":
        betas = default_betas(data_kind, metric, encoder, k)

    usable = []
    skipped = 0
    for idx, cl in enumerate(clusters):
        if len(cl.traces) < k:
            skipped += 1
            continue
        if len(cl.center) != encoder.N:
            raise ConfigError(
                f"cluster {idx} center length {len(cl.center)} != codeword length {encoder.N}")
        usable.append((idx, cl))
        if max_clusters is not None and len(usable) >= max_clusters:
            break
    if not usable:
        raise ConfigError(f"no cluster has {k} traces")

    tasks = [(idx, cl, encoder, algorithm, k, params, delta, betas, seed)
             for idx, cl in usable]
    if jobs > 1:
        with get_context("fork").Pool(jobs) as pool:
            results = dict(pool.imap_unordered(_eval_one, tasks, chunksize=8))
    else:
        results = dict(map(_eval_one, tasks))

    per_metric = {}
    for idx, _ in usable:
        out = results[idx]
        if out is None:
            skipped += 1
            continue
        for name, v in out.items():
            per_metric.setdefault(name, []).append(v)
    report = EvalReport(algorithm=algorithm, code=encoder.spec, k=k,
                        n_samples=len(per_metric.get("hamming", [])),
                        skipped=skipped)
    for name, vals in per_metric.items():
        vals = np.asarray(vals)
        half = float(_Z * vals.std(ddof=1) / math.sqrt(len(vals))) if len(vals) > 1 else 0.0
        report.metrics[name] = (float(vals.mean()), half)
    if "entropy" in report.metrics:
        # derived from mean entropy so the report stays self-consistent
        h, half = report.metrics["entropy"]
        report.metrics["air"] = (bcjr_once_rate(h, encoder.rate), half * encoder.rate)
    return report


DEFAULT_SWEEP_GRID = {
    "beta_b": (0.0, 1.0),
    "beta_e": (0.02, 0.05, 0.1, 0.5, 1.0, 5.0),
    "beta_i": (0.0, 0.1, 0.5),
    "beta_o": (0.1, 0.5, 0.9, 1.0),
}


def sweep_betas(clusters, encoder, k, metric, seed, params, delta=None,
                grid=None, jobs=1, max_clusters=None):
    """Grid-search sweep hyperparameters on validation clusters.

    Returns (best BetaParams, table of (BetaParams, score)); Hamming and
    entropy are minimised, the rate is maximised.
    """
    grid = dict(DEFAULT_SWEEP_GRID if grid is None else grid)
    points = [BetaParams(b, e, i, o)
              for b in grid["beta_b"] for e in grid["beta_e"]
              for i in grid["beta_i"] for o in grid["beta_o"]]
    if not points:
        raise ConfigError("empty sweep grid")
    table = []
    for bp in points:
        rep = scrambled_eval(clusters, encoder, "trellis-bma", k, metric, seed,
                             params, delta=delta, betas=bp, jobs=jobs,
                             max_clusters=max_clusters)
        table.append((bp, rep.value(metric)))
    best = (max if metric == "air" else min)(table, key=lambda t: t[1])
    return best[0], table


# ----------------------------------------------------------------------
# synthetic datasets

def simulate_clusters(n_clusters, traces_per_cluster, length, params, seed,
                      alphabet=DNA):
    """Uniform random centers with IDS traces, mirroring the real data's
    shape (so coded evaluation can use the same scrambling protocol)."""
    from .channel import transmit_batch

    if not isinstance(params, IDSParams):
        params = IDSParams(*params)
    clusters = []
    for i in range(n_clusters):
        rng = np.random.default_rng((seed, i))
        center = rng.integers(alphabet.size, size=length).astype(np.int8)
        traces = transmit_batch(center, params, traces_per_cluster, rng,
                                alphabet_size=alphabet.size)
        clusters.append(Cluster(center, traces))
    return clusters


def write_dataset(clusters, centers_path, clusters_path, alphabet=DNA):
    """Write clusters in the text format `load_dataset` reads."""
    with open(centers_path, "w") as fh:
        for cl in clusters:
            fh.write(alphabet.decode(cl.center) + "\n")
    with open(clusters_path, "w") as fh:
        for cl in clusters:
            fh.write("=" * 32 + "\n")
            for tr in cl.traces:
                fh.write(alphabet.decode(tr) + "\n")


# ----------------------------------------------------------------------
# CSV output

CSV_HEADER = ("algorithm", "code", "K", "metric", "value", "ci", "half_width",
              "n_samples", "skipped")


def write_report_csv(reports, path):
    """One row per (configuration, metric)."""
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(CSV_HEADER)
        for rep in reports:
            for name, (value, half) in sorted(rep.metrics.items()):
                wr.writerow([rep.algorithm, rep.code, rep.k, name,
                             f"{value:.10g}", CONFIDENCE, f"{half:.6g}",
                             rep.n_samples, rep.skipped])


def write_plot_csv(reports, metric, path):
    """Companion K-versus-metric table, one row per trace count."""
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["K", metric])
        for rep in sorted(reports, key=lambda r: r.k):
            if metric in rep.metrics:
                wr.writerow([rep.k, f"{rep.metrics[metric][0]:.10g}"])
