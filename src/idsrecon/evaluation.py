"""Metrics, dataset handling, and the scrambled-encoder evaluation protocol.

A dataset is a set of clusters: a true strand (center) with the traces it
produced. Coded performance is estimated from such uniform-random strands by
drawing a uniform message per sample, solving for the scrambling vector that
maps its codeword onto the cluster center, and decoding with the scramble
offset inside the channel model. Per-cluster randomness is derived from
(seed, cluster index), so parallel evaluation order cannot change results.

The usable clusters are decoded in chunks (`chunked`), one task each: a
Trellis BMA chunk is as many clusters as fit CHUNK_ROWS trace rows x beta
points, a BMALA or BMALA-MAP chunk CHUNK_ROWS clusters, whose sweeps step
in lockstep (BMALA-MAP then decodes the chunk's consensus strings as the
rows of lattices cut by `bmala.LATTICE_BYTES`), and a joint-trellis chunk
one cluster. The chunk boundaries are fixed by cluster order, K and the
number of beta points, never by `jobs`, and a cluster decodes in a chunk
as it would alone.
"""

from __future__ import annotations

import csv
import logging
import math
import warnings
from dataclasses import dataclass, field, fields
from itertools import chain, product
from multiprocessing import get_context

import numpy as np

from .alphabet import DNA
from .bcjr import compute_posteriors
from .bmala import bmala_map, bmala_reconstruct
from .channel import IDSParams
from .codes import scramble, unscramble
from .errors import ConfigError, DatasetError, InfeasibleTrellisError
from .trellis import build_trellis
from .trellis_bma import MULTIPLY_POSTERIORS, BetaParams, default_betas, run_trellis_bma

logger = logging.getLogger(__name__)

ALGORITHMS = ("bcjr-multitrace", "trellis-bma", "multiply-posteriors",
              "bmala", "bmala-map")
METRICS = ("hamming", "entropy", "air")

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

def run_algorithm(algorithm, encoder, clusters, params, delta=None, offsets=None,
                  betas=None):
    """Decode a chunk of clusters, every message equally likely. `clusters`
    is a sequence of trace lists (a single cluster being a list of one),
    `offsets` None or one scrambling vector (or None) per cluster.

    Returns per cluster a list of outcomes: for trellis-bma one per entry
    of `betas`, the nonempty sequence of BetaParams it needs (see
    `default_betas`), and one for every other algorithm. An outcome is the
    pair (PosteriorTable or None, hard estimate), or the
    InfeasibleTrellisError of that beta point's exchange. A cluster
    infeasible for every point has that error in place of its list.
    Trellis BMA, BMALA and BMALA-MAP decode the chunk in one call
    (`run_trellis_bma`, `bmala_reconstruct`, `bmala_map`); the joint
    trellis decodes cluster by cluster.
    """
    offsets = [None] * len(clusters) if offsets is None else offsets
    if algorithm == "multiply-posteriors":
        algorithm, betas = "trellis-bma", [MULTIPLY_POSTERIORS]
    if algorithm == "trellis-bma":
        if betas is None:
            raise ConfigError("trellis-bma needs betas; take the tuned ones from "
                              "default_betas(kind, metric, encoder, k)")
        posts = run_trellis_bma(encoder, clusters, params, betas, delta=delta,
                                offsets=offsets)
        return [ps if isinstance(ps, InfeasibleTrellisError)
                else [p if isinstance(p, InfeasibleTrellisError) else (p, p.hard) for p in ps]
                for ps in posts]
    if algorithm not in ALGORITHMS:
        raise ConfigError(f"unknown algorithm {algorithm!r}; choose from {ALGORITHMS}")
    if algorithm == "bmala" and (encoder.L != encoder.N or encoder.n_states != 1):
        raise ConfigError("plain bmala handles uncoded strands only; use bmala-map")
    if algorithm == "bmala":
        size = encoder.alphabet.size
        x_hats = bmala_reconstruct(clusters, encoder.N, size)
        return [[(None, x if z is None else unscramble(x, z, size))]
                for x, z in zip(x_hats, offsets)]
    if algorithm == "bmala-map":
        posts = bmala_map(clusters, encoder, params, delta=delta, offsets=offsets)
        return [p if isinstance(p, InfeasibleTrellisError) else [(p, p.hard)] for p in posts]
    out = []
    for traces, offset in zip(clusters, offsets):
        post = compute_posteriors(build_trellis(encoder, traces, params, delta=delta,
                                                offset=offset))[0]
        out.append(post if isinstance(post, InfeasibleTrellisError) else [(post, post.hard)])
    return out


CHUNK_ROWS = 24  # trace rows x beta points of a Trellis BMA chunk, clusters of a BMALA one


def chunked(items, algorithm, k, points):
    """`items`, one per cluster, cut in order into the chunks that one
    `run_algorithm` call decodes: for Trellis BMA as many clusters as fit
    CHUNK_ROWS rows of K traces x `points` beta points, at least one; for
    BMALA and BMALA-MAP CHUNK_ROWS clusters; for the joint trellis one
    cluster. The cut depends on nothing else."""
    size = 1
    if algorithm in ("trellis-bma", "multiply-posteriors"):
        size = max(1, CHUNK_ROWS // (k * points))
    elif algorithm in ("bmala", "bmala-map"):
        size = CHUNK_ROWS
    return [items[i:i + size] for i in range(0, len(items), size)]


# ----------------------------------------------------------------------
# the scrambled sampling protocol

def _draw(idx, cluster, encoder, k, seed):
    """The uniform message, scramble offset z = center - E(message) and K
    picked traces cluster `idx` is scored on, drawn from (seed, idx)."""
    rng = np.random.default_rng((seed, idx))
    size = encoder.alphabet.size
    message = rng.integers(size, size=encoder.L).astype(np.int8)
    codeword = encoder.encode(message)
    z = unscramble(cluster.center, codeword, size)  # center - E(m)
    if not np.array_equal(scramble(codeword, z, size), cluster.center):
        raise AssertionError("scrambling bookkeeping broke: E(m) + z != center")
    pick = rng.choice(len(cluster.traces), size=k, replace=False)
    return message, z, [cluster.traces[i] for i in pick]


def _score(post, hard, message):
    out = {"hamming": hamming_rate(hard, message)}
    if post is not None:
        out["entropy"] = symbolwise_cross_entropy(post, message)
    return out


def _eval_chunk(args):
    """A chunk of clusters drawn and decoded in one `run_algorithm` call:
    per cluster (idx, per outcome a metric dict or None where it was
    infeasible; None if every one was)."""
    chunk, encoder, algorithm, k, params, delta, betas, seed = args
    draws = [_draw(idx, cluster, encoder, k, seed) for idx, cluster in chunk]
    outcomes = run_algorithm(algorithm, encoder, [traces for _, _, traces in draws], params,
                             delta=delta, offsets=[z for _, z, _ in draws], betas=betas)
    results = []
    for (idx, _), (message, _, _), outs in zip(chunk, draws, outcomes):
        if isinstance(outs, InfeasibleTrellisError):
            logger.warning("cluster %d infeasible: %s", idx, outs)
            results.append((idx, None))
            continue
        scores = []
        for i, outcome in enumerate(outs):
            if isinstance(outcome, InfeasibleTrellisError):
                logger.warning("cluster %d infeasible at beta point %d: %s", idx, i, outcome)
                scores.append(None)
            else:
                scores.append(_score(*outcome, message))
        results.append((idx, scores))
    return results


def _usable(clusters, encoder, k, max_clusters):
    """The (idx, cluster) pairs with at least K traces, at most `max_clusters`
    of them, and the count of clusters skipped for too few traces."""
    if max_clusters is not None and max_clusters < 1:
        raise ConfigError(f"max_clusters must be at least 1, got {max_clusters}")
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
    return usable, skipped


def _run_tasks(fn, tasks, jobs):
    """{idx: result} of `fn` over `tasks`, each giving (idx, result) pairs,
    forked over at most `jobs` workers; results are keyed by cluster, so the
    order they finish in cannot change a report."""
    if jobs < 1:
        raise ConfigError(f"jobs must be at least 1, got {jobs}")
    workers = min(jobs, len(tasks))
    if workers > 1:
        with get_context("fork").Pool(workers) as pool:
            return dict(chain.from_iterable(pool.imap_unordered(fn, tasks)))
    return dict(chain.from_iterable(map(fn, tasks)))


def _report(algorithm, encoder, k, outs, skipped):
    """The EvalReport of per-cluster metric dicts `outs` (None for an
    infeasible cluster, counted as skipped), in cluster order."""
    per_metric = {}
    for out in outs:
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


def _evaluate(clusters, encoder, algorithm, k, metric, seed, params, delta, betas,
              jobs, max_clusters):
    """One EvalReport per decode of `run_algorithm` (per entry of `betas`,
    or one if it is None) over the usable clusters, each cluster drawn,
    decoded once and scored; a task is one chunk of clusters (`chunked`)."""
    if algorithm not in ALGORITHMS:
        raise ConfigError(f"unknown algorithm {algorithm!r}")
    if metric not in METRICS:
        raise ConfigError(f"unknown metric {metric!r}")
    if metric in ("entropy", "air") and algorithm == "bmala":
        raise ConfigError("bmala gives hard output only; no soft metric")
    if not isinstance(params, IDSParams):
        params = IDSParams(*params)
    usable, skipped = _usable(clusters, encoder, k, max_clusters)

    tasks = [(chunk, encoder, algorithm, k, params, delta, betas, seed)
             for chunk in chunked(usable, algorithm, k, 1 if betas is None else len(betas))]
    results = _run_tasks(_eval_chunk, tasks, jobs)
    return [_report(algorithm, encoder, k,
                    [None if results[idx] is None else results[idx][i] for idx, _ in usable],
                    skipped)
            for i in range(1 if betas is None else len(betas))]


def scrambled_eval(clusters, encoder, algorithm, k, metric, seed, params,
                   delta=None, betas="auto", data_kind="real", jobs=1,
                   max_clusters=None):
    """Estimate a performance metric over clusters with the scrambled
    encoder: per cluster, draw a uniform message, set z = center - E(m),
    decode K sampled traces with the scramble offset in the channel model,
    and score against the drawn message.

    Clusters with fewer than K traces are skipped (and counted), as are
    infeasible ones. Returns an EvalReport holding every metric the
    algorithm supports. `betas` is one BetaParams; with "auto", trellis-bma
    decodes with the tuned defaults for `data_kind` and `metric`. The other
    algorithms read no betas.
    """
    if isinstance(betas, str) and betas == "auto":
        betas = (default_betas(data_kind, metric, encoder, k)
                 if algorithm == "trellis-bma" else None)
    [report] = _evaluate(clusters, encoder, algorithm, k, metric, seed, params, delta,
                         None if betas is None else [betas], jobs, max_clusters)
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

    Each grid point is scored as `scrambled_eval` with trellis-bma at that
    point would score it, through the same chunk task: a cluster is drawn
    once and decoded at the whole grid as one beta stack, so its exact
    per-trace sweeps run once and one stacked exchange decodes every point
    (see `run_trellis_bma`). A cluster infeasible for every point is skipped
    at every point, one whose exchange fails at a point only there.

    `grid` maps each of beta_b, beta_e, beta_i, beta_o to its values.
    Returns (best BetaParams, table of (BetaParams, score)); Hamming and
    entropy are minimised, the rate is maximised. Of points tied at the
    best score, the one with the smallest (beta_b, beta_e, beta_i, beta_o)
    wins, so the order of the grid's values does not matter. A grid point
    at which no cluster decoded is a ConfigError naming that point.
    """
    grid = DEFAULT_SWEEP_GRID if grid is None else grid
    names = tuple(f.name for f in fields(BetaParams))
    missing = [n for n in names if n not in grid]
    unknown = sorted(set(grid) - set(names))
    if missing or unknown:
        raise ConfigError(f"sweep grid needs exactly the keys {names}; "
                          f"missing {missing}, unknown {unknown}")
    points = [BetaParams(*p) for p in product(*(grid[n] for n in names))]
    if not points:
        raise ConfigError("empty sweep grid")
    reports = _evaluate(clusters, encoder, "trellis-bma", k, metric, seed, params, delta,
                        points, jobs, max_clusters)
    table = []
    for bp, rep in zip(points, reports):
        if rep.n_samples == 0:
            raise ConfigError(
                f"no cluster decoded at grid point (beta_b, beta_e, beta_i, beta_o) = "
                f"{bp.as_tuple()}: all {rep.skipped} clusters were skipped, as "
                f"infeasible or with fewer than {k} traces")
        table.append((bp, rep.value(metric)))
    sign = -1.0 if metric == "air" else 1.0
    best = min(table, key=lambda t: (sign * t[1], t[0].as_tuple()))
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
