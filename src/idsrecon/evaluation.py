"""Metrics, dataset handling, and the scrambled-encoder evaluation protocol.

A dataset is a set of clusters: a true strand (center) with the traces it
produced. Coded performance is estimated from such uniform-random strands by
drawing a uniform message per sample, solving for the scrambling vector that
maps its codeword onto the cluster center, and decoding with the scramble
offset inside the channel model. Per-cluster randomness is derived from
(seed, cluster index), so parallel evaluation order cannot change results.

The usable clusters are decoded in chunks (`chunked`), one task and one
decode call each, cut by one byte budget, CHUNK_BYTES, into the longest
runs of clusters whose decode holds at most that much (`call_bytes`,
read from a trellis of one row), at least one cluster each, and ending
where the trace count changes: every chunk holds one trace count. The cut
never depends on `jobs`, and a cluster decodes in a chunk as it would
alone.
"""

from __future__ import annotations

import csv
import functools
import logging
import math
import warnings
from dataclasses import dataclass, field, fields
from itertools import chain, groupby, product
from multiprocessing import get_context

import numpy as np

from . import bcjr, trellis, trellis_bma
from .alphabet import DNA
from .bcjr import compute_posteriors
from .bmala import LOOKAHEAD, bmala_map, bmala_reconstruct
from .channel import IDSParams
from .codes import scramble, unscramble
from .errors import ConfigError, DatasetError, InfeasibleTrellisError
from .trellis import BUFFER_BYTES, STEP_BLOCKS, build_trellis
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
    InfeasibleTrellisError that ended that decode. Every algorithm decodes
    the chunk in one call (`run_trellis_bma`, `bmala_reconstruct`,
    `bmala_map`, or the joint trellis of the chunk, one row per cluster);
    the chunk's clusters have one trace count (`chunked`).
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
    elif algorithm not in ALGORITHMS:
        raise ConfigError(f"unknown algorithm {algorithm!r}; choose from {ALGORITHMS}")
    elif algorithm == "bmala":
        if encoder.L != encoder.N or encoder.n_states != 1:
            raise ConfigError("plain bmala handles uncoded strands only; use bmala-map")
        size = encoder.alphabet.size
        x_hats = bmala_reconstruct(clusters, encoder.N, size)
        return [[(None, x if z is None else unscramble(x, z, size))]
                for x, z in zip(x_hats, offsets)]
    elif algorithm == "bmala-map":
        posts = [[p] for p in bmala_map(clusters, encoder, params, delta=delta,
                                        offsets=offsets)]
    else:
        posts = [[p] for p in compute_posteriors(build_trellis(
            encoder, clusters, params, delta=delta, offsets=offsets))]
    return [[p if isinstance(p, InfeasibleTrellisError) else (p, p.hard) for p in ps]
            for ps in posts]


CHUNK_BYTES = 11 << 18  # what one decode call may hold (`cluster_bytes`): 2.75 MiB


@functools.lru_cache(maxsize=64)
def call_bytes(algorithm, encoder, delta, k, triples):
    """What one decode call of clusters of k length-N traces at beta points
    of `triples` distinct (beta_b, beta_e, beta_i) holds, as the pair (per
    cluster, per call): its reader's `Trellis.held_bytes` with STEP_BLOCKS
    fronts (per triple in Trellis BMA's exchange) on a trellis of one row
    of length-N traces, every such row having the same windows; per cluster
    k rows of one trace (Trellis BMA), one of one trace (BMALA-MAP) or one
    of k axes (joint). BMALA's 2k lockstep rows a cluster hold 3 bytes per
    padded symbol and 48 words, filled through numpy's buffers. The cache
    keeps the two counts, not the row."""
    if algorithm == "bmala":
        return 2 * k * (3 * (encoder.N + LOOKAHEAD + 2) + 48 * 8), BUFFER_BYTES
    axes = k if algorithm == "bcjr-multitrace" else 1
    row = trellis.build_trellis(encoder, [[np.zeros(encoder.N, int)] * axes], (0, 0, 0, 1),
                                delta=delta)
    if algorithm in ("trellis-bma", "multiply-posteriors"):
        fwd, bwd = trellis_bma.kept_layers(row)
        keep, fronts, rows = fwd + bwd, STEP_BLOCKS * triples, k
    else:
        keep, fronts, rows = bcjr.kept_layers(row), STEP_BLOCKS, 1
    per_call = row.held_bytes(keep, fronts, rows=0)
    return row.held_bytes(keep, fronts, rows=rows) - per_call, per_call


def cluster_bytes(algorithm, encoder, delta, k, triples, clusters):
    """What a decode call of `clusters` clusters holds, by `call_bytes`."""
    per_cluster, per_call = call_bytes(algorithm, encoder, delta, k, triples)
    return per_call + clusters * per_cluster


def chunked(items, counts, algorithm, encoder, delta, triples):
    """`items`, one per cluster of counts[i] traces, cut in order into the
    chunks one `run_algorithm` call decodes: the longest runs of one trace
    count whose decode holds at most CHUNK_BYTES (`call_bytes`), at least
    one cluster each."""
    chunks = []
    for k, run in groupby(zip(items, counts), key=lambda pair: pair[1]):
        per_cluster, per_call = call_bytes(algorithm, encoder, delta, k, triples)
        most = max(1, (CHUNK_BYTES - per_call) // per_cluster)
        run = [item for item, _ in run]
        chunks += [run[i:i + most] for i in range(0, len(run), most)]
    return chunks


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


def warn_infeasible(idx, outs):
    """Warn about each decode of cluster `idx` that ended infeasible, among
    its `run_algorithm` outcomes `outs`: once when one error ended every
    decode of it, else once per such beta point."""
    if isinstance(outs[0], InfeasibleTrellisError) and all(o is outs[0] for o in outs):
        logger.warning("cluster %d infeasible: %s", idx, outs[0])
        return
    for i, outcome in enumerate(outs):
        if isinstance(outcome, InfeasibleTrellisError):
            logger.warning("cluster %d infeasible at beta point %d: %s", idx, i, outcome)


def _eval_chunk(args):
    """A chunk of clusters drawn and decoded in one `run_algorithm` call:
    per cluster (idx, per outcome a metric dict, or None where it was
    infeasible), each infeasible decode warned about (`warn_infeasible`)."""
    chunk, encoder, algorithm, k, params, delta, betas, seed = args
    draws = [_draw(idx, cluster, encoder, k, seed) for idx, cluster in chunk]
    outcomes = run_algorithm(algorithm, encoder, [traces for _, _, traces in draws], params,
                             delta=delta, offsets=[z for _, z, _ in draws], betas=betas)
    results = []
    for (idx, _), (message, _, _), outs in zip(chunk, draws, outcomes):
        warn_infeasible(idx, outs)
        results.append((idx, [None if isinstance(o, InfeasibleTrellisError)
                              else _score(*o, message) for o in outs]))
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

    points = 1 if betas is None else len(betas)
    triples = 1 if betas is None else len({bp.as_tuple()[:3] for bp in betas})
    tasks = [(chunk, encoder, algorithm, k, params, delta, betas, seed)
             for chunk in chunked(usable, [k] * len(usable), algorithm, encoder, delta,
                                  triples)]
    results = _run_tasks(_eval_chunk, tasks, jobs)
    return [_report(algorithm, encoder, k, [results[idx][i] for idx, _ in usable], skipped)
            for i in range(points)]


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
    per-trace sweeps run once and one exchange, stacked over the grid's
    (beta_b, beta_e, beta_i) triples, decodes every point (see
    `run_trellis_bma`). A cluster infeasible for every point is skipped at
    every point, one whose exchange fails at a point only there.

    beta_o only re-exponentiates each posterior row, and x**beta_o keeps a
    row's argmax, so under the Hamming metric it changes a score only where
    it moves a near-tie across the hard estimate's few-ulps tie rule
    (`PosteriorTable`): otherwise every Hamming winner takes the grid's
    smallest beta_o by the tie-break below. The entropy and rate scores do
    read beta_o.

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
