"""The benchmark's workloads and how one decode call of each is checked.

Every workload decodes simulated clusters at the paper's channel rates
(p_ins 0.017, p_del 0.02, p_sub 0.022): strands of 110 symbols, 10 traces
per cluster, drift bound delta = 12, one process, jobs = 1. A timed call
goes through the entry points `idsrecon evaluate` and `idsrecon sweep`
use: `evaluation.scrambled_eval` or `evaluation.sweep_betas`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from idsrecon import evaluation
from idsrecon.channel import IDSParams
from idsrecon.codes import parse_encoder_spec

PAPER_RATES = (0.017, 0.02, 0.022)
PARAMS = IDSParams.from_error_rates(*PAPER_RATES)
LENGTH = 110
TRACES_PER_CLUSTER = 10
DELTA = 12
JOBS = 1

# beta_b x beta_e x beta_i x beta_o = 2 x 2 x 1 x 2 points
SWEEP_GRID = {"beta_b": (0.0, 1.0), "beta_e": (0.1, 0.5), "beta_i": (0.0,),
              "beta_o": (0.5, 1.0)}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    algorithm: str          # an evaluation.ALGORITHMS entry, or "sweep"
    code: str               # encoder spec, as `--code` takes it
    k: int                  # traces decoded per cluster
    metric: str             # picks the tuned betas; the sweep's score
    batch: int              # clusters per timed call
    pool: int               # clusters simulated from the workload seed
    trace_clusters: int     # clusters per traced pass
    reference_clusters: int  # fixed clusters the correctness gate decodes

    @property
    def is_sweep(self):
        return self.algorithm == "sweep"

    @property
    def grid_points(self):
        return math.prod(len(v) for v in SWEEP_GRID.values()) if self.is_sweep else 1

    def encoder(self):
        return parse_encoder_spec(self.code)

    def decode(self, encoder, clusters, seed, grid=SWEEP_GRID):
        """One closed-loop call: the public entry point over `clusters`.
        Returns the results the correctness gate compares."""
        if self.is_sweep:
            best, table = evaluation.sweep_betas(
                clusters, encoder, self.k, self.metric, seed, PARAMS,
                delta=DELTA, grid=grid, jobs=JOBS)
            return {"table": [list(bp.as_tuple()) + [score] for bp, score in table],
                    "best": list(best.as_tuple())}
        rep = evaluation.scrambled_eval(
            clusters, encoder, self.algorithm, self.k, self.metric, seed, PARAMS,
            delta=DELTA, betas="auto", data_kind="sim", jobs=JOBS)
        return {"n_samples": rep.n_samples, "skipped": rep.skipped,
                "hamming": rep.metrics["hamming"][0] if rep.n_samples else None,
                "entropy": rep.metrics["entropy"][0] if rep.n_samples else None}

    def warm_up(self, encoder, cluster, seed):
        """One untimed cluster-decode (a sweep at its first grid point)."""
        first = {name: vals[:1] for name, vals in SWEEP_GRID.items()}
        self.decode(encoder, [cluster], seed, grid=first)

    def decodes(self, n_clusters):
        """Cluster-decodes in one call over `n_clusters` clusters."""
        return n_clusters * self.grid_points

    def cli(self, seed, n_clusters):
        """The `idsrecon` command lines that run the same configuration."""
        rates = (f"--p-ins {PAPER_RATES[0]} --p-del {PAPER_RATES[1]} "
                 f"--p-sub {PAPER_RATES[2]}")
        # `sweep` scores the validation split only, so it gets one training
        # and one test cluster around the n validation clusters
        total = n_clusters + 2 if self.is_sweep else n_clusters
        sim = (f"idsrecon simulate --num-clusters {total} "
               f"--traces-per-cluster {TRACES_PER_CLUSTER} --length {LENGTH} "
               f"{rates} --seed {seed} -o data")
        data = "--centers data/centers.txt --clusters data/clusters.txt"
        if self.is_sweep:
            grid = " ".join(f"--grid-{name.replace('_', '-')} {','.join(map(str, vals))}"
                            for name, vals in SWEEP_GRID.items())
            run = (f"idsrecon sweep {data} --train-range 1-1 "
                   f"--validation-range 2-{total - 1} --test-range {total}-{total} "
                   f"--code {self.code} --k {self.k} --metric {self.metric} "
                   f"--delta {DELTA} {grid} {rates} --seed {seed} --jobs {JOBS} -o out")
        else:
            run = (f"idsrecon evaluate {data} --split all --algo {self.algorithm} "
                   f"--code {self.code} --k-list {self.k} --metric {self.metric} "
                   f"--delta {DELTA} --betas-preset sim {rates} --seed {seed} "
                   f"--jobs {JOBS} -o out")
        return [sim, run]


def _finite(x):
    return isinstance(x, (int, float)) and math.isfinite(x)


def failed_decodes(workload, outcome, n_clusters):
    """Decodes of one call that were infeasible or gave an impossible value:
    a check that needs no reference, for clusters drawn from any seed."""
    if workload.is_sweep:
        table = outcome["table"]
        ok = (len(table) == workload.grid_points
              and all(_finite(row[-1]) and row[-1] >= 0 for row in table))
        return 0 if ok else workload.decodes(n_clusters)
    n = outcome["n_samples"]
    if n == 0:
        return n_clusters
    ok = (n + outcome["skipped"] == n_clusters
          and _finite(outcome["hamming"]) and 0 <= outcome["hamming"] <= 1
          and _finite(outcome["entropy"]) and outcome["entropy"] >= 0)
    return n_clusters - n if ok else n_clusters


WORKLOADS = {w.name: w for w in (
    Workload(
        "tbma-k6",
        "Trellis BMA, the paper's headline decoder, on marker-repeat code at K=6: "
        "small per-trace trellises bound by numpy call overhead; runs the post update edges",
        "trellis-bma", "mr:110:10", 6, "hamming",
        batch=3, pool=120, trace_clusters=6, reference_clusters=6),
    Workload(
        "joint-k3",
        "Exact joint trellis at K=3 (3.2e7 cells): bound by memory bandwidth and "
        "sets peak memory; bypasses the per-trace path",
        "bcjr-multitrace", "identity:110", 3, "hamming",
        batch=1, pool=24, trace_clusters=1, reference_clusters=1),
    Workload(
        "sweep-k10",
        "Beta grid sweep at K=10: every grid point repeats the same per-trace exact "
        "sweeps, the one workload whose inputs share work",
        "sweep", "identity:110", 10, "entropy",
        batch=1, pool=12, trace_clusters=1, reference_clusters=1),
    Workload(
        "bmala-map-cc-k10",
        "BMALA-MAP on a 16-state convolutional code at K=10: the only workload "
        "that runs bmala and a multi-state encoder",
        "bmala-map", "cc:2:0.5:110", 10, "hamming",
        batch=8, pool=320, trace_clusters=32, reference_clusters=16),
)}
