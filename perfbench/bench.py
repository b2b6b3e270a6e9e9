"""One benchmark run of one workload; `run.py` is the command-line entry.

An untraced run (`trace=False`) sets up, then makes closed-loop calls for
`seconds`, and reports the end-to-end metrics. A traced run decodes a fixed
number of clusters four times, untraced and traced in turn, and reports the
per-layer metrics of the first traced pass. Both runs end with the
correctness gate: fixed reference clusters, simulated from REFERENCE_SEED,
are decoded and compared with the values in `reference.json`, recorded at
the commit that added the benchmark.
"""

from __future__ import annotations

import importlib.util
import json
import os
import platform
import resource
import statistics
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np
import scipy

from idsrecon import evaluation
from spans import REPEATABLE, Tracer, engine_used, layer_metrics, self_time_gap
from workloads import JOBS, LENGTH, PARAMS, TRACES_PER_CLUSTER, failed_decodes

REFERENCE_FILE = Path(__file__).with_name("reference.json")
REFERENCE_SEED = 20210713
REFERENCE_TOL = 1e-9
SETUP_REPEATS = 3
ROOT_SPAN = "bench.pass"


@dataclass
class Call:
    clusters: int
    seconds: float
    outcome: dict | None   # None: the call raised
    failed: int       # cluster-decodes that failed


def simulate(n_clusters, seed):
    return evaluation.simulate_clusters(n_clusters, TRACES_PER_CLUSTER, LENGTH,
                                        PARAMS, seed)


def checked_call(wl, encoder, clusters, seed):
    """One decode call, timed, with the reference-free checks applied."""
    t = perf_counter()
    try:
        out = wl.decode(encoder, clusters, seed)
    except Exception:  # a decode that raises is counted, the run goes on
        traceback.print_exc()
        out = None
    dt = perf_counter() - t
    failed = (wl.decodes(len(clusters)) if out is None
              else failed_decodes(wl, out, len(clusters)))
    return Call(len(clusters), dt, out, failed)


def set_up(wl, encoder, seed, repeats):
    """Simulate the pool and decode one cluster untimed, `repeats` times.
    Returns the pool and the time of each repeat."""
    times = []
    for _ in range(repeats):
        t = perf_counter()
        pool = simulate(wl.pool, seed)
        wl.warm_up(encoder, pool[0], seed)
        times.append(perf_counter() - t)
    return pool, times


def timed_loop(wl, encoder, pool, seed, seconds):
    """Closed loop: one caller, each call waits for the previous one."""
    calls = []
    start = perf_counter()
    i = 0
    while perf_counter() - start < seconds or not calls:
        batch = [pool[(i + j) % len(pool)] for j in range(wl.batch)]
        calls.append(checked_call(wl, encoder, batch, seed))
        i += wl.batch
    return calls


def quality(wl, encoder, outcome):
    """Decode quality of the reference clusters: mean Hamming error and
    cross-entropy (a sweep's best grid point; it reports no Hamming error),
    and the achievable rate (2 - entropy) * code rate."""
    if outcome is None:
        return {"hamming": None, "entropy": None, "air": 0.0}
    if wl.is_sweep:
        hamming, entropy = None, min(row[-1] for row in outcome["table"])
    else:
        hamming, entropy = outcome["hamming"], outcome["entropy"]
    return {"hamming": hamming, "entropy": entropy,
            "air": evaluation.bcjr_once_rate(entropy, encoder.rate)}


def mismatches(expected, got, tol):
    """Paths where `got` differs from `expected`: numbers by more than `tol`,
    everything else by any amount."""
    if isinstance(expected, (dict, list)):
        if type(got) is not type(expected) or len(got) != len(expected):
            return ["shape"]
        keys = expected.keys() if isinstance(expected, dict) else range(len(expected))
        if isinstance(expected, dict) and keys != got.keys():
            return ["keys"]
        return [f"{k}.{p}" if p else str(k)
                for k in keys for p in mismatches(expected[k], got[k], tol)]
    if isinstance(expected, (int, float)) and isinstance(got, (int, float)):
        return [] if abs(expected - got) <= tol else [""]
    return [] if expected == got else [""]


def reference_gate(wl, encoder, reference):
    """Decode the fixed reference clusters (traced, to see which engine ran)
    and compare with `reference`. Returns (call, mismatching paths, tracer)."""
    tracer = Tracer()
    clusters = simulate(wl.reference_clusters, REFERENCE_SEED)
    with tracer.attach():
        call = checked_call(wl, encoder, clusters, REFERENCE_SEED)
    if call.outcome is None:
        return call, ["raised"], tracer
    if reference is None:
        return call, ["no reference recorded"], tracer
    bad = mismatches(reference, call.outcome, REFERENCE_TOL)
    if bad:
        call.failed = wl.decodes(call.clusters)
    return call, bad, tracer


def load_reference(name):
    if not REFERENCE_FILE.is_file():
        return None
    return json.loads(REFERENCE_FILE.read_text()).get(name)


def provenance(wl, seed, engine, missing):
    return {
        "workload": wl.name, "seed": seed,
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)), "jobs": JOBS,
        "thread_env": {k: v for k, v in os.environ.items() if k.endswith("THREADS")},
        "trellis_bma_engine": engine,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "untraced_entry_points": missing,
        "cli": wl.cli(seed, wl.pool),
    }


def run_untraced(wl, seed, seconds, import_s, reference):
    encoder = wl.encoder()
    pool, setup_times = set_up(wl, encoder, seed, SETUP_REPEATS)
    calls = timed_loop(wl, encoder, pool, seed, seconds)
    gate, bad, tracer = reference_gate(wl, encoder, reference)

    done = [c for c in calls if c.outcome is not None]
    rates = [wl.decodes(c.clusters) / c.seconds for c in done]
    q = quality(wl, encoder, gate.outcome)
    decodes = sum(wl.decodes(c.clusters) for c in calls)
    failed = sum(c.failed for c in calls)
    metrics = {
        "clusters_per_s": (statistics.median(rates) if rates else 0.0, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        "setup_s": (import_s + statistics.median(setup_times), "s"),
        "air_bits": (q["air"], "bit/base"),
    }
    report = {
        "hamming": (q["hamming"], "ratio"),
        "entropy_bits": (q["entropy"], "bit"),
        "failed_frac": (failed / decodes, "ratio"),
        "calls": (len(calls), "count"),
        "call_s_p50": (statistics.median(c.seconds for c in calls), "s"),
        "clusters_per_s_overall": (sum(wl.decodes(c.clusters) for c in done)
                                   / sum(c.seconds for c in calls), "1/s"),
        "import_s": (import_s, "s"),
        "setup_repeat_s": (setup_times, "s"),
    }
    return _result(wl, seed, metrics, report, gate, bad, tracer,
                   attempted=decodes, failed=failed)


def run_traced(wl, seed, reference):
    encoder = wl.encoder()
    wl.warm_up(encoder, simulate(1, seed)[0], seed)

    def one_pass():
        clusters = simulate(wl.trace_clusters, seed)
        return [checked_call(wl, encoder, clusters[i:i + wl.batch], seed)
                for i in range(0, len(clusters), wl.batch)]

    # untraced and traced passes alternate, so drift in machine speed
    # reaches both sides of the overhead ratio alike
    tracers, plain, traced, untraced_s = [Tracer(), Tracer()], [], [], 0.0
    for tracer in tracers:
        t = perf_counter()
        plain.append(one_pass())
        untraced_s += perf_counter() - t
        with tracer.attach(), tracer.span(ROOT_SPAN):
            traced.append(one_pass())
    gate, bad, _ = reference_gate(wl, encoder, reference)

    metrics, again = (layer_metrics(tr, ROOT_SPAN) for tr in tracers)
    traced_s = metrics["trace.wall_s"][0] + again["trace.wall_s"][0]
    metrics["trace_overhead_frac"] = (traced_s / untraced_s - 1, "ratio")
    checks = {
        "repeat": [k for k in REPEATABLE if metrics[k] != again[k]],
        "traced results differ from untraced":
            [i for run in traced for i, (c, p) in enumerate(zip(run, plain[0]))
             if c.outcome != p.outcome],
        "self times do not sum to wall time":
            [] if self_time_gap(metrics) < 1e-9 else [self_time_gap(metrics)],
    }
    calls = [c for run in plain + traced for c in run]
    attempted = sum(wl.decodes(c.clusters) for c in calls)
    failed = sum(c.failed for c in calls)
    if any(checks.values()):
        failed = max(failed, 1)
    report = {"untraced_wall_s": (untraced_s, "s"),
              "checks": (checks, "")}
    return _result(wl, seed, metrics, report, gate, bad, tracers[0],
                   attempted=attempted, failed=failed)


def _result(wl, seed, metrics, report, gate, bad, tracer, attempted, failed):
    attempted += wl.decodes(gate.clusters)
    failed += gate.failed
    return {
        "correct": failed == 0 and not bad,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "report": report,
        "reference_mismatches": bad,
        "provenance": provenance(wl, seed, engine_used(tracer), tracer.missing),
    }


def run(wl, seed, seconds, trace, reference, import_s=0.0):
    """One run of workload `wl`; `reference` holds the values the
    correctness gate expects (see `load_reference`)."""
    np.seterr(over="raise")  # as the idsrecon command line does
    if trace:
        return run_traced(wl, seed, reference)
    return run_untraced(wl, seed, seconds, import_s, reference)


def summary_line(result):
    """The last output line: one JSON object with the keys correct,
    attempted, failed and metrics."""
    return json.dumps({
        "correct": result["correct"], "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": v, "unit": u}
                    for name, (v, u) in result["metrics"].items()},
    })
