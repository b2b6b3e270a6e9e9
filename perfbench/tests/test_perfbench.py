"""Tests of the benchmark itself, at tiny sizes:

    python3 -m pytest -q perfbench/tests
"""

import dataclasses
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import bench  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def tiny(name):
    """The workload with one cluster per call and per traced pass."""
    return dataclasses.replace(WORKLOADS[name], batch=1, pool=2, trace_clusters=1)


@pytest.fixture(autouse=True)
def one_setup(monkeypatch):
    monkeypatch.setattr(bench, "SETUP_REPEATS", 1)


def _metric_units(spec_key):
    return {m["name"]: m["unit"] for m in SPEC[spec_key]}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_workload_emits_every_metric(name, trace):
    wl = tiny(name)
    result = bench.run(wl, seed=5, seconds=0, trace=trace,
                       reference=bench.load_reference(name))
    assert result["correct"], result["reference_mismatches"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    want = _metric_units("per_layer" if trace else "end_to_end")
    got = {n: unit for n, (_, unit) in result["metrics"].items()}
    assert got == want
    line = json.loads(bench.summary_line(result))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["metrics"].keys() == want.keys()
    assert result["provenance"]["trellis_bma_engine"] == (
        "reference" if wl.algorithm in ("trellis-bma", "sweep") else "not run")
    if trace:
        assert spans.self_time_gap(result["metrics"]) < 1e-9
        assert not any(result["report"]["checks"][0].values())


def _entry_points():
    return {(owner, attr): vars(owner)[attr]
            for owner, attr, _, _ in spans.Tracer()._targets()}


def test_traced_run_restores_every_entry_point():
    before = _entry_points()
    result = bench.run(tiny("tbma-k6"), seed=2, seconds=0, trace=True,
                       reference=bench.load_reference("tbma-k6"))
    assert result["metrics"]["trellis.steps"][0] > 0
    after = _entry_points()
    assert all(after[key] is fn for key, fn in before.items())

    tracer = spans.Tracer()
    with pytest.raises(RuntimeError), tracer.attach():
        assert _entry_points() != before
        raise RuntimeError
    assert all(_entry_points()[key] is fn for key, fn in before.items())


def test_self_times_subtract_direct_children():
    recs = [["bench.pass", 0.0, 10.0, -1], ["evaluation.scrambled_eval", 1.0, 9.0, 0],
            ["trellis.build", 2.0, 3.0, 1], ["trellis.step_fwd.ids", 4.0, 8.0, 1]]
    own = spans.self_times(recs)
    assert own == {"bench.pass": 2.0, "evaluation.scrambled_eval": 3.0,
                   "trellis.build": 1.0, "trellis.step_fwd.ids": 4.0}


@pytest.mark.parametrize("path", [("entropy",), ("n_samples",)])
def test_gate_trips_on_perturbed_reference(monkeypatch, path):
    reference = dict(bench.load_reference("bmala-map-cc-k10"))
    reference[path[0]] += 1e-6 if path[0] == "entropy" else 1
    result = bench.run(tiny("bmala-map-cc-k10"), seed=3, seconds=0, trace=False,
                       reference=reference)
    assert not result["correct"]
    assert result["failed"] > 0
    assert result["reference_mismatches"] == [path[0]]

    monkeypatch.setitem(WORKLOADS, "bmala-map-cc-k10", tiny("bmala-map-cc-k10"))
    monkeypatch.setattr(bench, "load_reference", lambda name: reference)
    for var in run.BLAS_THREAD_VARS:  # main() pins these; restore them afterwards
        monkeypatch.setenv(var, "1")
    rc = run.main(["--workload", "bmala-map-cc-k10", "--seed", "3", "--seconds", "0"])
    assert rc == 1


def test_gate_passes_within_tolerance():
    reference = dict(bench.load_reference("bmala-map-cc-k10"))
    reference["entropy"] += 1e-12
    result = bench.run(tiny("bmala-map-cc-k10"), seed=3, seconds=0, trace=False,
                       reference=reference)
    assert result["correct"]
