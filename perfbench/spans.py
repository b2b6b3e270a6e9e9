"""Outside-in tracing of idsrecon: spans around calls into each module.

`Tracer.attach()` replaces the public functions of the layers (channel,
trellis, bcjr, trellis_bma, bmala, evaluation) with timing wrappers at every
module attribute through which the program calls them, and puts the original
objects back when the `with` block ends. No file of the program changes.

The `codes` module (encoding and scrambling, well under 1% of the time) gets
no span; its time counts as `evaluation` self time. The `cli` module is not
run: only argument parsing and file I/O sit above `evaluation`. The compiled
Trellis BMA engine (`fastpath`) runs only where numba is installed; each run
reports which engine ran.

A span is `[name, start, end, parent index]`; spans are kept in memory in
call order. Counts taken at the same boundaries (cells swept, cells stored,
traces kept) go into `Tracer.counts`. `layer_metrics` turns both into the
per-layer metrics the benchmark reports.
"""

from __future__ import annotations

import functools
import math
import statistics
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

from idsrecon import bmala, channel, evaluation, trellis, trellis_bma
from idsrecon.errors import InfeasibleTrellisError

LAYER_KINDS = ("boundary", "input", "ids", "post")
LAYERS = ("bench", "channel", "trellis", "bcjr", "trellis_bma", "bmala", "evaluation")
STORED_BYTES_PER_CELL = 8  # float64 value
MIB = float(1 << 20)

# counts that depend only on the inputs, so two passes over the same
# clusters must give the same values
REPEATABLE = ("trellis.steps", "trellis.builds", "trellis.cells", "bcjr.stored_mb",
              "trellis_bma.kept_trace_frac")


class Tracer:
    """Span recorder. Create one per traced pass."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.missing = []  # entry points this version of the program lacks
        self._stack = [-1]

    @contextmanager
    def span(self, name):
        """A span opened by the benchmark's own code (the root of a pass)."""
        rec = [name, 0.0, 0.0, self._stack[-1]]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = perf_counter()
        try:
            yield
        finally:
            rec[2] = perf_counter()
            self._stack.pop()

    def _wrap(self, fn, name, before=None, after=None, on_infeasible=None):
        """`name` is a string or a function of the call's arguments;
        `before`/`after` record counts from the arguments / the result."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name(args) if callable(name) else name
            if before is not None:
                before(tracer.counts, args)
            rec = [label, 0.0, 0.0, tracer._stack[-1]]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(rec)
            rec[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            except InfeasibleTrellisError:
                if on_infeasible is not None:
                    tracer.counts[on_infeasible] += 1
                raise
            finally:
                rec[2] = perf_counter()
                tracer._stack.pop()
            if after is not None:
                after(tracer.counts, args, out)
            return out

        return traced

    def _targets(self):
        """(owner, attribute, span name, hooks) for every wrapped entry point.
        A function imported into several modules is wrapped in each, because
        the program calls it through that module's name."""
        T = trellis.Trellis

        def step_name(direction):
            return lambda args: f"trellis.step_{direction}.{args[0].layers[args[1]].kind}"

        def count_cells(counts, args):
            counts["trellis.cells"] += math.prod(args[0].layers[args[1]].shape)

        def count_stored(counts, args):
            cells = sum(math.prod(lay.shape) for lay in args[0].layers)
            mb = 2 * cells * STORED_BYTES_PER_CELL / MIB  # forward + backward
            counts["bcjr.stored_mb"] = max(counts["bcjr.stored_mb"], mb)

        def count_kept(counts, args, out):
            counts["trellis_bma.traces_given"] += len(args[1])
            counts["trellis_bma.traces_kept"] += len(out[3])

        build = ("trellis.build", {})
        posteriors = ("bcjr.compute_posteriors", {"before": count_stored})
        reconstruct = ("bmala.reconstruct", {})
        return [
            (channel, "transmit_batch", "channel.transmit_batch", {}),
            (T, "step_forward", step_name("fwd"), {"before": count_cells}),
            (T, "step_backward", step_name("bwd"), {"before": count_cells}),
            (T, "forward", "trellis.forward", {}),
            (T, "backward", "trellis.backward", {}),
            (trellis_bma, "build_trellis") + build,
            (evaluation, "build_trellis") + build,
            (bmala, "build_trellis") + build,
            (evaluation, "compute_posteriors") + posteriors,
            (bmala, "compute_posteriors") + posteriors,
            (trellis_bma, "init_single_trace_trellises", "trellis_bma.init",
             {"after": count_kept}),
            (trellis_bma, "combine_beliefs", "trellis_bma.combine", {}),
            (trellis_bma, "gamma_updates", "trellis_bma.gamma", {}),
            (trellis_bma, "update_forward", "trellis_bma.update", {}),
            (evaluation, "run_trellis_bma", "trellis_bma.run", {}),
            (evaluation, "bmala_reconstruct") + reconstruct,
            (bmala, "bmala_reconstruct") + reconstruct,
            (evaluation, "bmala_map", "bmala.map", {}),
            (evaluation, "run_algorithm", "evaluation.run_algorithm",
             {"on_infeasible": "evaluation.infeasible"}),
            (evaluation, "simulate_clusters", "evaluation.simulate_clusters", {}),
            (evaluation, "scrambled_eval", "evaluation.scrambled_eval", {}),
            (evaluation, "sweep_betas", "evaluation.sweep_betas", {}),
        ]

    @contextmanager
    def attach(self):
        """Wrap every entry point for the duration of the block."""
        saved = []
        try:
            for owner, attr, name, hooks in self._targets():
                original = vars(owner).get(attr)
                if original is None:
                    self.missing.append(f"{owner.__name__}.{attr}")
                    continue
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, name, **hooks))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)


def self_times(spans):
    """Self time per span name: duration minus the time of direct children."""
    child = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out = defaultdict(float)
    for i, (name, start, end, _) in enumerate(spans):
        out[name] += (end - start) - child[i]
    return out


def inclusive_times(spans):
    """Total duration and call count per span name. Names never nest in
    themselves here, so summing does not double count."""
    total, calls = defaultdict(float), Counter()
    for name, start, end, _ in spans:
        total[name] += end - start
        calls[name] += 1
    return total, calls


def _quantile_ms(durations, q):
    if not durations:
        return 0.0
    if len(durations) == 1:
        return durations[0] * 1e3
    cuts = statistics.quantiles(durations, n=10, method="inclusive")
    return cuts[q // 10 - 1] * 1e3


def layer_metrics(tracer, root):
    """Per-layer metrics of one traced pass whose outermost span is `root`.

    Names ending in `.self_s` and the `trellis.step_*` times are self times;
    the other `_s` names are inclusive times of the call they name. A layer
    that does not run on a workload reports 0.

    The end-to-end metric each should move, and on which workload:
    - trellis.step_*, trellis.us_per_step, trellis.cells_per_s: clusters_per_s
      on tbma-k6 and sweep-k10 (small blocks, bound by per-call overhead) and
      joint-k3 (one huge trellis, bound by memory bandwidth). A batched engine
      should cut us_per_step on the first two and leave joint-k3 unchanged.
    - trellis.build_s: clusters_per_s on bmala-map-cc-k10 and tbma-k6.
    - bcjr.*: peak_rss_mb on joint-k3.
    - trellis_bma.*: clusters_per_s on tbma-k6 and sweep-k10. Reusing the
      exact sweeps across grid points should cut trellis.steps on sweep-k10
      alone.
    - bmala.*: clusters_per_s on bmala-map-cc-k10.
    - channel.transmit_batch_s: setup_s on every workload.
    """
    spans, counts = tracer.spans, tracer.counts
    own = self_times(spans)
    total, calls = inclusive_times(spans)
    wall = total[root]

    m = {}
    step_s, steps = 0.0, 0
    for direction in ("fwd", "bwd"):
        for kind in LAYER_KINDS:
            name = f"trellis.step_{direction}.{kind}"
            m[f"trellis.step_{direction}_s.{kind}"] = (own[name], "s")
            step_s += own[name]
            steps += calls[name]
    m["trellis.steps"] = (steps, "count")
    m["trellis.us_per_step"] = (step_s / steps * 1e6 if steps else 0.0, "us")
    m["trellis.cells"] = (counts["trellis.cells"], "count")
    m["trellis.cells_per_s"] = (counts["trellis.cells"] / step_s if step_s else 0.0, "1/s")
    m["trellis.build_s"] = (total["trellis.build"], "s")
    m["trellis.builds"] = (calls["trellis.build"], "count")
    m["bcjr.compute_posteriors_s"] = (total["bcjr.compute_posteriors"], "s")
    m["bcjr.stored_mb"] = (counts["bcjr.stored_mb"], "MiB")
    m["trellis_bma.init_s"] = (total["trellis_bma.init"], "s")
    m["trellis_bma.exchange_s"] = (total["trellis_bma.run"] - total["trellis_bma.init"], "s")
    m["trellis_bma.combine_s"] = (total["trellis_bma.combine"], "s")
    m["trellis_bma.gamma_s"] = (total["trellis_bma.gamma"], "s")
    m["trellis_bma.update_s"] = (total["trellis_bma.update"], "s")
    given = counts["trellis_bma.traces_given"]
    m["trellis_bma.kept_trace_frac"] = (
        counts["trellis_bma.traces_kept"] / given if given else 0.0, "ratio")
    m["bmala.reconstruct_s"] = (total["bmala.reconstruct"], "s")
    m["bmala.map_s"] = (total["bmala.map"], "s")
    m["channel.transmit_batch_s"] = (total["channel.transmit_batch"], "s")

    decodes = [end - start for name, start, end, _ in spans
               if name == "evaluation.run_algorithm"]
    m["evaluation.cluster_ms_p50"] = (_quantile_ms(decodes, 50), "ms")
    m["evaluation.cluster_ms_p90"] = (_quantile_ms(decodes, 90), "ms")
    m["evaluation.infeasible_frac"] = (
        counts["evaluation.infeasible"] / len(decodes) if decodes else 0.0, "ratio")

    # self time per layer; these sum to the pass's wall time
    per_layer = dict.fromkeys(LAYERS, 0.0)
    for name, t in own.items():
        per_layer[name.split(".", 1)[0]] += t
    for layer, t in per_layer.items():
        m[f"{layer}.self_s"] = (t, "s")
    m["trace.wall_s"] = (wall, "s")
    return m


def self_time_gap(metrics):
    """|sum of the layers' self times - traced wall time|, relative."""
    wall = metrics["trace.wall_s"][0]
    total = sum(metrics[f"{layer}.self_s"][0] for layer in LAYERS)
    return abs(total - wall) / wall if wall else 0.0


def engine_used(tracer):
    """Which Trellis BMA engine ran: the reference engine builds one trellis
    per trace through `init_single_trace_trellises`, the compiled one does not."""
    _, calls = inclusive_times(tracer.spans)
    if not calls["trellis_bma.run"]:
        return "not run"
    return "reference" if calls["trellis_bma.init"] else "fast"
