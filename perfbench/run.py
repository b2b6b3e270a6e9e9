"""Decode benchmark of idsrecon.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload tbma-k6 --seed 1 --seconds 15 --trace 0

Workloads are defined in `workloads.py`. With `--trace 0` the run reports the
end-to-end metrics (throughput, peak memory, set-up time, decode quality);
with `--trace 1` it reports per-layer metrics from spans recorded around the
calls into each module. Every run checks its decodes against the reference
values in `reference.json` and exits with 1 when one differs. The last line
of the output is one JSON object: correct, attempted, failed, metrics.
"""

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def _import_program():
    """Import idsrecon from the checkout's own `src/`, never from elsewhere."""
    if not (SRC / "idsrecon" / "__init__.py").is_file():
        sys.exit(f"error: no idsrecon sources at {SRC.name}/idsrecon next to the benchmark")
    sys.path[:0] = [str(SRC), str(HERE)]
    import idsrecon

    if Path(idsrecon.__file__).resolve().parent != (SRC / "idsrecon").resolve():
        sys.exit(f"error: idsrecon was imported from {idsrecon.__file__}, not {SRC}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    for var in BLAS_THREAD_VARS:  # one core per process, pinned before numpy loads
        os.environ[var] = "1"
    _import_program()
    import bench
    from workloads import WORKLOADS

    import_s = time.perf_counter() - _STARTED
    if args.workload not in WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    wl = WORKLOADS[args.workload]
    result = bench.run(wl, args.seed, args.seconds, bool(args.trace),
                       bench.load_reference(wl.name), import_s=import_s)

    print("provenance " + json.dumps(result["provenance"]))
    if result["reference_mismatches"]:
        print("correctness gate: mismatch at " + ", ".join(result["reference_mismatches"]))
    for name, (value, unit) in {**result["report"], **result["metrics"]}.items():
        print(f"{name} = {json.dumps(value)} {unit}".rstrip())
    print(bench.summary_line(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
