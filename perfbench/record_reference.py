"""Write `reference.json`: what each workload's reference clusters decode to.

    python3 perfbench/record_reference.py

Run it only at a commit whose decoding results are trusted; the correctness
gate of every later run compares against this file.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import bench  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def main():
    out = {}
    for name, wl in WORKLOADS.items():
        call, _, _ = bench.reference_gate(wl, wl.encoder(), None)
        if call.outcome is None or call.failed:
            sys.exit(f"{name}: reference decode failed")
        out[name] = call.outcome
        print(name, json.dumps(call.outcome))
    bench.REFERENCE_FILE.write_text(json.dumps(out, indent=1) + "\n")


if __name__ == "__main__":
    main()
