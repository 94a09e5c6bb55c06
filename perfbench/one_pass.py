"""One pass of one workload in a fresh process; run.py starts it.

Protocol on standard output: the line ``ready`` once the interpreter is up,
``displab`` is imported and the inputs are built (run.py times set-up to
that line), then one JSON object with the pass's wall time, peak memory,
checked results, an output digest and, when traced, the layer metrics.

    python3 perfbench/one_pass.py --workload sweep --seed 0 --trace 0 [--setup-only]
"""

import argparse
import hashlib
import json
import os
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, SRC)

import numpy as np  # noqa: E402

import displab  # noqa: E402

if not os.path.abspath(displab.__file__).startswith(SRC + os.sep):
    sys.exit(f"displab was imported from {displab.__file__}, not from {SRC}")

from workloads import WORKLOADS  # noqa: E402


def run_tasks(tasks):
    """Run every task; a raised exception counts as one failed check."""
    outputs, checks = [], []
    for fn, *args in tasks:
        try:
            values, task_checks = fn(*args)
        except Exception:  # a failing library call is a result to report, not a crash
            checks.append((f"{fn.__name__}{tuple(args)!r} raised:\n{traceback.format_exc()}", False))
            continue
        outputs.extend(complex(v) for v in values)
        checks.extend((label, bool(ok)) for label, ok in task_checks)
    return outputs, checks


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    tasks = WORKLOADS[args.workload](args.seed)
    print("ready", flush=True)
    if args.setup_only:
        return

    tracer = None
    if args.trace:
        from trace_layers import Tracer

        tracer = Tracer()
        tracer.install()
    start = time.perf_counter()
    try:
        outputs, checks = run_tasks(tasks)
        wall = time.perf_counter() - start
    finally:
        if tracer is not None:
            tracer.uninstall()
    result = {
        "wall_s": wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "checks": checks,
        "digest": hashlib.sha256(np.array(outputs, dtype=complex).tobytes()).hexdigest(),
    }
    if tracer is not None:
        result["layers"] = tracer.metrics()
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
