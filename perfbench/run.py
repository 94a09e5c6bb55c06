"""displab benchmark: one workload, one client, sequential calls in a closed loop.

    python3 perfbench/run.py --workload sweep --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 30

Every pass is a fresh process (``one_pass.py``): interpreter start, ``import
displab`` and input building are its set-up, then the workload's library
calls run back to back and every result is checked.  No ``DISPLAB_*``
variable reaches it, so it measures displab's defaults (one sweep worker);
OpenBLAS is pinned to one thread (see BLAS_PIN).

``--trace 0`` runs passes until the next one would end after ``--seconds``
(at least one), adds set-up-only processes until there are SETUP_SAMPLES
set-up times, and reports the medians of the end-to-end metrics.
``--trace 1`` runs one untraced and two traced passes of the seed and
reports the per-layer metrics.  It checks that the traced outputs are
bit-identical to the untraced ones and that every count repeats exactly.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the run context.  Any failed check makes the exit code 1.
``--workload all`` prints a summary line per workload and the context.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("sweep", "localization", "direct")
SETUP_SAMPLES = 5
RUN_DEADLINE_S = 170.0
IMPORT_SAMPLES = 3
# On a 2-core shared Xeon VM, OpenBLAS's default of one thread per core made the sweep ~10%
# slower, and its wall time varied by +-13% between identical passes against +-1% with one.
BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1"}
# modules whose cumulative import time `python -X importtime` reports
IMPORTED = ("displab", "displab.grid", "displab.spectral", "displab.cutoffs", "displab.propagator",
            "displab.chirpquad", "displab.decomposition", "displab.norms", "displab.extremizers",
            "displab.harness", "displab.errors")


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("DISPLAB_")}
    env.update(BLAS_PIN)
    return env


def run_child(cmd: list, deadline: float) -> tuple[float, list]:
    """Start ``cmd``; return (seconds from launch to its ``ready`` line, remaining lines)."""
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=child_env(), cwd=ROOT)
    try:
        first = proc.stdout.readline()
        setup = time.perf_counter() - start
        rest, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError(f"{' '.join(cmd[1:])} did not finish before the run deadline")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or first.strip() != "ready":
        raise BenchError(f"{' '.join(cmd[1:])} exited with code {proc.returncode}")
    return setup, rest.splitlines()


def one_pass(workload: str, seed: int, trace: int, deadline: float, setup_only=False) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "one_pass.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace)] + (["--setup-only"] if setup_only else [])
    setup, lines = run_child(cmd, deadline)
    result = {} if setup_only else json.loads(lines[-1])
    result["setup_s"] = setup
    return result


def import_times(deadline: float) -> dict:
    """Median cumulative import time per displab module, from ``python -X importtime``."""
    samples = {name: [] for name in IMPORTED}
    code = f"import sys; sys.path.insert(0, {SRC!r}); import displab"
    for _ in range(IMPORT_SAMPLES):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", code], capture_output=True,
                              text=True, env=child_env(), cwd=ROOT,
                              timeout=max(1.0, deadline - time.perf_counter()))
        if proc.returncode != 0:
            raise BenchError(f"import displab failed:\n{proc.stderr[-2000:]}")
        for line in proc.stderr.splitlines():
            match = re.match(r"import time:\s+\d+\s+\|\s+(\d+)\s+\|\s+(\S+)\s*$", line)
            if match and match.group(2) in samples:
                samples[match.group(2)].append(int(match.group(1)) * 1e-6)
    out = {}
    for name, values in samples.items():
        key = f"{name.removeprefix('displab.')}.import_s"
        out[key] = ({"value": statistics.median(values), "unit": "s"} if values else
                    {"value": None, "unit": "s", "absent": f"module {name} is not imported"})
    return out


def measure(workload: str, seed: int, seconds: float, deadline: float):
    """End-to-end metrics with tracing off: (metrics, checks, number of passes)."""
    start = time.perf_counter()
    passes = []
    while True:
        passes.append(one_pass(workload, seed, 0, deadline))
        elapsed = time.perf_counter() - start
        if elapsed * (len(passes) + 1) / len(passes) > seconds:
            break
    setups = [p["setup_s"] for p in passes]
    while len(setups) < SETUP_SAMPLES:
        setups.append(one_pass(workload, seed, 0, deadline, setup_only=True)["setup_s"])
    checks = [c for p in passes for c in p["checks"]]
    checks += [(f"pass {i} output digest equals pass 0", p["digest"] == passes[0]["digest"])
               for i, p in enumerate(passes[1:], 1)]
    metrics = {
        "wall_s": {"value": statistics.median(p["wall_s"] for p in passes), "unit": "s"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "peak_rss_mb": {"value": statistics.median(p["peak_rss_mb"] for p in passes), "unit": "MB"},
    }
    return metrics, checks, len(passes)


def measure_layers(workload: str, seed: int, deadline: float):
    """Per-layer metrics from two traced passes, checked against an untraced pass."""
    from trace_layers import COUNTERS

    plain = one_pass(workload, seed, 0, deadline)
    traced = [one_pass(workload, seed, 1, deadline) for _ in range(2)]
    checks = plain["checks"] + [c for p in traced for c in p["checks"]]
    checks += [(f"traced pass {i} outputs bit-identical to the untraced pass",
                p["digest"] == plain["digest"]) for i, p in enumerate(traced)]
    first, second = (p["layers"] for p in traced)
    checks += [(f"count {name} repeats: {first[name]['value']} vs {second[name]['value']}",
                first[name] == second[name]) for name in COUNTERS]
    metrics = dict(first)  # counts from the first traced pass, times the median of both
    for name, entry in first.items():
        if entry["value"] is not None and name not in COUNTERS:
            metrics[name] = {**entry, "value": (entry["value"] + second[name]["value"]) / 2.0}
    overhead = statistics.median(p["wall_s"] for p in traced) - plain["wall_s"]
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    metrics.update(import_times(deadline))
    return metrics, checks


def run_context(seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "commit": git_commit(),
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads_default": openblas_threads(),
        "blas_threads_workload": int(BLAS_PIN["OPENBLAS_NUM_THREADS"]),
        "displab_env_withheld": {k: v for k, v in os.environ.items() if k.startswith("DISPLAB_")},
    }


def git_commit() -> str:
    """HEAD of the checkout's git repository, read without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown: the checkout is not a git repository"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def openblas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or 'unknown'."""
    import ctypes

    import numpy.linalg  # noqa: F401  loads the BLAS library

    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return "unknown"
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return fn()
    return "unknown"


def run(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, str]:
    """The result object and a one-line summary for one workload."""
    deadline = time.perf_counter() + RUN_DEADLINE_S
    if trace:
        metrics, checks = measure_layers(workload, seed, deadline)
        parts = [f"trace overhead {metrics['trace.overhead_s']['value']:.3g} s"]
    else:
        metrics, checks, passes = measure(workload, seed, seconds, deadline)
        parts = [f"{name} {m['value']:.4g} {m['unit']}" for name, m in metrics.items()]
        parts.append(f"passes {passes}")
    for label, ok in checks:
        if not ok:
            print(f"FAILED {workload} seed {seed}: {label}")
    failed = sum(not ok for _, ok in checks)
    parts.append(f"failed_frac {failed / len(checks):.4g} ({failed}/{len(checks)})")
    result = {"correct": failed == 0, "attempted": len(checks), "failed": failed,
              "metrics": metrics}
    return result, f"{workload} seed {seed}: " + ", ".join(parts)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    sys.path.insert(0, HERE)
    if not os.path.isdir(os.path.join(SRC, "displab")):
        print(f"no displab sources under {SRC}", file=sys.stderr)
        return 2
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = [run(w, args.seed, args.seconds, args.trace) for w in workloads]
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    for _, line in results:
        print(line)
    print(json.dumps({"context": run_context(args.seed)}))
    if args.workload != "all":
        print(json.dumps(results[0][0]))
    return 0 if all(result["correct"] for result, _ in results) else 1


if __name__ == "__main__":
    sys.exit(main())
