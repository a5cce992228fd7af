"""One workload in one fresh process: set up, warm up, then timed rounds.

Started by ``run.py`` with BLAS pinned to one thread in its environment.
Prints ``READY`` once the warm-up round has ended; with ``--phase setup``
it exits there (a set-up sample), with ``--phase run`` it goes on to time
whole rounds until ``--seconds`` have passed and prints one JSON result
line. Garbage is collected between rounds, outside the timed region.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time


def _run_round(ops, tally):
    """Run every operation once; return the summed operation time in ns."""
    total = 0
    for op in ops:
        t0 = time.perf_counter_ns()
        try:
            out = op.run()
        except Exception as exc:  # a raising operation is counted, the run goes on
            total += time.perf_counter_ns() - t0
            tally["failed"] += 1
            tally["errors"].setdefault(op.name, f"{type(exc).__name__}: {exc}")
            continue
        total += time.perf_counter_ns() - t0
        try:
            why = op.check(out)
        except Exception as exc:  # a malformed output the checker cannot read
            why = f"checker raised {type(exc).__name__}: {exc}"
        if why:
            tally["failed"] += 1
            tally["wrong"] += 1
            tally["errors"].setdefault(op.name, why)
    return total


def _blas_threads():
    """Threads of the OpenBLAS loaded in this process, or None if it cannot be asked."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower() and ".so" in ln})
    except OSError:
        return None
    for lib in libs:
        try:
            dll = ctypes.CDLL(lib)
        except OSError:
            continue
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(dll, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _env() -> dict:
    import platform

    import numpy
    import qmarginal

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "qmarginal": qmarginal.__version__,
        "blas_threads": _blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--phase", choices=("setup", "run"), default="run")
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args(argv)

    import workloads  # imports numpy and qmarginal

    traced = bool(args.trace)
    os.makedirs(args.workdir, exist_ok=True)
    try:
        ops = workloads.WORKLOADS[args.workload](args.seed, args.workdir, traced)
        _run_round(ops, {"failed": 0, "wrong": 0, "errors": {}})
        gc.collect()
        print("READY", flush=True)
        if args.phase == "setup":
            return 0

        tracer = None
        if traced:
            from spans import Tracer

            tracer = Tracer()
            tracer.install()
        tally = {"failed": 0, "wrong": 0, "errors": {}}
        rounds_ns = []
        start = time.perf_counter()
        while not rounds_ns or time.perf_counter() - start < args.seconds:
            if tracer is not None and args.workload == "cli":
                tracer.add("cli.startup", workloads.startup_ns())
            rounds_ns.append(_run_round(ops, tally))
            gc.collect()
        if tracer is not None:
            tracer.uninstall()
    finally:
        shutil.rmtree(args.workdir, ignore_errors=True)

    rounds = len(rounds_ns)
    peak_kb = resource.getrusage(
        resource.RUSAGE_CHILDREN if args.workload == "cli" and not traced else resource.RUSAGE_SELF
    ).ru_maxrss
    result = {
        "ops_per_round": len(ops),
        "rounds": rounds,
        "rounds_ms": [ns / 1e6 for ns in rounds_ns],
        "round_ms_p50": statistics.median(rounds_ns) / 1e6,
        "ops_per_s": len(ops) * rounds / (sum(rounds_ns) / 1e9),
        "peak_rss_mb": peak_kb / 1024.0,
        "attempted": len(ops) * rounds,
        "failed": tally["failed"],
        "wrong": tally["wrong"],
        "errors": tally["errors"],
        "layers": tracer.per_round(rounds) if tracer is not None else None,
        "env": _env(),
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
