#!/usr/bin/env python3
"""Benchmark for qmarginal: one workload per call, printed as one JSON line.

Usage (from the root of the repository):

    python3 qbench/run.py --workload construct --seed 1 --seconds 20 --trace 0

Workloads: construct, extreme, oracle, cli (see qbench/README.md). Each runs
in fresh worker processes with BLAS pinned to one thread. With ``--trace 0``
the last line holds the end-to-end metrics; with ``--trace 1`` it holds the
per-layer self time and calls per round. The full record of the run (round
times, set-up samples, versions, thread counts) is written to
``.qbench_out/<workload>-seed<seed>-trace<t>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".qbench_out"
SETUP_SAMPLES = 3  # fresh processes set up per run; setup_s is their median
DEADLINE_S = 170.0  # the whole call ends well within 180 s
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def _fail(msg: str) -> int:
    print(f"qbench: {msg}", file=sys.stderr)
    return 1


def _worker(args, phase: str, index: int, env: dict, deadline: float):
    """Start one worker; return (seconds to READY, stdout lines, exit code)."""
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--phase", phase, "--workdir", str(OUT / f"work-{os.getpid()}-{index}"),
    ]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    watchdog = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
    watchdog.start()
    try:
        ready = None
        lines = []
        for line in proc.stdout:
            if ready is None and line.strip() == "READY":
                ready = time.perf_counter() - t0
            else:
                lines.append(line.rstrip("\n"))
        code = proc.wait()
    finally:
        watchdog.cancel()
        proc.stdout.close()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    return ready, lines, code


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "qmarginal" / "__init__.py").is_file():
        return _fail(f"no qmarginal sources under {ROOT / 'src'}")
    deadline = time.monotonic() + DEADLINE_S
    env = dict(os.environ, **PINNED)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
    )
    OUT.mkdir(exist_ok=True)

    setup_s = []
    samples = 1 if args.trace else SETUP_SAMPLES
    for i in range(samples):
        phase = "run" if i == samples - 1 else "setup"
        ready, lines, code = _worker(args, phase, i, env, deadline)
        if code != 0 or ready is None:
            return _fail(f"{phase} worker exited with code {code}")
        setup_s.append(ready)
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return _fail("the worker printed no result")

    if args.trace:
        metrics = result["layers"]
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup_s), "unit": "s"},
            "ops_per_s": {"value": result["ops_per_s"], "unit": "1/s"},
            "round_ms_p50": {"value": result["round_ms_p50"], "unit": "ms"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        }
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, setup_samples_s=setup_s)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n"
    )
    print(json.dumps({"env": result["env"], "rounds": result["rounds"],
                      "ops_per_round": result["ops_per_round"], "errors": result["errors"]}))
    print(json.dumps({
        "correct": result["wrong"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
