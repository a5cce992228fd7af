#!/usr/bin/env python3
"""Single-case reference timings, one row per case of the ROADMAP item 1 table.

Usage (from the root of the repository):

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 qbench/reference.py

Each case runs five times after one untimed call; the best and the median
are printed in milliseconds. These rows are not the benchmark: they are
kept to compare with figures quoted elsewhere for the same cases.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time

import numpy as np

import qmarginal as qm
from qmarginal import fileio, kernels

REPEATS = 5


def _times(fn):
    """Milliseconds per call; a case that returns a float reports its own time."""
    fn()
    out = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        own = fn()
        out.append(own if isinstance(own, float) else (time.perf_counter() - t0) * 1e3)
    return out


def _import_ms() -> float:
    """Import time of qmarginal alone, in a fresh interpreter."""
    code = "import time; t = time.perf_counter(); import qmarginal; print(time.perf_counter() - t)"
    out = subprocess.run([sys.executable, "-c", code], check=True, capture_output=True, text=True)
    return float(out.stdout) * 1e3


def _state(m, n, k, seed):
    return qm.construct_rank_k(qm.random_density(n, n, seed), m, k)


def main() -> int:
    sigma6 = np.ascontiguousarray(qm.random_density(6, 4, seed=1).matrix)
    sigma24 = qm.random_density(24, 24, seed=2)
    rank32 = _state(2, 32, 32, 3)
    doc96 = fileio.state_to_doc(_state(4, 24, 6, 4))
    cases = {
        "residual_spectra (2, 6), k=2, 20k trials": lambda: kernels.residual_spectra(
            sigma6, 2, 6, 2, 20_000, 42),
        "census_spectra (2, 3), 2k trials": lambda: kernels.census_spectra(2, 3, 2_000, 42),
        "normal_block, 960k values": lambda: kernels.normal_block(42, 0, 960_000),
        "construct_rank_k (4, 24), k=24": lambda: qm.construct_rank_k(sigma24, 4, 24),
        "is_extreme, rank 32 on (2, 32)": lambda: qm.is_extreme(rank32),
        "dumps of a 96x96 state": lambda: fileio.dumps(doc96),
        "import qmarginal (fresh interpreter)": _import_ms,
        "qmarginal feasible (fresh interpreter)": lambda: subprocess.run(
            [sys.executable, "-m", "qmarginal.cli", "feasible", "--r", "3", "--m", "2"],
            check=True, capture_output=True),
    }
    print(f"{'case':<44} {'best ms':>9} {'median ms':>10}")
    for name, fn in cases.items():
        t = _times(fn)
        print(f"{name:<44} {min(t):>9.1f} {statistics.median(t):>10.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
