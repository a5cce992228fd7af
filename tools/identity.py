#!/usr/bin/env python3
"""Compare every benchmark output of this tree with another checkout, bit for bit.

Usage (from the root of the repository):

    python3 tools/identity.py --parent /path/to/checkout/of/the/parent/commit

For each tree and for seeds 1 and 2, a fresh process with
``PYTHONPATH=<tree>/src`` and one BLAS thread builds the ``construct``,
``extreme`` and ``oracle`` rounds from that tree's ``qbench/workloads.py``
and runs every operation once. It also runs each argv of
``workloads._cli_calls`` as ``python -m qmarginal.cli`` and keeps the exit
code, stdout and stderr. Every result is flattened into leaves (arrays,
floats, ints, strings, flags) that are compared bit for bit. The summary
gives the identical and moved leaves per kind and the largest move. A moved
``eigenvectors`` array is also compared by its range projector, and a moved
``certificate`` by its phase-free distance (its report's verdict is a flag
of its own), since both may move with no change in meaning. Exit 0 when every leaf is
identical, else 1. Nothing is stored: the leaves travel over a pipe.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import os
import pickle
import struct
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SEEDS = (1, 2)
ROUNDS = ("construct", "extreme", "oracle")
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SHOWN = 20  # moved leaves listed one per line


def _leaves(obj, path: str, out: dict) -> None:
    """Flatten ``obj`` into ``out[path] = (kind, value)`` with bit-exact values."""
    if dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            _leaves(getattr(obj, f.name), f"{path}.{f.name}", out)
    elif isinstance(obj, dict):
        for key, value in obj.items():
            _leaves(value, f"{path}[{key!r}]", out)
    elif isinstance(obj, (tuple, list)):
        names = getattr(obj, "_fields", range(len(obj)))  # a NamedTuple keeps its field names
        for name, value in zip(names, obj):
            _leaves(value, f"{path}.{name}" if isinstance(name, str) else f"{path}[{name}]", out)
    elif isinstance(obj, np.ndarray):
        out[path] = ("array", (obj.dtype.str, obj.shape, obj.tobytes()))
    elif isinstance(obj, (bool, np.bool_)):
        out[path] = ("flag", bool(obj))
    elif isinstance(obj, (int, np.integer)):
        out[path] = ("int", int(obj))
    elif isinstance(obj, (float, np.floating)):
        out[path] = ("float", struct.pack("<d", float(obj)))
    elif isinstance(obj, str):
        out[path] = ("string", obj)
    elif obj is None:
        out[path] = ("none", None)
    else:
        raise TypeError(f"{path}: no leaf rule for {type(obj).__name__}")


def collect(seed: int) -> dict:
    """Leaves of every call of one seed, in the tree on this process's path.

    Keys: ``tree`` (where qmarginal came from), ``calls`` (how many
    operations and cli calls ran) and ``leaves``.
    """
    import qmarginal

    tree = Path(qmarginal.__file__).resolve().parents[2]
    sys.path.insert(0, str(tree / "qbench"))
    import workloads

    out, calls = {}, 0
    with tempfile.TemporaryDirectory() as workdir:
        for name in ROUNDS:
            for i, op in enumerate(workloads.WORKLOADS[name](seed, workdir, False)):
                try:
                    result = op.run()
                except Exception as exc:  # an error is an output too
                    result = f"{type(exc).__name__}: {exc}"
                _leaves(result, f"{name} seed {seed} #{i:03d} {op.name}", out)
                calls += 1
        for name, argv, _, _ in workloads._cli_calls(seed, workdir):
            proc = subprocess.run([sys.executable, "-m", "qmarginal.cli", *argv],
                                  capture_output=True, text=True, timeout=300)
            streams = [s.replace(workdir, "<workdir>") for s in (proc.stdout, proc.stderr)]
            _leaves({"code": proc.returncode, "stdout": streams[0], "stderr": streams[1]},
                    f"cli seed {seed} {name}", out)
            calls += 1
    return {"tree": str(tree), "calls": calls, "leaves": out}


def _run_tree(tree: Path, seed: int) -> tuple[int, dict]:
    proc = subprocess.run([sys.executable, __file__, "--collect", str(seed)],
                          capture_output=True, cwd=tree, timeout=900,
                          env={**os.environ, **PINNED, "PYTHONPATH": str(tree / "src")})
    if proc.returncode:
        sys.exit(f"identity: collecting seed {seed} in {tree} failed:\n{proc.stderr.decode()}")
    got = pickle.loads(proc.stdout)
    if Path(got["tree"]) != tree.resolve():
        sys.exit(f"identity: {tree} imported qmarginal from {got['tree']}")
    return got["calls"], got["leaves"]


def _array(value) -> np.ndarray:
    dtype, shape, raw = value
    return np.frombuffer(raw, dtype=dtype).reshape(shape)


def _move(kind: str, a, b) -> float | None:
    """Largest absolute difference between two moved leaves; None if they are not numbers."""
    if kind == "array":
        x, y = _array(a), _array(b)
        return float(np.abs(x - y).max()) if x.shape == y.shape and x.size else np.inf
    if kind == "float":
        return abs(struct.unpack("<d", a)[0] - struct.unpack("<d", b)[0])
    if kind == "int":
        return float(abs(a - b))
    return None


def _second_look(path: str, a, b, old: dict):
    """(label, distance) for a moved eigenvector basis or certificate, else None.

    A certificate is present exactly when its report's ``is_extreme`` flag
    is false, and that flag is compared as a leaf of its own.
    """
    if path.endswith(".eigenvectors"):
        rank = old[path[: -len("eigenvectors")] + "rank"][1]
        proj = [v @ v.conj().T for v in (_array(x)[:, :rank] for x in (a, b))]
        return "eigenvectors by range projector", float(np.abs(proj[0] - proj[1]).max())
    if path.endswith(".certificate"):
        h0, h1 = _array(a), _array(b)
        overlap = abs(np.vdot(h0, h1)) / (np.linalg.norm(h0) * np.linalg.norm(h1))
        return "certificates by phase-free distance", float(np.sqrt(max(2.0 - 2.0 * overlap, 0.0)))
    return None


def compare(parent: Path) -> int:
    old, new, calls = {}, {}, [0, 0]
    for seed in SEEDS:
        for i, (tree, leaves) in enumerate(((parent, old), (ROOT, new))):
            n, got = _run_tree(tree, seed)
            calls[i] += n
            leaves.update(got)
    counts: dict[str, list] = {}  # kind -> [identical, moved, largest numeric move]
    looks: dict[str, list] = {}  # label -> [moved, largest distance]
    unexplained = []
    for path in sorted(old.keys() | new.keys()):
        (kind, a), (kind_new, b) = old.get(path, ("missing", None)), new.get(path, ("missing", None))
        label = kind if kind == kind_new else f"{kind}->{kind_new}"
        row = counts.setdefault(label, [0, 0, None])
        if kind == kind_new and a == b:
            row[0] += 1
            continue
        move = _move(kind, a, b) if kind == kind_new else None
        row[1] += 1
        if move is not None:
            row[2] = max(row[2] or 0.0, move)
        look = _second_look(path, a, b, old) if kind == kind_new == "array" else None
        if look is None:
            unexplained.append(f"moved {label}: {path}" + ("" if move is None else f": {move:.3e}"))
            continue
        agg = looks.setdefault(look[0], [0, 0.0])
        agg[0] += 1
        agg[1] = max(agg[1], look[1])
    print(f"parent {parent.resolve()}\nchange {ROOT}\nseeds {', '.join(map(str, SEEDS))}: "
          f"rounds {', '.join(ROUNDS)} and every cli call (exit code, stdout, stderr)\n"
          f"calls run: {calls[0]} in the parent, {calls[1]} in this tree")
    print(f"{'kind':<8} {'identical':>9} {'moved':>6}  largest move")
    for kind, (same, diff, largest) in sorted(counts.items()):
        print(f"{kind:<8} {same:>9} {diff:>6}  {'-' if largest is None else f'{largest:.3e}'}")
    for label, (n, dist) in looks.items():
        print(f"second look at {n} moved {label}: largest distance {dist:.3e}")
    for line in unexplained[:SHOWN]:
        print(line)
    if len(unexplained) > SHOWN:
        print(f"... and {len(unexplained) - SHOWN} more moved")
    same, diff = (sum(row[i] for row in counts.values()) for i in (0, 1))
    print(f"{same} outputs identical, {diff} moved")
    return 1 if diff else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, help="root of the checkout to compare with")
    parser.add_argument("--collect", type=int, metavar="SEED", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.collect is not None:
        # a child of compare(): results go to stdout as a pickle, so anything
        # the operations print is sent to stderr
        with contextlib.redirect_stdout(sys.stderr):
            leaves = collect(args.collect)
        sys.stdout.buffer.write(pickle.dumps(leaves))
        return 0
    if args.parent is None:
        parser.error("--parent is required")
    return compare(args.parent)


if __name__ == "__main__":
    sys.exit(main())
