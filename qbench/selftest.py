#!/usr/bin/env python3
"""Self-test of the output checkers: a checker that accepts everything fails here.

Usage (from the root of the repository):

    PYTHONPATH=src python3 qbench/selftest.py

For every operation of every workload (seed 1, CLI calls in-process) it
runs the operation once, requires the checker to accept the real output,
then feeds the checker a perturbed copy and requires it to be rejected.
It also requires the round runner to count a wrong output and a raising
operation as failed. Exits 1 if any checker rejects a real output or lets
a perturbed one through.
"""

from __future__ import annotations

import dataclasses
import json
import sys
import tempfile
from types import SimpleNamespace

import numpy as np

import qmarginal as qm

import workloads
from worker import _run_round

EPS = 1e-6  # far above every checker tolerance, far below any real entry


def _bump_matrix(mat):
    """Move weight between the first two diagonal entries: Hermitian, same trace."""
    out = np.array(mat, dtype=complex)
    out[0, 0] += EPS
    out[1, 1] -= EPS
    return out


def _fake_state(state):
    return SimpleNamespace(matrix=_bump_matrix(state.matrix), m=state.m, n=state.n)


def _perturb_doc(doc):
    doc = json.loads(json.dumps(doc))
    if "entries" in doc:
        doc["entries"][0][0] += EPS
    elif "states" in doc:
        doc["states"][0]["entries"][0][0] += EPS
    elif "rho" in doc:
        doc["rho"]["entries"][0][0] += EPS
    elif "is_extreme" in doc:
        doc["is_extreme"] = not doc["is_extreme"]
    elif "holds" in doc:
        doc["holds"] = not doc["holds"]
    elif "feasible" in doc:
        doc["feasible"] = not doc["feasible"]
    elif "k_min" in doc:
        doc["k_min"] += 1
    elif "rank" in doc:
        doc["rank"] += 1
    else:
        raise TypeError(f"no perturbation for the document keys {sorted(doc)}")
    return doc


def perturbations(out):
    """Perturbed copies of a correct output, each of which a checker must reject."""
    if isinstance(out, qm.BipartiteState):
        return [_fake_state(out)]
    if isinstance(out, qm.ApproxResult):
        return [
            dataclasses.replace(out, residual_spectrum=out.residual_spectrum + EPS),
            dataclasses.replace(out, rho=_fake_state(out.rho)),
        ]
    if isinstance(out, qm.ExtremalityReport):
        return [dataclasses.replace(out, is_extreme=not out.is_extreme)]
    if isinstance(out, float):  # a competitor's smallest norm
        return [0.0]
    if isinstance(out, (bool, qm.CompatReport)):
        return [False]
    if isinstance(out, tuple) and isinstance(out[0], qm.BipartiteState):  # split halves
        return [(_fake_state(out[0]), out[1]), (out[0], out[0])]
    if isinstance(out, list):  # census pairs
        return [out[:-1], [(lam * 2.0, mu) for lam, mu in out]]
    if isinstance(out, tuple) and isinstance(out[0], int):  # CLI (exit code, stdout)
        code, stdout = out
        return [(code + 1, stdout), (code, stdout[:-2]),
                (code, json.dumps(_perturb_doc(json.loads(stdout))))]
    raise TypeError(f"no perturbation for {type(out).__name__}")


def main() -> int:
    bad = []
    checked = 0
    with tempfile.TemporaryDirectory() as workdir:
        for name, build in workloads.WORKLOADS.items():
            before = len(bad)
            ops = build(1, workdir, True)
            for op in ops:
                out = op.run()
                why = op.check(out)
                if why:
                    bad.append(f"{name}/{op.name}: correct output rejected: {why}")
                for i, wrong in enumerate(perturbations(out)):
                    checked += 1
                    try:
                        verdict = op.check(wrong)
                    except Exception as exc:  # the worker counts a raising checker as a failure
                        verdict = f"raised {type(exc).__name__}"
                    if not verdict:
                        bad.append(f"{name}/{op.name}: perturbation {i} accepted")
            print(f"{name}: {len(ops)} operations, {len(bad) - before} problems")

        op = ops[0]
        wrong = perturbations(op.run())[0]
        tally = {"failed": 0, "wrong": 0, "errors": {}}

        def boom():
            raise qm.InfeasibleError("raised on purpose")

        _run_round([
            workloads.Op("wrong output", lambda: wrong, op.check),
            workloads.Op("raising", boom, op.check),
            op,
        ], tally)
        if (tally["failed"], tally["wrong"]) != (2, 1):
            bad.append(f"round runner counted {tally['failed']} failed, {tally['wrong']} wrong; want 2, 1")

    for line in bad:
        print("FAIL", line)
    print(f"{checked} perturbed outputs fed to the checkers; {len(bad)} problems")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
