#!/usr/bin/env python3
"""Score tier-1 against seeded one-spot mutants of one qmarginal module.

Usage (from the root of the repository):

    python3 tools/mutants.py MODULE SAMPLE [--seed N]

MODULE names a file of ``src/qmarginal`` (``constructors``, ``linalg``, ...).
Each mutant changes one spot of it: it swaps one binary or augmented
operator (``+`` and ``-``, ``*`` and ``/``) or one comparison (``<`` and
``<=``, ``>`` and ``>=``), or it multiplies one nonzero float constant by
10. The spots are found with ``ast``, located in the text with
``tokenize`` so that the rest of the file keeps its bytes, and SAMPLE of
them are drawn with ``random.Random(seed)``.

The tree (with ``qbench/``, which a tier-1 test reads) is copied once to a
temporary directory, and each mutant is written into that copy only. There
tier-1 runs with ``-x``, one BLAS thread, no bytecode cache and a bounded
address space. A failing run, or one past TIMEOUT, kills the mutant.
The unmutated copy runs first and must pass. One line per mutant gives
file:line, the change, the verdict and the time; then the score. Exit 0
when every mutant is killed, 1 when one survives, 2 when the copy fails
unmutated. A full sample takes minutes, so this stays out of CI.
"""

from __future__ import annotations

import argparse
import ast
import io
import os
import random
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
import time
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path("src") / "qmarginal"
TIER1 = ["-m", "pytest", "-q", "-x", "--continue-on-collection-errors", "-p", "no:cacheprovider"]
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
          "PYTHONDONTWRITEBYTECODE": "1"}
ADDRESS_SPACE = 4 * 2**30  # bytes per tier-1 run: a mutant that allocates without bound fails alone
TIMEOUT = 300.0  # seconds per tier-1 run: a mutant that loops for ever is killed
SWAPS = {"+": "-", "-": "+", "*": "/", "/": "*", "+=": "-=", "-=": "+=", "*=": "/=", "/=": "*=",
         "<": "<=", "<=": "<", ">": ">=", ">=": ">"}
OPERATORS = {ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/",
             ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">="}


def _char_pos(lines: list[str], lineno: int, byte_col: int) -> tuple[int, int]:
    """An ``ast`` (line, UTF-8 byte column) as the (line, character column) of ``tokenize``."""
    return lineno, len(lines[lineno - 1].encode()[:byte_col].decode())


def _gaps(node: ast.AST):
    """(operator symbol, node before it, node after it) for each swappable operator of ``node``."""
    if isinstance(node, ast.BinOp) and type(node.op) in OPERATORS:
        yield OPERATORS[type(node.op)], node.left, node.right
    elif isinstance(node, ast.AugAssign) and type(node.op) in OPERATORS:
        yield OPERATORS[type(node.op)] + "=", node.target, node.value
    elif isinstance(node, ast.Compare):
        for before, op, after in zip([node.left, *node.comparators], node.ops, node.comparators):
            if type(op) in OPERATORS:
                yield OPERATORS[type(op)], before, after


def mutants(source: str) -> list[tuple[int, int, int, str, str]]:
    """Every mutant of ``source`` as (line, start column, end column, old text, new text)."""
    lines = source.splitlines(keepends=True)
    tokens = [t for t in tokenize.generate_tokens(io.StringIO(source).readline)
              if t.type in (tokenize.OP, tokenize.NUMBER)]
    out = []
    for node in ast.walk(ast.parse(source)):
        for symbol, before, after in _gaps(node):
            lo = _char_pos(lines, before.end_lineno, before.end_col_offset)
            hi = _char_pos(lines, after.lineno, after.col_offset)
            # None inside an f-string, whose parts tokenize does not split before Python 3.12
            tok = next((t for t in tokens if t.string == symbol and lo <= t.start and t.end <= hi), None)
            if tok is not None:
                out.append((*tok.start, tok.end[1], symbol, SWAPS[symbol]))
        if isinstance(node, ast.Constant) and type(node.value) is float and node.value != 0.0:
            line, col = _char_pos(lines, node.lineno, node.col_offset)
            end = _char_pos(lines, node.end_lineno, node.end_col_offset)[1]
            old = lines[line - 1][col:end]
            out.append((line, col, end, old, repr(node.value * 10)))
    return sorted(set(out))


def _apply(source: str, mutant) -> str:
    line, col, end, _, new = mutant
    lines = source.splitlines(keepends=True)
    lines[line - 1] = lines[line - 1][:col] + new + lines[line - 1][end:]
    return "".join(lines)


def _limit_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, ADDRESS_SPACE))


def run_tier1(tree: Path) -> str:
    """"passed", "failed" or "timeout" for tier-1 in ``tree``."""
    env = {**os.environ, **PINNED, "PYTHONPATH": str(tree / "src")}
    with subprocess.Popen([sys.executable, *TIER1], cwd=tree, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL, start_new_session=True,
                          preexec_fn=_limit_memory) as proc:
        try:
            return "passed" if proc.wait(timeout=TIMEOUT) == 0 else "failed"
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)  # pytest and any process it started
            proc.wait()
            return "timeout"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("module", help="a module of src/qmarginal, e.g. constructors")
    parser.add_argument("sample", type=int, help="how many mutants to draw")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    rel = PACKAGE / f"{args.module.removesuffix('.py')}.py"
    if not (ROOT / rel).is_file():
        parser.error(f"no module {rel}")
    source = (ROOT / rel).read_text()
    every = mutants(source)
    drawn = sorted(random.Random(args.seed).sample(every, min(args.sample, len(every))))
    print(f"{rel}: {len(drawn)} of {len(every)} mutants, seed {args.seed}", flush=True)
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis", ".qbench_out"))
        if run_tier1(tree) != "passed":
            print("tier-1 fails on the unmutated copy: no score", flush=True)
            return 2
        survivors = 0
        for mutant in drawn:
            (tree / rel).write_text(_apply(source, mutant))
            start = time.perf_counter()
            verdict = run_tier1(tree)
            survived = verdict == "passed"
            survivors += survived
            line, col, _, old, new = mutant
            print(f"{rel}:{line}:{col + 1}  {old} -> {new}  {'SURVIVED' if survived else 'killed'}"
                  f"{' (timeout)' if verdict == 'timeout' else ''}  {time.perf_counter() - start:.1f} s"
                  f"  | {source.splitlines()[line - 1].strip()}", flush=True)
    killed = len(drawn) - survivors
    print(f"score: {killed} of {len(drawn)} killed ({100.0 * killed / max(len(drawn), 1):.1f}%), "
          f"{survivors} survived", flush=True)
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
