"""Majorization order, Schur-convex functionals, and Schatten norms."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import DimensionError, DomainError
from .linalg import assert_hermitian

MAJ_TOL = 1e-10


@dataclass(frozen=True)
class MajorizationReport:
    """Outcome of an x-precedes-y test with the prefix sums that decided it."""

    holds: bool
    first_violation: int | None
    partial_sums_x: np.ndarray
    partial_sums_y: np.ndarray

    def __bool__(self) -> bool:
        return self.holds


def majorizes(x, y, pad: bool = False, tol: float = MAJ_TOL) -> MajorizationReport:
    """Test whether x is majorized by y (prefix sums of x never exceed y's, totals equal).

    Inputs are sorted internally; with ``pad=True`` the shorter vector is
    zero-padded first. Prefix sums use compensated summation so the final
    equality check stays meaningful.
    """
    x = np.asarray(x, dtype=float).reshape(-1)
    y = np.asarray(y, dtype=float).reshape(-1)
    if x.size != y.size:
        if not pad:
            raise DimensionError(f"length mismatch {x.size} != {y.size} (pass pad=True to zero-pad)")
        size = max(x.size, y.size)
        x = np.pad(x, (0, size - x.size))
        y = np.pad(y, (0, size - y.size))
    if x.size == 0:
        raise DimensionError("majorization needs non-empty vectors")
    xs = np.sort(x)[::-1]
    ys = np.sort(y)[::-1]
    psx = kernels.prefix_sums(xs)
    psy = kernels.prefix_sums(ys)
    gaps = psy - psx
    first = None
    for i in range(len(gaps) - 1):
        if gaps[i] < -tol:
            first = i + 1
            break
    if first is None and abs(gaps[-1]) > tol:
        first = len(gaps)
    return MajorizationReport(
        holds=first is None,
        first_violation=first,
        partial_sums_x=psx,
        partial_sums_y=psy,
    )


def majorization_slack(x, y, pad: bool = False) -> float:
    """Signed slack of the x-precedes-y test: nonnegative (within tol) iff it holds."""
    rep = majorizes(x, y, pad=pad)
    gaps = rep.partial_sums_y - rep.partial_sums_x
    total = gaps[-1]
    candidates = np.concatenate([gaps[:-1], [total, -total]]) if len(gaps) > 1 else np.array([total, -total])
    return float(candidates.min())


def schatten_norm(a, p: float) -> float:
    """Schatten p-norm of a Hermitian matrix: the l_p norm of its eigenvalues."""
    a = np.asarray(a, dtype=complex)
    assert_hermitian(a)
    w = np.abs(np.linalg.eigvalsh((a + a.conj().T) / 2.0))
    return lp_norm(w, p)


def lp_norm(values, p: float) -> float:
    """l_p norm of a real vector for p in [1, inf]."""
    if p < 1:
        raise DomainError(f"Schatten/l_p norms need p >= 1, got {p}")
    v = np.abs(np.asarray(values, dtype=float))
    if v.size == 0:
        return 0.0
    if np.isinf(p):
        return float(v.max())
    if p == 1:
        return float(v.sum())
    if p == 2:
        return float(np.sqrt((v * v).sum()))
    return float((v ** p).sum() ** (1.0 / p))


def von_neumann_entropy(values, tol: float = MAJ_TOL) -> float:
    """Entropy -sum x ln x of a probability spectrum, with 0 ln 0 = 0.

    Entries below -tol are rejected; tiny negatives are clamped to zero.
    """
    v = np.asarray(values, dtype=float).reshape(-1)
    if v.size and float(v.min()) < -tol:
        raise DomainError(f"spectrum entry {v.min()} is negative beyond tolerance")
    v = np.clip(v, 0.0, None)
    pos = v[v > 0.0]
    return float(-(pos * np.log(pos)).sum())


def sum_k_largest(x, k: int) -> float:
    """Sum of the k largest entries (the Ky Fan functional on vectors)."""
    x = np.asarray(x, dtype=float).reshape(-1)
    if not 1 <= k <= x.size:
        raise DomainError(f"k must lie in [1, {x.size}], got {k}")
    return float(np.sort(x)[::-1][:k].sum())
