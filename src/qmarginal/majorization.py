"""Majorization order, Schur-convex functionals, and Schatten norms."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import DimensionError, DomainError
from .linalg import spectrum

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


def _slacks(psx: list[float], psy: list[float]) -> list[float]:
    """y's prefix sums minus x's, then +- the totals' gap; x precedes y iff all are >= -MAJ_TOL."""
    gaps = [b - a for a, b in zip(psx, psy)]
    gaps.append(-gaps[-1])
    return gaps


def _slack(xs: list[float], ys: list[float]) -> float:
    """Signed slack of x preceding y, for descending lists of one nonzero length.

    Spectra are short: Python floats beat numpy calls.
    """
    slacks = _slacks(kernels._running_sums(xs), kernels._running_sums(ys))
    low = min(slacks)
    # a zero minimum ties +0.0 with the -0.0 of an exact total gap; the sign
    # is the one numpy's reduction picks
    return float(np.min(slacks)) if low == 0.0 else low


def _descending_pair(x, y) -> tuple[list[float], list[float]]:
    """x and y as descending lists, after the x-precedes-y test's length and finiteness checks."""
    x = np.asarray(x, dtype=float).reshape(-1)
    y = np.asarray(y, dtype=float).reshape(-1)
    if x.size != y.size:
        raise DimensionError(f"length mismatch {x.size} != {y.size}")
    if x.size == 0:
        raise DimensionError("majorization needs non-empty vectors")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise DomainError("majorization needs finite entries")
    return np.sort(x)[::-1].tolist(), np.sort(y)[::-1].tolist()


def majorizes(x, y) -> MajorizationReport:
    """Test whether x is majorized by y (prefix sums of x never exceed y's, totals equal).

    Both vectors must have the same length and finite entries (else
    DomainError); they are sorted internally, and every comparison is
    within MAJ_TOL. Prefix sums use compensated summation so the final
    equality check stays meaningful.
    """
    xs, ys = _descending_pair(x, y)
    psx, psy = kernels._running_sums(xs), kernels._running_sums(ys)
    slacks = _slacks(psx, psy)
    first = next((min(i + 1, len(xs)) for i, s in enumerate(slacks) if s < -MAJ_TOL), None)
    return MajorizationReport(
        holds=first is None,
        first_violation=first,
        partial_sums_x=np.array(psx),
        partial_sums_y=np.array(psy),
    )


def schatten_norm(a, p: float) -> float:
    """Schatten p-norm of a Hermitian matrix: the l_p norm of its ``spectrum``, summed ascending."""
    return lp_norm(spectrum(a)[::-1], p)


def lp_norm(values, p: float) -> float:
    """l_p norm of a real vector for p in [1, inf]."""
    _require_norm_p(p)
    v = np.abs(np.asarray(values, dtype=float))
    if v.size == 0:
        return 0.0
    return float(_lp_root(_lp_power_sums(v, p), p))


def _require_norm_p(p: float) -> None:
    if not p >= 1:  # also rejects NaN
        raise DomainError(f"Schatten/l_p norms need p >= 1, got {p}")


def _lp_power_sums(v: np.ndarray, p: float, axis=None):
    """Sums of v**p along axis (all of v for None; the max for p = inf): norms before ``_lp_root``."""
    if np.isinf(p):
        return v.max(axis=axis)
    # numpy's fast paths for the exponents 1 and 2 give the bits of v.sum() and (v * v).sum()
    return (v ** p).sum(axis=axis)


def _lp_root(s, p: float):
    """The increasing map from ``_lp_power_sums`` to the norm."""
    if np.isinf(p) or p == 1:
        return s
    if p == 2:
        return np.sqrt(s)
    return s ** (1.0 / p)
