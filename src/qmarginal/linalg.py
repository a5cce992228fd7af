"""Complex dense matrix substrate.

Conventions used throughout the package:

* A bipartite matrix on an (m, n) system is an (m*n, m*n) array viewed as
  an m x m grid of n x n blocks; basis vector ``e_i (x) e_j`` sits at flat
  index ``i*n + j`` (0-based).
* ``fold`` reshapes a length-m*n vector into the n x m matrix whose column
  ``j`` holds entries ``j*n .. (j+1)*n``; ``unfold`` is its inverse. Under
  these maps ``tr1(w w*) = W W*`` and ``tr2(w w*) = W^t (W^t)*``.
* Spectra are real vectors sorted descending.
* A state built as ``rho = Z Z*`` from a factor of k < m*n columns is
  validated from the factor: its spectrum and eigenvectors come from the
  SVD of the (m*n, k) ``Z``, which costs O(mn k^2) instead of the O((mn)^3)
  eigendecomposition of rho.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, InfeasibleError, ValidationError
from .rng import PortableRng

HERMIT_TOL = 1e-9
PSD_TOL = 1e-9
TRACE_TOL = 1e-9
RANK_TOL_FACTOR = 1e-9
EIG_TOL = 1e-12


def _freeze(a: np.ndarray) -> np.ndarray:
    out = np.array(a)
    out.setflags(write=False)
    return out


def hermiticity_defect(a: np.ndarray) -> float:
    """max |A - A*| entry, relative to max(1, max |A|)."""
    a = np.asarray(a)
    scale = max(1.0, float(np.abs(a).max())) if a.size else 1.0
    return float(np.abs(a - a.conj().T).max()) / scale


def assert_hermitian(a: np.ndarray, tol: float = HERMIT_TOL) -> None:
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.size == 0:
        raise DimensionError(f"expected a non-empty square matrix, got shape {a.shape}")
    defect = hermiticity_defect(a)
    if defect > tol:
        raise ValidationError(
            "not-hermitian", f"matrix is not Hermitian (relative defect {defect:.3e})"
        )


@dataclass(frozen=True)
class DensityMatrix:
    """Validated positive semidefinite unit-trace Hermitian matrix.

    ``eigenvalues`` is the spectrum computed at construction, clipped at 0,
    and ``eigenvectors`` holds the matching unit eigenvectors as columns, so
    ``matrix`` is ``eigenvectors @ diag(eigenvalues) @ eigenvectors*`` up to
    the clipping. Both are descending. For a matrix they are in the order of
    :func:`hermitian_eig`, with exact ties kept in the solver's order (stable
    sort). For a state validated from a thin factor Z (``factor=Z``) they come
    from the full SVD of Z: the eigenvectors are its left singular vectors,
    ties keep the SVD's order, and the trailing zeros of the spectrum carry
    the completing columns of the SVD's unitary. ``rank`` is the numerical
    rank at the construction tolerance, so the first ``rank`` eigenvalues are
    positive. Construct via :func:`validate_density`; instances are immutable.
    """

    matrix: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    rank: int

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class BipartiteState:
    """A density matrix on an (m, n) system with its factorization dims."""

    m: int
    n: int
    rho: DensityMatrix

    def __post_init__(self):
        if self.m < 1 or self.n < 1:
            raise DimensionError(f"factor dims must be >= 1, got m={self.m}, n={self.n}")
        if self.rho.dim != self.m * self.n:
            raise DimensionError(
                f"state dim {self.rho.dim} != m*n = {self.m * self.n}"
            )

    @property
    def matrix(self) -> np.ndarray:
        return self.rho.matrix

    @property
    def rank(self) -> int:
        return self.rho.rank


def fold(w, m: int, n: int) -> np.ndarray:
    """Reshape a length-m*n vector into the n x m matrix with column j = w[j*n:(j+1)*n]."""
    w = np.asarray(w, dtype=complex).reshape(-1)
    if w.size != m * n:
        raise DimensionError(f"vector length {w.size} != m*n = {m * n}")
    return w.reshape(m, n).T.copy()


def unfold(mat) -> np.ndarray:
    """Inverse of :func:`fold`: stack the columns of an n x m matrix."""
    mat = np.asarray(mat, dtype=complex)
    if mat.ndim != 2:
        raise DimensionError(f"expected a matrix, got ndim {mat.ndim}")
    return mat.T.reshape(-1)


def _coerce_bipartite(state, m=None, n=None):
    if isinstance(state, BipartiteState):
        return state.matrix, state.m, state.n
    rho = np.asarray(state, dtype=complex)
    if m is None or n is None:
        raise DimensionError("raw matrices need explicit factor dims m and n")
    if m < 1 or n < 1:
        raise DimensionError(f"factor dims must be >= 1, got m={m}, n={n}")
    if rho.shape != (m * n, m * n):
        raise DimensionError(f"shape {rho.shape} incompatible with (m, n) = ({m}, {n})")
    return rho, m, n


def partial_trace_first(state, m: int | None = None, n: int | None = None) -> np.ndarray:
    """Trace out the first factor: the sum of the m diagonal n x n blocks."""
    rho, m, n = _coerce_bipartite(state, m, n)
    return np.einsum("aiaj->ij", rho.reshape(m, n, m, n))


def partial_trace_second(state, m: int | None = None, n: int | None = None) -> np.ndarray:
    """Trace out the second factor: entry (a, b) is the trace of block (a, b)."""
    rho, m, n = _coerce_bipartite(state, m, n)
    return np.einsum("aibi->ab", rho.reshape(m, n, m, n))


def hermitian_eig(a, tol: float = HERMIT_TOL):
    """Descending eigendecomposition (w, V) of a Hermitian matrix, A = V diag(w) V*.

    The eigh is taken of the Hermitian part of A. Ties keep the solver's
    output order under a stable sort.
    """
    a = np.asarray(a, dtype=complex)
    assert_hermitian(a, tol)
    w, v = np.linalg.eigh((a + a.conj().T) / 2.0)
    order = np.argsort(-w, kind="stable")
    return w[order], v[:, order]


def spectrum(a) -> np.ndarray:
    """Descending eigenvalues of a Hermitian matrix."""
    return hermitian_eig(a)[0]


def validate_density(
    a=None,
    hermit_tol: float = HERMIT_TOL,
    psd_tol: float = PSD_TOL,
    trace_tol: float = TRACE_TOL,
    rank_tol_factor: float = RANK_TOL_FACTOR,
    *,
    factor=None,
) -> DensityMatrix:
    """Validate finiteness / Hermiticity / positivity / unit trace and compute the numerical rank.

    Pass either the matrix ``a`` or, as ``factor=Z``, a factor of ``a = Z Z*``.
    A factor of k < d columns on C^d gives the spectrum and eigenvectors from
    one full SVD of the d x k factor, not an eigendecomposition of the d x d
    matrix: the squared singular values padded with d - k zeros, and the full
    left singular basis. A wider factor takes the matrix path on Z Z*.
    """
    if (a is None) == (factor is None):
        raise TypeError("pass exactly one of a matrix and factor=")
    if factor is None:
        a = np.asarray(a, dtype=complex)
        if not np.isfinite(a).all():
            raise ValidationError("not-finite", "matrix has a non-finite entry")
        w, v = hermitian_eig(a, hermit_tol)
    else:
        z = np.asarray(factor, dtype=complex)
        if z.ndim != 2:
            raise DimensionError(f"expected a factor matrix, got ndim {z.ndim}")
        if not np.isfinite(z).all():
            raise ValidationError("not-finite", "factor has a non-finite entry")
        a = z @ z.conj().T
        d, k = z.shape
        if k >= d:
            w, v = hermitian_eig(a, hermit_tol)
        else:
            assert_hermitian(a, hermit_tol)
            v, s, _ = np.linalg.svd(z, full_matrices=True)
            w = np.zeros(d)
            w[:k] = s * s
    wmax = float(w[0])
    wmin = float(w[-1])
    if wmin < -psd_tol * max(1.0, abs(wmax)):
        raise ValidationError(
            "not-psd", f"matrix is not positive semidefinite (min eigenvalue {wmin:.3e})"
        )
    tr = float(np.trace(a).real)
    if abs(tr - 1.0) > trace_tol:
        raise ValidationError("trace-not-one", f"trace is {tr!r}, expected 1")
    rank = int(np.sum(w > rank_tol_factor * max(wmax, 0.0)))
    return DensityMatrix(
        matrix=_freeze(a),
        eigenvalues=_freeze(np.maximum(w, 0.0)),  # stored density spectra are nonnegative
        eigenvectors=_freeze(v),
        rank=rank,
    )


def bipartite(a, m: int, n: int, *, factor=None) -> BipartiteState:
    """Validate a matrix (or, with ``factor=Z``, Z Z*) at the default tolerances; attach dims."""
    return BipartiteState(m=m, n=n, rho=validate_density(a, factor=factor))


def random_density(d: int, rank: int, seed: int) -> DensityMatrix:
    """Seeded random density matrix of the requested rank: G G* / tr(G G*)."""
    if not 1 <= rank <= d:
        raise InfeasibleError(f"rank must lie in [1, {d}], got {rank}")
    g = PortableRng(seed).complex_normal((d, rank))
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    return validate_density(rho)
