"""Complex dense matrix substrate.

Conventions used throughout the package:

* A bipartite matrix on an (m, n) system is an (m*n, m*n) array viewed as
  an m x m grid of n x n blocks; basis vector ``e_i (x) e_j`` sits at flat
  index ``i*n + j`` (0-based).
* ``fold`` reshapes a length-m*n vector into the n x m matrix whose column
  ``j`` holds entries ``j*n .. (j+1)*n``; ``unfold`` is its inverse. Under
  these maps ``tr1(w w*) = W W*`` and ``tr2(w w*) = W^t (W^t)*``.
* Spectra are real vectors sorted descending.
* A state built as ``rho = Z Z*`` from a factor of any width k is
  validated from ``Z``, not from the O((mn)^3) eigendecomposition of rho,
  and keeps only the eigenvectors of its range. A factor whose columns are
  nonzero and pairwise orthogonal (every cosine at most ``ORTHO_TOL``)
  reads them off its k x k Gram ``Z* Z``: the squared column norms are the
  eigenvalues, within a relative (k - 1) * ``ORTHO_TOL``, and the
  normalised columns the eigenvectors. Any other factor takes the thin SVD
  of the (m*n, k) ``Z``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, DomainError, InfeasibleError, ValidationError
from .kernels import PortableRng, _positive

HERMIT_TOL = 1e-9
PSD_TOL = 1e-9
TRACE_TOL = 1e-9
RANK_TOL_FACTOR = 1e-9
# Largest pairwise cosine |<z_i, z_j>| / (|z_i| |z_j|) at which the columns
# of a factor count as orthogonal. Then Z* Z = D^1/2 C D^1/2 for D the squared
# column norms and C of unit diagonal, whose eigenvalues lie within
# (k - 1) * ORTHO_TOL of 1 (Gershgorin); by Ostrowski's theorem the i-th
# eigenvalue of Z Z* lies within a relative (k - 1) * ORTHO_TOL of the i-th
# largest squared norm: 1.3e-10 at k = 128, far below the constructions'
# spectrum tolerance 1e-8.
ORTHO_TOL = 1e-12


def _check_tolerance(name: str, value: float) -> None:
    if not 0 <= value < math.inf:  # NaN fails both comparisons
        raise DomainError(f"{name} must be finite and >= 0, got {value!r}")


def factor_dims(total: int, m: int | None, n: int | None) -> tuple[int, int]:
    """Factor dims (m, n) of a system of dimension ``total``; a missing one is derived.

    The one check of factor dims against a dimension: both are >= 1 and
    m*n = total.
    """
    if m is None and n is None:
        raise DimensionError("bipartite input needs factor dims (m, n) in file or flags")
    if m is None or n is None:
        name, given = ("m", m) if n is None else ("n", n)
        if given < 1 or total % given:
            raise DimensionError(f"{name} = {given} does not divide the matrix dimension {total}")
        return (given, total // given) if n is None else (total // given, given)
    if m < 1 or n < 1 or m * n != total:
        raise DimensionError(f"factor dims m={m}, n={n} do not factor the matrix dimension {total}")
    return m, n


def _explicit_dims(total: int, m: int | None, n: int | None) -> tuple[int, int]:
    """:func:`factor_dims` with both dims given: states and raw matrices derive none."""
    if m is None or n is None:
        raise DimensionError(f"explicit factor dims m and n are needed, got m={m}, n={n}")
    return factor_dims(total, m, n)


def assert_hermitian(a: np.ndarray, tol: float = HERMIT_TOL) -> None:
    """Raise unless A is finite, square, non-empty and max |A - A*| <= tol * max(1, max |A|).

    Both sides are taken halved, max |A/2 - A*/2| against max(1, max |A|)/2,
    which no finite entry overflows; halving is exact for normal numbers.
    """
    _check_tolerance("tol", tol)
    if not np.isfinite(a).all():
        raise ValidationError("not-finite", "matrix has a non-finite entry")
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.size == 0:
        raise DimensionError(f"expected a non-empty square matrix, got shape {a.shape}")
    half = a / 2.0
    defect = float(np.abs(half - half.conj().T).max()) / max(0.5, float(np.abs(half).max()))
    if defect > tol:
        raise ValidationError(
            "not-hermitian", f"matrix is not Hermitian (relative defect {defect:.3e})"
        )


def _hermitian_part(a: np.ndarray) -> np.ndarray:
    """A/2 + A*/2, which no finite entry overflows (unlike (A + A*)/2)."""
    return a / 2.0 + a.conj().T / 2.0


@dataclass(frozen=True)
class DensityMatrix:
    """Validated positive semidefinite unit-trace Hermitian matrix.

    ``eigenvalues`` is the spectrum computed at construction, clipped at 0,
    and the c columns of ``eigenvectors`` are unit eigenvectors of its first
    c entries, so ``matrix`` is ``V @ diag(w[:c]) @ V*`` up to the clipping.
    Both are descending. For a matrix they are in the order of
    :func:`hermitian_eig`, with exact ties kept in the solver's order (stable
    sort). For a state validated from a d x k factor Z (``factor=Z``),
    ``eigenvectors`` is a d x min(d, k) orthonormal basis of the range, and
    the zeros that pad the spectrum to length d have no eigenvector. If the
    columns of Z are nonzero and pairwise orthogonal to ``ORTHO_TOL`` they
    are that basis, normalised, under their squared norms, ties in column
    order; otherwise both come from the thin SVD of Z, ties in its order.
    ``rank`` is the numerical rank at the construction tolerance, so the
    first ``rank`` eigenvalues are positive. Construct via
    :func:`validate_density`; instances are immutable, and their read-only
    arrays share no memory with the caller's matrix or factor.
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
        _explicit_dims(self.rho.dim, self.m, self.n)

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
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {rho.shape}")
    return (rho, *_explicit_dims(rho.shape[0], m, n))


def partial_trace_first(state, m: int | None = None, n: int | None = None) -> np.ndarray:
    """Trace out the first factor: the sum of the m diagonal n x n blocks."""
    rho, m, n = _coerce_bipartite(state, m, n)
    return np.einsum("aiaj->ij", rho.reshape(m, n, m, n))


def partial_trace_second(state, m: int | None = None, n: int | None = None) -> np.ndarray:
    """Trace out the second factor: entry (a, b) is the trace of block (a, b)."""
    rho, m, n = _coerce_bipartite(state, m, n)
    return np.einsum("aibi->ab", rho.reshape(m, n, m, n))


def _descending(w: np.ndarray) -> np.ndarray:
    """Stable order sorting eigenvalues w descending; a non-finite one raises ValidationError."""
    if not np.isfinite(w).all():
        raise ValidationError("not-finite", "matrix has a non-finite eigenvalue")
    return np.argsort(-w, kind="stable")


def hermitian_eig(a, tol: float = HERMIT_TOL):
    """Descending eigendecomposition (w, V) of a Hermitian matrix, A = V diag(w) V*.

    The eigh is taken of the Hermitian part A/2 + A*/2, which no finite
    entry overflows; a spectrum that still does raises ``ValidationError``
    ("not-finite"). Ties keep the solver's output order under a stable sort.
    """
    a = np.asarray(a, dtype=complex)
    assert_hermitian(a, tol)
    w, v = np.linalg.eigh(_hermitian_part(a))
    order = _descending(w)
    return w[order], v[:, order]


def spectrum(a) -> np.ndarray:
    """Descending eigenvalues: :func:`hermitian_eig`'s checks and errors, without eigenvectors
    (from ``eigvalsh``, so they may differ from ``hermitian_eig``'s in the last digit)."""
    a = np.asarray(a, dtype=complex)
    assert_hermitian(a)
    w = np.linalg.eigvalsh(_hermitian_part(a))
    return w[_descending(w)]


def _factor_eig(z: np.ndarray, zc: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Descending spectrum of Z Z*, zero-padded to length d, and a d x min(d, k) range basis.

    ``zc`` is ``Z.conj()``. Nonzero columns whose pairwise cosines are all
    at most ``ORTHO_TOL`` give both from the Gram ``Z* Z``; any other factor
    takes the thin SVD.
    """
    d, k = z.shape
    w = np.zeros(d)
    if k <= d:  # more than d columns cannot all be nonzero and orthogonal
        gram = zc.T @ z
        sq = gram.diagonal().real
        if (sq > 0.0).all():
            norm = np.sqrt(sq)
            # divided by one norm at a time: the product of two tiny norms
            # would underflow to 0. A NaN cosine (inf / inf) fails the test
            # below
            cos = np.abs(gram) / norm[:, None] / norm
            np.fill_diagonal(cos, 0.0)
            if (cos <= ORTHO_TOL).all():
                order = np.argsort(-sq, kind="stable")
                w[:k] = sq[order]
                return w, z[:, order] / norm[order]
    v, s, _ = np.linalg.svd(z, full_matrices=False)
    w[:s.size] = s * s
    return w, v


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
    A d x k factor of any width takes no eigendecomposition of the d x d
    matrix. If its columns are nonzero with every pairwise cosine at most
    ``ORTHO_TOL`` (so k <= d), the spectrum is their squared norms sorted
    descending, each within a relative (k - 1) * ``ORTHO_TOL`` of the exact
    eigenvalue, and the basis the normalised columns. Any other factor takes
    one thin SVD: the squared singular values and the d x min(d, k) left
    singular basis. Either spectrum is padded with zeros to length d. Z Z*
    is Hermitian by construction, so ``hermit_tol`` applies to the matrix
    path only.
    """
    if (a is None) == (factor is None):
        raise TypeError("pass exactly one of a matrix and factor=")
    for name, tol in (("hermit_tol", hermit_tol), ("psd_tol", psd_tol),
                      ("trace_tol", trace_tol), ("rank_tol_factor", rank_tol_factor)):
        _check_tolerance(name, tol)
    if factor is None:
        a = np.array(a, dtype=complex)  # the state's own copy of the caller's matrix
        w, v = hermitian_eig(a, hermit_tol)
    else:
        z = np.asarray(factor, dtype=complex)
        if z.ndim != 2 or z.shape[0] == 0:
            raise DimensionError(f"expected a non-empty factor matrix, got shape {z.shape}")
        if not np.isfinite(z).all():
            raise ValidationError("not-finite", "factor has a non-finite entry")
        # an entry or eigenvalue that overflows is inf (or NaN, from inf - inf)
        with np.errstate(over="ignore", invalid="ignore"):
            zc = z.conj()
            a = z @ zc.T
            w, v = _factor_eig(z, zc)
        if not (np.isfinite(a).all() and np.isfinite(w).all()):
            raise ValidationError("not-finite", "Z Z* has a non-finite entry or eigenvalue")
    wmax = float(w[0])
    wmin = float(w[-1])
    if wmin < -psd_tol * max(1.0, abs(wmax)):
        raise ValidationError(
            "not-psd", f"matrix is not positive semidefinite (min eigenvalue {wmin:.3e})"
        )
    with np.errstate(over="ignore"):  # a trace that overflows is inf and fails below
        tr = float(np.trace(a).real)
    if abs(tr - 1.0) > trace_tol:
        raise ValidationError("trace-not-one", f"trace is {tr!r}, expected 1")
    rank = int(np.sum(w > rank_tol_factor * max(wmax, 0.0)))
    w = np.maximum(w, 0.0)  # stored density spectra are nonnegative
    # a, w and v are new arrays, none a view of the caller's: freeze them in place
    for arr in (a, w, v):
        arr.setflags(write=False)
    return DensityMatrix(matrix=a, eigenvalues=w, eigenvectors=v, rank=rank)


def bipartite(a, m: int, n: int, *, factor=None) -> BipartiteState:
    """Validate a matrix (or, with ``factor=Z``, Z Z*) at the default tolerances; attach dims."""
    return BipartiteState(m=m, n=n, rho=validate_density(a, factor=factor))


def random_density(d: int, rank: int, seed: int) -> DensityMatrix:
    """Seeded random density matrix of the requested rank: G G* / tr(G G*)."""
    _positive("d", d)
    if not 1 <= rank <= d:
        raise InfeasibleError(f"rank must lie in [1, {d}], got {rank}")
    g = PortableRng(seed).complex_normal((d, rank))
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    return validate_density(rho)
