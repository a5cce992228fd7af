"""Extreme-point certification for states with a prescribed first marginal.

A state factored as rho = Z Z* (columns scaled eigenvectors) is an extreme
point of the set of states sharing its first marginal exactly when the
family of folded products { [z_i][z_j]* } is linearly independent. The
test stacks the r^2 vectorized products into an r^2 x n^2 matrix and takes
one Hermitian eigendecomposition of its Gram matrix on the smaller side.
When r^2 > n^2 the family is dependent by counting dimensions, so only the
largest Gram eigenvalue and a null vector of any n^2 + 1 products are
needed. A null direction doubles as an explicit dependency certificate
from which a proper convex splitting is built.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidCertificateError
from .linalg import BipartiteState, bipartite

INDEP_TOL = 1e-8
MARGINAL_INDEP_TOL = 1e-6
CERT_RESIDUAL_TOL = 1e-7


@dataclass(frozen=True)
class ExtremalityReport:
    """Verdict plus the Gram evidence and, when dependent, a certificate.

    ``certificate`` is a Hermitian r x r matrix H with
    sum_ij H[i,j] [z_i][z_j]* = 0; present exactly when not extreme.
    ``marginal`` flags verdicts that flip between the primary and the
    looser re-check threshold, i.e. numerically borderline inputs.
    """

    is_extreme: bool
    rank: int
    gram_min_eig: float
    certificate: np.ndarray | None
    marginal: bool


def _scaled_factors(state: BipartiteState) -> np.ndarray:
    rho = state.rho
    r = rho.rank
    return rho.eigenvectors[:, :r] * np.sqrt(rho.eigenvalues[:r])


def _stacked_products(z: np.ndarray, m: int, n: int) -> np.ndarray:
    """Row i*r + j is the flattened n x n product [z_i][z_j]*."""
    r = z.shape[1]
    folds = z.T.reshape(r, m, n)  # folds[i].T is fold(z[:, i], m, n)
    prods = np.einsum("iap,jaq->ijpq", folds, folds.conj(), optimize=True)
    return prods.reshape(r * r, n * n)


def is_extreme(state: BipartiteState) -> ExtremalityReport:
    """Certify whether a state is extreme among states with its first marginal."""
    z = _scaled_factors(state)
    r = z.shape[1]
    n2 = state.n ** 2
    rows = _stacked_products(z, state.m, state.n)
    if r * r <= n2:
        w, vecs = np.linalg.eigh(rows @ rows.conj().T)
        gram_max = float(w[-1])
        gram_min = max(float(w[0]), 0.0)
        left_null = vecs[:, 0]
    else:
        # more products than dimensions: any n^2 + 1 of them are dependent
        gram_max = float(np.linalg.eigvalsh(rows.conj().T @ rows)[-1])
        gram_min = 0.0
        head = rows[: n2 + 1]
        left_null = np.zeros(r * r, dtype=complex)
        left_null[: n2 + 1] = np.linalg.eigh(head @ head.conj().T)[1][:, 0]
    extreme = gram_min > INDEP_TOL * gram_max
    marginal = extreme != (gram_min > MARGINAL_INDEP_TOL * gram_max)
    if extreme:
        return ExtremalityReport(True, r, gram_min, None, marginal)
    # left_null* rows = 0, so conj(left_null) holds the coefficients; the
    # coefficient set is closed under C -> C* since [z_j][z_i]* = ([z_i][z_j]*)*
    null = left_null.conj().reshape(r, r)
    sym = null + null.conj().T
    skew = 1j * null - 1j * null.conj().T
    cert = sym if np.linalg.norm(sym) >= np.linalg.norm(skew) else skew
    cert = cert / np.linalg.norm(cert)
    return ExtremalityReport(False, r, gram_min, cert, marginal)


def split_nonextreme(
    state: BipartiteState, certificate: np.ndarray
) -> tuple[BipartiteState, BipartiteState]:
    """Split a non-extreme state into (rho1 + rho2)/2 with rank(rho1) < rank(state).

    Both halves keep the first marginal. The step size 1/max|eig(cert)|
    makes I +- t*cert singular on one side; rho1 takes the singular side.
    """
    cert = np.asarray(certificate, dtype=complex)
    z = _scaled_factors(state)
    r = z.shape[1]
    if cert.shape != (r, r):
        raise InvalidCertificateError(
            f"certificate shape {cert.shape} does not match rank {r}"
        )
    rows = _stacked_products(z, state.m, state.n)
    residual = float(np.abs(cert.reshape(-1) @ rows).max())
    scale = float(np.abs(cert).max()) * float(np.abs(rows).max()) + 1e-300
    if residual > CERT_RESIDUAL_TOL * scale:
        raise InvalidCertificateError(
            f"certificate does not annihilate the factor products (residual {residual:.3e})"
        )
    eta = np.linalg.eigvalsh((cert + cert.conj().T) / 2.0)
    extreme_eig = eta[-1] if abs(eta[-1]) >= abs(eta[0]) else eta[0]
    t = 1.0 / abs(extreme_eig)
    shift = z @ (t * cert) @ z.conj().T
    base = z @ z.conj().T
    plus = base + shift
    minus = base - shift
    singular_first = (minus, plus) if extreme_eig > 0 else (plus, minus)
    rho1 = bipartite(singular_first[0], state.m, state.n)
    rho2 = bipartite(singular_first[1], state.m, state.n)
    return rho1, rho2
