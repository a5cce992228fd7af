"""Seeded randomized generators and brute-force verifiers.

Everything here is independent of the constructions it checks: the
samplers draw states by normalized Gaussian factors and first-factor
rotations, never by the optimized constructions themselves (rank-k
building blocks are reused only where membership itself is the point).
Outputs are pure functions of the config and bit-identical run to run.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .constructors import construct_rank_k
from .feasibility import element_rank_range
from .linalg import BipartiteState, DensityMatrix, bipartite
from .majorization import lp_norm
from .rng import PortableRng


@dataclass(frozen=True)
class SamplerConfig:
    seed: int
    trials: int = 1
    mix_components: int = 4

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")


def random_unitary(dim: int, rng: PortableRng) -> np.ndarray:
    """Haar-ish unitary: QR of a complex Gaussian with phase-fixed R diagonal."""
    g = rng.complex_normal((dim, dim))
    q, r = np.linalg.qr(g)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def random_state_with_marginal(
    sigma: DensityMatrix, m: int, cfg: SamplerConfig
) -> BipartiteState:
    """Random state whose first marginal is exactly sigma.

    Convex combination of rank-k building blocks at random feasible ranks,
    each rotated on the first factor (which leaves the first marginal
    untouched).
    """
    rng = PortableRng(cfg.seed)
    n = sigma.dim
    lo, hi = element_rank_range(sigma.rank, m)
    weights = rng.uniform(cfg.mix_components)
    weights = weights / weights.sum()
    total = np.zeros((m * n, m * n), dtype=complex)
    eye_n = np.eye(n)
    for t in range(cfg.mix_components):
        k = lo + rng.index(hi - lo + 1)
        block = construct_rank_k(sigma, m, k).matrix
        u = np.kron(random_unitary(m, rng), eye_n)
        total += weights[t] * (u @ block @ u.conj().T)
    return bipartite(total, m, n)


def competitor_residual_spectra(
    sigma: DensityMatrix, m: int, k: int, cfg: SamplerConfig
) -> np.ndarray:
    """Descending spectra of sigma - tr1(state) over random rank-<=k states.

    States are normalized Gaussian factors of width k; row t is trial t.
    """
    return kernels.residual_spectra(
        sigma.matrix, m, sigma.dim, k, cfg.trials, cfg.seed
    )


def search_min_norm(
    sigma: DensityMatrix, m: int, k: int, p: float, cfg: SamplerConfig
) -> float:
    """Smallest Schatten-p distance from sigma to a sampled rank-<=k marginal.

    A running minimum over the trial stream: more trials with the same
    seed can only decrease the value.
    """
    spectra = competitor_residual_spectra(sigma, m, k, cfg)
    if np.isinf(p):
        vals = np.abs(spectra).max(axis=1)
    elif p == 1:
        vals = np.abs(spectra).sum(axis=1)
    else:
        vals = np.array([lp_norm(row, p) for row in spectra])
    return float(vals.min())


def spectra_pair_census(m: int, n: int, cfg: SamplerConfig) -> list[tuple[np.ndarray, np.ndarray]]:
    """(marginal spectrum, joint spectrum) pairs from random full-width states."""
    lam, mu = kernels.census_spectra(m, n, cfg.trials, cfg.seed)
    return [(lam[t].copy(), mu[t].copy()) for t in range(cfg.trials)]
