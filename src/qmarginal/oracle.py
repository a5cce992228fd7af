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
from .constructors import _factor
from .errors import DomainError
from .feasibility import element_rank_range
from .kernels import PortableRng
from .linalg import BipartiteState, DensityMatrix, bipartite
from .majorization import _lp_power_sums, _lp_root, _require_norm_p


@dataclass(frozen=True)
class SamplerConfig:
    seed: int
    trials: int = 1
    mix_components: int = 4

    def __post_init__(self):
        if self.trials < 1:
            raise DomainError(f"trials must be >= 1, got {self.trials}")
        if self.mix_components < 1:
            raise DomainError(f"mix_components must be >= 1, got {self.mix_components}")


def random_unitary(dim: int, rng: PortableRng) -> np.ndarray:
    """Haar-ish unitary: QR of a complex Gaussian with phase-fixed R diagonal."""
    kernels._positive("dim", dim)
    g = rng.complex_normal((dim, dim))
    q, r = np.linalg.qr(g)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def random_state_with_marginal(
    sigma: DensityMatrix, m: int, cfg: SamplerConfig
) -> BipartiteState:
    """Random state whose first marginal is exactly sigma.

    Convex combination of rank-k building blocks Z Z* at random feasible
    ranks, each rotated on the first factor (which leaves the first
    marginal untouched). Only the mixture is validated, from the stacked
    factor [sqrt(w_t) (U_t (x) I_n) Z_t for each t].
    """
    rng = PortableRng(cfg.seed)
    n = sigma.dim
    r = sigma.rank
    lo, hi = element_rank_range(r, m)
    weights = rng.uniform(cfg.mix_components)
    weights = weights / weights.sum()
    parts = []
    for t in range(cfg.mix_components):
        k = lo + rng.index(hi - lo + 1)
        z, _ = _factor(sigma, m, k)
        u = random_unitary(m, rng)
        # (U (x) I_n) Z is u @ Z.reshape(m, -1)
        parts.append(np.sqrt(weights[t]) * (u @ z.reshape(m, -1)).reshape(m * n, k))
    return bipartite(None, m, n, factor=np.hstack(parts))


def search_min_norm(
    sigma: DensityMatrix, m: int, k: int, p: float, cfg: SamplerConfig
) -> float:
    """Smallest Schatten-p distance from sigma to a sampled rank-<=k marginal.

    The competitors are normalized Gaussian factors of width k, trial t
    from ``kernels.residual_spectra``'s stream. A running minimum over the
    trial stream: more trials with the same seed can only decrease the
    value. Each trial's norm is ``lp_norm`` of its residual spectrum. Chunks
    of ``kernels.BATCH_BYTES // (8 * n)`` trials (at least one) are drawn and
    reduced one at a time, so a call holds one chunk of spectra, about
    ``BATCH_BYTES``, besides the kernel's own block, whatever the trial count.
    """
    _require_norm_p(p)  # before any spectra are drawn
    n = sigma.dim
    chunk = max(1, kernels.BATCH_BYTES // (8 * n))
    least = np.inf
    for lo in range(0, cfg.trials, chunk):
        spectra = kernels.residual_spectra(sigma.matrix, m, n, k, min(chunk, cfg.trials - lo),
                                           cfg.seed, start=lo * 2 * m * n * k)
        least = np.minimum(least, _lp_power_sums(np.abs(spectra), p, axis=1).min())
    # the root is increasing, so it is taken once, of the smallest power sum
    return float(_lp_root(least, p))


def spectra_pair_census(m: int, n: int, cfg: SamplerConfig) -> list[tuple[np.ndarray, np.ndarray]]:
    """(marginal spectrum, joint spectrum) pairs from random full-width states."""
    lam, mu = kernels.census_spectra(m, n, cfg.trials, cfg.seed)
    return [(lam[t].copy(), mu[t].copy()) for t in range(cfg.trials)]
