"""Shared test utilities: seeded generators and small oracles."""

import numpy as np

from qmarginal import (
    PortableRng,
    SamplerConfig,
    compat_2x3,
    random_density,
    random_unitary,
    spectra_pair_census,
)


def random_hermitian(dim, rng):
    g = rng.complex_normal((dim, dim))
    return (g + g.conj().T) / 2.0


def random_prob_vector(size, rng, sorted_desc=True):
    v = rng.uniform(size)
    v = v / v.sum()
    return np.sort(v)[::-1] if sorted_desc else v


def t_transform_mix(y, rng, steps=None):
    """Vector majorized by y: repeated Robin-Hood transfers between pairs."""
    x = np.asarray(y, dtype=float).copy()
    steps = steps if steps is not None else max(2, x.size)
    for _ in range(steps):
        i = rng.index(x.size)
        j = rng.index(x.size)
        if i == j:
            continue
        hi, lo = (i, j) if x[i] >= x[j] else (j, i)
        t = 0.5 * rng.uniform(1)[0]
        shift = t * (x[hi] - x[lo])
        x[hi] -= shift
        x[lo] += shift
    return np.sort(x)[::-1]


def sigma_corpus(max_n=6, seed=1234):
    """One random density matrix per (dim, rank) with dim <= max_n."""
    out = []
    seed_i = seed
    for n in range(2, max_n + 1):
        for r in range(1, n + 1):
            out.append(random_density(n, r, seed_i))
            seed_i += 1
    return out


def haar_unitary(dim, seed):
    return random_unitary(dim, PortableRng(seed))


def band_edge_pairs(count, seed):
    """(2, 3) pairs that compat_2x3 accepts only inside its tolerance band.

    Each pair is the last one accepted when bisecting, over 60 steps, the
    segment from a census pair (feasible) to a random pair that
    compat_2x3 rejects, so one inequality fails by about MAJ_TOL.
    """
    rng = PortableRng(seed)
    out = []
    for lam_in, mu_in in spectra_pair_census(2, 3, SamplerConfig(seed=seed, trials=count)):
        while True:
            lam_out, mu_out = random_prob_vector(3, rng), random_prob_vector(6, rng)
            if not compat_2x3(lam_out, mu_out).holds:
                break
        lo, hi = 0.0, 1.0
        for _ in range(60):
            t = (lo + hi) / 2
            if compat_2x3((1 - t) * lam_in + t * lam_out, (1 - t) * mu_in + t * mu_out).holds:
                lo = t
            else:
                hi = t
        out.append(((1 - lo) * lam_in + lo * lam_out, (1 - lo) * mu_in + lo * mu_out))
    return out
