"""Shared test utilities: seeded generators and small oracles."""

import numpy as np

from qmarginal import (
    DimensionError,
    DomainError,
    PortableRng,
    SamplerConfig,
    compat_2x3,
    random_density,
    random_unitary,
    spectra_pair_census,
)
from qmarginal import kernels


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


# ---------------------------------------------------------------------------
# Reference spectra predicates: the numpy formulation the library had before
# it moved to Python floats. They return [(check name, slack)] and raise the
# library's error types and messages; the library must match them bit for bit.
# ---------------------------------------------------------------------------

REF_MAJ_TOL = 1e-10


def ref_prefix_sums(v):
    out = []
    s = comp = 0.0
    for val in np.asarray(v, dtype=np.float64).ravel().tolist():
        t = s + val
        if abs(s) >= abs(val):
            comp += (s - t) + val
        else:
            comp += (val - t) + s
        s = t
        out.append(s + comp)
    return np.array(out, dtype=np.float64)


def ref_majorization_slack(x, y):
    x = np.asarray(x, dtype=float).reshape(-1)
    y = np.asarray(y, dtype=float).reshape(-1)
    if x.size != y.size:
        raise DimensionError(f"length mismatch {x.size} != {y.size}")
    if x.size == 0:
        raise DimensionError("majorization needs non-empty vectors")
    gaps = (ref_prefix_sums(np.sort(y)[::-1]) - ref_prefix_sums(np.sort(x)[::-1])).tolist()
    return float(np.min(gaps[:-1] + [gaps[-1], -gaps[-1]]))


def ref_sorted_desc(v, name, length=None):
    v = np.asarray(v, dtype=float).reshape(-1)
    if length is not None and v.size != length:
        raise DimensionError(f"{name} must have length {length}, got {v.size}")
    desc = np.sort(v)[::-1]
    vals = desc.tolist()
    total = sum(vals)
    low = vals[-1] if vals else 0.0
    if not (low >= -REF_MAJ_TOL and abs(total - 1.0) <= REF_MAJ_TOL):
        raise DomainError(
            f"{name} must be a probability vector, got sum {total!r} and min entry {low!r}"
        )
    return desc


def ref_necessary_spectra_compat(lam, mu, m):
    lam = ref_sorted_desc(lam, "lambda")
    n = lam.size
    mu = ref_sorted_desc(mu, "mu", length=m * n)
    spread = np.repeat(lam, m) / m
    mu_blocks = mu.reshape(n, m).sum(axis=1)
    lam_blocks = np.pad(lam, (0, m * m * n - n)).reshape(m * n, m).sum(axis=1)
    return [
        ("spread_marginal_vs_joint", ref_majorization_slack(spread, mu)),
        ("marginal_vs_mu_block_sums", ref_majorization_slack(lam, mu_blocks)),
        ("joint_vs_lambda_block_sums", ref_majorization_slack(mu, lam_blocks)),
    ]


def ref_compat_2x2(lam, mu):
    lam = ref_sorted_desc(lam, "lambda", length=2)
    mu = ref_sorted_desc(mu, "mu", length=4)
    return [("mu1+mu2 >= lambda1", mu[0] + mu[1] - lam[0])]


def ref_compat_2x3(lam, mu):
    lam = ref_sorted_desc(lam, "lambda", length=3)
    mu = ref_sorted_desc(mu, "mu", length=6)
    return [
        ("mu4+mu5 <= lambda1", lam[0] - (mu[3] + mu[4])),
        ("lambda1 <= mu1+mu2", (mu[0] + mu[1]) - lam[0]),
        ("mu5+mu6 <= lambda3", lam[2] - (mu[4] + mu[5])),
        ("lambda3 <= mu2+mu3", (mu[1] + mu[2]) - lam[2]),
    ]


# ---------------------------------------------------------------------------
# Reference census: the einsum formulation the library had before the census
# shared the competitor sampler's batched reduction. Same stream layout; the
# library must match it to rounding.
# ---------------------------------------------------------------------------


def ref_census_spectra(m, n, trials, seed, start=0, batch=1024):
    mn = m * n
    per = 2 * mn * mn
    lam = np.empty((trials, n))
    mu = np.empty((trials, mn))
    done = 0
    while done < trials:
        c = min(batch, trials - done)
        z = kernels.normal_block(seed, start + done * per, c * per).reshape(c, mn, mn, 2)
        g = (z[..., 0] + 1j * z[..., 1]) / np.sqrt(2.0)
        rho = np.einsum("tic,tjc->tij", g, g.conj())
        tr = np.einsum("tii->t", rho).real
        rho /= tr[:, None, None]
        mu[done:done + c] = np.linalg.eigvalsh(rho)[:, ::-1]
        red = np.einsum("taiaj->tij", rho.reshape(c, m, n, m, n))
        lam[done:done + c] = np.linalg.eigvalsh(red)[:, ::-1]
        done += c
    return lam, mu
