"""Hot numeric kernels: the trial loops that dominate runtime.

Everything here is a pure function of ``(seed, start)`` where ``start`` is
a counter into the splitmix64 stream, so results are reproducible and
independent trials are addressable without sequential state. The trial
kernels are vectorized over batches of trials.

Stream layout contracts:

* ``raw_block(seed, start, count)`` - value ``i`` is ``mix64(seed + (start+i+1)*GOLDEN)``.
* ``normal_block`` - normals ``(2t, 2t+1)`` come from one Box-Muller pair
  built on raws ``(start+2t, start+2t+1)``; ``count`` must be even.
* ``residual_spectra`` - trial ``t`` consumes raws
  ``[start + t*2*m*n*k, start + (t+1)*2*m*n*k)``; the Gaussian factor entry
  ``(i, j)`` uses the normal pair at offset ``2*(i*k + j)``.
* ``census_spectra`` - same scheme with ``2*(m*n)**2`` raws per trial.

Any reimplementation of the mix reproduces the uint64 stream and the
uniform doubles bit for bit; normals and everything downstream may differ
by libm rounding (a few ulps).
"""

from __future__ import annotations

import numpy as np

GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_TWO53_INV = 2.0 ** -53
_MASK64 = (1 << 64) - 1

# trials per batch: bounds the memory of one vectorized step
RESIDUAL_BATCH = 4096
CENSUS_BATCH = 1024


def raw_block(seed, start, count) -> np.ndarray:
    """splitmix64 outputs for counters start..start+count-1."""
    idx = np.arange(start + 1, start + count + 1, dtype=np.uint64)
    z = np.uint64(seed & _MASK64) + idx * GOLDEN
    z = (z ^ (z >> np.uint64(30))) * _MIX1
    z = (z ^ (z >> np.uint64(27))) * _MIX2
    return z ^ (z >> np.uint64(31))


def normal_block(seed, start, count) -> np.ndarray:
    if count % 2:
        raise ValueError("normal_block needs an even count")
    raw = raw_block(seed, start, count)
    u1 = ((raw[0::2] >> np.uint64(11)).astype(np.float64) + 1.0) * _TWO53_INV
    u2 = (raw[1::2] >> np.uint64(11)).astype(np.float64) * _TWO53_INV
    r = np.sqrt(-2.0 * np.log(u1))
    th = (2.0 * np.pi) * u2
    out = np.empty(count)
    out[0::2] = r * np.cos(th)
    out[1::2] = r * np.sin(th)
    return out


# qbench/spans.py names these two in LAYERS; delete them once it no longer does.
np_raw_block = raw_block
np_normal_block = normal_block


def _ginibre_batch(m, n, k, trials, seed, start):
    """Batch of (m*n, k) complex Gaussian factors, one per trial."""
    per = 2 * m * n * k
    z = normal_block(seed, start, trials * per)
    z = z.reshape(trials, m * n, k, 2)
    return (z[..., 0] + 1j * z[..., 1]) / np.sqrt(2.0)


def residual_spectra(sigma, m, n, k, trials, seed, start=0) -> np.ndarray:
    """Descending spectra of sigma - tr1(state) over random rank-<=k states."""
    sigma = np.ascontiguousarray(sigma, dtype=np.complex128)
    per = 2 * m * n * k
    out = np.empty((trials, n))
    done = 0
    while done < trials:
        c = min(RESIDUAL_BATCH, trials - done)
        g = _ginibre_batch(m, n, k, c, seed, start + done * per)
        gr = g.reshape(c, m, n, k)
        red = np.einsum("taic,tajc->tij", gr, gr.conj())
        tr = np.einsum("tii->t", red).real
        a = sigma[None, :, :] - red / tr[:, None, None]
        w = np.linalg.eigvalsh(a)
        out[done:done + c] = w[:, ::-1]
        done += c
    return out


def census_spectra(m, n, trials, seed, start=0):
    """(marginal spectra, joint spectra) of random full-width Ginibre states."""
    mn = m * n
    per = 2 * mn * mn
    lam = np.empty((trials, n))
    mu = np.empty((trials, mn))
    done = 0
    while done < trials:
        c = min(CENSUS_BATCH, trials - done)
        g = _ginibre_batch(m, n, mn, c, seed, start + done * per)
        rho = np.einsum("tic,tjc->tij", g, g.conj())
        tr = np.einsum("tii->t", rho).real
        rho /= tr[:, None, None]
        mu[done:done + c] = np.linalg.eigvalsh(rho)[:, ::-1]
        red = np.einsum("taiaj->tij", rho.reshape(c, m, n, m, n))
        lam[done:done + c] = np.linalg.eigvalsh(red)[:, ::-1]
        done += c
    return lam, mu


def prefix_sums(v) -> np.ndarray:
    """Neumaier-compensated running sums."""
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
