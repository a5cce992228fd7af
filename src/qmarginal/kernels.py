"""Seeded random stream and the hot numeric kernels that draw from it.

Everything here is a pure function of ``(seed, start)`` where ``start`` is
a counter into the splitmix64 stream, so results are reproducible and
independent trials are addressable without sequential state. The trial
kernels are vectorized over blocks of trials sized by bytes, not by count:
a block holds as many trials as fit in ``BATCH_BYTES`` (at least one), so a
call needs its output plus one block, whatever the trial count. Each trial
reads only its own raws, and the batched matmuls and eigendecompositions
treat each trial's matrices on their own, so no output depends on the
block size. ``PortableRng`` is a sequential facade over the same stream.

Stream layout contracts:

* ``raw_block(seed, start, count)`` - value ``i`` is ``mix64(seed + (start+i+1)*GOLDEN)``.
* uniform doubles are ``(raw >> 11) * 2**-53``, in [0, 1).
* ``normal_block`` - normals ``(2t, 2t+1)`` come from one Box-Muller pair
  built on raws ``(start+2t, start+2t+1)``; ``count`` must be even.
* complex normals are ``(x + iy)/sqrt(2)`` over consecutive normal pairs
  ``(x, y)``, so complex normal ``j`` uses the raws at ``start + 2j`` and
  ``start + 2j + 1``.
* ``residual_spectra`` - trial ``t`` consumes raws
  ``[start + t*2*m*n*k, start + (t+1)*2*m*n*k)``; the Gaussian factor entry
  ``(i, j)`` is complex normal ``i*k + j`` of the trial. The reduced
  state of each trial is one batched matmul ``h @ h*`` over the factor
  folded to ``h`` of shape ``(n, m*k)``.
* ``census_spectra`` - same scheme and the same reduced states with
  ``k = m*n``, so ``2*(m*n)**2`` raws per trial; the full state is the
  batched matmul ``g @ g*`` of the factor, and both spectra are taken
  before normalization and divided by the trace.

Any reimplementation of the mix reproduces the uint64 stream and the
uniform doubles bit for bit; normals and everything downstream may differ
by libm rounding and, from the reduced states on, by the matmul's summation
order (a few ulps).
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError

GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_TWO53_INV = 2.0 ** -53
_MASK64 = (1 << 64) - 1

# bytes of one block of trials (see _block_trials): a trial kernel holds its
# output and one block, whatever the trial count, and each array of a block
# stays small enough for malloc to reuse rather than map afresh
BATCH_BYTES = 2**17


def _positive(name, value):
    if value < 1:
        raise DimensionError(f"{name} must be >= 1, got {value}")


def raw_block(seed, start, count) -> np.ndarray:
    """splitmix64 outputs for counters start..start+count-1."""
    z = np.arange(start + 1, start + count + 1, dtype=np.uint64)
    z *= GOLDEN
    z += np.uint64(seed & _MASK64)
    t = z >> np.uint64(30)  # the mix's one scratch array
    z ^= t
    z *= _MIX1
    np.right_shift(z, np.uint64(27), out=t)
    z ^= t
    z *= _MIX2
    np.right_shift(z, np.uint64(31), out=t)
    z ^= t
    return z


def _uniform(raw) -> np.ndarray:
    u = (raw >> np.uint64(11)).astype(np.float64)
    u *= _TWO53_INV
    return u


def normal_block(seed, start, count) -> np.ndarray:
    if count % 2:
        raise ValueError("normal_block needs an even count")
    raw = raw_block(seed, start, count)
    r = _uniform(raw[0::2])
    th = _uniform(raw[1::2])
    del raw
    r += _TWO53_INV  # in (0, 1]: the log is finite
    np.log(r, out=r)
    r *= -2.0
    np.sqrt(r, out=r)
    th *= 2.0 * np.pi
    out = np.empty(count)
    cos, sin = out[0::2], out[1::2]
    np.cos(th, out=cos)
    np.sin(th, out=sin)
    cos *= r
    sin *= r
    return out


# qbench/spans.py names these two in LAYERS; delete them once it no longer does.
np_raw_block = raw_block
np_normal_block = normal_block


def _complex_normal_block(seed, start, count) -> np.ndarray:
    """count standard complex Gaussians (variance 1) from raws [start, start + 2*count)."""
    z = normal_block(seed, start, 2 * count).view(complex)
    z /= np.sqrt(2.0)
    return z


class PortableRng:
    """Sequential facade over the counter-based stream.

    Instances carry explicit state (seed, counter); one instance is
    single-threaded, independent instances are safe to use concurrently.
    """

    def __init__(self, seed: int):
        self.seed = int(seed) & _MASK64
        self.counter = 0

    def _advance(self, count: int) -> int:
        """Start counter of the next ``count`` raws; moves past them.

        The only place the counter moves; a negative count raises and leaves it.
        """
        if count < 0:
            raise DimensionError(f"count must be >= 0, got {count}")
        start = self.counter
        self.counter += count
        return start

    def raw(self, count: int) -> np.ndarray:
        return raw_block(self.seed, self._advance(count), count)

    def uniform(self, count: int) -> np.ndarray:
        """count doubles in [0, 1)."""
        return _uniform(self.raw(count))

    def complex_normal(self, shape) -> np.ndarray:
        """Standard complex Gaussians (variance 1: (x + iy)/sqrt(2))."""
        dims = np.atleast_1d(shape)
        if (dims < 0).any():
            raise DimensionError(f"count must be >= 0 along every axis, got shape {shape}")
        size = int(np.prod(dims))
        return _complex_normal_block(self.seed, self._advance(2 * size), size).reshape(shape)

    def index(self, bound: int) -> int:
        """Integer in [0, bound) via modulo (bias is irrelevant at these sizes)."""
        _positive("bound", bound)
        return int(self.raw(1)[0] % np.uint64(bound))


def _check_trial_dims(m, n, k, trials):
    """Reject bad dims before the kernel allocates anything."""
    for name, value in (("m", m), ("n", n), ("k", k)):
        _positive(name, value)
    if trials < 0:
        raise DimensionError(f"trials must be >= 0, got {trials}")


def _block_trials(m, n, k, width):
    """Trials per block: as many as fit in BATCH_BYTES, but at least one.

    One trial of a block holds 2*m*n*k raws and as many normals, which are
    its factor g, then g's fold h and the conjugate of h, each 16*m*n*k
    bytes; then its n x n reduced state and the width x width state whose
    spectrum the kernel takes besides, 16 bytes an entry.
    """
    return max(1, BATCH_BYTES // (16 * (4 * m * n * k + n * n + width * width)))


def _reduced_batches(m, n, k, trials, seed, start, width):
    """Per block of trials: (slice, Gaussian factors g, tr_1(g g*), tr(g g*)).

    g has shape (c, m*n, k); the reduced states and traces are unnormalized.
    A block holds _block_trials(m, n, k, width) trials, or the rest.
    """
    per = 2 * m * n * k
    block = _block_trials(m, n, k, width)
    for lo in range(0, trials, block):
        c = min(block, trials - lo)
        g = _complex_normal_block(seed, start + lo * per, c * m * n * k).reshape(c, m * n, k)
        # tr_1(G G*)[i, j] sums over (a, c) of G[a*n + i, c] conj(G[a*n + j, c])
        h = g.reshape(c, m, n, k).transpose(0, 2, 1, 3).reshape(c, n, m * k)
        red = h @ h.conj().transpose(0, 2, 1)
        yield slice(lo, lo + c), g, red, np.einsum("tii->t", red).real


def residual_spectra(sigma, m, n, k, trials, seed, start=0) -> np.ndarray:
    """Descending spectra of sigma - tr1(state) over random rank-<=k states."""
    _check_trial_dims(m, n, k, trials)
    if np.shape(sigma) != (n, n):
        raise DimensionError(f"sigma must have shape ({n}, {n}), got {np.shape(sigma)}")
    sigma = np.ascontiguousarray(sigma, dtype=np.complex128)
    out = np.empty((trials, n))
    # the residual sigma - red/tr is formed in red's buffer: no state besides
    for sl, _, red, tr in _reduced_batches(m, n, k, trials, seed, start, 0):
        red /= tr[:, None, None]
        np.subtract(sigma, red, out=red)
        out[sl] = np.linalg.eigvalsh(red)[:, ::-1]
    return out


def census_spectra(m, n, trials, seed, start=0):
    """(marginal spectra, joint spectra) of random full-width Ginibre states."""
    _check_trial_dims(m, n, m * n, trials)
    lam = np.empty((trials, n))
    mu = np.empty((trials, m * n))
    for sl, g, red, tr in _reduced_batches(m, n, m * n, trials, seed, start, m * n):
        rho = g @ g.conj().transpose(0, 2, 1)
        mu[sl] = np.linalg.eigvalsh(rho)[:, ::-1] / tr[:, None]
        lam[sl] = np.linalg.eigvalsh(red)[:, ::-1] / tr[:, None]
    return lam, mu


def prefix_sums(v) -> np.ndarray:
    """Neumaier-compensated running sums."""
    return np.array(_running_sums(np.asarray(v, dtype=np.float64).ravel().tolist()),
                    dtype=np.float64)


def _running_sums(vals: list[float]) -> list[float]:
    """Neumaier-compensated running sums of a list of Python floats."""
    out = []
    s = comp = 0.0
    for val in vals:
        t = s + val
        if abs(s) >= abs(val):
            comp += (s - t) + val
        else:
            comp += (val - t) + s
        s = t
        out.append(s + comp)
    return out
