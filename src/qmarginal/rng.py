"""Portable seeded random generator.

The stream is counter-based splitmix64 (documented in ``kernels``): output
``i`` of a stream seeded with ``s`` is ``mix64(s + (i+1)*GOLDEN)``, uniform
doubles are ``(raw >> 11) * 2**-53`` and normals come from Box-Muller
pairs. Seeds are therefore portable: any implementation of the same mix
reproduces the identical uint64/uniform stream; normals agree up to libm
rounding.
"""

from __future__ import annotations

import numpy as np

from . import kernels
from .errors import DimensionError

_MASK64 = (1 << 64) - 1


class PortableRng:
    """Sequential facade over the counter-based stream.

    Instances carry explicit state (seed, counter); one instance is
    single-threaded, independent instances are safe to use concurrently.
    """

    def __init__(self, seed: int):
        self.seed = int(seed) & _MASK64
        self.counter = 0

    def raw(self, count: int) -> np.ndarray:
        out = kernels.raw_block(self.seed, self.counter, count)
        self.counter += count
        return out

    def uniform(self, count: int) -> np.ndarray:
        """count doubles in [0, 1)."""
        return (self.raw(count) >> np.uint64(11)).astype(np.float64) * 2.0 ** -53

    def standard_normal(self, count: int) -> np.ndarray:
        used = count + (count % 2)
        out = kernels.normal_block(self.seed, self.counter, used)
        self.counter += used
        return out[:count]

    def complex_normal(self, shape) -> np.ndarray:
        """Standard complex Gaussians (variance 1: (x + iy)/sqrt(2))."""
        size = int(np.prod(shape))
        z = self.standard_normal(2 * size)
        return ((z[0::2] + 1j * z[1::2]) / np.sqrt(2.0)).reshape(shape)

    def index(self, bound: int) -> int:
        """Integer in [0, bound) via modulo (bias is irrelevant at these sizes)."""
        if bound < 1:
            raise DimensionError(f"bound must be >= 1, got {bound}")
        return int(self.raw(1)[0] % np.uint64(bound))
