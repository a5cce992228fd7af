import math

import numpy as np

import qmarginal as qm
from qmarginal import kernels

# pinned outputs of the documented splitmix64 mix; any implementation of
# the stream must reproduce these exactly
GOLDEN_SEED0 = [
    16294208416658607535,
    7960286522194355700,
    487617019471545679,
    17909611376780542444,
]


def test_raw_stream_golden_values():
    got = kernels.raw_block(0, 0, 4)
    assert [int(v) for v in got] == GOLDEN_SEED0


def test_raw_stream_counter_addressable():
    full = kernels.raw_block(42, 0, 10)
    tail = kernels.raw_block(42, 6, 4)
    assert np.array_equal(full[6:], tail)


def test_uniform_range_and_determinism():
    rng = qm.PortableRng(7)
    u = rng.uniform(10_000)
    assert u.min() >= 0.0
    assert u.max() < 1.0
    rng2 = qm.PortableRng(7)
    assert np.array_equal(u, rng2.uniform(10_000))


def test_normal_moments():
    z = kernels.normal_block(123, 0, 200_000)
    assert abs(z.mean()) < 0.01
    assert abs(z.std() - 1.0) < 0.01


def test_complex_normal_variance():
    g = qm.PortableRng(8).complex_normal(100_000)
    assert abs((np.abs(g) ** 2).mean() - 1.0) < 0.02


def test_rng_counter_advances():
    rng = qm.PortableRng(9)
    rng.standard_normal(3)  # consumes 4 raws (rounded up to a pair)
    assert rng.counter == 4
    rng.uniform(2)
    assert rng.counter == 6


def test_rng_negative_seed_masked():
    a = qm.PortableRng(-5).raw(3)
    b = qm.PortableRng(-5 & ((1 << 64) - 1)).raw(3)
    assert np.array_equal(a, b)
    assert qm.random_density(3, 2, seed=-5).rank == 2


def test_prefix_sums_match_fsum():
    rng = qm.PortableRng(10)
    v = rng.uniform(50) - 0.5
    ps = kernels.prefix_sums(v)
    for i in range(50):
        assert abs(ps[i] - math.fsum(v[: i + 1])) <= 1e-15


def test_residual_spectra_counter_addressable():
    # trial t consumes raws [start + t*per, start + (t+1)*per); 4100 trials
    # cross the 4096-trial batch boundary
    sigma = qm.random_density(6, 4, seed=1).matrix
    m, n, k, trials, skip = 2, 6, 2, 4100, 7
    per = 2 * m * n * k
    full = kernels.residual_spectra(sigma, m, n, k, trials, 31)
    tail = kernels.residual_spectra(sigma, m, n, k, trials - skip, 31, start=skip * per)
    assert np.array_equal(full[skip:], tail)


def test_census_spectra_counter_addressable():
    # 2*(m*n)**2 raws per trial; 1030 trials cross the 1024-trial batch boundary
    m, n, trials, skip = 2, 3, 1030, 9
    per = 2 * (m * n) ** 2
    lam, mu = kernels.census_spectra(m, n, trials, 32)
    lam_tail, mu_tail = kernels.census_spectra(m, n, trials - skip, 32, start=skip * per)
    assert np.array_equal(lam[skip:], lam_tail)
    assert np.array_equal(mu[skip:], mu_tail)
