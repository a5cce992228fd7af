import math
import tracemalloc

import numpy as np
import pytest

import qmarginal as qm
from helpers import ref_census_spectra
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


@pytest.mark.parametrize("bound", [0, -3])
def test_index_rejects_empty_range(bound):
    rng = qm.PortableRng(7)
    with pytest.raises(qm.DimensionError):
        rng.index(bound)
    assert rng.counter == 0


def test_normal_moments():
    z = kernels.normal_block(123, 0, 200_000)
    assert abs(z.mean()) < 0.01
    assert abs(z.std() - 1.0) < 0.01


def test_normal_block_rejects_odd_count():
    # normals come in Box-Muller pairs
    with pytest.raises(ValueError, match="even count"):
        kernels.normal_block(123, 0, 3)


def test_complex_normal_variance():
    g = qm.PortableRng(8).complex_normal(100_000)
    assert abs((np.abs(g) ** 2).mean() - 1.0) < 0.02


def test_rng_counter_advances():
    rng = qm.PortableRng(9)
    rng.complex_normal(3)  # consumes 6 raws: one Box-Muller pair per complex normal
    assert rng.counter == 6
    rng.uniform(2)
    assert rng.counter == 8


def test_rng_draws_are_stream_slices():
    # each method reads the documented stream at the instance's counter
    seed = 11
    rng = qm.PortableRng(seed)
    raw = kernels.raw_block(seed, 0, 5)
    assert np.array_equal(rng.uniform(5), (raw >> np.uint64(11)).astype(np.float64) * 2.0 ** -53)
    assert rng.counter == 5
    # the pairs start at the counter, odd here, not at an even raw
    z = kernels.normal_block(seed, 5, 12)
    want = ((z[0::2] + 1j * z[1::2]) / np.sqrt(2.0)).reshape(2, 3)
    got = rng.complex_normal((2, 3))
    assert got.shape == (2, 3)
    assert np.array_equal(got, want)
    assert rng.counter == 17
    assert rng.index(7) == int(kernels.raw_block(seed, 17, 1)[0] % np.uint64(7))
    assert rng.counter == 18


@pytest.mark.parametrize("draw", [
    lambda rng: rng.raw(-1),
    lambda rng: rng.uniform(-3),
    lambda rng: rng.complex_normal((-1, 2)),
    lambda rng: rng.complex_normal((-1, -2)),  # size 2: each dim is checked
], ids=["raw", "uniform", "complex_normal", "complex_normal-positive-size"])
def test_rng_rejects_negative_count(draw):
    # a negative count would move the counter back and replay earlier draws
    rng = qm.PortableRng(13)
    first = rng.uniform(5)
    with pytest.raises(qm.DimensionError, match="count must be >= 0"):
        draw(rng)
    assert rng.counter == 5
    assert np.array_equal(np.concatenate([first, rng.uniform(3)]), qm.PortableRng(13).uniform(8))


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
    # trial t consumes raws [start + t*per, start + (t+1)*per); both calls
    # cross at least two block boundaries, the tail's at other trials
    sigma = qm.random_density(6, 4, seed=1).matrix
    m, n, k, skip = 2, 6, 2, 7
    trials = 2 * kernels._block_trials(m, n, k, 0) + skip + 5
    per = 2 * m * n * k
    full = kernels.residual_spectra(sigma, m, n, k, trials, 31)
    tail = kernels.residual_spectra(sigma, m, n, k, trials - skip, 31, start=skip * per)
    assert np.array_equal(full[skip:], tail)


def test_census_spectra_counter_addressable():
    # 2*(m*n)**2 raws per trial; both calls cross at least two block boundaries
    m, n, skip = 2, 3, 9
    trials = 2 * kernels._block_trials(m, n, m * n, m * n) + skip + 3
    per = 2 * (m * n) ** 2
    lam, mu = kernels.census_spectra(m, n, trials, 32)
    lam_tail, mu_tail = kernels.census_spectra(m, n, trials - skip, 32, start=skip * per)
    assert np.array_equal(lam[skip:], lam_tail)
    assert np.array_equal(mu[skip:], mu_tail)


@pytest.mark.parametrize("budget", [1, 3000, 10**7])  # one trial a block, a few, all in one
def test_trial_kernels_independent_of_block_size(budget, monkeypatch):
    sigma = qm.random_density(5, 3, seed=2).matrix
    want_res = kernels.residual_spectra(sigma, 3, 5, 2, 150, 41, start=5)
    want_lam, want_mu = kernels.census_spectra(2, 3, 150, 42, start=5)
    monkeypatch.setattr(kernels, "BATCH_BYTES", budget)
    assert np.array_equal(kernels.residual_spectra(sigma, 3, 5, 2, 150, 41, start=5), want_res)
    lam, mu = kernels.census_spectra(2, 3, 150, 42, start=5)
    assert np.array_equal(lam, want_lam)
    assert np.array_equal(mu, want_mu)


SIGMA8 = qm.random_density(8, 8, seed=3).matrix
SIGMA6 = qm.random_density(6, 6, seed=3).matrix


@pytest.mark.parametrize("trials", [400, 20_000])
@pytest.mark.parametrize("kernel, args", [
    ("residual_spectra", (SIGMA8, 2, 8, 3)),
    ("residual_spectra", (SIGMA6, 2, 6, 2)),
    ("census_spectra", (2, 4)),
], ids=["residual-2x8-k3", "residual-2x6-k2", "census-2x4"])
def test_trial_kernels_hold_output_plus_one_block(kernel, args, trials):
    # the traced peak above the output is one block's arrays, whatever the
    # trial count; whole batches of trials took 15-28 MB here
    run = getattr(kernels, kernel)
    run(*args, 10, 7)  # numpy's first-call allocations are not the kernel's
    tracemalloc.start()
    try:
        out = run(*args, trials, 7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    held = sum(a.nbytes for a in (out if isinstance(out, tuple) else (out,)))
    assert peak - held <= 2 * kernels.BATCH_BYTES


SIGMA3 = qm.random_density(3, 3, seed=4).matrix


# kernel, args: dims below 1, negative trials and a sigma that is not (n, n)
BAD_DIMS = {
    "residual-m0": ("residual_spectra", (SIGMA3, 0, 3, 1, 10, 1)),
    "residual-k0": ("residual_spectra", (SIGMA3, 2, 3, 0, 10, 1)),
    "residual-n0": ("residual_spectra", (SIGMA3, 2, 0, 1, 10, 1)),
    "residual-m-neg": ("residual_spectra", (SIGMA3, -1, 3, 1, 10, 1)),
    "residual-trials-neg": ("residual_spectra", (SIGMA3, 2, 3, 1, -1, 1)),
    "residual-sigma-3x3-n2": ("residual_spectra", (SIGMA3, 2, 2, 1, 10, 1)),
    "residual-sigma-3x3-n4": ("residual_spectra", (SIGMA3, 2, 4, 1, 10, 1)),
    "residual-sigma-1d": ("residual_spectra", (SIGMA3[0], 2, 3, 1, 10, 1)),
    "residual-sigma-2x3": ("residual_spectra", (SIGMA3[:2], 2, 3, 1, 10, 1)),
    "census-m0": ("census_spectra", (0, 3, 10, 1)),
    "census-n0": ("census_spectra", (2, 0, 10, 1)),
    "census-m-neg": ("census_spectra", (-1, 2, 10, 1)),
    "census-trials-neg": ("census_spectra", (2, 3, -1, 1)),
}


@pytest.mark.parametrize("case", BAD_DIMS)
def test_trial_kernels_reject_dims_before_allocating(case, monkeypatch):
    def no_alloc(*args, **kwargs):
        raise AssertionError("allocated before the dims were checked")

    kernel, args = BAD_DIMS[case]
    monkeypatch.setattr(np, "empty", no_alloc)
    with pytest.raises(qm.DimensionError):
        getattr(kernels, kernel)(*args)


@pytest.mark.parametrize("m, n, trials", [(2, 2, 200), (2, 3, 200), (3, 2, 200), (2, 4, 200),
                                          pytest.param(2, 3, 2 * kernels._block_trials(2, 3, 6, 6) + 5,
                                                       id="2-3-three-blocks")])
def test_census_matches_einsum_reference(m, n, trials):
    # the last case crosses at least two block boundaries
    lam, mu = kernels.census_spectra(m, n, trials, 55, start=3)
    ref_lam, ref_mu = ref_census_spectra(m, n, trials, 55, start=3)
    assert np.abs(lam - ref_lam).max() <= 1e-14
    assert np.abs(mu - ref_mu).max() <= 1e-14
