import tracemalloc

import numpy as np
import pytest

import qmarginal as qm
from qmarginal import kernels
from qmarginal.majorization import _lp_power_sums, _lp_root, lp_norm


@pytest.mark.parametrize("dim", [0, -2])
@pytest.mark.parametrize("sample", [
    lambda dim: qm.random_density(dim, 1, 3),
    lambda dim: qm.random_unitary(dim, qm.PortableRng(3)),
], ids=["random_density", "random_unitary"])
def test_samplers_reject_dims_below_one(sample, dim):
    with pytest.raises(qm.DimensionError, match=f"must be >= 1, got {dim}"):
        sample(dim)


class TestRandomStateWithMarginal:
    def test_membership_and_determinism(self):
        sigma = qm.random_density(3, 3, seed=14)
        cfg = qm.SamplerConfig(seed=99)
        a = qm.random_state_with_marginal(sigma, 2, cfg)
        b = qm.random_state_with_marginal(sigma, 2, cfg)
        assert np.array_equal(a.matrix, b.matrix)
        assert np.abs(qm.partial_trace_first(a) - sigma.matrix).max() <= 1e-9

    def test_pure_marginal_gives_tensor_states(self):
        sigma = qm.random_density(4, 1, seed=15)
        for seed in range(5):
            state = qm.random_state_with_marginal(sigma, 3, qm.SamplerConfig(seed=seed))
            xi = qm.partial_trace_second(state)
            assert np.abs(state.matrix - np.kron(xi, sigma.matrix)).max() <= 1e-9

    def test_rank_within_element_range(self):
        sigma = qm.random_density(4, 3, seed=16)
        lo, hi = qm.element_rank_range(sigma.rank, 2)
        for seed in range(8):
            state = qm.random_state_with_marginal(sigma, 2, qm.SamplerConfig(seed=70 + seed))
            assert lo <= state.rank <= hi

    def test_matches_rotated_rank_k_blocks(self, eig_calls):
        # reference: the same draws, each block construct_rank_k(...)
        # conjugated by U (x) I_n; only the mixture is validated, from the
        # thin SVD of its stacked factor and with no eigh, however wide: at
        # seed 5 the ranks (3, 4, 6) stack 13 >= mn = 12 columns, at seed 2
        # the ranks (4, 4, 1) stack 9
        sigma = qm.random_density(4, 3, seed=17)
        m = 3
        lo, hi = qm.element_rank_range(sigma.rank, m)
        for seed in (5, 2):
            cfg = qm.SamplerConfig(seed=seed, mix_components=3)
            rng = qm.PortableRng(cfg.seed)
            weights = rng.uniform(cfg.mix_components)
            weights = weights / weights.sum()
            want = np.zeros((m * sigma.dim, m * sigma.dim), dtype=complex)
            for t in range(cfg.mix_components):
                k = lo + rng.index(hi - lo + 1)
                block = qm.construct_rank_k(sigma, m, k).matrix
                u = np.kron(qm.random_unitary(m, rng), np.eye(sigma.dim))
                want += weights[t] * (u @ block @ u.conj().T)
            del eig_calls[:]
            got = qm.random_state_with_marginal(sigma, m, cfg).matrix
            assert eig_calls == []
            assert np.abs(got - want).max() <= 1e-14


class TestSearchMinNorm:
    def test_exactly_achievable_approaches_zero(self):
        # m*k >= rank, so 0 is the true infimum; the sampled minimum
        # shrinks steadily toward it as trials grow
        sigma = qm.random_density(3, 2, seed=17)
        vals = [
            qm.search_min_norm(sigma, 2, 1, 1.0, qm.SamplerConfig(seed=5, trials=t))
            for t in (100, 5_000, 100_000)
        ]
        assert vals[0] > vals[1] > vals[2] >= 0
        assert vals[2] < 0.25

    def test_lower_bound_from_optimum(self):
        sigma = qm.validate_density(np.diag([0.4, 0.3, 0.2, 0.1]))
        val = qm.search_min_norm(sigma, 2, 1, 1.0, qm.SamplerConfig(seed=6, trials=100_000))
        assert val >= 0.6 - 1e-9

    def test_running_minimum(self):
        sigma = qm.random_density(4, 4, seed=18)
        one = qm.search_min_norm(sigma, 2, 1, 2.0, qm.SamplerConfig(seed=7, trials=1))
        many = qm.search_min_norm(sigma, 2, 1, 2.0, qm.SamplerConfig(seed=7, trials=1000))
        assert many <= one

    def test_general_p(self):
        sigma = qm.random_density(4, 4, seed=19)
        cfg = qm.SamplerConfig(seed=8, trials=100)
        v3 = qm.search_min_norm(sigma, 2, 1, 3.0, cfg)
        vinf = qm.search_min_norm(sigma, 2, 1, np.inf, cfg)
        assert v3 >= vinf  # l_p norms decrease in p


class TestCensus:
    def test_counts_and_validity(self):
        cfg = qm.SamplerConfig(seed=9, trials=64)
        pairs = qm.spectra_pair_census(2, 2, cfg)
        assert len(pairs) == 64
        for lam, mu in pairs:
            assert lam.shape == (2,)
            assert mu.shape == (4,)
            assert abs(lam.sum() - 1) <= 1e-10
            assert abs(mu.sum() - 1) <= 1e-10
            assert mu[0] + mu[1] >= lam[0] - 1e-10

    def test_determinism(self):
        cfg = qm.SamplerConfig(seed=10, trials=16)
        a = qm.spectra_pair_census(2, 3, cfg)
        b = qm.spectra_pair_census(2, 3, cfg)
        for (l1, m1), (l2, m2) in zip(a, b):
            assert np.array_equal(l1, l2)
            assert np.array_equal(m1, m2)


@pytest.mark.parametrize("m, n, k", [(2, 6, 2), (3, 4, 1), (2, 8, 3), (2, 9, 4)])
def test_search_min_norm_is_min_of_lp_norm_per_row(m, n, k):
    sigma = qm.random_density(n, n, seed=30 + n)
    cfg = qm.SamplerConfig(seed=12, trials=300)
    spectra = kernels.residual_spectra(sigma.matrix, m, n, k, cfg.trials, cfg.seed)
    for p in (1.0, 1.5, 2.0, 3.0, np.inf):
        want = min(lp_norm(row, p) for row in spectra)
        assert qm.search_min_norm(sigma, m, k, p, cfg) == want


@pytest.mark.parametrize("extra", [-1, 0, 1, 5 + kernels.BATCH_BYTES // 128])
def test_search_min_norm_chunks_keep_the_bits(extra):
    # chunks of BATCH_BYTES // (8 n) = 1024 trials at n = 16: one short of a
    # chunk, one chunk, one past it and two chunks and five give the bits of
    # the minimum over the whole trials x n array of spectra
    sigma = qm.random_density(16, 16, seed=33)
    cfg = qm.SamplerConfig(seed=14, trials=kernels.BATCH_BYTES // 128 + extra)
    spectra = np.abs(kernels.residual_spectra(sigma.matrix, 2, 16, 1, cfg.trials, cfg.seed))
    for p in (1.0, 2.0, np.inf, 3.0):
        want = float(_lp_root(_lp_power_sums(spectra, p, axis=1).min(), p))
        assert qm.search_min_norm(sigma, 2, 1, p, cfg) == want


def test_search_min_norm_memory_is_bounded():
    # 20000 spectra of length 6 take 960 KB, and their absolute values as
    # much again; reduced a chunk at a time, the call stays under 4 blocks
    sigma = qm.random_density(6, 6, seed=3)
    cfg = qm.SamplerConfig(seed=1, trials=20_000)
    tracemalloc.start()
    try:
        qm.search_min_norm(sigma, 2, 2, 1.0, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * kernels.BATCH_BYTES


@pytest.mark.parametrize("p", [0.5, 0.0, -np.inf, float("nan")])
def test_search_min_norm_rejects_p_before_sampling(p, monkeypatch):
    def no_draws(*args, **kwargs):
        raise AssertionError("spectra drawn for an invalid p")

    monkeypatch.setattr(kernels, "residual_spectra", no_draws)
    sigma = qm.random_density(3, 3, seed=2)
    with pytest.raises(qm.DomainError):
        qm.search_min_norm(sigma, 2, 1, p, qm.SamplerConfig(seed=1, trials=10))


@pytest.mark.parametrize("m, k", [(0, 1), (2, 0), (-1, 1)])
def test_search_min_norm_rejects_dims(m, k):
    sigma = qm.random_density(3, 3, seed=2)
    with pytest.raises(qm.DimensionError):
        qm.search_min_norm(sigma, m, k, 1.0, qm.SamplerConfig(seed=1, trials=10))


@pytest.mark.parametrize("m, n", [(0, 3), (2, 0), (-1, 2)])
def test_census_rejects_dims(m, n):
    with pytest.raises(qm.DimensionError):
        qm.spectra_pair_census(m, n, qm.SamplerConfig(seed=1, trials=10))


class TestCompetitorSpectra:
    def test_zero_sum_rows(self):
        sigma = qm.random_density(5, 5, seed=20)
        spectra = kernels.residual_spectra(sigma.matrix, 2, sigma.dim, 2, trials=200, seed=11)
        assert spectra.shape == (200, 5)
        assert np.abs(spectra.sum(axis=1)).max() <= 1e-10
        assert np.all(np.diff(spectra, axis=1) <= 1e-12)


def test_config_validation():
    with pytest.raises(qm.DomainError):
        qm.SamplerConfig(seed=1, trials=0)
    with pytest.raises(qm.DomainError):
        qm.SamplerConfig(seed=1, mix_components=0)
    cfg = qm.SamplerConfig(seed=1, trials=1, mix_components=1)  # the least of each is allowed
    assert (cfg.trials, cfg.mix_components) == (1, 1)
