import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

import qmarginal as qm

from helpers import haar_unitary, random_prob_vector, sigma_corpus, t_transform_mix


def marginal_error(state, sigma_matrix):
    return np.abs(qm.partial_trace_first(state) - sigma_matrix).max()


class TestPurify:
    def test_pure_sigma_m1(self):
        e11 = np.zeros((3, 3))
        e11[0, 0] = 1.0
        sigma = qm.validate_density(e11)
        state = qm.purify(sigma, 1)
        assert_allclose(state.matrix, e11, atol=1e-14)

    def test_maximally_mixed_qubit(self):
        sigma = qm.validate_density(np.eye(2) / 2)
        state = qm.purify(sigma, 2)
        w = np.array([1, 0, 0, 1]) / np.sqrt(2)
        assert_allclose(state.matrix, np.outer(w, w), atol=1e-14)
        assert state.rank == 1

    def test_rank_exceeds_first_factor(self):
        sigma = qm.random_density(4, 3, seed=10)
        with pytest.raises(qm.InfeasibleError):
            qm.purify(sigma, 2)

    def test_marginal_reproduced(self):
        for seed in range(5):
            sigma = qm.random_density(5, 3, seed=60 + seed)
            state = qm.purify(sigma, 3 + seed % 2)
            assert state.rank == 1
            assert marginal_error(state, sigma.matrix) <= 1e-10


class TestConstructRankK:
    def test_uniform_qutrit_k4_diagonal(self):
        sigma = qm.validate_density(np.eye(3) / 3)
        state = qm.construct_rank_k(sigma, 2, 4)
        assert_allclose(np.diag(state.matrix).real, [1 / 6, 1 / 3, 1 / 3, 1 / 6, 0, 0], atol=1e-12)
        assert state.rank == 4
        assert marginal_error(state, sigma.matrix) <= 1e-12

    def test_uniform_qutrit_k2_vectors(self):
        sigma = qm.validate_density(np.eye(3) / 3)
        state = qm.construct_rank_k(sigma, 2, 2)
        e = np.eye(6)
        v1 = (e[0] + e[5]) / np.sqrt(3)
        v2 = e[1] / np.sqrt(3)
        expected = np.outer(v1, v1) + np.outer(v2, v2)
        assert_allclose(np.abs(state.matrix), np.abs(expected), atol=1e-12)
        assert state.rank == 2

    def test_out_of_range_rejected(self):
        sigma = qm.validate_density(np.eye(3) / 3)
        with pytest.raises(qm.InfeasibleError):
            qm.construct_rank_k(sigma, 2, 1)
        with pytest.raises(qm.InfeasibleError):
            qm.construct_rank_k(sigma, 2, 7)

    def test_exactness_over_corpus(self):
        # every feasible rank over the seeded corpus, rank exact, marginal tight
        for sigma in sigma_corpus(max_n=6):
            for m in range(1, 5):
                lo, hi = qm.element_rank_range(sigma.rank, m)
                for k in range(lo, hi + 1):
                    state = qm.construct_rank_k(sigma, m, k)
                    assert state.rank == k, (sigma.dim, sigma.rank, m, k)
                    assert marginal_error(state, sigma.matrix) <= 1e-10

    def test_basis_covariance(self):
        # constructing over a rotated marginal still lands in the rotated set
        sigma = qm.random_density(4, 3, seed=99)
        u = haar_unitary(4, 100)
        rotated = qm.validate_density(u @ sigma.matrix @ u.conj().T)
        m, k = 2, 3
        direct = qm.construct_rank_k(rotated, m, k)
        assert marginal_error(direct, rotated.matrix) <= 1e-10
        big = np.kron(np.eye(m), u)
        conjugated = big @ qm.construct_rank_k(sigma, m, k).matrix @ big.conj().T
        assert np.abs(qm.partial_trace_first(conjugated, m, 4) - rotated.matrix).max() <= 1e-10


class TestOptimalLowRank:
    def test_worked_example(self):
        sigma = qm.validate_density(np.diag([0.4, 0.3, 0.2, 0.1]))
        res = qm.optimal_low_rank(sigma, 2, 1, norms=(1, 2, np.inf))
        assert not res.exact
        assert_allclose(res.mu_shift, 0.15)
        assert_allclose(res.achieved_sigma, np.diag([0.55, 0.45, 0.0, 0.0]), atol=1e-10)
        assert_allclose(res.residual_spectrum, [0.2, 0.1, -0.15, -0.15], atol=1e-10)
        assert_allclose(res.norms[1.0], 0.6)
        assert_allclose(res.norms[float("inf")], 0.2)
        assert_allclose(res.norms[2.0], math.sqrt(0.095))

    def test_exact_when_rank_fits(self):
        sigma = qm.random_density(5, 4, seed=70)
        res = qm.optimal_low_rank(sigma, 2, 2)
        assert res.exact
        assert np.abs(res.residual_spectrum).max() <= 1e-10
        assert res.rho.rank <= 2

    def test_purification_case(self):
        sigma = qm.validate_density(np.eye(2) / 2)
        res = qm.optimal_low_rank(sigma, 2, 1)
        assert res.exact
        assert np.abs(res.residual_spectrum).max() <= 1e-12

    def test_generous_rank_budget(self):
        # k far above what is needed still returns a small exact member
        sigma = qm.random_density(4, 3, seed=72)
        res = qm.optimal_low_rank(sigma, 2, 10)
        assert res.exact
        assert res.rho.rank == 2  # ceil(3/2), the smallest feasible rank

    def test_residual_formula_and_optimality(self):
        rng = qm.PortableRng(71)
        for seed in range(6):
            n = 4 + seed % 3
            r = n - seed % 2
            sigma = qm.random_density(n, r, seed=700 + seed)
            for m, k in [(1, 1), (2, 1), (1, 2)]:
                if m * k >= r:
                    continue
                res = qm.optimal_low_rank(sigma, m, k)
                lam = sigma.eigenvalues[:r]
                mu = lam[m * k:].sum() / (m * k)
                expect = np.concatenate([
                    lam[m * k:], np.zeros(n - r), -np.full(m * k, mu)
                ])
                expect = np.sort(expect)[::-1]
                assert np.abs(res.residual_spectrum - expect).max() <= 1e-10
                assert abs(res.residual_spectrum.sum()) <= 1e-10
                spectra = qm.competitor_residual_spectra(
                    sigma, m, k, qm.SamplerConfig(seed=7000 + seed, trials=50)
                )
                for row in spectra:
                    assert qm.majorizes(res.residual_spectrum, row).holds
                    for p in (1.0, 2.0, np.inf):
                        from qmarginal.majorization import lp_norm

                        assert res.norms[p] <= lp_norm(row, p) + 1e-9


class TestConstantDiagonalConjugate:
    def test_two_point(self):
        out = qm.constant_diagonal_conjugate([1.0, 0.0])
        assert_allclose(out, np.full((2, 2), 0.5), atol=1e-12)

    def test_constant_input_fixed(self):
        out = qm.constant_diagonal_conjugate([0.25, 0.25, 0.25])
        assert_allclose(out, np.eye(3) * 0.25, atol=1e-12)

    def test_diagonal_and_spectrum(self):
        d = [0.6, 0.3, 0.1]
        out = qm.constant_diagonal_conjugate(d)
        assert_allclose(np.diag(out).real, np.full(3, 1 / 3), atol=1e-12)
        assert_allclose(np.linalg.eigvalsh(out)[::-1], d, atol=1e-12)


class TestHornUnitary:
    def test_identity_when_equal(self):
        u = qm.horn_unitary([0.5, 0.3, 0.2], [0.5, 0.3, 0.2])
        assert_allclose(np.abs(u), np.eye(3), atol=1e-12)

    def test_two_dim_rotation(self):
        u = qm.horn_unitary([1.0, 0.0], [0.5, 0.5])
        conj = u.conj().T @ np.diag([1.0, 0.0]).astype(complex) @ u
        assert_allclose(conj.real, np.full((2, 2), 0.5), atol=1e-12)

    def test_three_dim(self):
        w = np.array([0.6, 0.3, 0.1])
        d = np.full(3, 1 / 3)
        u = qm.horn_unitary(w, d)
        conj = u.conj().T @ np.diag(w).astype(complex) @ u
        assert np.abs(np.diag(conj).real - d).max() <= 1e-10
        assert np.abs(u.conj().T @ u - np.eye(3)).max() <= 1e-12

    def test_majorization_violated(self):
        with pytest.raises(qm.PreconditionError):
            qm.horn_unitary([0.5, 0.5], [1.0, 0.0])

    def test_randomized_targets(self):
        rng = qm.PortableRng(200)
        for _ in range(100):
            size = 2 + rng.index(6)
            w = random_prob_vector(size, rng)
            d = t_transform_mix(w, rng)
            u = qm.horn_unitary(w, d)
            conj = u.conj().T @ np.diag(w).astype(complex) @ u
            assert np.abs(np.diag(conj).real - d).max() <= 1e-10
            assert np.abs(u.conj().T @ u - np.eye(size)).max() <= 1e-10


class TestConstructWithSpectra:
    def test_qubit_pair(self):
        state = qm.construct_with_spectra([0.5, 0.5], [0.5, 0.5, 0.0, 0.0], 2)
        assert_allclose(state.rho.eigenvalues, [0.5, 0.5, 0.0, 0.0], atol=1e-8)
        assert_allclose(qm.partial_trace_first(state), np.eye(2) / 2, atol=1e-10)

    def test_pure_marginal_gives_tensor(self):
        xi = [0.6, 0.4]
        state = qm.construct_with_spectra([1.0, 0.0], [0.6, 0.4, 0.0, 0.0], 2)
        assert_allclose(qm.partial_trace_first(state), np.diag([1.0, 0.0]), atol=1e-10)
        second = qm.partial_trace_second(state)
        assert_allclose(np.linalg.eigvalsh(second)[::-1], xi, atol=1e-8)

    def test_maximally_mixed(self):
        state = qm.construct_with_spectra(np.full(2, 0.5), np.full(6, 1 / 6), 3)
        assert_allclose(state.matrix, np.eye(6) / 6, atol=1e-10)

    def test_marginal_is_diagonal_in_order(self):
        lam = np.array([0.5, 0.3, 0.2])
        mu = np.array([0.4, 0.3, 0.1, 0.1, 0.1, 0.0, 0.0, 0.0, 0.0])
        state = qm.construct_with_spectra(lam, mu, 3)
        assert_allclose(qm.partial_trace_first(state), np.diag(lam), atol=1e-10)
        assert np.abs(state.rho.eigenvalues - np.sort(mu)[::-1]).max() <= 1e-8

    def test_trivial_marginal(self):
        state = qm.construct_with_spectra([1.0], [0.6, 0.3, 0.1], 3)
        assert_allclose(state.rho.eigenvalues, [0.6, 0.3, 0.1], atol=1e-8)
        assert_allclose(qm.partial_trace_first(state), [[1.0]], atol=1e-12)

    def test_m_below_n_rejected(self):
        with pytest.raises(qm.UnsupportedRegimeError):
            qm.construct_with_spectra([0.5, 0.3, 0.2], np.full(6, 1 / 6), 2)

    def test_majorization_precondition(self):
        with pytest.raises(qm.PreconditionError):
            qm.construct_with_spectra([1.0, 0.0], np.full(4, 0.25), 2)

    @pytest.mark.parametrize("lam, mu", [
        ([np.nan, 1.0], [0.25] * 4),
        ([0.5, 0.5], [np.nan, 0.5, 0.25, 0.25]),
        ([0.6, 0.6], [0.3] * 4),
        ([], []),
    ])
    def test_spectra_must_be_probability_vectors(self, lam, mu):
        with pytest.raises(qm.DomainError):
            qm.construct_with_spectra(lam, mu, 2)


class TestGadget:
    def test_half_corner(self):
        assert_allclose(qm.gadget(1.0, 0.0, 0.5), np.full((2, 2), 0.5))

    def test_degenerate(self):
        assert_allclose(qm.gadget(0.2, 0.2, 0.2), np.diag([0.2, 0.2]))

    def test_boundary_corner(self):
        assert_allclose(qm.gadget(0.3, 0.1, 0.3), np.diag([0.3, 0.1]))

    def test_eigenvalues_exact(self):
        g = qm.gadget(0.7, 0.1, 0.55)
        assert_allclose(np.linalg.eigvalsh(g), [0.1, 0.7], atol=1e-12)

    def test_corner_out_of_range(self):
        with pytest.raises(qm.PreconditionError):
            qm.gadget(0.3, 0.1, 0.5)


class TestConstruct23:
    def test_uniform_marginal_rank3(self):
        state = qm.construct_23([1 / 3, 1 / 3, 1 / 3], [1 / 3, 1 / 3, 1 / 3, 0, 0, 0])
        assert_allclose(state.rho.eigenvalues, [1 / 3, 1 / 3, 1 / 3, 0, 0, 0], atol=1e-8)
        lam = qm.spectrum(qm.partial_trace_first(state))
        assert_allclose(lam, np.full(3, 1 / 3), atol=1e-10)

    def test_pure_marginal_tensor(self):
        state = qm.construct_23([1.0, 0.0, 0.0], [0.5, 0.5, 0.0, 0.0, 0.0, 0.0])
        red = qm.partial_trace_first(state)
        assert_allclose(np.linalg.eigvalsh(red)[::-1], [1, 0, 0], atol=1e-10)
        second = qm.partial_trace_second(state)
        assert_allclose(np.linalg.eigvalsh(second)[::-1], [0.5, 0.5], atol=1e-8)

    def test_hand_checked_pair(self):
        lam = [0.5, 0.3, 0.2]
        mu = [0.4, 0.3, 0.2, 0.1, 0.0, 0.0]
        # inequalities by hand: 0.1 <= 0.5 <= 0.7 and 0.0 <= 0.2 <= 0.5
        state = qm.construct_23(lam, mu)
        assert_allclose(state.rho.eigenvalues, mu, atol=1e-8)
        assert_allclose(qm.spectrum(qm.partial_trace_first(state)), lam, atol=1e-10)

    def test_infeasible_pair_rejected(self):
        with pytest.raises(qm.InfeasibleError):
            qm.construct_23([1 / 3, 1 / 3, 1 / 3], [0.5, 0.1, 0.1, 0.1, 0.1, 0.1])

    def test_round_trip_random(self):
        rng = qm.PortableRng(77)
        done = 0
        while done < 100:
            lam = random_prob_vector(3, rng)
            mu = random_prob_vector(6, rng)
            if not qm.compat_2x3(lam, mu).holds:
                continue
            state = qm.construct_23(lam, mu)
            assert np.abs(state.rho.eigenvalues - mu).max() <= 1e-8
            assert np.abs(qm.spectrum(qm.partial_trace_first(state)) - lam).max() <= 1e-10
            done += 1

    def test_boundary_tight_pairs(self):
        # pairs with one feasibility inequality exactly tight still construct
        rng = qm.PortableRng(978)
        done = 0
        while done < 200:
            mu = random_prob_vector(6, rng)
            mode = done % 4
            if mode == 0:
                lam1 = mu[0] + mu[1]
                lam3 = min((1 - lam1) / 2, lam1)
            elif mode == 1:
                lam1 = mu[3] + mu[4]
                lam3 = min((1 - lam1) / 2, lam1)
            elif mode == 2:
                lam3 = mu[4] + mu[5]
                lam1 = max((1 - lam3) / 2, lam3)
            else:
                lam3 = mu[1] + mu[2]
                lam1 = max((1 - lam3) / 2, lam3)
            lam = np.sort([lam1, 1 - lam1 - lam3, lam3])[::-1]
            if lam.min() < 0 or not qm.compat_2x3(lam, mu).holds:
                continue
            state = qm.construct_23(lam, mu)
            assert np.abs(state.rho.eigenvalues - mu).max() <= 1e-8
            assert np.abs(qm.spectrum(qm.partial_trace_first(state)) - lam).max() <= 1e-10
            done += 1

    def test_degenerate_ties_and_zeros(self):
        pairs = [
            ([0.5, 0.5, 0.0], [0.5, 0.5, 0.0, 0.0, 0.0, 0.0]),
            ([0.5, 0.25, 0.25], [0.25, 0.25, 0.25, 0.25, 0.0, 0.0]),
            ([1 / 3, 1 / 3, 1 / 3], np.full(6, 1 / 6)),  # every inequality tight
            ([0.4, 0.4, 0.2], [0.2, 0.2, 0.2, 0.2, 0.1, 0.1]),
        ]
        for lam, mu in pairs:
            lam = np.sort(np.asarray(lam, float))[::-1]
            mu = np.sort(np.asarray(mu, float))[::-1]
            assert qm.compat_2x3(lam, mu).holds
            state = qm.construct_23(lam, mu)
            assert np.abs(state.rho.eigenvalues - mu).max() <= 1e-8
            assert np.abs(qm.spectrum(qm.partial_trace_first(state)) - lam).max() <= 1e-10


class TestNonextreme:
    def test_uniform_qutrit_rank3(self):
        sigma = qm.validate_density(np.eye(3) / 3)
        state = qm.nonextreme_of_rank_k(sigma, 2, 3)
        assert state.rank == 3
        assert marginal_error(state, sigma.matrix) <= 1e-10
        assert not qm.is_extreme(state).is_extreme

    def test_rank4_marginal(self):
        sigma = qm.random_density(5, 4, seed=88)
        state = qm.nonextreme_of_rank_k(sigma, 2, 3)
        assert state.rank == 3
        assert marginal_error(state, sigma.matrix) <= 1e-10
        assert not qm.is_extreme(state).is_extreme

    def test_minimum_rank_rejected(self):
        sigma = qm.validate_density(np.eye(3) / 3)
        with pytest.raises(qm.InfeasibleError):
            qm.nonextreme_of_rank_k(sigma, 2, 2)
