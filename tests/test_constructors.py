import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

import qmarginal as qm
from qmarginal import kernels
from qmarginal.constructors import _feasible_mu, _gadget_offdiag
from qmarginal.feasibility import _compat_2x3
from qmarginal.majorization import MAJ_TOL, lp_norm

from helpers import (band_edge_pairs, haar_unitary, random_prob_vector, ref_nonextreme_factor,
                     sigma_corpus, t_transform_mix)


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

    def test_minimum_rank_is_extreme_over_corpus(self):
        for sigma in sigma_corpus(max_n=6):
            for m in range(1, 5):
                k = math.ceil(sigma.rank / m)
                assert qm.is_extreme(qm.construct_rank_k(sigma, m, k)).is_extreme, (
                    sigma.dim, sigma.rank, m, k)

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


    def test_validated_from_the_factor(self, eig_calls):
        # a rank-16 state on C^64 is validated from its 64 x 16 factor:
        # no eigendecomposition of the 64 x 64 matrix
        sigma = qm.random_density(32, 32, seed=34)
        del eig_calls[:]
        state = qm.construct_rank_k(sigma, 2, 16)
        assert eig_calls == []
        assert state.rank == 16
        assert marginal_error(state, sigma.matrix) <= 1e-10

    def test_widest_rank_is_read_off_the_columns(self, eig_calls, svd_calls):
        # the rank-r*m state of a full-rank sigma has a square 8 x 8 factor,
        # whose orthogonal columns give its spectrum and range basis
        sigma = qm.random_density(4, 4, seed=35)
        del eig_calls[:]
        state = qm.construct_rank_k(sigma, 2, 8)
        assert eig_calls == svd_calls == []
        assert state.rank == 8
        assert marginal_error(state, sigma.matrix) <= 1e-10

    def test_marginal_validated_from_a_factor(self):
        # such a sigma keeps only the eigenvectors of its range: 6 x 3 here
        z = qm.PortableRng(36).complex_normal((6, 3))
        sigma = qm.validate_density(factor=z / np.linalg.norm(z))
        assert sigma.eigenvectors.shape == (6, 3)
        for m in (1, 2, 3):
            lo, hi = qm.element_rank_range(3, m)
            for k in range(lo, hi + 1):
                state = qm.construct_rank_k(sigma, m, k)
                assert state.rank == k, (m, k)
                assert marginal_error(state, sigma.matrix) <= 1e-10
        state = qm.random_state_with_marginal(sigma, 2, qm.SamplerConfig(seed=3))
        assert marginal_error(state, sigma.matrix) <= 1e-10
        state = qm.nonextreme_of_rank_k(sigma, 2, 3)
        assert marginal_error(state, sigma.matrix) <= 1e-10
        res = qm.optimal_low_rank(sigma, 1, 2)
        assert not res.exact and res.rho.rank == 2


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
            for m, k in [(1, 1), (2, 1), (1, 2), (2, 2), (3, 2)]:
                res = qm.optimal_low_rank(sigma, m, k)
                if m * k >= r:
                    # the exact answer is the least-rank construction, bit for bit
                    least = qm.construct_rank_k(sigma, m, -(-r // m))
                    assert np.array_equal(res.rho.matrix, least.matrix)
                    assert res.exact and res.mu_shift == 0.0
                    continue
                lam = sigma.eigenvalues[:r]
                mu = lam[m * k:].sum() / (m * k)
                expect = np.concatenate([
                    lam[m * k:], np.zeros(n - r), -np.full(m * k, mu)
                ])
                expect = np.sort(expect)[::-1]
                assert np.abs(res.residual_spectrum - expect).max() <= 1e-10
                assert abs(res.residual_spectrum.sum()) <= 1e-10
                spectra = kernels.residual_spectra(
                    sigma.matrix, m, sigma.dim, k, trials=50, seed=7000 + seed
                )
                for p in (1.0, 2.0, np.inf):
                    # taken from residual_spectrum, in schatten_norm's summation order
                    assert res.norms[p] == qm.schatten_norm(sigma.matrix - res.achieved_sigma, p)
                for row in spectra:
                    assert qm.majorizes(res.residual_spectrum, row).holds
                    # the general power sum keeps the bits of the p = 1 and p = 2 sums
                    assert lp_norm(row, 1) == np.abs(row).sum()
                    assert lp_norm(row, 2) == np.sqrt((row * row).sum())
                    for p in (1.0, 2.0, np.inf):
                        assert res.norms[p] <= lp_norm(row, p) + 1e-9


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
        # mu may hold entries in [-MAJ_TOL, 0): such an entry's mass moves onto
        # the largest entry of its block, here 5e-11 -> 0, and a zero gets no column
        for mu in ([0.5, 0.5, 0.0, 0.0], [0.5, 0.5, 5e-11, -5e-11]):
            state = qm.construct_with_spectra([0.5, 0.5], mu, 2)
            assert_allclose(state.rho.eigenvalues, [0.5, 0.5, 0.0, 0.0], atol=1e-8)
            assert_allclose(qm.partial_trace_first(state), np.eye(2) / 2, atol=1e-10)

    def test_negative_entries_keep_their_mass(self):
        # up to m - 1 entries in [-MAJ_TOL, 0) sit in the last m-block, whose
        # largest entry absorbs their mass: no mass leaves the trace or the
        # marginal, and mu moves by far less than the spectrum tolerance
        rng = qm.PortableRng(29)
        for _ in range(40):
            n = 1 + rng.index(4)
            m = max(n, 2) + rng.index(4)
            count = 1 + rng.index(m - 1)
            neg = -MAJ_TOL * (1.0 - rng.uniform(count))
            pos = random_prob_vector(m * n - count, rng) * (1.0 - neg.sum())
            mu = np.concatenate([pos, neg])
            lam = t_transform_mix(mu.reshape(n, m).sum(axis=1), rng)
            state = qm.construct_with_spectra(lam, mu, m)
            assert abs(np.trace(state.matrix).real - mu.sum()) <= 1e-12
            assert np.abs(qm.partial_trace_first(state) - np.diag(lam)).max() <= 1e-10
            assert np.abs(state.rho.eigenvalues - np.sort(mu)[::-1]).max() <= 1e-8

    @pytest.mark.parametrize("lam, mu, m", [
        ([0.25] * 4, [(1 + 20e-10) / 12] * 12 + [-1e-10] * 20, 8),
        ([0.5] * 2, [(1 + 20e-10) / 12] * 12 + [-1e-10] * 20, 16),
        ([0.5] * 2, [0.5 + 1e-10] * 2 + [-1e-10] * 2, 2),
        # spectra of a rank-deficient state: its zero block holds rounding noise
        ([1.0, 0.0], [0.5, 0.5, 0.0, -1e-17], 2),
        ([1.0, 0.0], [0.6, 0.4, -1e-17, -1e-17], 2),
        ([1.0, 0.0], [0.6 + 1e-10, 0.4 + 1e-10, -1e-10, -1e-10], 2),
    ])
    def test_negative_block_spills_its_mass(self, lam, mu, m):
        # an m-block with no positive entry to take its negative mass moves it
        # onto the largest entry of the last block that can
        state = qm.construct_with_spectra(lam, mu, m)
        mu = np.array(mu)
        assert state.rho.rank == np.count_nonzero(mu > 0)
        assert abs(np.trace(state.matrix).real - mu.sum()) <= 1e-12
        assert np.abs(qm.partial_trace_first(state) - np.diag(lam)).max() <= 1e-10
        assert np.abs(state.rho.eigenvalues - np.sort(mu)[::-1]).max() <= 1e-8

    def test_spill_past_spectrum_tol_is_refused(self):
        # 112 entries at -1e-10 in seven whole blocks would move one entry by 1.12e-8
        mu = np.concatenate([np.full(8, (1 + 120e-10) / 8), np.full(120, -1e-10)])
        with pytest.raises(qm.DomainError, match="cannot move"):
            qm.construct_with_spectra(np.full(8, 1 / 8), mu, 16)

    def test_pure_marginal_gives_tensor(self):
        xi = [0.6, 0.4]
        state = qm.construct_with_spectra([1.0, 0.0], [0.6, 0.4, 0.0, 0.0], 2)
        assert_allclose(qm.partial_trace_first(state), np.diag([1.0, 0.0]), atol=1e-10)
        second = qm.partial_trace_second(state)
        assert_allclose(np.linalg.eigvalsh(second)[::-1], xi, atol=1e-8)

    def test_maximally_mixed(self):
        state = qm.construct_with_spectra(np.full(2, 0.5), np.full(6, 1 / 6), 3)
        assert_allclose(state.matrix, np.eye(6) / 6, atol=1e-10)

    def test_marginal_is_diagonal_in_order(self, eig_calls, svd_calls):
        lam = np.array([0.5, 0.3, 0.2])
        mu = np.array([0.4, 0.3, 0.1, 0.1, 0.1, 0.0, 0.0, 0.0, 0.0])
        del eig_calls[:]
        state = qm.construct_with_spectra(lam, mu, 3)
        # the zeros of mu get no column: validated from the column norms of
        # a 9 x 5 factor, whose columns are orthogonal
        assert eig_calls == svd_calls == []
        assert state.rank == 5
        assert_allclose(qm.partial_trace_first(state), np.diag(lam), atol=1e-10)
        assert np.abs(state.rho.eigenvalues - np.sort(mu)[::-1]).max() <= 1e-8

    def test_full_rank_mu_is_read_off_the_columns(self, eig_calls, svd_calls):
        lam = np.array([0.5, 0.3, 0.2])
        mu = np.array([0.2, 0.15, 0.15, 0.1, 0.1, 0.1, 0.08, 0.07, 0.05])
        del eig_calls[:]
        state = qm.construct_with_spectra(lam, mu, 3)
        # every mu entry gets a column: a square 9 x 9 factor with orthogonal
        # columns, and no eigh or SVD
        assert eig_calls == svd_calls == []
        assert state.rank == 9
        assert_allclose(qm.partial_trace_first(state), np.diag(lam), atol=1e-10)
        assert np.abs(state.rho.eigenvalues - mu).max() <= 1e-8

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


def gadget(hat_a, hat_b, mu_a, mu_b):
    """The 2x2 gadget construct_23 places: diagonal (hat_a, hat_b), coupling from _gadget_offdiag."""
    x = _gadget_offdiag(hat_a, hat_b, mu_a, mu_b)
    return np.array([[hat_a, x], [x, hat_b]])


class TestGadget:
    # hat_a + hat_b = mu_a + mu_b; the eigenvalues are {mu_a, mu_b} while
    # both hats lie between them
    def test_half_corner(self):
        assert_allclose(gadget(0.5, 0.5, 0.0, 1.0), np.full((2, 2), 0.5))

    def test_degenerate(self):
        assert_allclose(gadget(0.2, 0.2, 0.2, 0.2), np.diag([0.2, 0.2]))

    def test_boundary_corner(self):
        assert_allclose(gadget(0.3, 0.1, 0.1, 0.3), np.diag([0.3, 0.1]))

    def test_eigenvalues_exact(self):
        for hat_a in (0.1, 0.25, 0.4, 0.55, 0.7):
            g = gadget(hat_a, 0.8 - hat_a, 0.1, 0.7)
            assert_allclose(np.linalg.eigvalsh(g), [0.1, 0.7], atol=1e-12)

    def test_corner_out_of_range(self):
        # a hat outside [mu_a, mu_b] by up to MAJ_TOL clamps the coupling to 0
        assert _gadget_offdiag(0.7 + 1e-11, 0.1 - 1e-11, 0.1, 0.7) == 0.0


def built_23(lam, mu, eig_calls):
    """construct_23(lam, mu), checked to take one eigendecomposition and to meet both tolerances."""
    before = len(eig_calls)
    state = qm.construct_23(lam, mu)
    assert len(eig_calls) - before == 1
    lam = np.sort(np.asarray(lam, float))[::-1]
    mu = np.sort(np.asarray(mu, float))[::-1]
    rho = state.matrix
    assert np.abs(np.linalg.eigvalsh(rho)[::-1] - mu).max() <= 1e-8
    red = np.einsum("aiaj->ij", rho.reshape(2, 3, 2, 3))
    assert np.abs(np.linalg.eigvalsh(red)[::-1] - lam).max() <= 1e-10
    return state


class TestConstruct23:
    def test_uniform_marginal_rank3(self, eig_calls):
        state = built_23([1 / 3, 1 / 3, 1 / 3], [1 / 3, 1 / 3, 1 / 3, 0, 0, 0], eig_calls)
        assert_allclose(state.rho.eigenvalues, [1 / 3, 1 / 3, 1 / 3, 0, 0, 0], atol=1e-8)

    def test_pure_marginal_tensor(self):
        state = qm.construct_23([1.0, 0.0, 0.0], [0.5, 0.5, 0.0, 0.0, 0.0, 0.0])
        red = qm.partial_trace_first(state)
        assert_allclose(np.linalg.eigvalsh(red)[::-1], [1, 0, 0], atol=1e-10)
        second = qm.partial_trace_second(state)
        assert_allclose(np.linalg.eigvalsh(second)[::-1], [0.5, 0.5], atol=1e-8)

    # derived by hand from the first table entry, which is admissible: lambda3
    # on marginal slot 0 and lambda1 on slot 2, mu6 and mu1 on the singleton
    # slots 0 and 5, gadgets {mu2, mu3} on slots (1, 3) and {mu4, mu5} on
    # (2, 4). Then d3 = lambda3 - mu6 = 0.2 lies in [mu3, mu2] = [0.2, 0.3]
    # and d2 = lambda1 - mu1 = 0.1 in [mu5, mu4] = [0, 0.1] (nu1 carries the
    # 2-ulp sum gap, which moves d2 by 1.3e-16, still inside). The trace of
    # each gadget gives d1 = 0.3 + 0.2 - 0.2 and d4 = 0.1 + 0 - 0.1; both
    # gadgets sit at an end of their range, so both couplings vanish up to
    # roundoff, and the marginal diagonal (0 + 0.2, 0.3 + 0, 0.1 + 0.4) is
    # lam in reverse order.
    HAND_LAM = [0.5, 0.3, 0.2]
    HAND_MU = [0.4, 0.3, 0.2, 0.1, 0.0, 0.0]
    HAND_DIAG = [0.0, 0.3, 0.1, 0.2, 0.0, 0.4]

    def test_hand_checked_pair(self, eig_calls):
        state = built_23(self.HAND_LAM, self.HAND_MU, eig_calls)
        assert_allclose(np.diagonal(state.matrix).real, self.HAND_DIAG, atol=1e-15)
        assert_allclose(state.matrix[[1, 2], [3, 4]], 0.0, atol=1e-8)

    def test_spectrum_checked_from_validation(self, monkeypatch):
        # the one validated candidate is corrupted by mixing in the product
        # state I/2 (x) tr_1(a), which keeps its marginal, trace and positivity
        # but moves its spectrum: no other candidate is tried
        real = qm.constructors.bipartite
        seen = []

        def corrupt(a, m, n):
            a = 0.999 * a + 0.001 * np.kron(np.eye(2) / 2, np.einsum("aiaj->ij", a.reshape(2, 3, 2, 3)))
            seen.append(a)
            return real(a, m, n)

        monkeypatch.setattr(qm.constructors, "bipartite", corrupt)
        with pytest.raises(qm.InternalInvariantError, match="witness misses its spectra"):
            qm.construct_23(self.HAND_LAM, self.HAND_MU)
        assert len(seen) == 1

    def test_marginal_checked_after_clamp(self, monkeypatch):
        # lambda1 = mu1 + mu2 is tight; a nu 1e-9 off the feasible set (but
        # within the spectrum tolerance of mu) leaves no admissible entry, and
        # the clamped one misses lambda by 1e-9
        lam = [0.6, 0.25, 0.15]
        mu = [0.35, 0.25, 0.15, 0.1, 0.1, 0.05]
        assert qm.compat_2x3(lam, mu).holds
        monkeypatch.setattr(qm.constructors, "_feasible_mu",
                            lambda lam, mu: [mu[0] - 1e-9, *mu[1:5], mu[5] + 1e-9])
        with pytest.raises(qm.InternalInvariantError, match="marginal by 1.000e-09"):
            qm.construct_23(lam, mu)

    def test_feasible_mu_lowers_mu5_onto_lambda1(self):
        # only mu4+mu5 <= lambda1 fails, by 2a = 2.3e-10; dyadic entries keep
        # every sum exact, so mu5 comes down by 2a, mu1 takes the trace back
        # up, and every check of the moved mu holds with slack >= 0
        a = 2.0 ** -33
        lam = [0.375, 0.3125, 0.3125]
        mu = [0.1875 + a] * 5 + [0.0625 - 5 * a]
        failed = [c.name for c in _compat_2x3(lam, mu).checks if c.slack < 0]
        assert failed == ["mu4+mu5 <= lambda1"]
        nu = _feasible_mu(lam, mu)
        assert nu == [0.1875 + 3 * a, *mu[1:4], 0.1875 - a, mu[5]]
        assert min(c.slack for c in _compat_2x3(lam, nu).checks) >= 0.0

    def test_infeasible_pair_rejected(self):
        with pytest.raises(qm.InfeasibleError):
            qm.construct_23([1 / 3, 1 / 3, 1 / 3], [0.5, 0.1, 0.1, 0.1, 0.1, 0.1])

    def test_round_trip_random(self, eig_calls):
        rng = qm.PortableRng(77)
        done = 0
        while done < 100:
            lam = random_prob_vector(3, rng)
            mu = random_prob_vector(6, rng)
            if not qm.compat_2x3(lam, mu).holds:
                continue
            built_23(lam, mu, eig_calls)
            done += 1

    def test_census_pairs(self, eig_calls):
        for lam, mu in qm.spectra_pair_census(2, 3, qm.SamplerConfig(seed=23, trials=300)):
            built_23(lam, mu, eig_calls)

    def test_boundary_tight_pairs(self, eig_calls):
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
            built_23(lam, mu, eig_calls)
            done += 1

    def test_band_edge_pairs(self, eig_calls):
        # one inequality fails by MAJ_TOL, or the sums of lam and mu differ by
        # 1.8e-10 (each stays within the domain's MAJ_TOL of 1)
        census = qm.spectra_pair_census(2, 3, qm.SamplerConfig(seed=12, trials=50))
        pairs = band_edge_pairs(200, seed=11)
        pairs += [(lam * (1 + 0.9e-10), mu * (1 - 0.9e-10)) for lam, mu in census]
        for lam, mu in pairs:
            assert qm.compat_2x3(lam, mu).holds
            built_23(lam, mu, eig_calls)

    def test_degenerate_ties_and_zeros(self, eig_calls):
        pairs = [
            ([0.5, 0.5, 0.0], [0.5, 0.5, 0.0, 0.0, 0.0, 0.0]),
            ([0.5, 0.25, 0.25], [0.25, 0.25, 0.25, 0.25, 0.0, 0.0]),
            ([1 / 3, 1 / 3, 1 / 3], np.full(6, 1 / 6)),  # every inequality tight
            ([0.4, 0.4, 0.2], [0.2, 0.2, 0.2, 0.2, 0.1, 0.1]),
        ]
        for lam, mu in pairs:
            assert qm.compat_2x3(lam, mu).holds
            built_23(lam, mu, eig_calls)


class TestNonextreme:
    def test_takes_no_decomposition(self, svd_calls, eig_calls):
        # the slot split keeps the columns orthogonal, so the member is
        # validated from its column norms
        sigma = qm.random_density(4, 4, seed=37)
        svd_calls.clear()
        eig_calls.clear()
        state = qm.nonextreme_of_rank_k(sigma, 2, 3)
        assert svd_calls == eig_calls == []
        assert state.rank == 3
        assert marginal_error(state, sigma.matrix) <= 1e-10

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

    def test_every_rank_over_corpus(self):
        # every k in (ceil(r/m), r] over the seeded corpus
        built = 0
        for sigma in sigma_corpus(max_n=6):
            for m in range(1, 5):
                for k in range(math.ceil(sigma.rank / m) + 1, sigma.rank + 1):
                    state = qm.nonextreme_of_rank_k(sigma, m, k)
                    assert state.rank == k, (sigma.dim, sigma.rank, m, k)
                    assert marginal_error(state, sigma.matrix) <= 1e-10
                    assert not qm.is_extreme(state).is_extreme, (sigma.dim, sigma.rank, m, k)
                    # the same state as the two-halves factor it replaced
                    ref = qm.bipartite(None, m, sigma.dim,
                                       factor=ref_nonextreme_factor(sigma, m, k))
                    assert np.abs(state.matrix - ref.matrix).max() <= 1e-15
                    assert ref.rank == k
                    assert not qm.is_extreme(ref).is_extreme
                    built += 1
        assert built == 83

    def test_minimum_rank_rejected(self):
        sigma = qm.validate_density(np.eye(3) / 3)
        with pytest.raises(qm.InfeasibleError):
            qm.nonextreme_of_rank_k(sigma, 2, 2)


def test_lifted_members_take_no_decomposition(svd_calls, eig_calls):
    # every member built from the one lifted factor is validated from its
    # column norms: no SVD and no eigensolver, at every rank over the corpus
    corpus = sigma_corpus(max_n=6)
    svd_calls.clear()
    eig_calls.clear()
    built = 0
    for sigma in corpus:
        r = sigma.rank
        qm.purify(sigma, r)
        for m in range(1, 5):
            lo, hi = qm.element_rank_range(r, m)
            for k in range(lo, hi + 1):
                qm.construct_rank_k(sigma, m, k)
                built += 1
            for k in range(lo + 1, r + 1):
                qm.nonextreme_of_rank_k(sigma, m, k)
                built += 1
    assert svd_calls == eig_calls == []
    assert built == 576


@pytest.mark.parametrize("build", [
    lambda s: qm.purify(s, 0),
    lambda s: qm.construct_rank_k(s, 2, 0),
    lambda s: qm.construct_with_spectra([1 / 3] * 3, [1 / 3, 1 / 3, 1 / 3], 0),
    lambda s: qm.nonextreme_of_rank_k(s, 0, 2),
    lambda s: qm.nonextreme_of_rank_k(s, 2, 0),
    lambda s: qm.optimal_low_rank(s, 0, 1),
    lambda s: qm.optimal_low_rank(s, 2, 0),
], ids=["purify-m0", "rank_k-k0", "spectra-m0", "nonextreme-m0", "nonextreme-k0",
        "approx-m0", "approx-k0"])
def test_zero_dimension_is_checked_before_feasibility(build):
    # a non-positive dimension is a usage error, not an infeasible request
    with pytest.raises(qm.DimensionError, match="must be >= 1"):
        build(qm.validate_density(np.eye(3) / 3))
