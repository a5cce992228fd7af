import numpy as np
import pytest
from numpy.testing import assert_allclose

import qmarginal as qm
from qmarginal import linalg

from helpers import haar_unitary, random_hermitian


class TestFoldUnfold:
    def test_standard_basis_first(self):
        w = np.array([1, 0, 0, 0])
        expected = np.zeros((2, 2))
        expected[0, 0] = 1
        assert_allclose(qm.fold(w, 2, 2), expected)

    def test_standard_basis_second(self):
        w = np.array([0, 1, 0, 0])
        expected = np.zeros((2, 2))
        expected[1, 0] = 1
        assert_allclose(qm.fold(w, 2, 2), expected)

    def test_unfold_identity(self):
        assert_allclose(qm.unfold(np.eye(2)), [1, 0, 0, 1])

    def test_unfold_column_stacking(self):
        l1, l2 = 0.7, 0.3
        mat = np.zeros((3, 2))
        mat[0, 0] = np.sqrt(l1)
        mat[1, 1] = np.sqrt(l2)
        assert_allclose(qm.unfold(mat), [np.sqrt(l1), 0, 0, 0, np.sqrt(l2), 0])

    def test_inverse_pair(self):
        rng = qm.PortableRng(11)
        for m, n in [(2, 2), (3, 2), (2, 4), (5, 3)]:
            w = rng.complex_normal(m * n)
            assert_allclose(qm.unfold(qm.fold(w, m, n)), w)
            mat = rng.complex_normal((n, m))
            assert_allclose(qm.fold(qm.unfold(mat), m, n), mat)

    def test_length_mismatch(self):
        with pytest.raises(qm.DimensionError):
            qm.fold(np.ones(5), 2, 2)


class TestPartialTraces:
    def test_tensor_states(self):
        rng = qm.PortableRng(5)
        xi = qm.random_density(3, 2, seed=21).matrix
        sig = qm.random_density(4, 3, seed=22).matrix
        rho = qm.bipartite(np.kron(xi, sig), 3, 4)
        assert_allclose(qm.partial_trace_first(rho), sig, atol=1e-12)
        assert_allclose(qm.partial_trace_second(rho), xi, atol=1e-12)

    def test_rank_one_identities_bulk(self):
        # tr1(w w*) = W W* and tr2(w w*) = W^t (W^t)* over 1000 seeded draws
        m, n = 3, 4
        rng = qm.PortableRng(101)
        ws = rng.complex_normal((1000, m * n)) / np.sqrt(m * n)  # unit scale
        rho = np.einsum("ti,tj->tij", ws, ws.conj())
        red1 = np.einsum("taiaj->tij", rho.reshape(-1, m, n, m, n))
        red2 = np.einsum("taibi->tab", rho.reshape(-1, m, n, m, n))
        folds = ws.reshape(-1, m, n).transpose(0, 2, 1)
        assert np.abs(red1 - np.einsum("tik,tjk->tij", folds, folds.conj())).max() <= 1e-12
        ft = folds.transpose(0, 2, 1)
        assert np.abs(red2 - np.einsum("tik,tjk->tij", ft, ft.conj())).max() <= 1e-12

    def test_traces_agree_with_swap_operator(self):
        # independent route: tr2(rho) = tr1(S rho S^t) for the factor-swap
        # permutation S mapping e_i (x) e_j to e_j (x) e_i
        m, n = 3, 4
        swap = np.zeros((m * n, m * n))
        for i in range(m):
            for j in range(n):
                swap[j * m + i, i * n + j] = 1.0
        rho = qm.random_density(m * n, 7, seed=606).matrix
        swapped = swap @ rho @ swap.T
        assert np.abs(
            qm.partial_trace_second(rho, m, n) - qm.partial_trace_first(swapped, n, m)
        ).max() <= 1e-12
        assert np.abs(
            qm.partial_trace_first(rho, m, n) - qm.partial_trace_second(swapped, n, m)
        ).max() <= 1e-12

    def test_maximally_entangled(self):
        w = np.array([1, 0, 0, 1]) / np.sqrt(2)
        rho = qm.bipartite(np.outer(w, w.conj()), 2, 2)
        assert_allclose(qm.partial_trace_first(rho), np.eye(2) / 2, atol=1e-14)

    def test_trace_preservation(self):
        rho = qm.random_density(12, 7, seed=9)
        state = qm.BipartiteState(3, 4, rho)
        assert abs(np.trace(qm.partial_trace_first(state)).real - 1) <= 1e-12
        assert abs(np.trace(qm.partial_trace_second(state)).real - 1) <= 1e-12

    def test_linearity(self):
        rng = qm.PortableRng(31)
        m, n = 2, 3
        a = random_hermitian(m * n, rng)
        b = random_hermitian(m * n, rng)
        for ptr in (qm.partial_trace_first, qm.partial_trace_second):
            lhs = ptr(2.5 * a - 0.5 * b, m, n)
            rhs = 2.5 * ptr(a, m, n) - 0.5 * ptr(b, m, n)
            assert_allclose(lhs, rhs, atol=1e-12)

    def test_conjugation_covariance_second_factor(self):
        # conjugating by I (x) U conjugates the first partial trace by U
        m, n = 3, 4
        rho = qm.random_density(m * n, 5, seed=41).matrix
        u = haar_unitary(n, 42)
        big = np.kron(np.eye(m), u)
        lhs = qm.partial_trace_first(big @ rho @ big.conj().T, m, n)
        rhs = u @ qm.partial_trace_first(rho, m, n) @ u.conj().T
        assert np.abs(lhs - rhs).max() <= 1e-10

    def test_first_factor_invariance(self):
        m, n = 3, 4
        rho = qm.random_density(m * n, 6, seed=43).matrix
        u = haar_unitary(m, 44)
        big = np.kron(u, np.eye(n))
        lhs = qm.partial_trace_first(big @ rho @ big.conj().T, m, n)
        assert np.abs(lhs - qm.partial_trace_first(rho, m, n)).max() <= 1e-10
        lhs2 = qm.partial_trace_second(big @ rho @ big.conj().T, m, n)
        rhs2 = u @ qm.partial_trace_second(rho, m, n) @ u.conj().T
        assert np.abs(lhs2 - rhs2).max() <= 1e-10


class TestHermitianEig:
    def test_diagonal(self):
        w, v = qm.hermitian_eig(np.diag([3.0, 1.0, 2.0]))
        assert_allclose(w, [3, 2, 1])
        assert_allclose(v @ np.diag(w) @ v.conj().T, np.diag([3.0, 1.0, 2.0]), atol=1e-12)

    def test_identity(self):
        w, v = qm.hermitian_eig(np.eye(4))
        assert_allclose(w, np.ones(4))
        assert_allclose(v.conj().T @ v, np.eye(4), atol=1e-12)

    def test_pauli_x(self):
        w, _ = qm.hermitian_eig(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert_allclose(w, [1, -1], atol=1e-14)

    def test_residual_bounds(self):
        rng = qm.PortableRng(55)
        for dim in (2, 8, 24, 64):
            a = random_hermitian(dim, rng)
            w, v = qm.hermitian_eig(a)
            scale = np.abs(a).max()
            assert np.abs(a - v @ np.diag(w) @ v.conj().T).max() <= linalg.EIG_TOL * dim * scale
            assert np.abs(v.conj().T @ v - np.eye(dim)).max() <= linalg.EIG_TOL * dim
            assert np.all(np.diff(w) <= 1e-14)

    def test_rejects_non_hermitian(self):
        with pytest.raises(qm.ValidationError):
            qm.hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestKron:
    def test_identities(self):
        assert_allclose(qm.kron(np.eye(2), np.eye(3)), np.eye(6))

    def test_corner(self):
        e11 = np.zeros((2, 2))
        e11[0, 0] = 1
        out = qm.kron(e11, e11)
        expected = np.zeros((4, 4))
        expected[0, 0] = 1
        assert_allclose(out, expected)

    def test_diagonal(self):
        assert_allclose(
            qm.kron(np.diag([1.0, 0.0]), np.diag([0.3, 0.7])),
            np.diag([0.3, 0.7, 0.0, 0.0]),
        )


class TestValidateDensity:
    def test_uniform(self):
        dm = qm.validate_density(np.eye(3) / 3)
        assert dm.rank == 3
        assert dm.dim == 3

    def test_not_psd(self):
        with pytest.raises(qm.ValidationError) as err:
            qm.validate_density(np.diag([1.5, -0.5]))
        assert err.value.reason == "not-psd"
        assert "-5" in str(err.value)  # reports the most negative eigenvalue

    def test_trace_not_one(self):
        with pytest.raises(qm.ValidationError) as err:
            qm.validate_density(np.diag([0.5, 0.4]))
        assert err.value.reason == "trace-not-one"

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)])
    def test_not_finite(self, bad):
        a = np.diag([0.5, 0.5]).astype(complex)
        a[0, 0] = bad
        with pytest.raises(qm.ValidationError) as err:
            qm.validate_density(a)
        assert err.value.reason == "not-finite"

    def test_empty_matrix(self):
        with pytest.raises(qm.DimensionError, match="non-empty"):
            qm.validate_density(np.zeros((0, 0)))

    def test_not_hermitian(self):
        bad = np.array([[0.5, 0.3], [0.0, 0.5]])
        with pytest.raises(qm.ValidationError) as err:
            qm.validate_density(bad)
        assert err.value.reason == "not-hermitian"

    def test_immutability(self):
        dm = qm.validate_density(np.eye(2) / 2)
        with pytest.raises(ValueError):
            dm.matrix[0, 0] = 9.0


class TestRandomDensity:
    def test_scalar(self):
        dm = qm.random_density(1, 1, seed=3)
        assert_allclose(dm.matrix, [[1.0]], atol=1e-14)

    def test_determinism(self):
        a = qm.random_density(4, 2, seed=7)
        b = qm.random_density(4, 2, seed=7)
        assert np.array_equal(a.matrix, b.matrix)

    def test_rank_and_trace(self):
        dm = qm.random_density(4, 2, seed=7)
        assert dm.rank == 2
        assert abs(np.trace(dm.matrix).real - 1) <= 1e-12

    def test_rank_out_of_range(self):
        with pytest.raises(qm.InfeasibleError):
            qm.random_density(3, 4, seed=0)
