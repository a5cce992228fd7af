import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import qmarginal as qm
from qmarginal import fileio, linalg
from qmarginal.constructors import _factor
from qmarginal.linalg import ORTHO_TOL, _hermitian_part

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
        eig_tol = 1e-12
        rng = qm.PortableRng(55)
        for dim in (2, 8, 24, 64):
            a = random_hermitian(dim, rng)
            w, v = qm.hermitian_eig(a)
            scale = np.abs(a).max()
            assert np.abs(a - v @ np.diag(w) @ v.conj().T).max() <= eig_tol * dim * scale
            assert np.abs(v.conj().T @ v - np.eye(dim)).max() <= eig_tol * dim
            assert np.all(np.diff(w) <= 1e-14)

    def test_rejects_non_hermitian(self):
        with pytest.raises(qm.ValidationError):
            qm.hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)])
    def test_rejects_non_finite(self, bad):
        a = np.eye(2, dtype=complex)
        a[0, 0] = bad
        with pytest.raises(qm.ValidationError) as err:
            qm.hermitian_eig(a)
        assert err.value.reason == "not-finite"


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

    @pytest.mark.parametrize("a, reason", [
        ([[0.5, 1e308 + 1e308j], [1e308 - 1e308j, 0.5]], "not-psd"),  # spectrum +-1.4e308
        ([[1e308, 1e308], [1e308, 1e308]], "not-finite"),  # spectrum {2e308, 0}
        ([[1e308, 0.0], [0.0, 1e308]], "trace-not-one"),  # the trace overflows
        ([[0.5, 1e308], [-1e308, 0.5]], "not-hermitian"),  # A - A* would overflow
        # |A| and |A - A*| would both overflow, to a NaN defect that passed
        ([[0.5, 1.5e308 + 1.5e308j], [-1.5e308 + 1.5e308j, 0.5]], "not-hermitian"),
    ])
    def test_entries_near_the_float_limit(self, a, reason):
        with pytest.raises(qm.ValidationError) as err:
            qm.validate_density(np.array(a))
        assert err.value.reason == reason

    def test_hermitian_defect_keeps_its_bits(self):
        # the defect is taken halved; at normal entries it equals
        # max|A - A*| / max(1, max|A|) to the bit, so a tolerance set to that
        # value passes and the next float below it fails
        rng = qm.PortableRng(41)
        for scale in (1e-3, 1.0, 7.0, 1e100, 1e300):
            a = rng.complex_normal((5, 5)) * scale
            a = _hermitian_part(a) + 1e-7 * scale * rng.complex_normal((5, 5))
            defect = float(np.abs(a - a.conj().T).max()) / max(1.0, float(np.abs(a).max()))
            linalg.assert_hermitian(a, defect)
            with pytest.raises(qm.ValidationError, match="not Hermitian"):
                linalg.assert_hermitian(a, np.nextafter(defect, 0.0))

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
        with pytest.raises(ValueError):
            dm.eigenvectors[0, 0] = 9.0

    @pytest.mark.parametrize("a", [
        np.eye(3) / 3,
        np.eye(4) / 4,
        qm.random_density(5, 2, seed=17).matrix,
    ], ids=["I/3", "I/4", "rank-deficient"])
    def test_eigenbasis_in_hermitian_eig_order(self, a):
        # constructions read the carried factorization; on ties its column
        # order decides the output, so it must be hermitian_eig's exactly
        dm = qm.validate_density(a)
        w, v = qm.hermitian_eig(a)
        assert dm.eigenvectors.tobytes() == v.tobytes()
        assert dm.eigenvalues.tobytes() == np.maximum(w, 0.0).tobytes()
        assert_allclose(
            dm.eigenvectors @ np.diag(dm.eigenvalues) @ dm.eigenvectors.conj().T, a, atol=1e-12
        )


def lifted_factors():
    """(m, n, k, Z) for the rank-k factors of the constructions, Z Z* of unit trace.

    Every feasible k over m <= 4, n <= 8 (full-rank and rank-deficient
    sigma), plus (2, 32) and (4, 24).
    """
    dims = [(m, n) for m in range(1, 5) for n in range(1, 9)] + [(2, 32), (4, 24)]
    seed = 900
    for m, n in dims:
        for r in sorted({n, max(1, n - 2)}):
            seed += 1
            sigma = qm.random_density(n, r, seed=seed)
            lo, hi = qm.element_rank_range(r, m)
            for k in range(lo, hi + 1):
                yield m, n, k, _factor(sigma, m, k)[0]


def spread_factor(d: int, k: int, seed: int) -> np.ndarray:
    """Seeded d x k factor of unit Frobenius norm with zero and dependent columns.

    Its nonzero singular values lie within a factor 1e3 of each other, so
    its squared ones sit far above the rank cutoff 1e-9 of the largest.
    """
    rng = qm.PortableRng(seed)
    rank = 1 + rng.index(min(d, k))
    live = rank + rng.index(k - rank + 1)  # more live columns than the rank are dependent
    cols = np.argsort(rng.uniform(k), kind="stable")[:live]
    basis = np.linalg.qr(rng.complex_normal((d, rank)))[0]
    mix = np.linalg.qr(rng.complex_normal((live, rank)))[0]
    scales = 10.0 ** (-3.0 * rng.uniform(rank))
    z = np.zeros((d, k), dtype=complex)
    z[:, cols] = (basis * (scales / np.linalg.norm(scales))) @ mix.conj().T
    return z


def assert_range_basis(dm, width: int, where=None) -> None:
    """The eigenvectors are d x width with orthonormal columns and rebuild the matrix."""
    v = dm.eigenvectors
    assert v.shape == (dm.dim, width), where
    assert np.abs(v.conj().T @ v - np.eye(width)).max() <= 1e-13, where
    rebuilt = (v * dm.eigenvalues[:width]) @ v.conj().T
    assert np.abs(rebuilt - dm.matrix).max() <= 1e-13, where


def tilted_factor(d: int, k: int, seed: int) -> np.ndarray:
    """Seeded d x k factor of unit Frobenius norm whose columns have pairwise
    cosines up to 0.8 ORTHO_TOL and squared norms in ratios 1 : 4 : 9, with ties."""
    rng = qm.PortableRng(seed)
    q = np.linalg.qr(rng.complex_normal((d, k)))[0]
    # |cos_ij| <= |E_ij| + |E_ji| + k max|E|^2 for columns of Q (I + E)
    tilt = 0.4 * ORTHO_TOL * rng.uniform(k * k) * np.exp(2j * np.pi * rng.uniform(k * k))
    tilt = tilt.reshape(k, k)
    np.fill_diagonal(tilt, 0.0)
    z = (q @ (np.eye(k) + tilt)) * (1.0 + np.floor(3.0 * rng.uniform(k)))
    return z / np.linalg.norm(z)


TINY = 1e-155  # a squared norm of 1e-310 is subnormal, and a product of two underflows to 0


def tiny_factor(orthogonal: bool) -> np.ndarray:
    z = np.zeros((3, 3), dtype=complex)
    z[0, 0] = 1.0
    z[1, 1] = TINY
    z[1:, 2] = (0.0, TINY) if orthogonal else (TINY / np.sqrt(2.0), TINY / np.sqrt(2.0))
    return z


class TestFactorPath:
    def test_matches_matrix_path_over_corpus(self, svd_calls, eig_calls):
        # every lifted factor has orthogonal columns: read off their norms,
        # with no SVD and no eigendecomposition
        seen_thin = seen_square = False
        for m, n, k, z in lifted_factors():
            d = m * n
            seen_thin |= k < d
            seen_square |= k >= d
            del svd_calls[:], eig_calls[:]
            fac = qm.validate_density(factor=z)
            where = (m, n, k)
            assert svd_calls == eig_calls == [], where
            ref = qm.validate_density(z @ z.conj().T)
            assert fac.matrix.tobytes() == ref.matrix.tobytes(), where
            assert fac.rank == ref.rank == k, where
            assert fac.eigenvalues.shape == (d,), where
            assert np.abs(fac.eigenvalues - ref.eigenvalues).max() <= 1e-14, where
            assert_range_basis(fac, min(d, k), where)
        assert seen_thin and seen_square

    def test_square_factor_takes_the_thin_svd(self, eig_calls, svd_calls):
        z = qm.PortableRng(32).complex_normal((6, 6))
        z /= np.linalg.norm(z)
        dm = qm.validate_density(factor=z)
        assert eig_calls == []
        assert svd_calls == ["svd"]
        ref = qm.validate_density(z @ z.conj().T)
        assert dm.rank == ref.rank == 6
        assert np.abs(dm.eigenvalues - ref.eigenvalues).max() <= 1e-14
        assert_range_basis(dm, 6)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.integers(1, 16).flatmap(lambda d: st.tuples(
        st.just(d), st.integers(1, 2 * d), st.integers(0, 2**32 - 1))))
    def test_one_path_for_every_width(self, eig_calls, case):
        # thin, square and wide factors, some with dependent or zero columns
        d, k, seed = case
        z = spread_factor(d, k, seed)
        ref = qm.validate_density(z @ z.conj().T)
        del eig_calls[:]
        fac = qm.validate_density(factor=z)
        assert eig_calls == []
        assert fac.matrix.tobytes() == ref.matrix.tobytes()
        assert fac.rank == ref.rank
        assert fac.eigenvalues.shape == (d,)
        assert np.abs(fac.eigenvalues - ref.eigenvalues).max() <= 1e-14
        assert_range_basis(fac, min(d, k))

    @pytest.mark.parametrize("scale, svds", [(0.9, []), (1.1, ["svd"])], ids=["under", "over"])
    def test_cosine_at_the_tolerance(self, svd_calls, scale, svds):
        # columns e0, e1 + c e0 and e2, whose one cosine c / sqrt(1 + c^2) is c
        c = scale * ORTHO_TOL
        z = np.eye(3, dtype=complex)
        z[0, 1] = c
        z /= np.linalg.norm(z)
        dm = qm.validate_density(factor=z)
        assert svd_calls == svds
        ref = qm.validate_density(z @ z.conj().T)
        assert dm.matrix.tobytes() == ref.matrix.tobytes()
        assert dm.rank == ref.rank == 3
        assert np.abs(dm.eigenvalues - ref.eigenvalues).max() <= 2 * ORTHO_TOL * ref.eigenvalues[0]
        v = dm.eigenvectors
        assert np.abs(v.conj().T @ v - np.eye(3)).max() <= 1.1 * ORTHO_TOL
        assert np.abs((v * dm.eigenvalues) @ v.conj().T - dm.matrix).max() <= 1e-16

    def test_diagonal_mixture_sorts_its_columns(self, svd_calls):
        # k = 5 > r = 3: column t carries d[t mod 3] / share, so the squared
        # norms are 0.25, 0.15, 0.2, 0.25, 0.15, unsorted with two ties
        z, _ = _factor(qm.validate_density(np.diag([0.5, 0.3, 0.2])), 2, 5)
        dm = qm.validate_density(factor=z)
        assert svd_calls == []
        assert_allclose(dm.eigenvalues, [0.25, 0.25, 0.2, 0.15, 0.15, 0.0], rtol=0, atol=1e-16)
        order = [0, 3, 2, 1, 4]  # descending, ties in column order
        expected = z[:, order] / np.linalg.norm(z[:, order], axis=0)
        assert np.abs(dm.eigenvectors - expected).max() <= 1e-16
        assert dm.rank == 5

    @settings(max_examples=150, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.integers(1, 16).flatmap(lambda d: st.tuples(
        st.just(d), st.integers(1, d), st.integers(0, 2**32 - 1))))
    def test_tilted_columns_within_the_stated_bound(self, svd_calls, case):
        # each eigenvalue lies within a relative (k - 1) ORTHO_TOL of the
        # squared norm read off in its place (Ostrowski), plus the rounding
        # of the matrix path's eigh
        d, k, seed = case
        z = tilted_factor(d, k, seed)
        del svd_calls[:]
        fac = qm.validate_density(factor=z)
        assert svd_calls == []
        ref = qm.validate_density(z @ z.conj().T)
        assert fac.matrix.tobytes() == ref.matrix.tobytes()
        assert fac.rank == ref.rank == k
        bound = (k - 1) * ORTHO_TOL * ref.eigenvalues + 1e-14
        assert (np.abs(fac.eigenvalues - ref.eigenvalues) <= bound).all()
        v = fac.eigenvectors
        assert v.shape == (d, k)
        assert np.abs(v.conj().T @ v - np.eye(k)).max() <= ORTHO_TOL
        assert np.abs((v * fac.eigenvalues[:k]) @ v.conj().T - fac.matrix).max() <= 1e-15

    # the column norms and cosines are taken without a numpy warning: tiny
    # columns whose product of squared norms underflows, a zero column, and
    # overflowing ones. An inf squared norm is read off as an eigenvalue and
    # refused; a NaN one (inf - inf in the complex Gram) or a NaN cosine of
    # two inf norms takes the SVD
    @pytest.mark.parametrize("z, svds, reason", [
        (tiny_factor(orthogonal=True), [], None),
        (tiny_factor(orthogonal=False), ["svd"], None),
        (np.array([[1.0, 0.0], [0.0, 0.0]]), ["svd"], None),
        (np.array([[1.0, 1e-170], [0.0, 1e-170]]), ["svd"], None),  # squared norm underflows to 0
        (np.full((2, 1), 1e160), [], "not-finite"),
        (np.full((2, 1), 1e160 + 1e160j), ["svd"], "not-finite"),
        (np.full((2, 1), 1.2e154), [], "not-finite"),
        (np.full((2, 2), 1e160), ["svd"], "not-finite"),
    ], ids=["tiny-orthogonal", "tiny-dependent", "zero-column", "underflowing-column",
            "overflow-1e160", "overflow-complex", "overflow-1.2e154", "overflow-pair"])
    def test_path_choice_warns_nothing(self, svd_calls, z, svds, reason):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if reason is None:
                dm = qm.validate_density(factor=z)
                assert dm.rank == 1
                assert dm.eigenvalues[0] == 1.0
            else:
                with pytest.raises(qm.ValidationError) as err:
                    qm.validate_density(factor=z)
                assert err.value.reason == reason
        assert svd_calls == svds

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)])
    def test_not_finite_factor(self, bad):
        z = np.full((4, 2), 0.5, dtype=complex)
        z[1, 0] = bad
        with pytest.raises(qm.ValidationError) as err:
            qm.validate_density(factor=z)
        assert err.value.reason == "not-finite"

    def test_exactly_one_input(self):
        with pytest.raises(TypeError):
            qm.validate_density()
        with pytest.raises(TypeError):
            qm.validate_density(np.eye(2) / 2, factor=np.eye(2) / np.sqrt(2))

    def test_factor_must_be_a_matrix(self):
        with pytest.raises(qm.DimensionError):
            qm.validate_density(factor=np.ones(4) / 2)

    @pytest.mark.parametrize("shape", [(0, 0), (0, 3)], ids=["0x0", "0x3"])
    def test_factor_must_have_rows(self, shape):
        with pytest.raises(qm.DimensionError, match="non-empty"):
            qm.validate_density(factor=np.zeros(shape))

    # Z Z* overflows at 1e160 (to NaN off the diagonal for complex entries);
    # at 1.2e154 only its eigenvalue 2.9e308 does
    @pytest.mark.parametrize("entry", [1e160, 1e160 + 1e160j, 1.2e154])
    def test_overflowing_factor(self, entry):
        with pytest.raises(qm.ValidationError) as err:
            qm.validate_density(factor=np.full((2, 1), entry))
        assert err.value.reason == "not-finite"


def test_bipartite_factor_dims_must_be_positive():
    # m*n = 4 matches the dimension, so only the sign check catches these dims
    with pytest.raises(qm.DimensionError, match="m=-2, n=-2"):
        qm.bipartite(np.eye(4) / 4, -2, -2)


@pytest.mark.parametrize("m, n", [(3, 4), (1, 4), (None, 3), (2, None)])
def test_bipartite_state_dims_must_factor_the_state(m, n):
    # both dims are required (none is derived) and m*n must be the dimension 6
    rho = qm.random_density(6, 2, seed=4)
    with pytest.raises(qm.DimensionError, match=f"m={m}, n={n}"):
        qm.BipartiteState(m, n, rho)


def test_factor_dims_is_one_rule():
    assert fileio.factor_dims is linalg.factor_dims


@pytest.mark.parametrize("ptrace", [qm.partial_trace_first, qm.partial_trace_second])
def test_partial_trace_needs_a_square_matrix(ptrace):
    with pytest.raises(qm.DimensionError, match="square"):
        ptrace(np.ones((4, 2)) / 4, 2, 2)


# each row would be accepted with the tolerance check off: a NaN tolerance
# makes every comparison false, so the check it guards never fires
@pytest.mark.parametrize("call, name", [
    (lambda tol: qm.validate_density([[0.5, 0.3], [0, 0.5]], hermit_tol=tol), "hermit_tol"),
    (lambda tol: qm.validate_density(np.diag([1.2, -0.2]), psd_tol=tol), "psd_tol"),
    (lambda tol: qm.validate_density(np.diag([0.7, 0.7]), trace_tol=tol), "trace_tol"),
    (lambda tol: qm.validate_density(np.eye(2) / 2, rank_tol_factor=tol), "rank_tol_factor"),
    (lambda tol: qm.hermitian_eig([[0.5, 0.3], [0, 0.5]], tol=tol), "tol"),
    (lambda tol: linalg.assert_hermitian(np.array([[0.5, 0.3], [0, 0.5]]), tol=tol), "tol"),
], ids=["hermit_tol", "psd_tol", "trace_tol", "rank_tol_factor", "hermitian_eig", "assert_hermitian"])
@pytest.mark.parametrize("tol", [np.nan, np.inf, -1e-9])
def test_tolerances_must_be_finite_and_nonnegative(call, name, tol):
    with pytest.raises(qm.DomainError, match=f"^{name} must be finite and >= 0"):
        call(tol)


@pytest.mark.parametrize("ptrace", [qm.partial_trace_first, qm.partial_trace_second])
def test_partial_trace_factor_dims_must_be_positive(ptrace):
    # the raw-matrix path checks the signs before the m*n = 4 shape test
    with pytest.raises(qm.DimensionError, match="m=-2, n=-2"):
        ptrace(np.eye(4) / 4, -2, -2)


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


@pytest.mark.parametrize("path, make, svd", [
    ("a", lambda: qm.random_density(4, 3, seed=19).matrix.copy(), False),
    ("a", lambda: np.eye(3) / 3, False),  # real: converted on entry
    ("factor", lambda: _factor(qm.random_density(4, 3, seed=19), 2, 2)[0], False),
    ("factor", lambda: spread_factor(6, 4, 19), True),
    ("factor", lambda: spread_factor(4, 7, 20), True),  # wider than tall
], ids=["matrix", "real-matrix", "orthogonal-factor", "thin-svd-factor", "wide-factor"])
def test_state_owns_its_arrays(path, make, svd, svd_calls):
    # every array of a state is read-only and shares no memory with the
    # caller's matrix or factor, so writing to that leaves the state as it was
    given = make()
    dm = qm.validate_density(**{path: given})
    assert (svd_calls != []) == svd
    arrays = (dm.matrix, dm.eigenvalues, dm.eigenvectors)
    before = [x.tobytes() for x in arrays]
    for x in arrays:
        assert not x.flags.writeable
        assert not np.shares_memory(x, given)
        with pytest.raises(ValueError, match="read-only"):
            x[0] = 0.0
    given[...] = 7.0
    assert [x.tobytes() for x in arrays] == before
