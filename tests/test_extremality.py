import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import qmarginal as qm
from qmarginal import extremality
from qmarginal.constructors import MARGINAL_TOL
from qmarginal.extremality import (
    CERT_RESIDUAL_TOL,
    INDEP_TOL,
    MARGINAL_INDEP_TOL,
    _hermitian_gram,
    _scaled_factors,
)
from qmarginal.linalg import TRACE_TOL

from helpers import haar_unitary, random_hermitian, sigma_corpus


def small_corpus():
    """(state, sigma) members at assorted feasible ranks."""
    out = []
    for sigma in sigma_corpus(max_n=4, seed=555):
        for m in (2, 3):
            lo, hi = qm.element_rank_range(sigma.rank, m)
            for k in {lo, min(lo + 1, hi), hi}:
                out.append((qm.construct_rank_k(sigma, m, k), sigma))
    return out


class TestIsExtreme:
    def test_rank_one_always_extreme(self):
        for seed in range(4):
            sigma = qm.random_density(3, min(2, 3), seed=400 + seed)
            state = qm.purify(sigma, 2)
            rep = qm.is_extreme(state)
            assert rep.is_extreme
            assert rep.certificate is None

    def test_uniform_on_six_not_extreme(self):
        state = qm.bipartite(np.eye(6) / 6, 2, 3)
        rep = qm.is_extreme(state)
        assert not rep.is_extreme
        assert rep.rank == 6
        assert rep.certificate is not None
        defect = np.abs(rep.certificate - rep.certificate.conj().T).max()
        assert defect <= 1e-12

    def test_min_rank_member_extreme(self):
        sigma = qm.validate_density(np.eye(3) / 3)
        rep = qm.is_extreme(qm.construct_rank_k(sigma, 2, 2))
        assert rep.is_extreme

    def test_min_rank_completeness_over_corpus(self):
        for sigma in sigma_corpus(max_n=5, seed=771):
            for m in (2, 3, 4):
                k = qm.element_rank_range(sigma.rank, m).k_min
                state = qm.construct_rank_k(sigma, m, k)
                assert qm.is_extreme(state).is_extreme, (sigma.dim, sigma.rank, m, k)

    def test_low_rank_regime_constructions_all_extreme(self):
        # the superposition construction is extreme at every k up to the
        # marginal rank, not only at the minimum
        for sigma in sigma_corpus(max_n=5, seed=772):
            for m in (2, 3):
                lo, _ = qm.element_rank_range(sigma.rank, m)
                for k in range(lo, sigma.rank + 1):
                    state = qm.construct_rank_k(sigma, m, k)
                    assert qm.is_extreme(state).is_extreme, (sigma.dim, sigma.rank, m, k)

    def test_rank_above_second_dim_not_extreme(self):
        sigma = qm.random_density(3, 3, seed=61)
        for k in (4, 5, 6):
            state = qm.construct_rank_k(sigma, 2, k)
            assert not qm.is_extreme(state).is_extreme

    def test_extreme_rank_ceiling(self):
        # reported-extreme members never exceed min(marginal rank, n)
        for state, sigma in small_corpus():
            rep = qm.is_extreme(state)
            if rep.is_extreme:
                assert rep.rank <= min(sigma.rank, state.n)

    @pytest.mark.parametrize("build, extreme", [
        (qm.construct_rank_k, True), (qm.nonextreme_of_rank_k, False),
    ], ids=["extreme", "nonextreme"])
    def test_one_eigensolver_call(self, build, extreme, eig_calls):
        # the certificate comes from linear solves on the shifted Gram, not
        # from a second decomposition
        state = build(qm.random_density(8, 8, seed=64), 2, 5)
        del eig_calls[:]
        assert qm.is_extreme(state).is_extreme is extreme
        assert eig_calls == ["eigvalsh"]

    def test_single_first_factor_takes_no_gram(self, eig_calls):
        # S(sigma) = {sigma} when m = 1, and the Gram of the products of
        # orthonormal eigenvectors is the identity
        state = qm.bipartite(np.diag([0.4, 0.3, 0.2, 0.1]), 1, 4)
        del eig_calls[:]
        rep = qm.is_extreme(state)
        assert eig_calls == []
        assert (rep.is_extreme, rep.rank, rep.gram_min_eig, rep.certificate, rep.marginal) == (
            True, 4, 1.0, None, False)

    def test_borderline_gram_flagged_marginal(self):
        # I/2 (x) |0><0| on (2, 3) turned by exp(i eps H): its Gram has
        # gram_max about 2 and gram_min about 1.1e-6, so the ratio lies between
        # INDEP_TOL and MARGINAL_INDEP_TOL while gram_min * gram_max > 1e-6
        w, v = np.linalg.eigh(random_hermitian(6, qm.PortableRng(3)))
        u = (v * np.exp(2e-3j * w)) @ v.conj().T
        rho = np.kron(np.eye(2) / 2, np.diag([1.0, 0.0, 0.0]))
        state = qm.bipartite(u @ rho @ u.conj().T, 2, 3)
        gram = _hermitian_gram(state.rho.eigenvectors[:, :2], 2, 3)[0]
        gram_min, gram_max = np.linalg.eigvalsh(gram)[[0, -1]]
        assert INDEP_TOL < gram_min / gram_max < MARGINAL_INDEP_TOL
        assert gram_min * gram_max > MARGINAL_INDEP_TOL
        rep = qm.is_extreme(state)
        assert rep.gram_min_eig == gram_min
        assert rep.is_extreme is True
        assert rep.marginal is True

    def test_refactorization_invariance(self):
        state = qm.construct_rank_k(qm.random_density(4, 4, seed=62), 2, 3)
        z = _scaled_factors(state)
        r = z.shape[1]
        rows = stacked_products_loop(z, state.m, state.n)
        q = haar_unitary(r, 63)
        rows_q = stacked_products_loop(z @ q, state.m, state.n)
        def verdict(rows):
            s = np.linalg.svd(rows, compute_uv=False)
            gmin = s[-1] ** 2 if rows.shape[0] <= rows.shape[1] else 0.0
            return gmin > 1e-8 * s[0] ** 2
        assert verdict(rows) == verdict(rows_q)


class TestSplitNonextreme:
    def test_uniform_on_six(self):
        state = qm.bipartite(np.eye(6) / 6, 2, 3)
        rep = qm.is_extreme(state)
        rho1, rho2 = qm.split_nonextreme(state, rep.certificate)
        assert rho1.rank <= 5
        mid = (rho1.matrix + rho2.matrix) / 2
        assert np.abs(mid - state.matrix).max() <= 1e-10
        target = qm.partial_trace_first(state)
        for part in (rho1, rho2):
            assert np.abs(qm.partial_trace_first(part) - target).max() <= 1e-10

    def test_constructed_nonextreme_splits_with_rank_drop(self):
        sigma = qm.validate_density(np.eye(3) / 3)
        state = qm.nonextreme_of_rank_k(sigma, 2, 3)
        rep = qm.is_extreme(state)
        assert not rep.is_extreme
        rho1, rho2 = qm.split_nonextreme(state, rep.certificate)
        assert rho1.rank < state.rank
        assert np.abs((rho1.matrix + rho2.matrix) / 2 - state.matrix).max() <= 1e-10

    def test_split_soundness_over_corpus(self):
        wide = qm.nonextreme_of_rank_k(qm.random_density(32, 32, seed=5), 2, 17)
        for state, sigma in small_corpus() + [(wide, None)]:
            rep = qm.is_extreme(state)
            if rep.is_extreme:
                continue
            rho1, rho2 = qm.split_nonextreme(state, rep.certificate)
            assert rho1.rank < state.rank
            assert np.abs((rho1.matrix + rho2.matrix) / 2 - state.matrix).max() <= 1e-12
            target = qm.partial_trace_first(state)
            for part in (rho1, rho2):
                assert np.abs(qm.partial_trace_first(part) - target).max() <= 1e-10

    @pytest.mark.parametrize("eps", [1e-9, 1e-8])
    def test_marginal_moving_certificate_rejected(self, eps):
        # the perturbed certificate passes the relative residual check, but
        # its step would move the halves' marginal by about 3.6e-10 (1e-9)
        # or their trace by about 7e-9 (1e-8)
        state = qm.nonextreme_of_rank_k(qm.random_density(4, 4, seed=70), 2, 3)
        cert = qm.is_extreme(state).certificate
        h = random_hermitian(3, qm.PortableRng(76))
        h /= np.abs(h).max()
        with pytest.raises(qm.InvalidCertificateError, match="moves"):
            qm.split_nonextreme(state, cert + eps * h)

    def test_barely_annihilating_certificate_rejected(self):
        # a residual of 2.8e-7 of the scale: CERT_RESIDUAL_TOL rejects it before
        # the step's move of the marginal is weighed
        state = qm.nonextreme_of_rank_k(qm.random_density(4, 4, seed=70), 2, 3)
        cert = qm.is_extreme(state).certificate
        h = random_hermitian(3, qm.PortableRng(76))
        h /= np.abs(h).max()
        with pytest.raises(qm.InvalidCertificateError, match="does not annihilate"):
            qm.split_nonextreme(state, cert + 3e-7 * h)

    def test_trace_moving_certificate_rejected(self):
        # H + delta I moves the marginal by delta sigma = delta I/16: with
        # delta * step = 1.4e-9, the halves' marginal moves by 8.8e-11, under
        # MARGINAL_TOL, but their trace by 1.4e-9, over TRACE_TOL
        state = qm.nonextreme_of_rank_k(qm.validate_density(np.eye(16) / 16), 2, 9)
        cert = qm.is_extreme(state).certificate
        step = 1.0 / np.abs(np.linalg.eigvalsh(cert)).max()
        with pytest.raises(qm.InvalidCertificateError, match="trace"):
            qm.split_nonextreme(state, cert + 1.4e-9 / step * np.eye(9))

    @pytest.mark.parametrize("delta", [1.8e-9, 1e-9, 1e-11])
    def test_eigenvalues_under_the_rank_cutoff_kept(self, delta):
        # mixing in delta I/6 leaves three eigenvalues of about delta/6 under
        # the rank cutoff; the halves must still average to the whole state,
        # also at delta = 1e-11, whose three sum to 5e-12 > ROUNDOFF_TAIL = 1e-12
        rho = qm.nonextreme_of_rank_k(qm.validate_density(np.eye(3) / 3), 2, 3)
        state = qm.bipartite((1 - delta) * rho.matrix + delta * np.eye(6) / 6, 2, 3)
        assert state.rank == 3
        rho1, rho2 = qm.split_nonextreme(state, qm.is_extreme(state).certificate)
        assert rho1.rank < state.rank
        assert np.abs((rho1.matrix + rho2.matrix) / 2 - state.matrix).max() <= 1e-12
        target = qm.partial_trace_first(state)
        for part in (rho1, rho2):
            assert np.abs(qm.partial_trace_first(part) - target).max() <= MARGINAL_TOL

    @pytest.mark.parametrize("n, m, k", [(8, 4, 3), (16, 8, 3)])
    def test_matrix_loaded_state_splits_like_factor_built(self, n, m, k, monkeypatch):
        # a state loaded from its matrix has eigh roundoff of about 1e-16
        # beyond its rank; it must not give the halves a column apiece
        widths = []
        validate = extremality.bipartite

        def recording(a, m, n, *, factor=None):
            widths.append(factor.shape[1])
            return validate(a, m, n, factor=factor)

        monkeypatch.setattr(extremality, "bipartite", recording)
        built = qm.nonextreme_of_rank_k(qm.random_density(n, n, seed=3), m, k)
        loaded = qm.bipartite(built.matrix, m, n)
        assert np.count_nonzero(loaded.rho.eigenvalues) > k
        for state in (built, loaded):
            rho1, rho2 = qm.split_nonextreme(state, qm.is_extreme(state).certificate)
            assert rho1.rank < state.rank
            target = qm.partial_trace_first(state)
            for part in (rho1, rho2):
                assert np.abs(qm.partial_trace_first(part) - target).max() <= MARGINAL_TOL
        assert widths == [k] * 4

    def test_invalid_certificate_rejected(self):
        state = qm.bipartite(np.eye(6) / 6, 2, 3)
        bogus = np.eye(6)  # identity never annihilates the factor products
        with pytest.raises(qm.InvalidCertificateError):
            qm.split_nonextreme(state, bogus)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_certificate_rejected(self, bad):
        state = qm.bipartite(np.eye(6) / 6, 2, 3)
        cert = qm.is_extreme(state).certificate.copy()
        cert[0, 0] = bad
        with pytest.raises(qm.InvalidCertificateError, match="non-finite"):
            qm.split_nonextreme(state, cert)

    @pytest.mark.parametrize("scale", [0.0, 1e-310, 1.7e308],
                             ids=["zero", "subnormal", "near-overflow"])
    def test_certificate_without_finite_step_rejected(self, scale):
        # the step 1/max|eig| of a zero or subnormal certificate is not finite;
        # that of one with max|eig| 1.3e308 is subnormal
        state = qm.bipartite(np.eye(6) / 6, 2, 3)
        cert = scale * qm.is_extreme(state).certificate
        with pytest.raises(qm.InvalidCertificateError, match="not finite"):
            qm.split_nonextreme(state, cert)

    def test_certificate_near_the_float_limit(self):
        # certificates up to max|eig| 4e307 still split; one with entries of
        # 1.7e308 has a spectrum that overflows, and so a zero step
        state = qm.bipartite(np.eye(6) / 6, 2, 3)
        unit = qm.is_extreme(state).certificate
        unit = unit / np.abs(unit).max()
        eta_max = np.abs(np.linalg.eigvalsh(unit)).max()
        for cert in (1e300 * unit, 4e307 / eta_max * unit):
            rho1, _ = qm.split_nonextreme(state, cert)
            assert rho1.rank < state.rank
        with pytest.raises(qm.InvalidCertificateError, match="not finite"):
            qm.split_nonextreme(state, 1.7e308 * unit)

    def test_non_numeric_certificate_rejected(self):
        state = qm.bipartite(np.eye(6) / 6, 2, 3)
        with pytest.raises(qm.InvalidCertificateError, match="not a complex array"):
            qm.split_nonextreme(state, "abc")

    def test_wrong_shape_rejected(self):
        state = qm.bipartite(np.eye(6) / 6, 2, 3)
        with pytest.raises(qm.InvalidCertificateError):
            qm.split_nonextreme(state, np.eye(2))


def test_extreme_rank_statement():
    # every member at a rank in extreme_rank_range that construct_rank_k
    # builds is extreme, and every rank above the minimum also has a
    # non-extreme member
    extreme = nonextreme = 0
    for m in range(1, 5):
        for n in range(1, 9):
            for r in range(1, n + 1):
                sigma = qm.random_density(n, r, seed=1000 * m + 10 * n + r)
                lo, hi = qm.extreme_rank_range(r, m)
                for k in range(lo, hi + 1):
                    assert qm.is_extreme(qm.construct_rank_k(sigma, m, k)).is_extreme, (m, n, r, k)
                    extreme += 1
                    if k > lo:
                        assert not qm.is_extreme(qm.nonextreme_of_rank_k(sigma, m, k)).is_extreme
                        nonextreme += 1
    assert (extreme, nonextreme) == (334, 190)


def stacked_products_loop(z, m, n):
    """Reference stacking: one folded product per (i, j), row i*r + j."""
    r = z.shape[1]
    folds = [z[:, i].reshape(m, n).T for i in range(r)]  # n x m, column j = z_i[j*n:(j+1)*n]
    return np.array([(folds[i] @ folds[j].conj().T).reshape(-1)
                     for i in range(r) for j in range(r)]).reshape(r * r, n * n)


def first_factor_rotated(state, seed):
    """(U (x) I_n) rho (U (x) I_n)* for a Haar U: same first marginal, complex factors."""
    u = np.kron(haar_unitary(state.m, seed), np.eye(state.n))
    return qm.bipartite(u @ state.matrix @ u.conj().T, state.m, state.n)


def rotated_member(m, n, r, k, seed):
    sigma = qm.random_density(n, r, seed=seed)
    return first_factor_rotated(qm.construct_rank_k(sigma, m, k), seed + 1)


@st.composite
def rotated_members(draw):
    m = draw(st.integers(1, 3))
    n = draw(st.integers(2, 4))
    r = draw(st.integers(1, n))
    lo, hi = qm.element_rank_range(r, m)
    return rotated_member(m, n, r, draw(st.integers(lo, hi)), draw(st.integers(0, 10_000)))


class TestExtremalityProperties:
    @settings(max_examples=80, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(rotated_members())
    # rank^2 > n^2: dependent by counting, certificate from n^2 + 1 products
    @example(rotated_member(2, 2, 2, 3, 5))
    @example(rotated_member(2, 3, 3, 4, 6))
    @example(rotated_member(3, 3, 3, 9, 7))
    @example(rotated_member(4, 2, 2, 8, 8))
    @example(rotated_member(3, 2, 2, 2, 9))  # rank^2 = n^2, extreme
    # rank-n members at rank^2 = n^2
    @example(rotated_member(2, 3, 3, 3, 10))
    @example(rotated_member(3, 4, 4, 4, 11))
    # generic rank > n states: a non-degenerate spectrum under the certificate
    @example(qm.bipartite(qm.random_density(6, 4, seed=12).matrix, 2, 3))
    @example(qm.bipartite(qm.random_density(8, 6, seed=13).matrix, 2, 4))
    def test_verdict_and_certificate(self, state):
        assert np.iscomplexobj(state.matrix) and np.abs(state.matrix.imag).max() > 0
        z = _scaled_factors(state)
        r = z.shape[1]
        rows = stacked_products_loop(z, state.m, state.n)
        rep = qm.is_extreme(state)
        assert rep.rank == r
        assert rep.gram_min_eig >= 0.0
        # the real Hermitian-basis Gram has the spectrum of the complex one
        # over the products of the orthonormal eigenvectors
        v_rows = stacked_products_loop(state.rho.eigenvectors[:, :r], state.m, state.n)
        w = np.linalg.eigvalsh(v_rows @ v_rows.conj().T)
        assert abs(rep.gram_min_eig - w[0]) <= 1e-14 * w[-1]
        if r * r > state.n ** 2:
            assert rep.gram_min_eig == 0.0
        assert rep.is_extreme == (np.linalg.matrix_rank(rows) == r * r)
        assert (rep.certificate is None) == rep.is_extreme
        if rep.is_extreme:
            return
        cert = rep.certificate
        assert cert.shape == (r, r)
        assert np.abs(cert - cert.conj().T).max() <= 1e-12
        assert np.isclose(np.linalg.norm(cert), 1.0)
        rho1, rho2 = qm.split_nonextreme(state, cert)
        assert rho1.rank < state.rank
        assert np.abs((rho1.matrix + rho2.matrix) / 2 - state.matrix).max() <= 1e-10
        target = qm.partial_trace_first(state)
        for part in (rho1, rho2):
            assert np.abs(qm.partial_trace_first(part) - target).max() <= 1e-10


def test_memory_stays_bounded_above_n_squared():
    # a rank-48 member at (4, 12): 2304 products in a 144-dimensional space;
    # an r^2 x r^2 left factor alone would be 85 MB
    state = qm.construct_rank_k(qm.random_density(12, 12, seed=1), 4, 48)
    tracemalloc.start()
    try:
        rep = qm.is_extreme(state)
        qm.split_nonextreme(state, rep.certificate)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not rep.is_extreme
    assert peak < 40e6, f"peak {peak / 1e6:.1f} MB"


def is_extreme_peak(n):
    """tracemalloc peak of is_extreme on a rank-n member at (2, n)."""
    state = qm.construct_rank_k(qm.random_density(n, n, seed=3), 2, n)
    tracemalloc.start()
    try:
        rep = qm.is_extreme(state)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.rank == n
    return peak


def test_memory_stays_bounded_at_n_squared():
    # a rank-16 member at (2, 16): 256 products in a 256-dimensional space.
    # Under tracemalloc, a Gram formed from the r^2 x n^2 product stack peaks
    # at 3.16 MB; one from the whole r^4 product of the m x m blocks at
    # 1.81 MB; one built in bands of first indices at 1.30 MB, of which the
    # Gram is 0.52 MB
    peak = is_extreme_peak(16)
    assert peak < 1.6e6, f"peak {peak / 1e6:.2f} MB"


def test_memory_stays_bounded_at_rank_32():
    # the whole r^4 product peaks at 28.0 MB, the bands at 9.9 MB, of which
    # the Gram is 8.4 MB
    peak = is_extreme_peak(32)
    assert peak < 12e6, f"peak {peak / 1e6:.1f} MB"


def single_product_gram(z, m, n):
    """Reference Gram from the whole r^4 product a a* at once, as one band."""
    r = z.shape[1]
    f = z.T.reshape(r * m, n)
    a = (f @ f.conj().T).reshape(r, m, r, m).transpose(0, 2, 1, 3).reshape(r * r, m * m)
    aa = (a @ a.conj().T).reshape(-1)
    diag = np.arange(r)
    upper = np.nonzero(np.tri(r, k=-1, dtype=bool).T)
    iu = np.concatenate([diag, upper[0]])
    ju = np.concatenate([diag, upper[1]])
    lead = (iu * r**3 + ju * r)[:, None]
    g1 = aa[lead + iu * r * r + ju]
    g2 = aa[lead + ju * r * r + iu]
    w = np.ones(iu.size)
    w[:r] = np.sqrt(0.5)
    herm = (g1 + g2) * np.outer(w, w)
    p = iu.size
    gram = np.empty((r * r, r * r))
    gram[:p, :p] = herm.real
    gram[p:, :p] = -herm.imag[r:]
    gram[:p, p:] = gram[p:, :p].T
    gram[p:, p:] = g1.real[r:, r:] - g2.real[r:, r:]
    return gram, iu, ju


def gram_corpus():
    """Minimum-rank, non-extreme and sampled members: r = min(rank, n + 1) from 2 to 17."""
    out = []
    for m, n in [(2, 4), (3, 5), (2, 8), (4, 8), (2, 12), (2, 32)]:
        for seed in (1, 2):
            sigma = qm.random_density(n, n, seed=seed)
            lo = qm.element_rank_range(n, m).k_min
            out += [qm.construct_rank_k(sigma, m, lo), qm.nonextreme_of_rank_k(sigma, m, lo + 1)]
            if n <= 12:
                out.append(qm.random_state_with_marginal(sigma, m, qm.SamplerConfig(seed=seed)))
    return out


@pytest.mark.parametrize("band_bytes", [1, 2**14, extremality.GRAM_BAND_BYTES, 2**40],
                         ids=["one-index", "16K", "default", "one-band"])
def test_banded_gram_matches_single_product(band_bytes, monkeypatch):
    # the bands are rows of the same products, so the Gram is bit-identical
    # whatever the band size
    monkeypatch.setattr(extremality, "GRAM_BAND_BYTES", band_bytes)
    for state in gram_corpus():
        z = state.rho.eigenvectors[:, :min(state.rank, state.n + 1)]
        gram, iu, ju = _hermitian_gram(z, state.m, state.n)
        want, iu_want, ju_want = single_product_gram(z, state.m, state.n)
        assert np.array_equal(iu, iu_want) and np.array_equal(ju, ju_want)
        assert np.array_equal(gram, want), (state.m, state.n, state.rank)


def diag_sigma(d):
    d = np.asarray(d, dtype=float)
    return qm.validate_density(np.diag(d / d.sum()))


@pytest.mark.parametrize("state", [
    # |0><0| (x) sigma, a product state: lambda_min / lambda_max ~ 2e-5
    qm.construct_rank_k(qm.random_density(16, 16, seed=3), 2, 16),
    # S(sigma) = {sigma} on a (1, n) system
    qm.construct_rank_k(diag_sigma([1, 0.5, 1e-4, 5e-5]), 1, 4),
    qm.construct_rank_k(diag_sigma([1, 0.9, 1e-5, 1e-5]), 2, 3),
    qm.construct_rank_k(diag_sigma([1, 0.9, 1e-5, 1e-5]), 2, 4),
], ids=["2x16-rank16", "1x4-spread", "2x4-rank3-spread", "2x4-rank4-spread"])
def test_verdict_ignores_spectrum_spread(state):
    rep = qm.is_extreme(state)
    assert rep.is_extreme is True
    assert rep.marginal is False
    assert rep.certificate is None


@pytest.mark.parametrize("state", [
    # multi-dimensional null spaces
    qm.bipartite(np.eye(6) / 6, 2, 3),
    qm.bipartite(np.eye(8) / 8, 2, 4),
    qm.bipartite(np.eye(12) / 12, 3, 4),
    qm.construct_rank_k(qm.random_density(3, 3, seed=80), 2, 5),
    rotated_member(3, 3, 3, 9, 81),
    # diagonal sigma, whose eigenvectors are the columns of the identity
    qm.nonextreme_of_rank_k(diag_sigma([4, 3, 2, 1]), 2, 3),
    qm.nonextreme_of_rank_k(diag_sigma([1, 1, 1]), 3, 2),
    qm.construct_rank_k(diag_sigma([1, 1, 1]), 2, 4),
    qm.nonextreme_of_rank_k(qm.random_density(32, 32, seed=5), 2, 17),
], ids=["I/6-2x3", "I/8-2x4", "I/12-3x4", "2x3-rank5", "3x3-rank9-rotated",
        "diag-2x4-rank3", "diag-3x3-rank2", "diag-2x3-rank4", "2x32-rank17"])
def test_certificate_on_structured_grams(state):
    # the inverse iteration starts from a fixed vector; on these Grams a
    # structured start could miss the null space
    rep = qm.is_extreme(state)
    assert not rep.is_extreme
    cert = rep.certificate
    assert np.abs(cert - cert.conj().T).max() == 0.0
    assert abs(np.linalg.norm(cert) - 1.0) <= 1e-12
    z = _scaled_factors(state)
    rows = stacked_products_loop(z, state.m, state.n)
    largest = float((np.abs(z) ** 2).reshape(state.m, state.n, -1).sum(axis=0).max())
    residual = np.abs(cert.reshape(-1) @ rows).max()
    assert residual <= 1e-13 * np.abs(cert).max() * largest
    rho1, rho2 = qm.split_nonextreme(state, cert)
    assert rho1.rank < state.rank
    assert np.abs((rho1.matrix + rho2.matrix) / 2 - state.matrix).max() <= 1e-10


def spread_sigma(n, r, seed):
    """Rank-r density on C^n in a Haar basis whose spectrum spans 1 to 1e-8."""
    rng = qm.PortableRng(seed)
    d = np.zeros(n)
    d[:r] = np.sort(10.0 ** np.concatenate([[0.0, -8.0], -8.0 * rng.uniform(r)])[:r])[::-1]
    u = haar_unitary(n, seed + 1)
    return qm.validate_density(u @ np.diag(d / d.sum()) @ u.conj().T)


def spread_member(m, n, r, k, thin, seed):
    """Rotated rank-k member over a spread sigma; from nonextreme_of_rank_k when thin."""
    sigma = spread_sigma(n, r, seed)
    build = qm.nonextreme_of_rank_k if thin else qm.construct_rank_k
    return first_factor_rotated(build(sigma, m, k), seed + 2), sigma, thin


@st.composite
def spread_members(draw):
    m = draw(st.integers(1, 3))
    n = draw(st.integers(2, 5))
    r = draw(st.integers(2, n))
    lo, hi = qm.element_rank_range(r, m)
    thin = lo < r and draw(st.booleans())
    k = draw(st.integers(lo + 1, r)) if thin else draw(st.integers(lo, hi))
    return spread_member(m, n, r, k, thin, draw(st.integers(0, 10_000)))


@settings(max_examples=120, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(spread_members())
@example(spread_member(1, 4, 4, 4, False, 20))
@example(spread_member(2, 4, 4, 2, False, 21))
@example(spread_member(2, 4, 4, 3, True, 22))
@example(spread_member(3, 5, 5, 4, True, 23))
@example(spread_member(2, 3, 3, 6, False, 24))
def test_spread_spectra_verdict_and_split(member):
    state, sigma, thin = member
    rep = qm.is_extreme(state)
    assert rep.rank == state.rank
    if thin:
        assert not rep.is_extreme
    if state.rank == qm.element_rank_range(sigma.rank, state.m).k_min:
        assert rep.is_extreme
    if rep.is_extreme:
        return
    rho1, rho2 = qm.split_nonextreme(state, rep.certificate)
    assert rho1.rank < state.rank
    target = qm.partial_trace_first(state)
    for part in (rho1, rho2):
        assert np.abs(qm.partial_trace_first(part) - target).max() <= 1e-10


def test_certificate_check_matches_product_stack():
    # split_nonextreme accepts a certificate exactly when, over the stacked
    # products, the reference |H . rows| <= tol max|H| max|rows| holds and the
    # step 1/max|eig(H)| moves the marginal by at most MARGINAL_TOL and a
    # half's trace by at most TRACE_TOL; an accepted split validates
    states = [
        qm.bipartite(np.eye(6) / 6, 2, 3),
        qm.nonextreme_of_rank_k(qm.random_density(4, 4, seed=70), 2, 3),
        rotated_member(2, 3, 3, 5, 71),
        first_factor_rotated(qm.nonextreme_of_rank_k(qm.random_density(5, 5, seed=72), 3, 4), 73),
    ]
    rng = qm.PortableRng(74)
    seen = set()
    for state in states:
        z = _scaled_factors(state)
        r = z.shape[1]
        n = state.n
        rows = stacked_products_loop(z, state.m, n)
        trace_gap = abs(np.vdot(z, z).real - 1.0)
        target = qm.partial_trace_first(state)
        base = qm.is_extreme(state).certificate
        for eps in np.logspace(-12, 0, 25):
            g = rng.complex_normal((r, r))
            h = base + eps * (g + g.conj().T)
            shift = (h.reshape(-1) @ rows).reshape(n, n)
            step = 1.0 / np.abs(np.linalg.eigvalsh(h)).max()
            accept = (
                np.abs(shift).max() <= CERT_RESIDUAL_TOL * np.abs(h).max() * np.abs(rows).max()
                and np.abs(shift).max() * step <= MARGINAL_TOL
                and trace_gap + abs(np.trace(shift).real) * step <= TRACE_TOL
            )
            seen.add(bool(accept))
            try:
                halves = qm.split_nonextreme(state, h)
                rejected = False
            except qm.InvalidCertificateError:
                rejected = True
            assert rejected != accept, (state.m, state.n, r, eps)
            if not rejected:
                for part in halves:
                    assert np.abs(qm.partial_trace_first(part) - target).max() <= 1e-10
    assert seen == {True, False}


def test_split_memory_stays_bounded():
    # a rank-17 member at (2, 32): its 289 x 1024 complex product stack alone
    # is 4.7 MB; the moved marginal sum_a z_a H z_a* needs a few 32 x 32 blocks
    sigma = qm.random_density(32, 32, seed=5)
    state = qm.nonextreme_of_rank_k(sigma, 2, 17)
    cert = qm.is_extreme(state).certificate
    tracemalloc.start()
    try:
        rho1, _ = qm.split_nonextreme(state, cert)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rho1.rank < 17
    assert peak < 3e6, f"peak {peak / 1e6:.1f} MB"
