import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import qmarginal as qm
from qmarginal.constructors import MARGINAL_TOL
from qmarginal.extremality import CERT_RESIDUAL_TOL, _scaled_factors
from qmarginal.linalg import TRACE_TOL, fold

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

    @pytest.mark.parametrize("delta", [1.8e-9, 1e-9])
    def test_eigenvalues_under_the_rank_cutoff_kept(self, delta):
        # mixing in delta I/6 leaves three eigenvalues of about delta/6 under
        # the rank cutoff; the halves must still average to the whole state
        rho = qm.nonextreme_of_rank_k(qm.validate_density(np.eye(3) / 3), 2, 3)
        state = qm.bipartite((1 - delta) * rho.matrix + delta * np.eye(6) / 6, 2, 3)
        assert state.rank == 3
        rho1, rho2 = qm.split_nonextreme(state, qm.is_extreme(state).certificate)
        assert rho1.rank < state.rank
        assert np.abs((rho1.matrix + rho2.matrix) / 2 - state.matrix).max() <= 1e-12
        target = qm.partial_trace_first(state)
        for part in (rho1, rho2):
            assert np.abs(qm.partial_trace_first(part) - target).max() <= MARGINAL_TOL

    def test_invalid_certificate_rejected(self):
        state = qm.bipartite(np.eye(6) / 6, 2, 3)
        bogus = np.eye(6)  # identity never annihilates the factor products
        with pytest.raises(qm.InvalidCertificateError):
            qm.split_nonextreme(state, bogus)

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
    folds = [fold(z[:, i], m, n) for i in range(r)]
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


def test_memory_stays_bounded_at_n_squared():
    # a rank-16 member at (2, 16): 256 products in a 256-dimensional space.
    # A Gram formed from the r^2 x n^2 product stack peaks at 3.16 MB under
    # tracemalloc; one formed from the m x m blocks peaks at 1.82 MB
    state = qm.construct_rank_k(qm.random_density(16, 16, seed=3), 2, 16)
    tracemalloc.start()
    try:
        rep = qm.is_extreme(state)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.rank == 16
    assert peak < 2.5e6, f"peak {peak / 1e6:.1f} MB"


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
    # is 4.7 MB; z H z* and its partial trace need a few 64 x 64 blocks
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
