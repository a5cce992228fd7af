"""Acceptance criteria, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail
line per criterion.
"""

import functools

import numpy as np

import qmarginal as qm
from qmarginal import kernels
from qmarginal.majorization import lp_norm

from helpers import random_prob_vector, sigma_corpus, t_transform_mix


def criterion(num, desc):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {num}: FAIL - {desc}")
                raise
            print(f"criterion {num}: PASS - {desc}")

        return wrapper

    return deco


UNIFORM3 = qm.validate_density(np.eye(3) / 3)


@criterion(1, "uniform qutrit marginal admits ranks 2..6 exactly")
def test_criterion_1_attainable_ranks():
    for k in range(2, 7):
        state = qm.construct_rank_k(UNIFORM3, 2, k)
        assert state.rank == k
        assert np.abs(qm.partial_trace_first(state) - UNIFORM3.matrix).max() <= 1e-10
    for k in (1, 7):
        try:
            qm.construct_rank_k(UNIFORM3, 2, k)
        except qm.InfeasibleError:
            continue
        raise AssertionError(f"rank {k} was not rejected")


@criterion(2, "extreme ranks are 2..3; ranks 4..6 split as proper mixtures")
def test_criterion_2_extreme_ranks():
    for k in (2, 3):
        rep = qm.is_extreme(qm.construct_rank_k(UNIFORM3, 2, k))
        assert rep.is_extreme, f"rank-{k} member not certified extreme"
    for k in (4, 5, 6):
        state = qm.construct_rank_k(UNIFORM3, 2, k)
        rep = qm.is_extreme(state)
        assert not rep.is_extreme, f"rank-{k} member not certified non-extreme"
        rho1, rho2 = qm.split_nonextreme(state, rep.certificate)
        assert rho1.rank < state.rank
        assert np.abs((rho1.matrix + rho2.matrix) / 2 - state.matrix).max() <= 1e-10
    # rank 3 also admits a non-extreme member alongside the extreme one
    assert not qm.is_extreme(qm.nonextreme_of_rank_k(UNIFORM3, 2, 3)).is_extreme


@criterion(3, "rank-constrained optimum: residual formula + majorization vs 200 competitors")
def test_criterion_3_optimal_residual():
    rng = qm.PortableRng(30_000)
    sigmas = []
    while len(sigmas) < 50:
        n = 2 + rng.index(5)
        r = 1 + rng.index(n)
        sigmas.append(qm.random_density(n, r, seed=31_000 + len(sigmas)))
    instances = 0
    for i, sigma in enumerate(sigmas):
        r, n = sigma.rank, sigma.dim
        for m in range(1, 5):
            for k in range(1, r):
                if m * k >= r:
                    continue
                res = qm.optimal_low_rank(sigma, m, k)
                lam = sigma.eigenvalues[:r]
                mu = lam[m * k:].sum() / (m * k)
                expect = np.sort(np.concatenate([
                    lam[m * k:], np.zeros(n - r), -np.full(m * k, mu)
                ]))[::-1]
                assert np.abs(res.residual_spectrum - expect).max() <= 1e-10
                spectra = kernels.residual_spectra(
                    sigma.matrix, m, sigma.dim, k, trials=200, seed=32_000 + 10 * i + m
                )
                for row in spectra:
                    assert qm.majorizes(res.residual_spectrum, row).holds
                    for p in (1.0, 2.0, np.inf):
                        assert res.norms[p] <= lp_norm(row, p) + 1e-9
                instances += 1
    assert instances >= 50


@criterion(4, "spectra-prescribed construction for m >= n: 200 random pairs")
def test_criterion_4_spectra_constructor():
    rng = qm.PortableRng(40_000)
    done = 0
    while done < 200:
        n = 2 + rng.index(3)
        m = n + rng.index(5 - n)
        mu = random_prob_vector(m * n, rng)
        w = mu.reshape(n, m).sum(axis=1)
        lam = t_transform_mix(w, rng)
        assert qm.majorizes(lam, w).holds
        state = qm.construct_with_spectra(lam, mu, m)
        assert np.abs(state.rho.eigenvalues - mu).max() <= 1e-8
        assert np.abs(qm.partial_trace_first(state) - np.diag(lam)).max() <= 1e-10
        done += 1


@criterion(5, "(2,3) eigenvalue criterion: necessity on 1000 states, sufficiency on 1000 pairs")
def test_criterion_5_two_by_three():
    for lam, mu in qm.spectra_pair_census(2, 3, qm.SamplerConfig(seed=50_000, trials=1000)):
        assert qm.compat_2x3(lam, mu).holds
    rng = qm.PortableRng(50_001)
    done = 0
    while done < 1000:
        lam = random_prob_vector(3, rng)
        mu = random_prob_vector(6, rng)
        if not qm.compat_2x3(lam, mu).holds:
            continue
        state = qm.construct_23(lam, mu)
        assert np.abs(state.rho.eigenvalues - mu).max() <= 1e-8
        assert np.abs(qm.spectrum(qm.partial_trace_first(state)) - lam).max() <= 1e-8
        done += 1


@criterion(6, "(2,2) eigenvalue criterion agrees with construction and census")
def test_criterion_6_two_by_two():
    rng = qm.PortableRng(60_000)
    feasible = infeasible = 0
    for _ in range(1000):
        lam = random_prob_vector(2, rng)
        mu = random_prob_vector(4, rng)
        compatible = qm.compat_2x2(lam, mu).holds
        try:
            state = qm.construct_with_spectra(lam, mu, 2)
            built = True
        except qm.PreconditionError:
            built = False
        assert built == compatible
        if built:
            assert np.abs(state.rho.eigenvalues - mu).max() <= 1e-8
            assert np.abs(qm.partial_trace_first(state) - np.diag(lam)).max() <= 1e-10
            feasible += 1
        else:
            infeasible += 1
    assert feasible and infeasible  # both branches exercised
    for lam, mu in qm.spectra_pair_census(2, 2, qm.SamplerConfig(seed=60_001, trials=1000)):
        assert qm.compat_2x2(lam, mu)


@criterion(7, "extremality certification and splitting over the construction corpus")
def test_criterion_7_extremality_corpus():
    members = []
    for sigma in sigma_corpus(max_n=6, seed=70_000):
        for m in range(1, 5):
            lo, hi = qm.element_rank_range(sigma.rank, m)
            for k in range(lo, hi + 1):
                members.append((qm.construct_rank_k(sigma, m, k), sigma, k == lo))
            for k in range(lo + 1, sigma.rank + 1):
                members.append((qm.nonextreme_of_rank_k(sigma, m, k), sigma, False))
    assert len(members) > 400
    for state, sigma, is_min_rank in members:
        rep = qm.is_extreme(state)
        if is_min_rank:
            assert rep.is_extreme, (sigma.dim, sigma.rank, state.m, state.rank)
        if state.rank == 1:
            assert rep.is_extreme
        if state.rank > state.n:
            assert not rep.is_extreme
        if rep.is_extreme:
            assert state.rank <= min(sigma.rank, state.n)
        else:
            rho1, rho2 = qm.split_nonextreme(state, rep.certificate)
            assert rho1.rank < state.rank
            assert np.abs((rho1.matrix + rho2.matrix) / 2 - state.matrix).max() <= 1e-10
            for part in (rho1, rho2):
                assert np.abs(
                    qm.partial_trace_first(part) - qm.partial_trace_first(state)
                ).max() <= 1e-10


@criterion(8, "spiked spectrum passes all majorization checks yet fails the exact (2,3) test")
def test_criterion_8_majorization_not_sufficient():
    lam = np.full(3, 1 / 3)
    mu = np.array([0.5, 0.1, 0.1, 0.1, 0.1, 0.1])
    necessary = qm.necessary_spectra_compat(lam, mu, 2)
    assert necessary.holds
    assert all(c.passed for c in necessary.checks)
    exact = qm.compat_2x3(lam, mu)
    assert not exact.holds
