import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qmarginal as qm
from qmarginal.majorization import _descending_pair, _slack

from helpers import (
    random_prob_vector,
    ref_compat_2x2,
    ref_compat_2x3,
    ref_majorization_slack,
    ref_necessary_spectra_compat,
)


class TestRankRanges:
    def test_rank3_m2(self):
        assert qm.element_rank_range(3, 2) == (2, 6)

    def test_pure_marginal(self):
        for m in range(1, 6):
            assert qm.element_rank_range(1, m) == (1, m)

    def test_rank4_m2(self):
        assert qm.element_rank_range(4, 2) == (2, 8)

    def test_extreme_rank3_m2(self):
        assert qm.extreme_rank_range(3, 2) == (2, 3)

    def test_extreme_pure(self):
        assert qm.extreme_rank_range(1, 4) == (1, 1)

    def test_extreme_rank6_m3(self):
        assert qm.extreme_rank_range(6, 3) == (2, 6)

    def test_lower_endpoints_agree(self):
        for r in range(1, 13):
            for m in range(1, 7):
                assert qm.element_rank_range(r, m).k_min == qm.extreme_rank_range(r, m).k_min

    def test_huge_rank_ceiling_is_exact(self):
        # a float division loses the low digits of r / m above 2**53
        assert qm.element_rank_range(10**23 + 1, 2).k_min == 5 * 10**22 + 1
        assert qm.extreme_rank_range(10**23 + 1, 2) == (5 * 10**22 + 1, 10**23 + 1)

    def test_invalid_inputs(self):
        with pytest.raises(qm.DimensionError):
            qm.element_rank_range(0, 2)


class TestExactLowRankExists:
    def test_too_small(self):
        assert not qm.exact_low_rank_exists(4, 2, 1)

    def test_purification_regime(self):
        for n in range(1, 6):
            assert qm.exact_low_rank_exists(n, n, 1)
            assert qm.exact_low_rank_exists(n, n + 2, 1)

    def test_boundary(self):
        assert qm.exact_low_rank_exists(3, 2, 2)


class TestNecessaryCompat:
    def test_spiked_pair_passes_though_infeasible(self):
        # necessity only: this pair passes all three checks but no state exists
        lam = [1 / 3, 1 / 3, 1 / 3]
        mu = [0.5, 0.1, 0.1, 0.1, 0.1, 0.1]
        rep = qm.necessary_spectra_compat(lam, mu, 2)
        assert rep.holds
        assert rep.check("marginal_vs_mu_block_sums").passed
        assert not qm.compat_2x3(lam, mu).holds

    def test_pure_product(self):
        rep = qm.necessary_spectra_compat([1.0, 0.0], [1.0, 0.0, 0.0, 0.0], 2)
        assert rep.holds

    def test_real_states_pass(self):
        for trial in range(50):
            rho = qm.random_density(6, 1 + trial % 6, seed=500 + trial)
            state = qm.BipartiteState(2, 3, rho)
            lam = qm.spectrum(qm.partial_trace_first(state))
            rep = qm.necessary_spectra_compat(lam, rho.eigenvalues, 2)
            assert rep.holds

    def test_dimension_mismatch(self):
        with pytest.raises(qm.DimensionError):
            qm.necessary_spectra_compat([0.5, 0.5], [1.0, 0.0, 0.0], 2)


class TestCompat2x2:
    def test_boundary(self):
        assert qm.compat_2x2([0.5, 0.5], [0.25, 0.25, 0.25, 0.25])

    def test_infeasible(self):
        assert not qm.compat_2x2([1.0, 0.0], [0.25, 0.25, 0.25, 0.25])

    def test_pure_product(self):
        assert qm.compat_2x2([1.0, 0.0], [1.0, 0.0, 0.0, 0.0])


class TestCompat2x3:
    def test_spiked_infeasible(self):
        rep = qm.compat_2x3([1 / 3, 1 / 3, 1 / 3], [0.5, 0.1, 0.1, 0.1, 0.1, 0.1])
        assert not rep.holds
        assert not rep.check("lambda3 <= mu2+mu3").passed
        with pytest.raises(KeyError):
            rep.check("lambda1 <= mu1")

    def test_rank3_uniform_blocks(self):
        rep = qm.compat_2x3([1 / 3, 1 / 3, 1 / 3], [1 / 3, 1 / 3, 1 / 3, 0, 0, 0])
        assert rep.holds

    def test_maximally_mixed(self):
        rep = qm.compat_2x3([1 / 3, 1 / 3, 1 / 3], np.full(6, 1 / 6))
        assert rep.holds

    def test_dimension_mismatch(self):
        with pytest.raises(qm.DimensionError):
            qm.compat_2x3([0.5, 0.5], np.full(6, 1 / 6))


class TestProbabilityVectorGuard:
    def test_compat_2x2_rejects_mu_of_trace_two(self):
        with pytest.raises(qm.DomainError):
            qm.compat_2x2([0.9, 0.1], [0.5] * 4)

    def test_compat_2x3_rejects_negative_entry(self):
        with pytest.raises(qm.DomainError):
            qm.compat_2x3([0.5, 0.3, 0.2], [0.6, 0.2, 0.1, 0.1, 0.1, -0.1])

    def test_necessary_rejects_unnormalized_lambda(self):
        with pytest.raises(qm.DomainError):
            qm.necessary_spectra_compat([2, 1], np.full(4, 0.25), 2)

    def test_rejects_nan_and_empty(self):
        with pytest.raises(qm.DomainError):
            qm.compat_2x2([np.nan, 0.5], np.full(4, 0.25))
        with pytest.raises(qm.DomainError):
            qm.necessary_spectra_compat([], [], 2)

    def test_tolerance_edge_accepted(self):
        # entries down to -MAJ_TOL and sums within MAJ_TOL of one still count
        lam = [0.5 + 0.5e-10, 0.5]
        mu = [0.5, 0.5, 0.5e-10, -0.5e-10]
        assert qm.compat_2x2(lam, mu)


def test_uniform_marginal_predicate_equivalence():
    # for the uniform qutrit marginal the four checks collapse to
    # a2+a3 >= 1/3 >= a4+a5 over random joint spectra
    lam = np.full(3, 1 / 3)
    rng = qm.PortableRng(123)
    agree = 0
    for _ in range(10_000):
        a = random_prob_vector(6, rng)
        simple = a[1] + a[2] >= 1 / 3 - 1e-10 and 1 / 3 >= a[3] + a[4] - 1e-10
        assert qm.compat_2x3(lam, a).holds == simple
        agree += simple
    assert 0 < agree < 10_000  # both outcomes exercised


def test_census_soundness():
    cfg = qm.SamplerConfig(seed=2024, trials=1000)
    for lam, mu in qm.spectra_pair_census(2, 3, cfg):
        assert qm.compat_2x3(lam, mu).holds
        assert qm.necessary_spectra_compat(lam, mu, 2).holds


def test_census_soundness_first_factor_larger():
    # the majorization checks are necessary in the m >= n regime too
    for m, n in [(3, 2), (3, 3), (4, 2)]:
        cfg = qm.SamplerConfig(seed=2025 + m * 10 + n, trials=200)
        for lam, mu in qm.spectra_pair_census(m, n, cfg):
            assert qm.necessary_spectra_compat(lam, mu, m).holds


def test_block_majorization_implies_constructible():
    # for m >= n, every pair passing the block-sum majorization is realized
    rng = qm.PortableRng(321)
    built = 0
    for _ in range(100):
        n = 2 + rng.index(3)
        m = n + rng.index(3)
        mu = random_prob_vector(m * n, rng)
        w = mu.reshape(n, m).sum(axis=1)
        lam = np.sort(rng.uniform(n))[::-1]
        lam /= lam.sum()
        lam = 0.5 * lam + 0.5 * np.sort(w)[::-1]  # pull toward the block sums
        lam /= lam.sum()
        if not qm.majorizes(lam, w).holds:
            continue
        state = qm.construct_with_spectra(lam, mu, m)
        assert np.abs(state.rho.eigenvalues - mu).max() <= 1e-8
        built += 1
    assert built >= 20


def _outcome(fn, *args):
    """Checks as (name, slack in hex), which tells -0.0 from 0.0, or the error's type and text."""
    try:
        out = fn(*args)
    except (qm.DimensionError, qm.DomainError) as exc:
        return type(exc).__name__, str(exc)
    if isinstance(out, qm.CompatReport):
        out = [(c.name, c.slack) for c in out.checks]
    elif not isinstance(out, list):
        out = [("slack", out)]
    return [(name, float(slack).hex()) for name, slack in out]


@st.composite
def _weights(draw, size):
    """size nonnegative weights, unsorted, with ties and exact zeros."""
    entry = st.one_of(st.integers(0, 3).map(float), st.floats(0.0, 1.0))
    return draw(st.lists(entry, min_size=size, max_size=size))


def _normalized(w):
    total = sum(w)
    return [x / total for x in w] if total > 0 else [1.0] + [0.0] * (len(w) - 1)


@st.composite
def _spectra_pairs(draw):
    """(m, lambda, mu): probability vectors, or one of them with a fault."""
    exact = st.sampled_from([(2, 2), (2, 3)])  # where compat_2x2 and compat_2x3 apply
    m, n = draw(st.one_of(exact, st.tuples(st.integers(1, 4), st.integers(1, 6))))
    lam = _normalized(draw(_weights(n)))
    mu = _normalized(draw(_weights(m * n)))
    fault = draw(st.sampled_from(["none", "none", "none", "length", "nan", "negative", "scale"]))
    vec = lam if draw(st.booleans()) else mu
    i = draw(st.integers(0, len(vec) - 1))
    if fault == "length":
        if draw(st.booleans()):
            vec.append(0.0)
        else:
            del vec[i]
    elif fault == "nan":
        vec[i] = float("nan")
    elif fault == "negative":
        vec[i] -= draw(st.sampled_from([1e-9, 0.25]))
    elif fault == "scale":
        factor = draw(st.sampled_from([0.5, 1.0 + 1e-9, 2.0]))
        vec[:] = [x * factor for x in vec]
    return m, lam, mu


class TestPredicatesMatchReference:
    # the predicates on Python floats give the numpy reference's slacks bit for
    # bit, sign of zero included (the CLI prints them), and its errors
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(_spectra_pairs())
    def test_slacks_and_errors(self, case):
        m, lam, mu = case
        assert _outcome(qm.necessary_spectra_compat, lam, mu, m) == _outcome(
            ref_necessary_spectra_compat, lam, mu, m)
        assert _outcome(qm.compat_2x2, lam, mu) == _outcome(ref_compat_2x2, lam, mu)
        assert _outcome(qm.compat_2x3, lam, mu) == _outcome(ref_compat_2x3, lam, mu)

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(st.integers(1, 10).flatmap(lambda size: st.tuples(_weights(size), _weights(size))))
    def test_majorization_slack(self, pair):
        def slack(x, y):
            return _slack(*_descending_pair(x, y))

        x, y = pair
        assert _outcome(slack, x, y) == _outcome(ref_majorization_slack, x, y)
        x, y = _normalized(x), _normalized(y)
        assert _outcome(slack, x, y) == _outcome(ref_majorization_slack, x, y)

    @pytest.mark.parametrize("m", [8, 9, 17])
    def test_long_blocks(self, m):
        # blocks of 8 or more terms, which numpy sums pairwise
        rng = qm.PortableRng(40 + m)
        for n in (1, 2, 5):
            for _ in range(20):
                lam = random_prob_vector(n, rng, sorted_desc=False)
                mu = random_prob_vector(m * n, rng, sorted_desc=False)
                assert _outcome(qm.necessary_spectra_compat, lam, mu, m) == _outcome(
                    ref_necessary_spectra_compat, lam, mu, m)
