import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

import qmarginal as qm
from qmarginal.majorization import lp_norm

from helpers import haar_unitary, random_hermitian, random_prob_vector, t_transform_mix


class TestMajorizes:
    def test_uniform_vs_extreme(self):
        rep = qm.majorizes([0.5, 0.5], [1.0, 0.0])
        assert rep.holds
        assert bool(rep) is True

    def test_fails_at_first_prefix(self):
        rep = qm.majorizes([0.6, 0.4], [0.5, 0.5])
        assert not rep.holds
        assert bool(rep) is False
        assert rep.first_violation == 1

    def test_hand_prefix_sums(self):
        rep = qm.majorizes([1 / 3, 1 / 3, 1 / 3], [0.5, 0.3, 0.2])
        assert rep.holds
        assert_allclose(rep.partial_sums_x, [1 / 3, 2 / 3, 1.0])
        assert_allclose(rep.partial_sums_y, [0.5, 0.8, 1.0])

    def test_total_sum_mismatch(self):
        rep = qm.majorizes([0.2, 0.2], [0.5, 0.5])
        assert not rep.holds
        assert rep.first_violation == 2

    @pytest.mark.parametrize("excess, holds", [(5e-11, True), (2e-10, False)])
    def test_tolerance_scale(self, excess, holds):
        # x's first prefix sum exceeds y's by excess: it holds only within MAJ_TOL = 1e-10
        assert qm.majorizes([0.5 + excess, 0.5 - excess], [0.5, 0.5]).holds is holds

    def test_unsorted_inputs_accepted(self):
        assert qm.majorizes([0.3, 0.4, 0.3], [0.2, 0.6, 0.2]).holds

    def test_empty_rejected(self):
        with pytest.raises(qm.DimensionError):
            qm.majorizes([], [])

    @pytest.mark.parametrize("bad", [float("nan"), np.inf, -np.inf])
    @pytest.mark.parametrize("call", [qm.majorizes, qm.horn_unitary])
    def test_non_finite_rejected(self, call, bad):
        # every comparison with NaN is false, so NaN would pass as holding
        for x, y in (([bad, 0.5], [0.5, 0.5]), ([0.5, 0.5], [bad, 0.5])):
            with pytest.raises(qm.DomainError, match="finite"):
                call(x, y)

    def test_padding(self):
        with pytest.raises(qm.DimensionError):
            qm.majorizes([0.6, 0.4], [1.0])

    def test_reflexive_transitive_antisymmetric(self):
        rng = qm.PortableRng(77)
        for _ in range(500):
            size = 2 + rng.index(7)
            z = random_prob_vector(size, rng)
            assert qm.majorizes(z, z).holds
            y = t_transform_mix(z, rng)
            x = t_transform_mix(y, rng)
            assert qm.majorizes(y, z).holds
            assert qm.majorizes(x, y).holds
            assert qm.majorizes(x, z).holds  # transitivity
            if qm.majorizes(z, x).holds:  # antisymmetry up to sorted equality
                assert np.abs(np.sort(z) - np.sort(x)).max() <= 1e-9

    def test_schur_horn_direction(self):
        # the diagonal after unitary conjugation is majorized by the spectrum
        rng = qm.PortableRng(78)
        for trial in range(50):
            rho = qm.random_density(5, 5, seed=900 + trial)
            u = haar_unitary(5, 1900 + trial)
            diag = np.real(np.diag(u @ rho.matrix @ u.conj().T))
            assert qm.majorizes(diag, rho.eigenvalues).holds


class TestSchurConvexWitnesses:
    def test_monotone_functionals_on_comparable_pairs(self):
        rng = qm.PortableRng(79)
        for _ in range(200):
            size = 2 + rng.index(6)
            y = random_prob_vector(size, rng)
            x = t_transform_mix(y, rng)
            assert qm.majorizes(x, y).holds


class TestSchattenNorm:
    def test_trace_norm(self):
        a = np.diag([0.2, 0.1, -0.15, -0.15])
        assert_allclose(qm.schatten_norm(a, 1), 0.6)

    def test_spectral_norm(self):
        a = np.diag([0.2, 0.1, -0.15, -0.15])
        assert_allclose(qm.schatten_norm(a, np.inf), 0.2)

    def test_frobenius(self):
        a = np.diag([0.2, 0.1, -0.15, -0.15])
        assert_allclose(qm.schatten_norm(a, 2), math.sqrt(0.095))

    @pytest.mark.parametrize("bad", [float("nan"), np.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(qm.ValidationError) as err:
            qm.schatten_norm([[bad, 0.0], [0.0, 1.0]], 1)
        assert err.value.reason == "not-finite"

    @pytest.mark.parametrize("a, want", [
        ([[1e308, 0.0], [0.0, -1e308]], 1e308),  # (A + A*)/2 would overflow
        ([[0.5, 1e308 + 1e308j], [1e308 - 1e308j, 0.5]], 0.5 + math.sqrt(2) * 1e308),
        ([[1e308, 1e308], [1e308, 1e308]], "not-finite"),  # spectrum {2e308, 0}
    ], ids=["diagonal", "off-diagonal", "overflowing-spectrum"])
    def test_entries_near_the_float_limit(self, a, want):
        if isinstance(want, str):
            with pytest.raises(qm.ValidationError) as err:
                qm.schatten_norm(np.array(a), np.inf)
            assert err.value.reason == want
        else:
            assert qm.schatten_norm(np.array(a), np.inf) == pytest.approx(want, rel=1e-15)

    def test_p_below_one_rejected(self):
        with pytest.raises(qm.DomainError):
            qm.schatten_norm(np.eye(2), 0.5)

    def test_norm_axioms_sampled(self):
        rng = qm.PortableRng(80)
        for p in (1.0, 1.7, 2.0, 3.0, np.inf):
            for _ in range(30):
                a = random_hermitian(4, rng)
                b = random_hermitian(4, rng)
                na, nb = qm.schatten_norm(a, p), qm.schatten_norm(b, p)
                assert qm.schatten_norm(a + b, p) <= na + nb + 1e-10
                c = float(rng.uniform(1)[0] * 4 - 2)
                assert abs(qm.schatten_norm(c * a, p) - abs(c) * na) <= 1e-10

    def test_unitary_similarity_invariance(self):
        rng = qm.PortableRng(81)
        for trial in range(20):
            a = random_hermitian(5, rng)
            u = haar_unitary(5, 300 + trial)
            for p in (1.0, 2.0, np.inf):
                assert abs(
                    qm.schatten_norm(u @ a @ u.conj().T, p) - qm.schatten_norm(a, p)
                ) <= 1e-10


def test_lp_norm_general_p():
    v = [3.0, -4.0]
    assert_allclose(lp_norm(v, 1), 7.0)
    assert_allclose(lp_norm(v, 2), 5.0)
    assert_allclose(lp_norm(v, np.inf), 4.0)
    assert_allclose(lp_norm(v, 3), (27 + 64) ** (1 / 3))


@pytest.mark.parametrize("p", [1, 2, np.inf])
def test_lp_norm_of_empty_vector_is_zero(p):
    # the max of an empty array would raise
    assert lp_norm([], p) == 0.0


def test_lp_norm_rejects_nan_p():
    with pytest.raises(qm.DomainError):
        lp_norm([3.0, -4.0], float("nan"))


@pytest.mark.parametrize("values, p, want", [
    ([1e308, -1e308], 2, math.sqrt(2) * 1e308),
    ([1e308] * 3, 2, math.sqrt(3) * 1e308),
    ([1e200] * 4, 3, 4 ** (1 / 3) * 1e200),
    ([1e308, 1e-300], 1.5, 1e308),
    ([1e308] * 2, 1, math.inf),
    ([1e308] * 4, 2, math.inf),
    ([1e308] * 9, 2.5, math.inf),
    ([math.inf, 1.0], 2, math.inf),
])
def test_lp_norm_power_sum_overflow(values, p, want):
    # the power sum overflows: a representable norm is finite, one beyond
    # the float range inf, and neither warns (warnings are errors here);
    # an infinite entry is no overflow and is not rescaled (inf / inf warns)
    assert lp_norm(values, p) == pytest.approx(want, rel=1e-15)


def test_schatten_norm_power_sum_overflow():
    assert qm.schatten_norm(np.diag([1e308, -1e308]), 2) == pytest.approx(math.sqrt(2) * 1e308,
                                                                         rel=1e-15)


def test_lp_norm_keeps_the_unscaled_bits():
    # a power sum that does not overflow is never rescaled
    rng = qm.PortableRng(82)
    for _ in range(50):
        v = (rng.uniform(1 + rng.index(12)) - 0.5) * 10.0 ** (rng.index(200) - 100)
        a = np.abs(v)
        assert lp_norm(v, 1) == float(a.sum())
        assert lp_norm(v, 2) == float(np.sqrt((a * a).sum()))
        assert lp_norm(v, 3) == float((a ** 3).sum() ** (1 / 3))
        assert lp_norm(v, 1.7) == float((a ** 1.7).sum() ** (1 / 1.7))
        assert lp_norm(v, np.inf) == float(a.max())
