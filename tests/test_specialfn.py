import math

import mpmath
import numpy as np
import pytest
import scipy.special as sps

from fraccons.specialfn import (
    ConvergenceError,
    GammaPoleError,
    SeriesControl,
    gamma,
    hyp2f1,
    mittag_leffler,
    phi_psi_wave,
    phi_sub,
    reciprocal_gamma,
)


class TestGamma:
    # independent oracle: mpmath at 30 significant digits
    @staticmethod
    def _ref(z):
        with mpmath.workdps(30):
            return float(mpmath.gamma(mpmath.mpf(z)))

    def test_matches_reference_on_positive_axis(self):
        for z in (0.1, 0.5, 1.0, 1.5, 2.0, 3.7, 10.0, 20.5, 170.5):
            assert gamma(z) == pytest.approx(self._ref(z), rel=1e-13)

    def test_reflection_for_negative_arguments(self):
        for z in (-0.5, -1.5, -2.3, -0.25, -7.9, -20.5):
            assert gamma(z) == pytest.approx(self._ref(z), rel=1e-12)

    def test_pole_raises(self):
        for z in (0.0, -1.0, -2.0):
            with pytest.raises(GammaPoleError):
                gamma(z)

    def test_reciprocal_gamma_zero_at_poles(self):
        assert reciprocal_gamma(0.0) == 0.0
        assert reciprocal_gamma(-3.0) == 0.0
        assert reciprocal_gamma(2.5) == pytest.approx(1.0 / math.gamma(2.5), rel=1e-13)


class TestMittagLeffler:
    def test_exponential_special_case(self):
        for z in (-2.0, -0.5, 0.0, 0.5, 1.0, 3.0):
            assert mittag_leffler(1.0, 1.0, z) == pytest.approx(math.exp(z), rel=1e-12)

    def test_cosh_special_case(self):
        # E_{2,1}(z) = cosh(sqrt(z)) for z >= 0
        for z in (0.25, 1.0, 4.0):
            assert mittag_leffler(2.0, 1.0, z) == pytest.approx(math.cosh(math.sqrt(z)), rel=1e-12)

    def test_recurrence_links_beta_values(self):
        # E_{a,b}(z) = 1/Gamma(b) + z * E_{a, a+b}(z)
        a, b, z = 0.5, 1.0, -0.7
        lhs = mittag_leffler(a, b, z)
        rhs = 1.0 / math.gamma(b) + z * mittag_leffler(a, a + b, z)
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_invalid_alpha_rejected(self):
        with pytest.raises(ValueError):
            mittag_leffler(0.0, 1.0, 1.0)

    def test_nonconvergence_reported(self):
        with pytest.raises(ConvergenceError):
            mittag_leffler(0.1, 1.0, 50.0, SeriesControl(max_terms=10))


class TestHyp2F1:
    def test_log_identity(self):
        # 2F1(1,1;2;z) = -ln(1-z)/z
        for z in (0.1, 0.5, 0.9):
            assert hyp2f1(1.0, 1.0, 2.0, z) == pytest.approx(-math.log1p(-z) / z, rel=1e-11)

    def test_binomial_identity(self):
        # 2F1(a,b;b;z) = (1-z)^{-a}
        assert hyp2f1(0.7, 1.3, 1.3, 0.3) == pytest.approx((1 - 0.3) ** -0.7, rel=1e-11)

    def test_against_scipy_near_one(self):
        for (a, b, c) in ((0.3, 0.4, 0.9), (0.5, 0.5, 1.5), (1.5, 0.25, 2.25)):
            for z in (0.6, 0.8, 0.95, 0.99):
                assert hyp2f1(a, b, c, z) == pytest.approx(
                    float(sps.hyp2f1(a, b, c, z)), rel=1e-9)

    def test_convergent_at_one_when_allowed(self):
        # c - a - b = 0.5 > 0: finite value Gamma(c)Gamma(c-a-b)/(Gamma(c-a)Gamma(c-b))
        a, b, c = 0.25, 0.25, 1.0
        ref = math.gamma(c) * math.gamma(c - a - b) / (math.gamma(c - a) * math.gamma(c - b))
        assert hyp2f1(a, b, c, 1.0) == pytest.approx(ref, rel=1e-10)

    def test_array_argument_matches_scalar_calls(self):
        # both sides of the z = 1/2 switch to the transformed series
        z = np.linspace(0.0, 0.99, 12).reshape(3, 4)
        got = hyp2f1(0.5, 0.5, 1.5, z)
        assert got.shape == z.shape
        want = [[hyp2f1(0.5, 0.5, 1.5, zz) for zz in row] for row in z]
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)
        assert isinstance(hyp2f1(0.5, 0.5, 1.5, 0.3), float)

    def test_domain_checks(self):
        with pytest.raises(ValueError):
            hyp2f1(1.0, 1.0, 0.0, 0.5)
        with pytest.raises(ValueError):
            hyp2f1(1.0, 1.0, 2.0, -0.1)


class TestTimeWeights:
    def test_phi_sub_matches_scipy_composition(self):
        alpha, T = 0.5, 1.0
        for t in (0.0, 0.25, 0.5, 0.9):
            w = 1.0 - t / T
            ref = w ** alpha * float(sps.hyp2f1(alpha, alpha, alpha + 1.0, w)) \
                / (alpha * math.gamma(1.0 - alpha))
            assert phi_sub(t, alpha, T) == pytest.approx(ref, rel=1e-10)

    def test_phi_sub_monotone_nonnegative(self):
        alpha, T = 0.3, 2.0
        vals = [phi_sub(t, alpha, T) for t in np.linspace(0.0, T, 1000)]
        assert all(v >= 0.0 for v in vals)
        assert all(a >= b - 1e-14 for a, b in zip(vals, vals[1:]))
        assert vals[-1] == 0.0

    def test_phi_psi_wave_monotone_nonnegative(self):
        alpha, T = 1.5, 1.0
        pairs = [phi_psi_wave(t, alpha, T) for t in np.linspace(0.0, T, 1000)]
        for comp in (0, 1):
            vals = [p[comp] for p in pairs]
            assert all(v >= 0.0 for v in vals)
            assert all(a >= b - 1e-14 for a, b in zip(vals, vals[1:]))

    def test_array_times_match_scalar_calls(self):
        t = np.linspace(0.0, 2.0, 129)
        sub = phi_sub(t, 0.3, 2.0)
        assert sub.shape == t.shape
        np.testing.assert_allclose(sub, [phi_sub(tt, 0.3, 2.0) for tt in t], rtol=1e-14, atol=0.0)
        phi, psi = phi_psi_wave(t, 1.5, 2.0)
        pairs = np.array([phi_psi_wave(tt, 1.5, 2.0) for tt in t])
        np.testing.assert_allclose(phi, pairs[:, 0], rtol=1e-14, atol=0.0)
        np.testing.assert_allclose(psi, pairs[:, 1], rtol=1e-14, atol=0.0)
        assert isinstance(phi_sub(0.5, 0.3, 2.0), float)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            phi_sub(0.5, 1.5, 1.0)
        with pytest.raises(ValueError):
            phi_psi_wave(0.5, 0.5, 1.0)
        with pytest.raises(ValueError):
            phi_sub(2.0, 0.5, 1.0)
        with pytest.raises(ValueError):
            phi_sub(np.array([0.0, 0.5, 1.1]), 0.5, 1.0)
        with pytest.raises(ValueError):
            phi_psi_wave(np.array([-0.1, 0.5]), 1.5, 1.0)


class TestSeriesControl:
    def test_validation(self):
        with pytest.raises(ValueError):
            SeriesControl(max_terms=0)
        with pytest.raises(ValueError):
            SeriesControl(abs_tol=-1.0)
        with pytest.raises(ValueError):
            SeriesControl(abs_tol=0.0, rel_tol=0.0)
