import math

import mpmath
import numpy as np
import pytest
import scipy.special as sps

from fraccons.fracops import TimeGrid, TimeSeries, left_integral_endpoint_pole

from fraccons.specialfn import (
    ConvergenceError,
    GammaPoleError,
    gamma,
    hyp2f1,
    mittag_leffler,
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

    def test_tiny_positive_argument_is_no_pole(self):
        # only z <= 0 is taken for a pole: an order below 1e-12 is an order
        assert reciprocal_gamma(1e-13) == 1.0 / math.gamma(1e-13)
        assert gamma(1e-13) == math.gamma(1e-13)


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
        # 50^k / Gamma(0.1 k + 1) overflows float64 before the terms fall;
        # at z = -20 the terms still grow after 500 of them (near 1e157)
        with pytest.raises(ConvergenceError):
            mittag_leffler(0.1, 1.0, 50.0)
        with pytest.raises(ConvergenceError):
            mittag_leffler(0.5, 1.0, -20.0)

    def test_half_order_right_or_loud(self):
        # E_{1/2}(z) = erfcx(-z); large negative z must raise rather than
        # return the float64 cancellation error of the alternating series
        assert mittag_leffler(0.5, 1.0, -1.0) == pytest.approx(sps.erfcx(1.0), rel=1e-12)
        raised = 0
        for z in np.linspace(-10.0, 0.0, 201):
            try:
                value = mittag_leffler(0.5, 1.0, z)
            except ConvergenceError:
                raised += 1
                continue
            assert value == pytest.approx(sps.erfcx(-z), rel=1e-8)
        assert 0 < raised < 201


def _mp_hyp2f1(a, b, c, z):
    # independent oracle: mpmath at 40 significant digits
    with mpmath.workdps(40):
        return float(mpmath.hyp2f1(a, b, c, z))


def _frac_beta(alpha):
    return math.ceil(alpha) - alpha


# (a, b; c) of every 2F1 call site, of the Phi weights' closed form and of the
# endpoint-pole weights' closed form, as functions of an order alpha
CALL_SITE_FAMILIES = {
    # fracops._power_integral on an end term of I^mu: (-p, 1; mu+1), end powers p
    "end_power_p-0.5": lambda al: (0.5, 1.0, al + 1.0),
    "end_power_p0": lambda al: (0.0, 1.0, al + 1.0),
    "end_power_p1": lambda al: (-1.0, 1.0, al + 1.0),
    # the incomplete beta of J's start-power weights: (1-beta, p+1; p+2), the
    # same 2F1 as (p+1, 1-beta; p+2), here p = alpha - 1. No longer a call site
    # (fracops sums those weights by Gauss quadrature); the tests of J use it as
    # their oracle
    "incomplete_beta": lambda al: (al, 1.0 - _frac_beta(al), al + 1.0),
    # the closed form E_k of the endpoint-pole cell integrals: (1, 1; nu+1),
    # nu = mu + k, k = 0, 1. No longer a call site (fracops sums the cells by
    # Gauss quadrature); the tests of the weights use it as their oracle
    "endpoint_pole_k0": lambda al: (1.0, 1.0, al + 1.0),
    "endpoint_pole_k1": lambda al: (1.0, 1.0, al + 2.0),
    # the Phi weight of order b, w^b 2F1(b, b; b+1; w) / (b Gamma(1-b)), b = alpha
    # (and alpha - 1 in the wave regime): the catalog takes it from the
    # endpoint-pole kernel (TestTimeWeights checks the identity)
    "phi_sub": lambda al: (al, al, al + 1.0),
    "wave_phi": lambda al: (al - 1.0, al - 1.0, al),
}


class TestHyp2F1:
    def test_log_identity(self):
        # 2F1(1,1;2;z) = -ln(1-z)/z
        for z in (0.1, 0.5, 0.9):
            assert hyp2f1(1.0, 1.0, 2.0, z) == pytest.approx(-math.log1p(-z) / z, rel=1e-11)

    def test_binomial_identity(self):
        # 2F1(a,b;b;z) = (1-z)^{-a}
        assert hyp2f1(0.7, 1.3, 1.3, 0.3) == pytest.approx((1 - 0.3) ** -0.7, rel=1e-11)
        # c = a, close to z = 1: (1-z)^{-b}
        assert hyp2f1(1.5, 0.5, 1.5, 0.95) == pytest.approx(0.05 ** -0.5, rel=1e-13)

    def test_against_mpmath_near_one(self):
        for (a, b, c) in ((0.3, 0.4, 0.9), (0.5, 0.5, 1.5), (1.5, 0.25, 2.25)):
            for z in (0.6, 0.8, 0.95, 0.99):
                assert hyp2f1(a, b, c, z) == pytest.approx(_mp_hyp2f1(a, b, c, z), rel=1e-13)

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.7, 1.3, 1.5, 1.7])
    @pytest.mark.parametrize("family", sorted(CALL_SITE_FAMILIES))
    def test_call_site_parameters_against_mpmath(self, family, alpha):
        a, b, c = CALL_SITE_FAMILIES[family](alpha)
        z = np.concatenate([np.linspace(0.0, 0.99, 12), 1.0 - np.logspace(-2.0, -4.0, 4)])
        want = [_mp_hyp2f1(a, b, c, zz) for zz in z]
        np.testing.assert_allclose(hyp2f1(a, b, c, z), want, rtol=1e-13, atol=0.0)

    def test_convergent_at_one_when_allowed(self):
        # c - a - b = 0.5 > 0: finite value Gamma(c)Gamma(c-a-b)/(Gamma(c-a)Gamma(c-b))
        a, b, c = 0.25, 0.25, 1.0
        ref = math.gamma(c) * math.gamma(c - a - b) / (math.gamma(c - a) * math.gamma(c - b))
        assert hyp2f1(a, b, c, 1.0) == pytest.approx(ref, rel=1e-10)

    def test_divergent_at_one_raises(self):
        with pytest.raises(ConvergenceError):
            hyp2f1(1.0, 1.0, 2.0, 1.0)
        with pytest.raises(ConvergenceError):
            hyp2f1(1.0, 1.0, 1.5, np.array([0.5, 1.0]))

    def test_array_argument_matches_scalar_calls(self):
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


def _mp_phi(b, t, T):
    """Phi_b(t) = w^b 2F1(b, b; b+1; w) / (b Gamma(1-b)), w = 1 - t/T, at 30 digits."""
    with mpmath.workdps(30):
        w = 1 - mpmath.mpf(t) / T
        return float(w ** b * mpmath.hyp2f1(b, b, b + 1, w) / (b * mpmath.gamma(1 - b)))


class TestTimeWeights:
    @pytest.mark.parametrize("alpha", [0.3, 0.5, 1.5, 1.7])
    def test_phi_weight_is_gamma_minus_the_pole_kernel(self, alpha):
        # the catalog's Phi_b, b = alpha - m (m = n - 1), is Gamma(b) - s^b I^(1-b)(1/s)
        # with s = T - t: the endpoint-pole kernel applied to the constant 1
        b, T = alpha - math.floor(alpha), 2.0
        grid = TimeGrid(T, 64)
        t = grid.nodes()[:-1]
        pole = left_integral_endpoint_pole(TimeSeries(grid, np.ones(65)), 1.0 - b).values[:-1]
        phi = np.array([_mp_phi(b, tt, T) for tt in t])
        np.testing.assert_allclose(phi + (T - t) ** b * pole, math.gamma(b), rtol=1e-12, atol=0.0)
