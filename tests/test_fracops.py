import math

import numpy as np
import pytest
import scipy.special as sps
from scipy.integrate import dblquad, quad

from fraccons.fracops import (
    FractionalSpec,
    Kind,
    SingularTerm,
    TimeGrid,
    TimeSeries,
    caputo_left_derivative,
    caputo_right_derivative,
    diff1,
    diff2,
    f_modified_integral,
    gl_left_derivative,
    j_integral,
    left_frac_integral,
    left_integral_endpoint_pole,
    right_frac_integral,
    rl_left_derivative,
    rl_right_derivative,
    time_derivative,
)

G = math.gamma


def series(grid, fn, singular=()):
    return TimeSeries.from_function(grid, fn, singular=singular)


def power_series(grid, coeff, power):
    """TimeSeries for coeff * t^power with the term declared explicitly."""
    with np.errstate(divide="ignore"):
        vals = coeff * grid.nodes() ** power
    return TimeSeries(grid, vals, (SingularTerm(coeff, power),))


class TestContainers:
    def test_grid_basics(self):
        grid = TimeGrid(2.0, 8)
        assert grid.h == pytest.approx(0.25)
        nodes = grid.nodes()
        assert nodes[0] == 0.0 and nodes[-1] == 2.0 and len(nodes) == 9

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            TimeGrid(0.0, 8)
        with pytest.raises(ValueError):
            TimeGrid(1.0, 0)

    def test_singular_term_power_bound(self):
        with pytest.raises(ValueError):
            SingularTerm(1.0, -1.0)
        term = SingularTerm(2.0, -0.5)
        grid = TimeGrid(1.0, 4)
        sampled = term.sample(grid)
        assert sampled[1] == pytest.approx(2.0 * 0.25 ** -0.5)

    def test_timeseries_length_check(self):
        grid = TimeGrid(1.0, 4)
        with pytest.raises(ValueError):
            TimeSeries(grid, np.zeros(4))

    def test_timeseries_interior_must_be_finite(self):
        grid = TimeGrid(1.0, 4)
        vals = np.zeros(5)
        vals[2] = np.nan
        with pytest.raises(ValueError):
            TimeSeries(grid, vals)

    def test_regular_part_subtracts_declared_terms(self):
        grid = TimeGrid(1.0, 8)
        f = power_series(grid, 2.0, -0.5)
        reg = f.regular_part()
        assert np.max(np.abs(reg)) < 1e-14

    @pytest.mark.parametrize("width", [5, 3])
    def test_from_parts_spreads_float_coefficient_over_columns(self, width):
        # a float coefficient is one per column, as in direct construction
        grid = TimeGrid(1.0, 4)
        reg = np.outer(grid.nodes(), np.arange(width))
        terms = (SingularTerm(1.0, 0.5), SingularTerm(2.0, -0.5, "end"))
        got = TimeSeries.from_parts(grid, reg, terms)
        t = grid.nodes()[:, None]
        direct = np.zeros_like(reg)
        direct[:-1] = reg[:-1] + t[:-1] ** 0.5 + 2.0 * (1.0 - t[:-1]) ** -0.5
        want = TimeSeries(grid, direct, terms)
        np.testing.assert_allclose(got.values, want.values, rtol=1e-14, atol=0.0)
        assert [tm.coeff.shape for tm in got.singular] == [(width,), (width,)]
        np.testing.assert_allclose(got.regular_part()[:-1], reg[:-1], atol=1e-14)

    def test_spec_order(self):
        assert FractionalSpec(Kind.RIEMANN_LIOUVILLE, 0.5, 1.0).n == 1
        assert FractionalSpec(Kind.CAPUTO, 1.5, 1.0).n == 2
        with pytest.raises(ValueError):
            FractionalSpec(Kind.RIEMANN_LIOUVILLE, 1.0, 1.0)
        with pytest.raises(ValueError):
            FractionalSpec(Kind.RIEMANN_LIOUVILLE, 2.5, 1.0)


class TestLeftIntegral:
    def test_exact_on_linear(self):
        # I^mu t = Gamma(2)/Gamma(2+mu) t^{1+mu}; product integration is
        # exact for piecewise-linear input.
        grid = TimeGrid(1.0, 32)
        out = left_frac_integral(series(grid, lambda t: t), 0.5)
        t = grid.nodes()
        ref = G(2.0) / G(2.5) * t ** 1.5
        assert np.max(np.abs(out.regular_part() - ref)) < 1e-13

    def test_smooth_input_against_quadrature(self):
        grid = TimeGrid(1.0, 256)
        mu = 0.3
        out = left_frac_integral(series(grid, np.sin), mu).regular_part()
        for j in (64, 128, 256):
            t = grid.nodes()[j]
            ref = quad(np.sin, 0.0, t, weight="alg", wvar=(0.0, mu - 1.0))[0] / G(mu)
            assert out[j] == pytest.approx(ref, abs=1e-5)

    def test_declared_power_term_uses_exact_rule(self):
        # I^{0.5} t^{-0.5} = Gamma(0.5) / Gamma(1) = sqrt(pi), a constant.
        grid = TimeGrid(1.0, 16)
        out = left_frac_integral(power_series(grid, 1.0, -0.5), 0.5)
        assert np.max(np.abs(out.values - math.sqrt(math.pi))) < 1e-12

    def test_mu_validation(self):
        grid = TimeGrid(1.0, 8)
        with pytest.raises(ValueError):
            left_frac_integral(series(grid, lambda t: t), 0.0)


class TestRightIntegral:
    def test_constant_closed_form(self):
        # (I_T^mu 1)(t) = (T-t)^mu / Gamma(1+mu)
        grid = TimeGrid(2.0, 64)
        mu = 0.5
        out = right_frac_integral(series(grid, lambda t: np.ones_like(t)), mu)
        t = grid.nodes()
        ref = (2.0 - t) ** mu / G(1.0 + mu)
        assert np.max(np.abs(out.regular_part() - ref)) < 1e-13

    def test_smooth_input_against_quadrature(self):
        grid = TimeGrid(1.0, 256)
        mu = 0.7
        out = right_frac_integral(series(grid, np.cos), mu).regular_part()
        for j in (0, 64, 128):
            t = grid.nodes()[j]
            ref = quad(np.cos, t, 1.0, weight="alg", wvar=(mu - 1.0, 0.0))[0] / G(mu)
            assert out[j] == pytest.approx(ref, abs=1e-5)


class TestDerivatives:
    def test_caputo_power_rule_exact_on_linear(self):
        # Caputo D^{0.5} t = I^{0.5} 1 = t^{0.5}/Gamma(1.5), exact here
        # because differentiation of a linear function is exact and the
        # integral rule is exact on constants.
        grid = TimeGrid(1.0, 64)
        out = caputo_left_derivative(series(grid, lambda t: t), 0.5).regular_part()
        ref = grid.nodes() ** 0.5 / G(1.5)
        assert np.max(np.abs(out - ref)) < 1e-12

    def test_rl_power_rule(self):
        # D^{0.5} t = t^{0.5} / Gamma(1.5); differencing t^{1.5} loses
        # accuracy near t = 0, so check away from the origin.
        grid = TimeGrid(1.0, 256)
        out = rl_left_derivative(series(grid, lambda t: t), 0.5).regular_part()
        ref = grid.nodes() ** 0.5 / G(1.5)
        assert np.max(np.abs(out[64:] - ref[64:])) < 1e-4
        assert out[-1] == pytest.approx(1.0 / G(1.5), abs=1e-5)

    def test_caputo_constant_annihilated(self):
        grid = TimeGrid(1.0, 64)
        out = caputo_left_derivative(series(grid, lambda t: np.full_like(t, 3.0)), 0.5)
        assert np.max(np.abs(out.regular_part()[1:])) < 1e-12

    def test_rl_vs_caputo_offset(self):
        # For f = t + 1: RL D^a f - Caputo D^a f = t^{-a} / Gamma(1-a)
        grid = TimeGrid(1.0, 128)
        a = 0.4
        f = series(grid, lambda t: t + 1.0)
        rl = rl_left_derivative(f, a)
        cap = caputo_left_derivative(f, a)
        t = grid.nodes()[64:]
        diff = rl.values[64:] - cap.values[64:]
        ref = t ** -a / G(1.0 - a)
        assert np.max(np.abs(diff - ref)) < 1e-3

    def test_rl_second_order_power_rule(self):
        # D^{1.5} t^2 = 2 t^{0.5} / Gamma(1.5)
        grid = TimeGrid(1.0, 512)
        out = rl_left_derivative(series(grid, lambda t: t ** 2), 1.5).regular_part()
        ref = 2.0 * grid.nodes() ** 0.5 / G(1.5)
        assert np.max(np.abs(out[128:] - ref[128:])) < 1e-3

    def test_gl_matches_rl_on_smooth_vanishing_data(self):
        grid = TimeGrid(1.0, 512)
        f = series(grid, lambda t: t ** 2)
        gl = gl_left_derivative(f, 0.5).regular_part()
        rl = rl_left_derivative(f, 0.5).regular_part()
        assert np.max(np.abs(gl[128:] - rl[128:])) < 5e-3

    def test_right_derivatives_on_end_power(self):
        # Right RL derivative of (T-t): D_T^a (T-t) = (T-t)^{1-a}/Gamma(2-a)
        grid = TimeGrid(1.0, 256)
        a = 0.5
        out = rl_right_derivative(series(grid, lambda t: 1.0 - t), a).regular_part()
        ref = (1.0 - grid.nodes()) ** (1.0 - a) / G(2.0 - a)
        assert np.max(np.abs(out[:192] - ref[:192])) < 1e-4

    def test_caputo_right_constant_annihilated(self):
        grid = TimeGrid(1.0, 64)
        out = caputo_right_derivative(series(grid, lambda t: np.full_like(t, 2.0)), 0.5)
        assert np.max(np.abs(out.regular_part()[:-1])) < 1e-12


class TestFiniteDifferences:
    def test_diff1_second_order(self):
        h = 1e-3
        t = np.arange(0.0, 1.0 + h / 2, h)
        d = diff1(np.sin(t), h)
        assert np.max(np.abs(d - np.cos(t))) < 5e-6

    def test_diff2_second_order(self):
        h = 1e-3
        t = np.arange(0.0, 1.0 + h / 2, h)
        d = diff2(np.sin(t), h)
        assert np.max(np.abs(d + np.sin(t))) < 5e-4

    def test_time_derivative_of_declared_power(self):
        # d/dt of 2 t^{0.5} = t^{-0.5}, propagated analytically.
        grid = TimeGrid(1.0, 32)
        out = time_derivative(power_series(grid, 2.0, 0.5))
        assert len(out.singular) == 1
        term = out.singular[0]
        assert term.coeff == pytest.approx(1.0)
        assert term.power == pytest.approx(-0.5)

    def test_time_derivative_rejects_nonintegrable_result(self):
        grid = TimeGrid(1.0, 32)
        with pytest.raises(ValueError):
            time_derivative(power_series(grid, 1.0, -0.5))


class TestJIntegral:
    def test_constant_pair_closed_form(self):
        # J(1,1)(t) = (T^{b+1} - t^{b+1} - (T-t)^{b+1}) / Gamma(b+2), b = 1-a
        grid = TimeGrid(2.0, 128)
        a = 0.5
        one = series(grid, lambda t: np.ones_like(t))
        out = j_integral(one, one, a).regular_part()
        t = grid.nodes()
        ref = (2.0 ** 1.5 - t ** 1.5 - (2.0 - t) ** 1.5) / G(2.5)
        assert np.max(np.abs(out - ref)) < 1e-13

    def test_bilinear_in_first_argument(self):
        grid = TimeGrid(1.0, 64)
        a = 0.5
        f1 = series(grid, lambda t: t)
        f2 = series(grid, np.sin)
        g = series(grid, np.cos)
        combo = TimeSeries(grid, 2.0 * f1.regular_part() - 3.0 * f2.regular_part())
        lhs = j_integral(combo, g, a).regular_part()
        rhs = 2.0 * j_integral(f1, g, a).regular_part() \
            - 3.0 * j_integral(f2, g, a).regular_part()
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_vanishes_at_both_endpoints(self):
        grid = TimeGrid(1.0, 64)
        out = j_integral(series(grid, np.sin), series(grid, np.cos), 0.7)
        vals = out.regular_part()
        assert abs(vals[0]) < 1e-14
        assert abs(vals[-1]) < 1e-14

    def test_differentiation_identity_converges(self):
        # D_t J(f,g) = f * I_T^{1-a} g - g * I^{1-a} f, checked for (f,g)=(t,1).
        a = 0.5
        errs = []
        for n in (64, 128):
            grid = TimeGrid(2.0, n)
            f = series(grid, lambda t: t)
            g = series(grid, lambda t: np.ones_like(t))
            jval = j_integral(f, g, a).regular_part()
            lhs = diff1(jval, grid.h)
            rhs = f.regular_part() * right_frac_integral(g, 1.0 - a).regular_part() \
                - g.regular_part() * left_frac_integral(f, 1.0 - a).regular_part()
            k = max(2, n // 10)
            errs.append(np.max(np.abs(lhs - rhs)[k:-k]))
        order = math.log2(errs[0] / errs[1])
        assert order > 1.5

    def test_singular_first_argument_against_quadrature(self):
        # J(t^{-0.5}, cos) at alpha = 0.5 compared with nested scipy quadrature.
        a = 0.5
        beta = 1.0 - a
        grid = TimeGrid(1.0, 128)
        f = power_series(grid, 1.0, -0.5)
        g = series(grid, np.cos)
        out = j_integral(f, g, a).regular_part()

        def inner(tau, t):
            return quad(lambda m: np.cos(m) * (m - tau) ** (beta - 1.0), t, 1.0)[0]

        for j in (32, 64, 96):
            t = grid.nodes()[j]
            ref = quad(lambda tau: inner(tau, t), 0.0, t,
                       weight="alg", wvar=(-0.5, 0.0))[0] / G(beta)
            assert out[j] == pytest.approx(ref, abs=5e-4)

    def test_end_term_of_f_with_start_term_of_g_against_quadrature(self):
        # J((T-t)^0.3, t^0.5) at alpha = 0.5 and t = 0.5, both factors given
        # as declared terms, compared with scipy dblquad
        beta = 0.5
        ref = dblquad(lambda m, tau: (1.0 - tau) ** 0.3 * m ** 0.5 * (m - tau) ** (beta - 1.0),
                      0.0, 0.5, 0.5, 1.0, epsabs=1e-12, epsrel=1e-12)[0] / G(beta)
        errs = []
        for n in (64, 128):
            grid = TimeGrid(1.0, n)
            zero = np.zeros(n + 1)
            f = TimeSeries.from_parts(grid, zero, (SingularTerm(1.0, 0.3, "end"),))
            g = TimeSeries.from_parts(grid, zero, (SingularTerm(1.0, 0.5, "start"),))
            errs.append(abs(j_integral(f, g, 1.0 - beta).values[n // 2] - ref))
        assert errs[0] <= 1e-5
        assert errs[1] <= errs[0] / 3.0


class TestEndpointWeightedIntegrals:
    def test_f_modified_integral_against_quadrature(self):
        # Order 2-a left integral whose kernel carries the extra factor
        # 2F1(1,1;2-a;(t-tau)/(T-tau)), compared with scipy quadrature.
        a, T = 1.5, 1.0
        mu = 2.0 - a
        grid = TimeGrid(T, 256)
        out = f_modified_integral(series(grid, np.cos), a).regular_part()

        def ref(t):
            def integrand(tau):
                z = (t - tau) / (T - tau)
                return np.cos(tau) * float(sps.hyp2f1(1.0, 1.0, mu, z))
            return quad(integrand, 0.0, t, weight="alg",
                        wvar=(0.0, mu - 1.0))[0] / G(mu)

        for j in (64, 128, 192):
            t = grid.nodes()[j]
            assert out[j] == pytest.approx(ref(t), abs=5e-4)

    def test_left_integral_endpoint_pole_against_quadrature(self):
        # (I^mu (f/(T-.)))(t) on smooth f, compared with scipy quadrature.
        mu, T = 0.5, 1.0
        grid = TimeGrid(T, 256)
        out = left_integral_endpoint_pole(series(grid, np.exp), mu).regular_part()
        for j in (64, 128, 192):
            t = grid.nodes()[j]
            ref = quad(lambda tau: np.exp(tau) / (T - tau), 0.0, t,
                       weight="alg", wvar=(0.0, mu - 1.0))[0] / G(mu)
            assert out[j] == pytest.approx(ref, abs=1e-5)

    def test_left_integral_endpoint_pole_excludes_final_node(self):
        grid = TimeGrid(1.0, 64)
        out = left_integral_endpoint_pole(series(grid, np.exp), 0.5)
        assert out.regular_part()[-1] == 0.0


def field_and_columns(grid, start_power, end_power):
    """Five-column field with per-column start and end terms, and its columns.

    Column 1 has no start term, columns 0 and 3 no end term, and column 4
    is identically zero.
    """
    t = grid.nodes()[:, None]
    reg = np.cos((1.0 + np.arange(5)) * t) + t ** 2
    reg[:, 4] = 0.0
    terms = ()
    if start_power is not None:
        terms += (SingularTerm(np.array([0.7, 0.0, -0.3, 1.1, 0.0]), start_power, "start"),)
    if end_power is not None:
        terms += (SingularTerm(np.array([0.0, 0.5, 0.2, 0.0, 0.0]), end_power, "end"),)
    whole = TimeSeries.from_parts(grid, reg, terms)
    cols = [TimeSeries(grid, whole.values[:, j],
                       tuple(SingularTerm(tm.coeff[j], tm.power, tm.anchor) for tm in terms))
            for j in range(5)]
    return whole, cols


def assert_whole_matches_columns(whole, cols):
    stacked = np.column_stack([c.values for c in cols])
    # kernel outputs store finite samples, at the anchor rows too
    assert np.isfinite(whole.values).all() and np.isfinite(stacked).all()
    scale = np.max(np.abs(stacked))
    assert np.max(np.abs(whole.values - stacked)) <= 1e-12 * scale
    for j, col in enumerate(cols):
        got = {(tm.power, tm.anchor): tm.coeff[j] for tm in whole.singular if tm.coeff[j] != 0.0}
        want = {(tm.power, tm.anchor): tm.coeff for tm in col.singular}
        assert got.keys() == want.keys()
        for key, coeff in want.items():
            assert got[key] == pytest.approx(coeff, rel=1e-12)


def _pole(f):
    return left_integral_endpoint_pole(TimeSeries(f.grid, f.values), 0.5)


class TestWholeField:
    """Each kernel on a whole field equals the stack of its single-column calls."""

    @pytest.mark.parametrize("kernel, start_power, end_power", [
        (lambda f: left_frac_integral(f, 0.5), -0.4, -0.6),
        (lambda f: right_frac_integral(f, 0.5), -0.6, -0.4),
        (lambda f: time_derivative(f), 0.5, 0.3),
        (lambda f: time_derivative(f, 2), 1.5, 1.3),
        (lambda f: rl_left_derivative(f, 0.5), -0.4, 0.3),
        (lambda f: rl_left_derivative(f, 1.5), 0.7, 0.3),
        (lambda f: caputo_left_derivative(f, 0.5), 0.5, 0.3),
        (lambda f: caputo_left_derivative(f, 1.5), 1.5, 1.3),
        (lambda f: rl_right_derivative(f, 0.5), 0.3, -0.4),
        (lambda f: caputo_right_derivative(f, 0.5), 0.3, 0.5),
        (lambda f: f_modified_integral(f, 1.5), -0.4, 0.3),
        (_pole, -0.4, 0.3),
    ], ids=["left_frac_integral", "right_frac_integral", "time_derivative",
            "time_derivative_2", "rl_left_derivative", "rl_left_derivative_wave",
            "caputo_left_derivative", "caputo_left_derivative_wave", "rl_right_derivative",
            "caputo_right_derivative", "f_modified_integral", "left_integral_endpoint_pole"])
    def test_kernel_matches_single_columns(self, kernel, start_power, end_power):
        grid = TimeGrid(1.0, 24)
        whole, cols = field_and_columns(grid, start_power, end_power)
        assert_whole_matches_columns(kernel(whole), [kernel(c) for c in cols])

    @pytest.mark.parametrize("alpha", [0.5, 1.3])
    @pytest.mark.parametrize("f_powers, g_powers", [
        ((None, None), (None, None)),
        ((-0.4, 0.3), (None, None)),
        ((-0.4, 0.3), (None, -0.5)),
        ((-0.4, None), (0.5, None)),
        ((-0.4, 0.3), (0.5, -0.5)),
    ], ids=["regular", "f_terms", "g_end_term", "g_start_term", "all_terms"])
    def test_j_integral_matches_single_columns(self, alpha, f_powers, g_powers):
        grid = TimeGrid(1.0, 24)
        f, f_cols = field_and_columns(grid, *f_powers)
        g, g_cols = field_and_columns(grid, *g_powers)
        g = TimeSeries(grid, g.values[:, ::-1], tuple(
            SingularTerm(tm.coeff[::-1], tm.power, tm.anchor) for tm in g.singular))
        g_cols = g_cols[::-1]
        assert_whole_matches_columns(j_integral(f, g, alpha),
                                     [j_integral(fc, gc, alpha) for fc, gc in zip(f_cols, g_cols)])
