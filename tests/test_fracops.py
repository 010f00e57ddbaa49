import ast
import dataclasses
import itertools
import math
import tracemalloc
import weakref

import mpmath
import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.integrate import dblquad, quad

from fraccons import conslaw, fracops
from fraccons.fracops import (
    FractionalSpec,
    Kind,
    SingularTerm,
    SpaceGrid,
    TimeGrid,
    TimeSeries,
    caputo_left_derivative,
    caputo_right_derivative,
    diff1,
    diff2,
    j_integral,
    left_frac_integral,
    left_integral_endpoint_pole,
    right_frac_integral,
    rl_left_derivative,
    rl_right_derivative,
    time_derivative,
)
from fraccons.specialfn import hyp2f1
from fraccons.tfde import exact_linear_separable

G = math.gamma


def series(grid, fn, singular=()):
    return TimeSeries.from_function(grid, fn, singular=singular)


def gl_left_derivative(f: TimeSeries, alpha: float) -> TimeSeries:
    """Grunwald-Letnikov left RL derivative: an O(n^2) oracle for the kernels."""
    grid = f.grid
    v = f.values
    n = grid.n_steps
    w = np.empty(n + 1)
    w[0] = 1.0
    for k in range(1, n + 1):
        w[k] = w[k - 1] * (1.0 - (alpha + 1.0) / k)
    out = np.empty_like(v)
    for i in range(n + 1):
        out[i] = np.dot(w[: i + 1], v[i::-1])
    return TimeSeries(grid, out / grid.h ** alpha, x=f.x)


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

    @pytest.mark.parametrize("T", [math.nan, math.inf])
    def test_non_finite_horizon_rejected(self, T):
        with pytest.raises(ValueError, match="T must be positive and finite"):
            TimeGrid(T, 8)

    @pytest.mark.parametrize("n_steps", [8.5, 8.0, "8"])
    def test_non_integer_steps_rejected(self, n_steps):
        # a float count used to pass here and fail later in nodes() with a TypeError
        with pytest.raises(ValueError, match="n_steps must be an integer"):
            TimeGrid(1.0, n_steps)

    def test_numpy_integer_steps_accepted(self):
        assert TimeGrid(1.0, np.int64(8)).h == 0.125

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
        assert FractionalSpec(Kind.RIEMANN_LIOUVILLE, 0.5).n == 1
        assert FractionalSpec(Kind.CAPUTO, 1.5).n == 2
        with pytest.raises(ValueError):
            FractionalSpec(Kind.RIEMANN_LIOUVILLE, 1.0)
        with pytest.raises(ValueError):
            FractionalSpec(Kind.RIEMANN_LIOUVILLE, 2.5)

    def test_spec_holds_kind_and_order_only(self):
        # the time horizon is the grid's alone, so a spec cannot disagree with it
        assert [f.name for f in dataclasses.fields(FractionalSpec)] == ["kind", "alpha"]


def assert_bitwise_equal(got, want):
    """Same shape and the same float64 bits, signs of zeros included."""
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def memo_field():
    """A space-time field with start and end terms in every column."""
    grid = TimeGrid(1.0, 32)
    x = SpaceGrid(0.0, 1.0, 5)
    xs = x.nodes()
    reg = np.cos(np.add.outer(grid.nodes(), xs))
    terms = (SingularTerm(np.sin(xs) + 1.0, 0.3), SingularTerm(xs, 0.6, "end"))
    return TimeSeries.from_parts(grid, reg, terms, x)


# each memoized quantity, and kernels that reach the memoized integral inside
MEMOIZED = {
    "regular_part": lambda f: f.regular_part(),
    "dx_field_1": lambda f: f.dx_field().values,
    "dx_field_2": lambda f: f.dx_field(2).values,
    "left_frac_integral": lambda f: left_frac_integral(f, 0.5).values,
    "rl_negative_order": lambda f: rl_left_derivative(f, -1.5).values,
    "rl_derivative": lambda f: rl_left_derivative(f, 0.5).values,
    "caputo_derivative": lambda f: caputo_left_derivative(f, 0.5).values,
}


class TestMemo:
    """A field computes its regular part, space derivatives and fractional
    integrals once and keeps them, read-only, for its lifetime."""

    @pytest.mark.parametrize("name", MEMOIZED)
    def test_memoized_equals_unmemoized_and_is_read_only(self, name, monkeypatch):
        f = memo_field()
        for quantity in MEMOIZED.values():  # fill the memo with every quantity first
            quantity(f)
        got = MEMOIZED[name](f)
        monkeypatch.setattr(TimeSeries, "_memoized", lambda self, key, build: build())
        want = MEMOIZED[name](memo_field())
        assert_bitwise_equal(got, want)
        assert not got.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            got[1] = 0.0

    def test_repeated_call_returns_the_same_object(self):
        f = memo_field()
        assert f.regular_part() is f.regular_part()
        assert f.dx_field() is f.dx_field() and f.dx_field(2) is f.dx_field(2)
        assert f.dx_field() is not f.dx_field(2)
        assert left_frac_integral(f, 0.5) is left_frac_integral(f, 0.5)
        assert rl_left_derivative(f, -0.5) is left_frac_integral(f, 0.5)
        assert left_frac_integral(f, 1.5) is not left_frac_integral(f, 0.5)

    def test_field_without_terms_is_its_own_regular_part(self):
        f = TimeSeries(TimeGrid(1.0, 8), np.linspace(0.0, 1.0, 9))
        assert f.regular_part() is f.values

    def test_memo_lives_and_dies_with_the_field(self):
        f = memo_field()
        for quantity in MEMOIZED.values():
            quantity(f)
        integral = weakref.ref(left_frac_integral(f, 0.5))
        field = weakref.ref(f)
        assert integral() is not None
        del f
        assert field() is None and integral() is None

    def test_values_are_read_only_and_the_caller_array_keeps_its_flags(self):
        vals = np.ones((9, 4))
        f = TimeSeries(TimeGrid(1.0, 8), vals, x=SpaceGrid(0.0, 1.0, 3))
        assert not np.shares_memory(f.values, vals)
        with pytest.raises(ValueError, match="read-only"):
            f.values[2, 1] = 5.0
        with pytest.raises(ValueError, match="read-only"):
            f.values += 1.0
        assert vals.flags.writeable
        assert not f.dx_field().values.flags.writeable

    def test_a_write_to_the_callers_arrays_leaves_the_field(self):
        # a field owns its data: it kept a view of the caller's values and the
        # caller's coefficient array, so a write to either changed the field
        # and left its memoized integral stale
        grid, x = TimeGrid(1.0, 16), SpaceGrid(0.0, 1.0, 3)

        def data():
            return np.outer(np.cos(grid.nodes()), np.arange(1.0, 5.0)), np.arange(1.0, 5.0)

        vals, coeff = data()
        u = TimeSeries(grid, vals, (SingularTerm(coeff, 0.5),), x)
        integral = left_frac_integral(u, 0.5).values
        vals[:] = 7.0
        coeff[:] = 7.0
        fresh_vals, fresh_coeff = data()
        fresh = TimeSeries(grid, fresh_vals, (SingularTerm(fresh_coeff, 0.5),), x)
        assert_bitwise_equal(u.values, fresh.values)
        assert_bitwise_equal(u.singular[0].coeff, fresh.singular[0].coeff)
        assert_bitwise_equal(left_frac_integral(u, 0.5).values, integral)
        assert_bitwise_equal(integral, left_frac_integral(fresh, 0.5).values)

    def test_singular_term_keeps_a_read_only_copy(self):
        coeff = np.ones(3)
        term = SingularTerm(coeff, 0.5)
        coeff[0] = 9.0
        assert_bitwise_equal(term.coeff, np.ones(3))
        with pytest.raises(ValueError, match="read-only"):
            term.coeff[0] = 9.0
        assert coeff.flags.writeable

    def test_nodes_and_power_samples_are_cached_read_only(self):
        grid = TimeGrid(1.0, 16)
        assert grid.nodes() is TimeGrid(1.0, 16).nodes()
        samples = fracops._power_samples(grid, -0.5, "end")
        assert samples is fracops._power_samples(grid, -0.5, "end")
        for arr in (grid.nodes(), samples):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 1.0


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

    @pytest.mark.parametrize("power", [0.0, 1.0])
    def test_integer_end_power_closed_form(self, power):
        # (T-t)^0 and (T-t)^1 declared as end terms: I^mu 1 = t^mu/Gamma(mu+1)
        # and I^mu (T-t) = T t^mu/Gamma(mu+1) - t^{mu+1}/Gamma(mu+2)
        mu, T = 0.5, 2.0
        grid = TimeGrid(T, 16)
        f = TimeSeries.from_parts(grid, np.zeros(17), (SingularTerm(1.0, power, "end"),))
        t = grid.nodes()
        ref = t ** mu / G(mu + 1.0)
        if power == 1.0:
            ref = T * ref - t ** (mu + 1.0) / G(mu + 2.0)
        np.testing.assert_allclose(left_frac_integral(f, mu).values, ref, rtol=1e-13, atol=1e-15)

    def test_mu_validation(self):
        grid = TimeGrid(1.0, 8)
        with pytest.raises(ValueError):
            left_frac_integral(series(grid, lambda t: t), 0.0)

    @pytest.mark.parametrize("mu", [0.05, 0.3, 0.5, 1.5, 1.95])
    def test_weights_against_mpmath(self, mu):
        # the reference is the closed form: L[k] and c[k] as second differences
        # of k^(mu+1), in 40 digits because in doubles they lose about k^2 of
        # relative precision (1.7e-9 at k = 2047, mu = 0.5); the Gauss sums
        # of positive terms stay at roundoff down to small mu
        n = 8192
        L, c = fracops._pl_weights(n, mu, 1.0)
        lags = sorted(set(range(12)) | set(np.geomspace(1, n, 60).astype(int).tolist()))
        with mpmath.workdps(40):
            p, scale = mpmath.mpf(mu) + 1, 1 / mpmath.gamma(mpmath.mpf(mu) + 2)
            assert L[0] == pytest.approx(float(scale), rel=1e-14, abs=0.0)
            assert c[0] == 0.0
            for k in lags[1:]:
                K = mpmath.mpf(k)
                ref_L = ((K + 1) ** p - 2 * K ** p + (K - 1) ** p) * scale
                ref_c = ((K - 1) ** p - K ** p + p * K ** mu) * scale
                assert L[k] == pytest.approx(float(ref_L), rel=1e-14, abs=0.0), k
                assert c[k] == pytest.approx(float(ref_c), rel=1e-14, abs=0.0), k

    @pytest.mark.parametrize("mu", [1e-16, 1e-20, 1e-300])
    def test_tiny_order_gives_the_field(self, mu):
        # I^mu f -> f as mu -> 0; the Gauss rule's entries must not cancel there
        f = series(TimeGrid(1.0, 64), lambda t: t ** 2)
        assert np.max(np.abs(left_frac_integral(f, mu).values - f.values)) <= 1e-12

    @pytest.mark.parametrize("n, mu", [(4, 180.0), (64, 100.0), (2048, 100.0), (8, 400.0)])
    def test_order_past_the_float_range_names_mu(self, n, mu):
        # Gamma(180) overflows, h^mu/Gamma(mu) underflows at n = 64, mu = 100 (where the
        # weights gave 0 for I^100 1 = 1e-158), and the lag powers 2049^99 overflow
        f = series(TimeGrid(1.0, n), lambda t: 1.0 + t)
        with pytest.raises(ValueError, match=f"at mu = {mu}"):
            left_frac_integral(f, mu)

    def test_step_power_past_the_float_range_names_mu(self):
        # h^1.5 = 5e299^1.5 overflows; it is checked in logs before the power is taken
        f = series(TimeGrid(1e300, 2), np.ones_like)
        with pytest.raises(ValueError, match="leave the float range at mu = 1.5 "):
            left_frac_integral(f, 1.5)
        # at mu = 0.5 the weights stay in range, bit for bit as before the check:
        # I^0.5 1 = 2 sqrt(t / pi); row 1 is c[1] + L[0], correctly rounded (at 40 digits)
        got = left_frac_integral(f, 0.5).values
        assert got.tolist() == [0.0, 7.978845608028652e149, 1.1283791670955123e150]
        assert got == pytest.approx(2.0 * np.sqrt(f.grid.nodes() / np.pi), rel=1e-15)

    def test_large_order_inside_the_float_range(self):
        # I^100 1 = t^100 / Gamma(101): piecewise-linear input, so exact
        f = series(TimeGrid(1.0, 4), lambda t: np.ones_like(t))
        assert left_frac_integral(f, 100.0).values[-1] == pytest.approx(1.0 / G(101.0), rel=1e-12)

    def test_gauss_rule_at_tiny_order(self):
        # s - 1 = 2(k-1) + mu is mu at k = 1, not (1 + (mu - 1)) - 1 = 0
        mu = 1e-20
        z, w = fracops._gauss_jacobi01(mu)
        assert np.isfinite(z).all() and np.isfinite(w).all()
        assert abs(w.sum() * mu - 1.0) <= 1e-14


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
    def test_caputo_order_within_1e12_of_one(self):
        # the integral order 1 - alpha = 1e-12 is no pole of Gamma:
        # cD^alpha t^2 = 2 t^(2-alpha) / Gamma(3-alpha), at t = 1
        alpha = 1.0 - 1e-12
        out = caputo_left_derivative(series(TimeGrid(1.0, 64), lambda t: t ** 2), alpha)
        assert out.values[-1] == pytest.approx(2.0 / math.gamma(3.0 - alpha), rel=1e-12)

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

    @pytest.mark.parametrize("mu", [0.3, 0.5, 1.5])
    @pytest.mark.parametrize("column", [2, None], ids=["1d", "2d"])
    def test_negative_order_rl_derivative_is_the_integral(self, mu, column):
        # D^{-mu} = I^mu on either side, bit for bit, terms included
        grid = TimeGrid(1.0, 24)
        f, cols = field_and_columns(grid, -0.4, 0.3)
        if column is not None:
            f = cols[column]
        pairs = ((rl_left_derivative(f, -mu), left_frac_integral(f, mu)),
                 (rl_right_derivative(f, -mu), right_frac_integral(f, mu)))
        for got, want in pairs:
            assert np.array_equal(got.values, want.values)
            assert [(tm.power, tm.anchor) for tm in got.singular] == \
                [(tm.power, tm.anchor) for tm in want.singular]
            for a, b in zip(got.singular, want.singular):
                assert np.array_equal(a.coeff, b.coeff)


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

    @pytest.mark.parametrize("fn, nodes", [(diff1, 2), (diff2, 3)])
    def test_too_few_nodes_rejected(self, fn, nodes):
        with pytest.raises(ValueError, match="at least"):
            fn(np.ones((4, nodes)), 0.1, axis=1)

    @staticmethod
    def moveaxis_form(v, h, axis, order):
        """The stencils as written with np.moveaxis to and from axis 0."""
        v = np.moveaxis(np.asarray(v, dtype=float), axis, 0)
        out = np.empty_like(v)
        if order == 1:
            out[1:-1] = (v[2:] - v[:-2]) / (2.0 * h)
            out[0] = (-3.0 * v[0] + 4.0 * v[1] - v[2]) / (2.0 * h)
            out[-1] = (3.0 * v[-1] - 4.0 * v[-2] + v[-3]) / (2.0 * h)
        else:
            out[1:-1] = (v[2:] - 2.0 * v[1:-1] + v[:-2]) / h ** 2
            out[0] = (2.0 * v[0] - 5.0 * v[1] + 4.0 * v[2] - v[3]) / h ** 2
            out[-1] = (2.0 * v[-1] - 5.0 * v[-2] + 4.0 * v[-3] - v[-4]) / h ** 2
        return np.moveaxis(out, 0, axis)

    @pytest.mark.parametrize("shape, axis", [((9,), 0), ((9, 7), 0), ((9, 7), 1), ((9, 7), -1),
                                             ((5, 6, 7), 0), ((5, 6, 7), 1), ((5, 6, 7), 2)])
    @pytest.mark.parametrize("order", [1, 2])
    def test_stencils_match_the_moveaxis_form_bitwise(self, shape, axis, order):
        v = np.random.default_rng(7).standard_normal(shape)
        got = (diff1 if order == 1 else diff2)(v, 0.1, axis=axis)
        want = self.moveaxis_form(v, 0.1, axis, order)
        assert got.shape == shape and got.tobytes() == want.tobytes()

    def test_second_time_derivative_on_two_steps_rejected(self):
        with pytest.raises(ValueError, match="at least 4 nodes"):
            time_derivative(TimeSeries(TimeGrid(1.0, 2), np.ones(3)), 2)

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
        a = 0.5
        for n in (128, 2048):
            grid = TimeGrid(2.0, n)
            one = series(grid, lambda t: np.ones_like(t))
            out = j_integral(one, one, a).regular_part()
            t = grid.nodes()
            ref = (2.0 ** 1.5 - t ** 1.5 - (2.0 - t) ** 1.5) / G(2.5)
            assert np.max(np.abs(out - ref)) < 1e-13, n

    @pytest.mark.parametrize("beta", [0.1, 0.5, 0.9])
    def test_lag_kernels_against_mpmath(self, beta):
        # kappa[a, b, d] = int_0^1 int_0^1 phi_a(s) phi_b(r) (d + r - s)^{beta-1} dr ds,
        # phi_0 = 1 - s and phi_1 = s: the r integral in closed form at 30
        # digits, the s integral by mpmath quadrature
        kappa = fracops._j_lag_kernels(2048, beta)
        with mpmath.workdps(30):
            B = mpmath.mpf(beta)

            def over_r(c):
                # int_0^1 (c + r)^{beta-1} dr and int_0^1 r (c + r)^{beta-1} dr
                m0 = ((c + 1) ** B - c ** B) / B
                m1 = ((c + 1) ** (B + 1) - c ** (B + 1)) / (B + 1) - c * m0
                return m0 - m1, m1

            for d in (1, 2, 3, 10, 100, 2047):
                for a, phi_a in enumerate((lambda s: 1 - s, lambda s: s)):
                    for b in (0, 1):
                        ref = mpmath.quad(lambda s: phi_a(s) * over_r(d - s)[b], [0, 1])
                        assert kappa[a, b, d] == pytest.approx(float(ref), rel=1e-13, abs=0.0)

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


    @pytest.mark.parametrize("zero_factor", ["g", "f"])
    def test_zero_regular_part_skips_the_piecewise_linear_pass(self, zero_factor, monkeypatch):
        # J(u_tt, (T-t)^(1/2)) of Table5_v3 on a moving field: g's regular part
        # is 0, so the piecewise-linear pass would add exact zeros; with f's
        # regular part 0 instead, f is a start term alone
        spec = FractionalSpec(Kind.CAPUTO, 1.5)
        grid = TimeGrid(1.0, 64)
        x = SpaceGrid(0.0, np.pi, 64)
        u = exact_linear_separable(spec, 1.0, grid, x)
        zero = np.zeros_like(u.values)
        if zero_factor == "g":
            f = time_derivative(u, 2)
            g = TimeSeries.from_parts(grid, zero, (SingularTerm(1.0, 0.5, "end"),), x)
        else:
            f = TimeSeries.from_parts(grid, zero, (SingularTerm(np.sin(x.nodes()), -0.4),), x)
            g = TimeSeries.from_parts(grid, np.cos(u.values),
                                      (SingularTerm(x.nodes(), 0.5, "end"),), x)
        calls = []
        full_pass = fracops._j_piecewise_linear
        monkeypatch.setattr(fracops, "_j_piecewise_linear",
                            lambda *args: calls.append(1) or full_pass(*args))
        skipped = j_integral(f, g, spec.alpha).values
        assert calls == []

        class EveryArrayNonzero:
            """numpy, except that np.any is True: forces the full path."""

            def __getattr__(self, name):
                return getattr(np, name)

            @staticmethod
            def any(*args, **kwargs):
                return True

        monkeypatch.setattr(fracops, "np", EveryArrayNonzero())
        forced = j_integral(f, g, spec.alpha).values
        assert calls == [1]
        assert_bitwise_equal(skipped, forced)
        assert np.any(skipped != 0.0)

    @pytest.mark.parametrize("f_kind", ["cos", "start_power"])
    def test_end_term_of_g_against_quadrature(self, f_kind):
        # J(f, (T-t)^-0.5) at alpha = 0.5, T = 1 and t = 0.5, g's singularity
        # declared as an end term; f = cos sampled, or f = t^-0.4 declared as a
        # start term. The dblquad reference substitutes mu = 1 - s^2, and
        # tau = r^(1/0.6) for the start power, which take both endpoint
        # singularities out of the integrand.
        beta, t = 0.5, 0.5
        s_hi = math.sqrt(1.0 - t)
        if f_kind == "cos":
            ref = dblquad(lambda s, tau: 2.0 * np.cos(tau) * (1.0 - s * s - tau) ** (beta - 1.0),
                          0.0, t, 0.0, s_hi, epsabs=1e-12, epsrel=1e-12)[0] / G(beta)
        else:
            ref = dblquad(lambda s, r: 2.0 / 0.6 * (1.0 - s * s - r ** (1.0 / 0.6)) ** (beta - 1.0),
                          0.0, t ** 0.6, 0.0, s_hi, epsabs=1e-12, epsrel=1e-12)[0] / G(beta)
        errs = []
        for n in (64, 128):
            grid = TimeGrid(1.0, n)
            zero = np.zeros(n + 1)
            g = TimeSeries.from_parts(grid, zero, (SingularTerm(1.0, -0.5, "end"),))
            if f_kind == "cos":
                f = series(grid, np.cos)
            else:
                f = TimeSeries.from_parts(grid, zero, (SingularTerm(1.0, -0.4, "start"),))
            errs.append(abs(j_integral(f, g, 1.0 - beta).values[n // 2] - ref))
        # the Q rows have a square-root edge at tau = t: order 1.5 in h
        assert errs[0] <= 2e-3
        assert errs[1] <= errs[0] / 2.5


def _mp_power_integral(q, p, mu, t, T):
    """I^mu [t^q (T-t)^p] at t, D^-mu for mu < 0: the closed form at 30 digits."""
    with mpmath.workdps(30):
        t, T = mpmath.mpf(t), mpmath.mpf(T)
        return float(t ** (q + mu) * T ** p * mpmath.gamma(q + 1) / mpmath.gamma(q + 1 + mu)
                     * mpmath.hyp2f1(-p, q + 1, q + 1 + mu, t / T))


def _mp_rl_quad(order, t, q, smooth):
    """(1/Gamma(order)) int_0^t (t-tau)^(order-1) tau^q smooth(tau) dtau by mpmath.quad.

    Over tau = t r, split at r = 1/2; the maps w^(1/(q+1)) -> r and
    w^(1/order) -> 1 - r take the algebraic singularity out of each half.
    """
    with mpmath.workdps(15):
        t = mpmath.mpf(t)
        head = mpmath.quad(lambda w: (1 - w ** (1 / (q + 1))) ** (order - 1)
                           * smooth(t * w ** (1 / (q + 1))), [0, mpmath.mpf(2) ** -(q + 1)])
        tail = mpmath.quad(lambda w: (1 - w ** (1 / order)) ** q
                           * smooth(t * (1 - w ** (1 / order))), [0, mpmath.mpf(2) ** -order])
        return float(t ** (order + q) * (head / (q + 1) + tail / order) / mpmath.gamma(order))


def _quad_power_integral(q, p, mu, t, T):
    """_mp_power_integral by quadrature; for mu < 0, d/dt I^(1+mu) taken under the
    integral: D^-mu [tau^q s](t) = I^(1+mu) [tau^q ((1+mu+q) s + tau s')](t) / t."""
    if mu > 0:
        return _mp_rl_quad(mu, t, q, lambda tau: (T - tau) ** p)
    nu = 1.0 + mu
    return _mp_rl_quad(nu, t, q, lambda tau: (nu + q) * (T - tau) ** p
                       - p * tau * (T - tau) ** (p - 1)) / t


def _power_cases(alpha):
    """(q, p, mu): start powers of the fields of order alpha, end powers down to the
    pole's -1, and orders of both signs."""
    return itertools.product((alpha - 1.0, 0.0, 0.5, 2.0 * alpha - 1.0), (-1.0, -0.5, 0.3, 2.0),
                             (-0.5, 0.3, 0.5, 1.5))


class TestPowerIntegral:
    """fracops._power_integral: I^mu [c t^q (T-t)^p], the one closed form of every term path."""

    @pytest.mark.parametrize("alpha", [0.3, 1.5])
    def test_matches_mpmath_closed_form(self, alpha):
        grid = TimeGrid(2.0, 8)
        t = grid.nodes()
        for q, p, mu in _power_cases(alpha):
            got = fracops._power_integral(1.0, q, p, mu, t, grid.T)
            # infinite at t = 0 when q + mu < 0 and at t = T when mu + p <= 0: stored as 0
            want = [0.0 if (i == 0 and q + mu < 0) or (i == 8 and mu + p <= 0)
                    else _mp_power_integral(q, p, mu, tt, grid.T) for i, tt in enumerate(t)]
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0, err_msg=str((q, p, mu)))

    @pytest.mark.parametrize("alpha", [0.3, 1.5])
    def test_matches_quadrature(self, alpha):
        t = TimeGrid(2.0, 8).nodes()
        for q, p, mu in _power_cases(alpha):
            got = fracops._power_integral(1.0, q, p, mu, t, 2.0)[3]
            assert got == pytest.approx(_quad_power_integral(q, p, mu, 0.75, 2.0), rel=1e-8), \
                (q, p, mu)

    @pytest.mark.parametrize("beta", [0.3, 0.5, 0.7])
    @pytest.mark.parametrize("p", [-0.7, -0.5, 0.0, 0.5, 1.5])
    def test_j_start_power_matrix_against_mpmath(self, p, beta):
        # P[i, q] = int_0^{t_i} tau^p (t_q - tau)^(beta-1) dtau = t_q^(p+beta) B(t_i/t_q; p+1, beta),
        # which J applies without forming it: P @ I is P
        n = 256
        grid = TimeGrid(1.0, n)
        t = grid.nodes()
        P, diag = fracops._start_power_product(grid, p, beta, np.eye(n + 1))
        np.testing.assert_allclose(diag, np.diagonal(P), rtol=1e-13, atol=0.0)
        for i, q in ((1, 1), (1, 2), (1, n), (3, 3), (128, 128), (128, 129), (n - 1, n),
                     (n, n), (17, 200)):
            with mpmath.workdps(40):
                ti, tq = mpmath.mpf(t[i]), mpmath.mpf(t[q])
                want = float(tq ** (p + beta) * mpmath.betainc(p + 1, beta, 0, ti / tq))
            assert P[i, q] == pytest.approx(want, rel=1e-13, abs=0.0), (i, q)
        # the incomplete-beta form J used before the shared closed form, as a second oracle
        ii, qq = np.triu_indices(n + 1)
        ii, qq = ii[ii >= 1], qq[ii >= 1]
        x = t[ii] / t[qq]
        old = np.zeros_like(P)
        old[ii, qq] = t[qq] ** (p + beta) * x ** (p + 1.0) / (p + 1.0) * hyp2f1(
            p + 1.0, 1.0 - beta, p + 2.0, x)
        assert np.max(np.abs(P - old)) <= 1e-13 * np.max(np.abs(P))

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 1.5, 1.7])
    @pytest.mark.parametrize("n", [16, 64, 256])
    def test_j_integral_matches_the_dense_2f1_weights(self, n, alpha):
        # start and end terms on both factors, on a 3-column field
        grid = TimeGrid(1.3, n)
        t, cols = grid.nodes(), np.arange(1.0, 4.0)
        f = TimeSeries.from_parts(grid, np.cos(np.outer(t, cols)),
                                  (SingularTerm(cols - 2.5, -0.5), SingularTerm(1.0, 0.7),
                                   SingularTerm(2.0, 0.3, "end")))
        g = TimeSeries.from_parts(grid, np.sin(np.outer(t + 0.2, cols)),
                                  (SingularTerm(cols, -0.4, "end"), SingularTerm(1.5, 1.2, "end"),
                                   SingularTerm(0.5, 0.5)))
        want = _dense_j_integral(f, g, alpha)
        got = j_integral(f, g, alpha).values
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    def test_hyp2f1_has_one_call_site(self):
        # every power-term closed form of the kernels goes through
        # _power_integral; J's power-term sums are Gauss sums, with no 2F1 call
        tree = ast.parse(open(fracops.__file__, encoding="utf-8").read())
        sites = [fn.name for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
                 for node in ast.walk(fn) if isinstance(node, ast.Call)
                 and isinstance(node.func, ast.Name) and node.func.id == "hyp2f1"]
        assert sites == ["_power_integral"]

    def test_verifiers_mask_nothing_and_conslaw_takes_no_raw_end_power(self):
        # the verifier computes only its window's rows, so no end row enters
        # its arithmetic; every (T - t)^p of conslaw is a _power_samples one
        tree = ast.parse(open(conslaw.__file__, encoding="utf-8").read())
        fns = [fn for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)]
        verifier, = [fn for fn in fns if fn.name == "conservation_residuals"]
        masks = [node for node in ast.walk(verifier)
                 if isinstance(node, ast.Attribute) and node.attr == "errstate"]
        raw = [fn.name for fn in fns for node in ast.walk(fn)
               if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub)
               and isinstance(node.left, ast.Attribute) and node.left.attr == "T"
               and isinstance(node.right, ast.Call)
               and isinstance(node.right.func, ast.Attribute) and node.right.func.attr == "nodes"]
        assert masks == [] and raw == []

    def test_every_gauss_rule_comes_from_gauss_jacobi01(self):
        # no kernel weight comes from a polynomial series or a library rule:
        # no polyval, no numpy.polynomial (leggauss), no scipy quadrature
        tree = ast.parse(open(fracops.__file__, encoding="utf-8").read())
        names = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.ImportFrom):
                names.update((node.module or "").split("."))
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names.update(part for alias in node.names for part in alias.name.split("."))
        banned = {"polyval", "polynomial", "leggauss", "integrate", "quad", "fixed_quad"}
        assert not names & banned
        assert not [name for name in names if name.startswith("roots_")]


def _dense_start_power_matrix(grid, p, beta):
    """P[i, q] = int_0^{t_i} tau^p (t_q - tau)^(beta-1) dtau for q >= i >= 1, one 2F1 value
    per entry: the closed form I^1 [tau^p (T - tau)^(beta-1)] at t_i with T = t_q, the
    dense weights j_integral once kept."""
    t = grid.nodes()
    i, q = np.triu_indices(grid.n_steps + 1)
    i, q = i[i >= 1], q[i >= 1]
    P = np.zeros((grid.n_steps + 1,) * 2)
    P[i, q] = (t[i] ** (p + 1.0) * t[q] ** (beta - 1.0) / (p + 1.0)
               * hyp2f1(1.0 - beta, p + 1.0, p + 2.0, t[i] / t[q]))
    return P


def _dense_j_integral(f, g, alpha):
    """j_integral with its power terms summed over _dense_start_power_matrix: the
    trapezoid tail over q >= i of P[i, q] g_q, and the hat moments of f's start
    powers against the rows of the reversed P."""
    beta = math.ceil(alpha) - alpha
    grid, h = f.grid, f.grid.h
    f_start = [tm for tm in f.singular if tm.anchor == "start"]
    g_end = [tm for tm in g.singular if tm.anchor == "end"]
    f_lin = f.regular_part() + sum(tm.sample(grid) for tm in f.singular if tm.anchor == "end")
    g_lin = g.regular_part() + sum(tm.sample(grid) for tm in g.singular if tm.anchor == "start")
    out = j_integral(TimeSeries(grid, f_lin), TimeSeries(grid, g_lin), alpha).values.copy()

    def trapz_tail(P, v):
        return h * (P @ v - 0.5 * (np.diagonal(P)[:, None] * v + P[:, -1:] * v[-1]))

    for term in f_start:
        out += term.coeff * trapz_tail(_dense_start_power_matrix(grid, term.power, beta),
                                       g_lin) / G(beta)
    for term in g_end:
        P = _dense_start_power_matrix(grid, term.power, beta)
        out += term.coeff * trapz_tail(P, f_lin[::-1])[::-1] / G(beta)
        Q = P[::-1, ::-1]
        for t2 in f_start:
            tq = grid.nodes()
            m0 = np.diff(tq ** (t2.power + 1.0)) / (t2.power + 1.0)
            m1 = np.diff(tq ** (t2.power + 2.0)) / (t2.power + 2.0)
            wl, wr = (tq[1:] * m0 - m1) / h, (m1 - tq[:-1] * m0) / h
            head = Q[:, :-1] @ wl + Q[:, 1:] @ wr - np.diagonal(Q) * np.append(wl, 0.0)
            out += np.multiply.outer(head, term.coeff * t2.coeff) / G(beta)
    return out


def _term(grid, power, anchor):
    return TimeSeries.from_parts(grid, np.zeros(grid.n_steps + 1), (SingularTerm(1.0, power, anchor),))


def _mp_pole_weight(grid, mu, i, j):
    """V[i, j] of the endpoint-pole weights at 40 digits: the hat of node j against
    (t_i - tau)^(mu-1) / ((T - tau) Gamma(mu)) on each cell, from the moments
    int_lo^hi sigma^(mu-1+k) / (c + sigma) dsigma, k = 0, 1, sigma = t_i - tau, c = T - t_i.
    They are differences of
    E_k(s) = int_0^s sigma^(mu-1+k) / (c + sigma) dsigma
           = s^nu / (nu (c + s)) 2F1(1, 1; nu + 1; s / (s + c)), nu = mu + k,
    except where E_0, about 1/mu, would cancel to fewer than 20 digits (mu = 1e-300):
    there a cell off the kernel's edge has a smooth integrand, and mpmath.quad sums it."""
    with mpmath.workdps(40):
        h = mpmath.mpf(grid.T) / grid.n_steps
        c, mu = (grid.n_steps - i) * h, mpmath.mpf(mu)

        def E(s, nu):
            return s ** nu / (nu * (c + s)) * mpmath.hyp2f1(1, 1, nu + 1, s / (s + c)) if s else 0

        def moments(lo, hi):
            # the first moment is at most (hi - lo) lo^(mu-1) / (c + lo)
            if lo and (hi - lo) * lo ** (mu - 1) / (c + lo) < 1e-20 * E(hi, mu):
                return [mpmath.quad(lambda s: s ** (mu - 1 + k) / (c + s), [lo, hi]) for k in (0, 1)]
            return [E(hi, mu + k) - E(lo, mu + k) for k in (0, 1)]

        total = 0
        for p in (j - 1, j):  # the cells [t_p, t_p+1] next to node j, below t_i
            if 0 <= p < i:
                hi, lo = (i - p) * h, (i - p - 1) * h
                d0, d1 = moments(lo, hi)
                # the hats of f_p and f_p+1 on the cell are (sigma - lo)/h and (hi - sigma)/h
                total += (d1 - lo * d0) / h if p == j else (hi * d0 - d1) / h
        return float(total / mpmath.gamma(mu))


TERM_CASES = [("start", -0.5), ("start", 0.5), ("start", 2.0), ("end", -0.5), ("end", 0.3)]


class TestEndpointWeightedIntegrals:
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

    @pytest.mark.parametrize("n, mu", [(16, 0.5), (33, 1.5)])
    def test_endpoint_pole_weights_match_2f1_row_loop(self, n, mu):
        # the per-row cell loop of the 2F1 closed form the weights were once
        # built by: a second oracle, whose differences of E lose digits to
        # cancellation, so it agrees to a tolerance, not bitwise
        grid = TimeGrid(1.0, n)
        t = grid.nodes()
        ref = np.zeros((n + 1, n + 1))
        for i in range(1, n):
            s, c = t[i] - t[:i], 1.0 - t[i]
            d = []
            for nu in (mu, mu + 1.0):
                e = np.append(s ** nu / (nu * (c + s)) * hyp2f1(1.0, 1.0, nu + 1.0, s / (s + c)),
                              0.0)
                d.append(e[:-1] - e[1:])
            m1 = (s * d[0] - d[1]) / grid.h
            ref[i, :i] += d[0] - m1
            ref[i, 1:i + 1] += m1
        ref /= G(mu)
        V = fracops._endpoint_pole_weight_matrix(grid, mu)
        assert np.max(np.abs(V - ref)) <= 1e-11 * np.max(np.abs(V))

    @pytest.mark.parametrize("T", [1.0, 2.0])
    @pytest.mark.parametrize("mu", [0.05, 0.3, 0.5, 1.5, 1.7, 1.95])
    def test_endpoint_pole_weights_against_mpmath(self, mu, T):
        # the last row's far lags, where the 2F1 differences cancelled most,
        # the lag-1 diagonal, its neighbour and an early entry, each against
        # the 2F1 closed form at 40 digits
        n = 256
        grid = TimeGrid(T, n)
        V = fracops._endpoint_pole_weight_matrix(grid, mu)
        entries = [(n - 1, j) for j in (0, 1, 2, 8)]
        entries += [(i, i) for i in (1, 128, n - 1)] + [(i, i - 1) for i in (1, 128, n - 1)]
        entries += [(3, 0)]
        for i, j in entries:
            assert V[i, j] == pytest.approx(_mp_pole_weight(grid, mu, i, j), rel=1e-13, abs=0.0)
        assert not np.any(V[n])

    def test_left_integral_endpoint_pole_excludes_final_node(self):
        grid = TimeGrid(1.0, 64)
        out = left_integral_endpoint_pole(series(grid, np.exp), 0.5)
        assert out.regular_part()[-1] == 0.0

    @pytest.mark.parametrize("anchor, power", TERM_CASES)
    @pytest.mark.parametrize("mu", [0.3, 0.5, 1.5])
    def test_left_integral_endpoint_pole_on_a_term(self, mu, anchor, power):
        # t^q / (T-t) and (T-t)^(p-1) in closed form; the final node is 0
        grid = TimeGrid(2.0, 8)
        q, p = (power, -1.0) if anchor == "start" else (0.0, power - 1.0)
        got = left_integral_endpoint_pole(_term(grid, power, anchor), mu).values
        want = [_mp_power_integral(q, p, mu, t, grid.T) for t in grid.nodes()[1:-1]]
        np.testing.assert_allclose(got[1:-1], want, rtol=1e-12, atol=0.0)
        assert got[-1] == 0.0

    @pytest.mark.parametrize("mu", [math.nan, math.inf, 180.0, 1e-320, 100.0])
    def test_order_outside_the_float_range_names_mu(self, mu):
        # unchecked, NaN fails in the Gauss rule's eigensolver; inf, 180 (62^179
        # overflows) and 1e-320 (1/mu overflows) give NaN; at 100, h^99/Gamma(100)
        # underflows and row n - 1 reads 0 for a value of about 1e-159
        f = series(TimeGrid(1.0, 64), lambda t: 1.0 + t)
        with pytest.raises(ValueError, match=f"mu = {mu}"):
            left_integral_endpoint_pole(f, mu)

    @pytest.mark.parametrize("T, mu, power, anchor", [(1e300, 1.5, 0.5, "start"),
                                                      (1e-300, 0.5, -0.5, "end")])
    def test_power_term_outside_the_float_range_names_mu(self, T, mu, power, anchor):
        # unchecked, t^(q+mu) = t^2 overflows on [0, 1e300] (a RuntimeWarning), and
        # T^(p-1) = T^-1.5 on [0, 1e-300] (a bare OverflowError); the weights stay in range
        f = _term(TimeGrid(T, 4), power, anchor)
        fracops._endpoint_pole_weight_matrix(f.grid, mu)
        with pytest.raises(ValueError, match=f"at mu = {mu} "):
            left_integral_endpoint_pole(f, mu)

    @pytest.mark.parametrize("mu", [
        pytest.param(mu, marks=pytest.mark.xfail(strict=True, reason=(
            "the lag-1 Gauss-Jacobi rule of weight x^(mu-1) loses its x-moments at tiny "
            "mu: V[63, 62] is 80% low at mu = 1e-300 and 1.6e-8 low at 1e-8")))
        for mu in (1e-300, 1e-8)] + [5.0, 50.0])
    def test_large_order_inside_the_float_range(self, mu):
        # the range check refuses none of these orders, tiny or large; their
        # weights against 40 digits
        grid = TimeGrid(1.0, 64)
        V = fracops._endpoint_pole_weight_matrix(grid, mu)
        for i, j in [(63, 0), (63, 62), (63, 63), (2, 1)]:
            assert V[i, j] == pytest.approx(_mp_pole_weight(grid, mu, i, j), rel=1e-13, abs=0.0)


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
        (lambda f: rl_right_derivative(f, 1.5), 0.3, 0.7),
        (lambda f: caputo_right_derivative(f, 0.5), 0.3, 0.5),
        (lambda f: caputo_right_derivative(f, 1.5), 1.3, 1.5),
        (lambda f: left_integral_endpoint_pole(f, 0.5), -0.4, 0.3),
    ], ids=["left_frac_integral", "right_frac_integral", "time_derivative",
            "time_derivative_2", "rl_left_derivative", "rl_left_derivative_wave",
            "caputo_left_derivative", "caputo_left_derivative_wave", "rl_right_derivative",
            "rl_right_derivative_wave", "caputo_right_derivative",
            "caputo_right_derivative_wave", "left_integral_endpoint_pole"])
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


# every kernel, on a field without terms
KERNELS = {
    "left_frac_integral": lambda f: left_frac_integral(f, 0.5),
    "right_frac_integral": lambda f: right_frac_integral(f, 0.5),
    "time_derivative": lambda f: time_derivative(f),
    "time_derivative_2": lambda f: time_derivative(f, 2),
    "rl_left_derivative": lambda f: rl_left_derivative(f, 0.5),
    "rl_right_derivative": lambda f: rl_right_derivative(f, 1.5),
    "caputo_left_derivative": lambda f: caputo_left_derivative(f, 1.5),
    "caputo_right_derivative": lambda f: caputo_right_derivative(f, 0.5),
    "caputo_right_derivative_wave": lambda f: caputo_right_derivative(f, 1.5),
    "gl_left_derivative": lambda f: gl_left_derivative(f, 0.5),
    "reverse": fracops._reverse,
    "j_integral": lambda f: j_integral(f, f, 0.5),
    "left_integral_endpoint_pole": lambda f: left_integral_endpoint_pole(f, 0.5),
}


def write_csv(tmp_path, x, n_steps=8, t=None):
    """A field CSV of zeros, as to_csv writes it, with x nodes x and t nodes t
    (those of TimeGrid(1, n_steps) when t is None)."""
    path = tmp_path / "field.csv"
    header = "t\\x," + ",".join(f"{xv:.17g}" for xv in x)
    t = TimeGrid(1.0, n_steps).nodes() if t is None else np.asarray(t)
    rows = np.column_stack([t, np.zeros((len(t), len(x)))])
    np.savetxt(path, rows, fmt="%.17g", delimiter=",", header=header, comments="")
    return str(path)


class TestSpaceField:
    """A TimeSeries with space nodes x: checks, space derivatives, CSV I/O."""

    def _field(self):
        tgrid = TimeGrid(1.0, 8)
        x = SpaceGrid(0.0, 1.0, 4)
        vals = np.outer(tgrid.nodes(), x.nodes())
        return TimeSeries(tgrid, vals, x=x)

    def test_shape_validation(self, tmp_path):
        tgrid = TimeGrid(1.0, 8)
        x = SpaceGrid(0.0, 1.0, 4)
        with pytest.raises(ValueError, match="one row per grid node"):
            TimeSeries(tgrid, np.zeros((3, 5)), x=x)
        with pytest.raises(ValueError, match=r"values shape must be \(n_steps\+1, n_x\+1\)"):
            TimeSeries(tgrid, np.zeros((9, 4)), x=x)
        with pytest.raises(ValueError, match="x must be a SpaceGrid, got ndarray"):
            TimeSeries(tgrid, np.zeros((9, 5)), x=x.nodes())
        with pytest.raises(ValueError, match="x must be a 1-D array with at least two nodes"):
            TimeSeries.from_csv(write_csv(tmp_path, [0.0]))

    @pytest.mark.parametrize("x_lo, x_hi", [(1.0, 1.0), (2.0, 1.0), (np.nan, 1.0),
                                            (0.0, np.inf), (-np.inf, 0.0)])
    def test_space_grid_needs_a_finite_interval(self, x_lo, x_hi):
        with pytest.raises(ValueError, match="^x_lo must be less than x_hi, both finite"):
            SpaceGrid(x_lo, x_hi, 4)

    @pytest.mark.parametrize("n_x", [0, -1, 4.0, 4.5, "4"])
    def test_space_grid_needs_a_whole_number_of_cells(self, n_x):
        with pytest.raises(ValueError, match="^n_x must be an integer >= 1"):
            SpaceGrid(0.0, 1.0, n_x)

    def test_space_grid_nodes_are_linspace_cached_read_only(self):
        x = SpaceGrid(-1.0, 2.0, np.int64(6))
        assert_bitwise_equal(x.nodes(), np.linspace(-1.0, 2.0, 7))
        assert x.h == x.nodes()[1] - x.nodes()[0]
        assert x.nodes() is SpaceGrid(-1.0, 2.0, 6).nodes()
        assert x == SpaceGrid(-1.0, 2.0, 6) and x != SpaceGrid(-1.0, 2.0, 7)
        with pytest.raises(ValueError, match="read-only"):
            x.nodes()[0] = 0.0

    @pytest.mark.parametrize("x", [
        [0.0, 0.1, 0.5, 0.6, 1.0],    # increasing, unequal steps
        [0.0, 0.5, 0.25, 0.75, 1.0],  # not monotone
        [1.0, 0.75, 0.5, 0.25, 0.0],  # equal steps, decreasing
        [0.5, 0.5, 0.5, 0.5, 0.5],    # no step
        list(np.linspace(0.0, 1.0, 5) + [0.0, 0.0, 1e-12, 0.0, 0.0]),
        [0.0, 0.25, 0.5, 0.75, np.nan],
        [0.0, 0.25, 0.5, np.inf, np.inf],
        [-np.inf, 0.25, 0.5, 0.75, 1.0],
    ], ids=["unequal", "unsorted", "decreasing", "constant", "off_by_1e-12", "nan", "inf",
            "minus_inf"])
    def test_space_nodes_must_be_uniform(self, tmp_path, x):
        # a CSV's nodes are the one node list the library reads: diff1, diff2
        # and the verifiers take hx = x[1] - x[0], and on the first x,
        # u = x^2 gave u_x = [-1.05, 1.25, 1.75, 3.75, 9.05], not 2x
        message = "all finite" if not np.isfinite(x).all() else "increasing with equal steps"
        with pytest.raises(ValueError, match=f"^x must be .*{message}$"):
            TimeSeries.from_csv(write_csv(tmp_path, x))

    @pytest.mark.parametrize("t, message", [
        ([0.0, 0.9, 0.95, 1.0], "t must be increasing with equal steps"),
        ([0.0, 0.5, 0.25, 1.0], "t must be increasing with equal steps"),
        ([0.5, 1.0, 1.5, 2.0], "t must start at 0, got 0.5"),
        ([0.0, 0.5, 1.0, np.nan], "t must be a 1-D array with at least two nodes, all finite"),
    ], ids=["unequal", "unsorted", "not_from_0", "nan"])
    def test_time_nodes_must_start_at_0_and_be_uniform(self, tmp_path, t, message):
        # the grid was read off the last t alone: [0, 0.9, 0.95, 1] loaded as
        # TimeGrid(1.0, 3), with nodes [0, 1/3, 2/3, 1]
        with pytest.raises(ValueError, match=f"^{message}$"):
            TimeSeries.from_csv(write_csv(tmp_path, [0.0, 0.5, 1.0], t=t))

    @pytest.mark.parametrize("T, n", [(1.0, 8), (np.pi, 3), (1e-3, 2 ** 12), (1e6, 100)])
    def test_linspace_time_nodes_accepted(self, tmp_path, T, n):
        grid = TimeGrid(T, n)
        u = TimeSeries.from_csv(write_csv(tmp_path, [0.0, 0.5, 1.0], t=grid.nodes()))
        assert u.grid == grid

    @pytest.mark.parametrize("lo, hi, n", [(0.0, np.pi, 8), (-1.0, 1.0, 2 ** 16),
                                           (1e6, 1e6 + 1e-3, 1000), (-7.0, -5.0, 1)])
    def test_linspace_nodes_accepted(self, tmp_path, lo, hi, n):
        x = SpaceGrid(lo, hi, n)
        u = TimeSeries.from_csv(write_csv(tmp_path, x.nodes()))
        assert u.x == x and u.hx == x.nodes()[1] - x.nodes()[0]

    def test_dx_field_on_separable_data(self):
        u = self._field()
        dux = u.dx_field()
        # d/dx (t x) = t
        assert np.allclose(dux.values, np.outer(u.grid.nodes(), np.ones(5)), atol=1e-12)

    def test_csv_round_trip(self, tmp_path):
        u = self._field()
        path = tmp_path / "field.csv"
        u.to_csv(str(path))
        back = TimeSeries.from_csv(str(path))
        assert back.grid == u.grid
        assert back.x == u.x
        assert np.allclose(back.values, u.values)

    def test_from_parts_round_trip(self):
        tgrid = TimeGrid(1.0, 8)
        x = SpaceGrid(0.0, 1.0, 4)
        term = SingularTerm(np.ones(5), -0.5)
        reg = np.outer(tgrid.nodes(), x.nodes())
        u = TimeSeries.from_parts(tgrid, reg, (term,), x=x)
        # the term is infinite at t = 0; the stored value there is 0
        assert u.values[0, 0] == 0.0
        assert np.allclose(u.regular_part(), reg)

    @pytest.mark.parametrize("name", sorted(KERNELS))
    def test_kernel_keeps_x(self, name):
        grid = TimeGrid(1.0, 16)
        x = SpaceGrid(0.0, 1.0, 4)
        t = grid.nodes()
        field = TimeSeries(grid, np.outer(np.cos(t) + t, 1.0 + x.nodes()), x=x)
        out = KERNELS[name](field)
        assert out.values.shape == field.values.shape
        assert out.x == x
        flat = KERNELS[name](TimeSeries(grid, np.cos(t) + t))
        assert flat.x is None and flat.values.ndim == 1

    @pytest.mark.parametrize("case", ["f_one_d", "g_one_d", "other_space_grid", "no_x"])
    def test_j_integral_refuses_fields_on_different_space_grids(self, case):
        # u on [0, 1] and v on [0, 2], 9 nodes each, once gave a field; a 1-D
        # factor once broadcast along the other's space axis; and without x,
        # a (17, 16) field times a 1-D one on 16 steps gave a (17, 16) field
        # of wrong values, the 1-D cells broadcast along the 16 columns
        grid = TimeGrid(1.0, 16)
        u, v = (TimeSeries(grid, np.ones((17, 9)), x=SpaceGrid(0.0, hi, 8)) for hi in (1.0, 2.0))
        flat = TimeSeries(grid, np.cos(grid.nodes()))
        f, g = {"f_one_d": (flat, u), "g_one_d": (u, flat), "other_space_grid": (u, v),
                "no_x": (TimeSeries(grid, np.ones((17, 16))), flat)}[case]
        with pytest.raises(ValueError, match="^fields are defined on different space grids: "):
            j_integral(f, g, 0.5)

    def test_space_methods_need_x(self, tmp_path):
        f = TimeSeries(TimeGrid(1.0, 8), np.arange(9.0))
        with pytest.raises(ValueError, match="no space axis"):
            f.hx
        with pytest.raises(ValueError, match="no space axis"):
            f.dx_field()
        with pytest.raises(ValueError, match="no space axis"):
            f.to_csv(str(tmp_path / "f.csv"))
        with pytest.raises(ValueError, match="space derivatives"):
            self._field().dx_field(3)

    def test_dx_field_2_differentiates_term_coefficients(self):
        grid = TimeGrid(1.0, 8)
        x = SpaceGrid(0.0, np.pi, 16)
        p = -0.5
        u = TimeSeries.from_parts(grid, np.zeros((9, 17)), (SingularTerm(np.sin(x.nodes()), p),), x)
        d2 = u.dx_field(2)
        (term,) = d2.singular
        assert term.power == p
        want = diff2(np.sin(x.nodes()), x.h)
        np.testing.assert_allclose(term.coeff, want, rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(d2.values[1:], np.outer(grid.nodes()[1:] ** p, want),
                                   rtol=0.0, atol=1e-12)
        assert d2.x == x

    def test_fields_compare_by_identity(self):
        u = self._field()
        assert u == u and u != self._field()
        assert len({u, u}) == 1


def dense_pl_weights(n, mu, h):
    """The product-integration weights of I^mu as a dense matrix, entry by entry."""
    W = np.zeros((n + 1, n + 1))
    for i in range(1, n + 1):
        W[i, i] = 1.0
        W[i, 0] = (i - 1.0) ** (mu + 1.0) - i ** (mu + 1.0) + (mu + 1.0) * i ** mu
        for j in range(1, i):
            k = i - j
            W[i, j] = (k + 1.0) ** (mu + 1.0) - 2.0 * k ** (mu + 1.0) + (k - 1.0) ** (mu + 1.0)
    return W * h ** mu / G(mu + 2.0)


def milli(bound):
    """Multiples of 1/1000 in [-bound, bound]: no magnitudes near underflow."""
    return st.integers(-1000 * bound, 1000 * bound).map(lambda k: k / 1000.0)


@st.composite
def fields(draw, n=None, columns=None):
    """(grid, samples): a grid of at most 40 steps and a random (n+1, m) field."""
    n = draw(st.integers(2, 40)) if n is None else n
    m = draw(st.integers(1, 4)) if columns is None else columns
    T = draw(st.floats(0.25, 4.0))
    vals = draw(hnp.arrays(float, (n + 1, m), elements=milli(10)))
    return TimeGrid(T, n), vals


orders = st.floats(0.05, 1.95)
alphas = st.floats(0.05, 1.95).filter(lambda a: abs(a - 1.0) > 1e-3)


def assert_close(got, want, scale, rel=1e-13):
    assert np.max(np.abs(got - want)) <= rel * np.max(scale)


class TestKernelProperties:
    """Hypothesis properties of the lag-convolution kernels on small grids."""

    @given(fields(), orders)
    def test_left_integral_matches_dense_weights(self, field, mu):
        grid, F = field
        W = dense_pl_weights(grid.n_steps, mu, grid.h)
        got = left_frac_integral(TimeSeries(grid, F), mu).values
        assert_close(got, W @ F, np.abs(W) @ np.abs(F))

    @given(fields(), orders)
    def test_left_integral_column_by_column(self, field, mu):
        grid, F = field
        got = left_frac_integral(TimeSeries(grid, F), mu).values
        cols = [left_frac_integral(TimeSeries(grid, F[:, j]), mu).values for j in range(F.shape[1])]
        scale = left_frac_integral(TimeSeries(grid, np.abs(F)), mu).values
        assert_close(got, np.column_stack(cols), scale)

    @given(st.data(), alphas)
    def test_j_integral_column_by_column(self, data, alpha):
        grid, F = data.draw(fields())
        G_ = data.draw(fields(grid.n_steps, F.shape[1]))[1]
        got = j_integral(TimeSeries(grid, F), TimeSeries(grid, G_), alpha).values
        cols = [j_integral(TimeSeries(grid, F[:, j]), TimeSeries(grid, G_[:, j]), alpha).values
                for j in range(F.shape[1])]
        scale = j_integral(TimeSeries(grid, np.abs(F)), TimeSeries(grid, np.abs(G_)), alpha).values
        assert_close(got, np.column_stack(cols), scale)

    @given(st.data(), alphas)
    def test_j_integral_matches_cell_pair_loop(self, data, alpha):
        # J(t_i) sums the cell-pair integrals of tau-cells p < i and mu-cells
        # q >= i: h^{beta+1} sum_ab kappa[a, b, q - p] f_{p+a} g_{q+b}
        grid, F = data.draw(fields(n=data.draw(st.integers(2, 16)), columns=1))
        G_ = data.draw(fields(grid.n_steps, 1))[1]
        f, g = F[:, 0], G_[:, 0]
        n, beta = grid.n_steps, math.ceil(alpha) - alpha
        kappa = fracops._j_lag_kernels(n, beta)
        want, scale = np.zeros(n + 1), np.zeros(n + 1)
        for i in range(1, n + 1):
            for p in range(i):
                for q in range(i, n):
                    for a in (0, 1):
                        for b in (0, 1):
                            term = kappa[a, b, q - p] * f[p + a] * g[q + b]
                            want[i] += term
                            scale[i] += abs(term)
        h_pow = grid.h ** (beta + 1.0) / G(beta)
        got = j_integral(TimeSeries(grid, f), TimeSeries(grid, g), alpha).values
        assert_close(got, h_pow * want, h_pow * scale)

    @given(st.data(), alphas, milli(3), milli(3), st.booleans())
    def test_j_integral_bilinear(self, data, alpha, a, b, in_g):
        grid, F1 = data.draw(fields())
        F2, G_ = (data.draw(fields(grid.n_steps, F1.shape[1]))[1] for _ in range(2))

        def J(x, y):
            x, y = TimeSeries(grid, x), TimeSeries(grid, y)
            return (j_integral(y, x, alpha) if in_g else j_integral(x, y, alpha)).values

        scale = J(np.abs(a * F1) + np.abs(b * F2), np.abs(G_))
        assert_close(J(a * F1 + b * F2, G_), a * J(F1, G_) + b * J(F2, G_), scale)

    @given(st.floats(0.25, 4.0), st.integers(2, 40), st.floats(-0.95, 2.0), orders, orders)
    def test_semigroup_on_start_power(self, T, n, p, a, b):
        grid = TimeGrid(T, n)
        f = TimeSeries.from_parts(grid, np.zeros(n + 1), (SingularTerm(1.0, p),))
        twice = left_frac_integral(left_frac_integral(f, b), a)
        once = left_frac_integral(f, a + b)
        (t2,), (t1,) = twice.singular, once.singular
        assert t2.power == pytest.approx(t1.power, rel=1e-14)
        assert t2.coeff == pytest.approx(t1.coeff, rel=1e-13)
        assert_close(twice.values, once.values, np.abs(once.values))


class TestCausalConv:
    """The lag convolution behind the integral and J: a dense Toeplitz product up to
    257 rows, an FFT above; the FFT's length, and the sums of both."""

    def test_transform_length_is_the_least_5_smooth_number(self):
        def smooth(m):
            for p in (2, 3, 5):
                while m % p == 0:
                    m //= p
            return m == 1

        want = 5400  # 5-smooth, and above every n below
        for n in range(5000, 0, -1):
            want = n if smooth(n) else want
            assert fracops._smooth_length(n) == want, n

    @pytest.mark.parametrize("rows", [2, 5, 17, 33, 513, 514, 1031])
    @pytest.mark.parametrize("columns", [None, 3], ids=["1d", "2d"])
    def test_matches_direct_causal_sum(self, rows, columns):
        rng = np.random.default_rng(rows)
        k = rng.standard_normal(rows + 2)  # lags beyond the rows go unused
        F = rng.standard_normal(rows if columns is None else (rows, columns))
        lags = np.subtract.outer(np.arange(rows), np.arange(rows))
        toeplitz = np.where(lags >= 0, k[np.maximum(lags, 0)], 0.0)
        want = toeplitz @ F
        got = fracops._causal_conv(k, F)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    @given(st.integers(2, 600), st.sampled_from([None, 1, 3]), st.integers(0, 2),
           st.integers(0, 2 ** 32 - 1), st.floats(-20.0, 20.0))
    @example(257, 3, 2, 0, 0.0)
    @example(258, None, 2, 1, 0.0)
    def test_matches_direct_sum(self, rows, columns, zeros, seed, scale):
        # rows on both sides of the dense product's limit, and lags whose first
        # ones are 0, as in J's start-power kernels
        rng = np.random.default_rng(seed)
        k = rng.standard_normal(rows + 1) * 2.0 ** scale
        k[:zeros] = 0.0
        F = rng.standard_normal(rows if columns is None else (rows, columns))
        want = np.array([k[i::-1] @ F[:i + 1] for i in range(rows)])
        got = fracops._causal_conv(k, F)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-13 * np.abs(k[:rows]).sum() * np.abs(F).max()

    @pytest.mark.parametrize("rows", [2, 129, 257, 258, 513])
    @pytest.mark.parametrize("columns", [None, 3], ids=["1d", "2d"])
    def test_dense_up_to_257_rows_fft_bitwise_above(self, monkeypatch, rows, columns):
        rng = np.random.default_rng(rows)
        k = rng.standard_normal(rows)
        F = rng.standard_normal(rows if columns is None else (rows, columns))
        # the FFT convolution that every size took before the dense product
        size = fracops._smooth_length(2 * rows - 1)
        k_hat = np.fft.rfft(k, size).reshape((-1,) + (1,) * (F.ndim - 1))
        want = np.fft.irfft(k_hat * np.fft.rfft(F, size, axis=0), size, axis=0)[:rows]
        calls = []
        for name in ("rfft", "irfft"):
            fn = getattr(np.fft, name)
            monkeypatch.setattr(np.fft, name, lambda *a, fn=fn, **kw: calls.append(fn) or fn(*a, **kw))
        got = fracops._causal_conv(k, F)
        assert got.shape == want.shape
        if rows <= 257:
            assert not calls
        else:
            assert len(calls) == 3 and got.tobytes() == want.tobytes()


class TestMemory:
    """The regular-data paths and J keep O(n) weights: no (n+1)^2 array is formed.
    The endpoint-pole weights are dense, and the matrix is their peak."""

    LIMIT = 16 * 2 ** 20  # a dense W at n = 8192 would be 537 MB

    @staticmethod
    def peak_bytes(fn):
        for cached in (fracops._pl_weights, fracops._j_lag_kernels, fracops._nodes,
                       fracops._power_samples, fracops._endpoint_pole_weight_matrix,
                       fracops._gauss_jacobi01):
            cached.cache_clear()
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_left_integral(self):
        n = 8192
        f = TimeSeries(TimeGrid(1.0, n), np.random.default_rng(0).standard_normal((n + 1, 4)))
        assert self.peak_bytes(lambda: left_frac_integral(f, 0.5)) < self.LIMIT

    def test_j_integral(self):
        n = 4096
        rng = np.random.default_rng(1)
        f, g = (TimeSeries(TimeGrid(1.0, n), rng.standard_normal((n + 1, 4))) for _ in range(2))
        assert self.peak_bytes(lambda: j_integral(f, g, 0.5)) < self.LIMIT

    def test_j_integral_with_terms(self):
        # the power-term sums of both factors are lag correlations: no
        # (n+1)^2 weights, where the 2F1 matrices peaked near 259 MiB
        n = 2048
        grid, x = TimeGrid(1.0, n), SpaceGrid(0.0, 1.0, 3)
        rng = np.random.default_rng(2)
        f = TimeSeries.from_parts(grid, rng.standard_normal((n + 1, 4)),
                                  tuple(SingularTerm(rng.standard_normal(4), p) for p in
                                        (-0.5, 0.0, 0.5)), x)
        g = TimeSeries.from_parts(grid, rng.standard_normal((n + 1, 4)),
                                  (SingularTerm(rng.standard_normal(4), -0.5, "end"),), x)
        assert self.peak_bytes(lambda: j_integral(f, g, 0.5)) < self.LIMIT

    def test_endpoint_pole_weights_peak_at_the_matrix(self):
        # the dense weights are filled one lag at a time, in place: the
        # matrix itself is the peak, where the 2F1 form held several of its size
        n = 2048
        build = lambda: fracops._endpoint_pole_weight_matrix(TimeGrid(1.0, n), 0.5)
        assert self.peak_bytes(build) < 1.25 * (n + 1) ** 2 * 8
