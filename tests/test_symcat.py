import mpmath
import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from fraccons.fracops import FractionalSpec, Kind, SingularTerm, SpaceGrid, TimeGrid, TimeSeries
from fraccons.symcat import (
    _GENERATORS,
    _REGIMES,
    SUBSTITUTION_REGIMES,
    AdjointSubstitution,
    adjoint_residual,
    characteristic,
    list_symmetries,
    rl_extra_beta,
    Symmetry,
)
from fraccons.tfde import (
    Diffusivity,
    exact_linear_separable,
    exact_rl_power_mode,
    exact_stationary_caputo,
)

RL = Kind.RIEMANN_LIOUVILLE
CAP = Kind.CAPUTO


def ids(syms):
    return [s.id for s in syms]


class TestListSymmetries:
    def test_constant_diffusivity_linear_case(self):
        syms = list_symmetries(CAP, 0.5, Diffusivity.constant(1.0))
        assert ids(syms) == ["X1", "X2", "X3_lin", "Xinf"]

    def test_generic_power_diffusivity(self):
        syms = list_symmetries(CAP, 1.5, Diffusivity.power(7.0))
        assert ids(syms) == ["X1", "X2", "X3_pow"]

    def test_power_minus_four_thirds_extra_generator(self):
        syms = list_symmetries(CAP, 0.5, Diffusivity.power(-4.0 / 3.0))
        assert ids(syms) == ["X1", "X2", "X3_pow", "X4_pow43"]

    def test_rl_extra_beta_value(self):
        assert rl_extra_beta(1.5) == pytest.approx(-6.0)
        assert rl_extra_beta(0.5) == pytest.approx(2.0)

    def test_rl_special_exponent_admits_time_generator(self):
        beta = rl_extra_beta(0.5)
        syms = list_symmetries(RL, 0.5, Diffusivity.power(beta))
        assert "X4_rl" in ids(syms)

    def test_caputo_special_exponent_is_conditional(self):
        # listed for alpha in (1,2), where it holds for data with u_t(0, x) = 0
        assert "X4_rl" in ids(list_symmetries(CAP, 1.5, Diffusivity.power(rl_extra_beta(1.5))))
        assert "X4_rl" not in ids(list_symmetries(CAP, 0.5,
                                                  Diffusivity.power(rl_extra_beta(0.5))))

    def test_exponential_diffusivity(self):
        assert "X3_exp" in ids(list_symmetries(CAP, 0.5, Diffusivity.exponential()))
        assert "X3_exp" not in ids(list_symmetries(RL, 0.5, Diffusivity.exponential()))

    def test_alpha_validation(self):
        with pytest.raises(ValueError):
            list_symmetries(CAP, 1.0, Diffusivity.constant(1.0))


class TestCharacteristic:
    def _linear_field(self, alpha=0.5):
        # u = t x: u_t = x, u_x = t
        tgrid = TimeGrid(1.0, 32)
        x = SpaceGrid(0.0, 1.0, 16)
        vals = np.outer(tgrid.nodes(), x.nodes())
        return TimeSeries(tgrid, vals, x=x)

    def test_x1_is_space_derivative(self):
        u = self._linear_field()
        sym = next(s for s in list_symmetries(CAP, 0.5, Diffusivity.constant(1.0))
                   if s.id == "X1")
        w = characteristic(sym, u)
        ref = np.tile(u.grid.nodes()[:, None], (1, u.x.n_x + 1))
        assert np.max(np.abs(w.values - ref)) < 1e-12

    def test_x2_on_separable_field(self):
        # W2 = 2 t u_t + alpha x u_x = (2 + alpha) t x on u = t x
        alpha = 0.5
        u = self._linear_field()
        sym = next(s for s in list_symmetries(CAP, alpha, Diffusivity.constant(1.0))
                   if s.id == "X2")
        w = characteristic(sym, u)
        ref = (2.0 + alpha) * u.values
        assert np.max(np.abs(w.values - ref)) < 1e-12

    def test_x3_linear_is_identity(self):
        u = self._linear_field()
        sym = next(s for s in list_symmetries(CAP, 0.5, Diffusivity.constant(1.0))
                   if s.id == "X3_lin")
        w = characteristic(sym, u)
        assert np.allclose(w.values, u.values, rtol=0.0, atol=1e-14) and not w.singular

    def test_xinf_returns_supplied_solution(self):
        u = self._linear_field()
        h = exact_linear_separable(FractionalSpec(CAP, 0.5), 1.0, u.grid, u.x)
        sym = next(s for s in list_symmetries(CAP, 0.5, Diffusivity.constant(1.0), h=h)
                   if s.id == "Xinf")
        assert characteristic(sym, u) is h

    def test_x4_rl_propagates_power_terms(self):
        # On u = c t^{alpha-1}: W = (alpha-1) t u - t^2 u_t = 0 exactly.
        alpha = 0.5
        tgrid = TimeGrid(1.0, 32)
        x = SpaceGrid(0.0, 1.0, 8)
        u = exact_rl_power_mode(alpha, 0.7, tgrid, x)
        beta = rl_extra_beta(alpha)
        sym = next(s for s in list_symmetries(RL, alpha, Diffusivity.power(beta))
                   if s.id == "X4_rl")
        w = characteristic(sym, u)
        assert np.max(np.abs(w.regular_part())) < 1e-12
        assert all(np.max(np.abs(t.coeff)) < 1e-12 for t in w.singular)

    @pytest.mark.parametrize("sym_id", ["X1", "X2", "X3_lin", "Xinf", "X3_pow",
                                        "X3_exp", "X4_pow43", "X4_rl"])
    def test_matches_own_coefficients(self, sym_id):
        # u = (1+t)(2+x) + 0.3 t x is linear in t and in x, so diff1 is exact
        # and W = eta - xi0 u_t - xi1 u_x follows from the symmetry's callables
        tgrid = TimeGrid(1.0, 8)
        x = SpaceGrid(0.0, 1.0, 5)
        t, xx = tgrid.nodes()[:, None], x.nodes()[None, :]
        u = TimeSeries(tgrid, (1.0 + t) * (2.0 + xx) + 0.3 * t * xx, x=x)
        h = TimeSeries(tgrid, np.sin(t + 2.0 * xx), x=x)
        sym = Symmetry(sym_id, 1.5, beta=-4.0 / 3.0, h=h)
        u_t, u_x = 2.0 + 1.3 * xx, 1.0 + 1.3 * t
        ref = (sym.eta(t, xx, u.values) - sym.xi0(t, xx, u.values) * u_t
               - sym.xi1(t, xx, u.values) * u_x)
        assert np.allclose(characteristic(sym, u).values, ref, rtol=0.0, atol=1e-12)


    @pytest.mark.parametrize("sym_id", sorted(_GENERATORS))
    def test_start_terms_scale_by_shifted_power(self, sym_id):
        # W = eta - xi0 u_t - xi1 u_x of the term u = c(x) t^p, from the
        # generator's own callables, is 2^(p + shift) times larger at t = 2
        # than at t = 1; characteristic carries it as c~ t^(p + shift)
        p = -0.3
        tgrid = TimeGrid(1.0, 8)
        grid_x = SpaceGrid(0.5, 1.5, 5)
        x = grid_x.nodes()
        c, c_x = 1.0 + x ** 2, 2.0 * x  # diff1 is exact on quadratics
        h = TimeSeries(tgrid, np.sin(tgrid.nodes()[:, None] + x[None, :]), x=grid_x)
        sym = Symmetry(sym_id, 1.5, beta=-4.0 / 3.0, h=h)

        def w_term(t):
            u = c * t ** p
            return (sym.eta(t, x, u) - sym.eta(t, x, 0.0 * u)
                    - sym.xi0(t, x, u) * p * c * t ** (p - 1.0) - sym.xi1(t, x, u) * c_x * t ** p)

        scale = 2.0 ** (p + sym.shift)
        assert np.allclose(w_term(2.0), scale * w_term(1.0), rtol=1e-14, atol=1e-14)
        if sym_id == "Xinf":
            return  # W is the field h itself
        u = TimeSeries.from_parts(tgrid, np.zeros((9, 6)), (SingularTerm(c, p),), x=grid_x)
        (image,) = characteristic(sym, u).singular
        assert image.power == p + sym.shift
        assert np.allclose(image.coeff, w_term(1.0), rtol=1e-13, atol=1e-13)

    def test_symmetry_holding_h_is_hashable(self):
        # a field compares by identity, so a Symmetry that holds one hashes
        tgrid = TimeGrid(1.0, 8)
        x = SpaceGrid(0.0, 1.0, 5)
        h = TimeSeries(tgrid, np.sin(tgrid.nodes()[:, None] + x.nodes()[None, :]), x=x)
        assert len({Symmetry("Xinf", 0.5, h=h), Symmetry("Xinf", 0.5, h=h)}) == 1


class TestAdjointSubstitution:
    def test_regime_validation(self):
        spec = FractionalSpec(RL, 0.5)
        with pytest.raises(ValueError):
            AdjointSubstitution("bogus", spec, c1=1.0)
        with pytest.raises(ValueError):
            AdjointSubstitution("RL_sub", spec)  # all constants zero
        with pytest.raises(ValueError):
            AdjointSubstitution("RL_wave", spec, c1=1.0)  # alpha < 1
        with pytest.raises(ValueError):
            AdjointSubstitution("Caputo_sub", spec, c1=1.0)  # kind mismatch

    def test_regime_tuple_is_stable(self):
        assert SUBSTITUTION_REGIMES == ("RL_sub", "RL_wave", "Caputo_sub", "Caputo_wave")

    @pytest.mark.parametrize("regime, kind, const", [
        ("RL_sub", RL, "c3"), ("RL_sub", RL, "c4"),
        ("Caputo_sub", CAP, "c3"), ("Caputo_sub", CAP, "c4")])
    def test_constant_past_c2n_rejected(self, regime, kind, const):
        # a sub regime takes c1 and c2; a further constant would be dropped silently
        spec = FractionalSpec(kind, 0.5)
        with pytest.raises(ValueError, match="c1, c2 only"):
            AdjointSubstitution(regime, spec, **{const: 1.0})
        with pytest.raises(ValueError, match="c1, c2 only"):
            AdjointSubstitution(regime, spec, c1=1.0, **{const: 1.0})

    def test_rl_sub_field_is_affine_in_x(self):
        spec = FractionalSpec(RL, 0.5)
        sub = AdjointSubstitution("RL_sub", spec, c1=2.0, c2=3.0)
        tgrid = TimeGrid(1.0, 8)
        x = SpaceGrid(0.0, 1.0, 4)
        v = sub.field(tgrid, x)
        assert np.allclose(v.values, 2.0 + 3.0 * x.nodes()[None, :])
        assert np.allclose(sub.field(tgrid, x, 1).values, 0.0)

    def test_caputo_sub_field_carries_end_power(self):
        spec = FractionalSpec(CAP, 0.5)
        sub = AdjointSubstitution("Caputo_sub", spec, c1=1.0)
        tgrid = TimeGrid(1.0, 8)
        x = SpaceGrid(0.0, 1.0, 4)
        v = sub.field(tgrid, x)
        t = tgrid.nodes()[:-1]
        assert np.allclose(v.values[:-1, 0], (1.0 - t) ** -0.5)
        assert len(v.singular) == 1 and v.singular[0].anchor == "end"


    @staticmethod
    def _closed_form(regime, a, T, c1, c2, c3, c4):
        # the forms of the AdjointSubstitution docstring, as functions of (t, x)
        return {
            "RL_sub": lambda t, x: c1 + c2 * x,
            "RL_wave": lambda t, x: c1 + c2 * x + (c3 + c4 * x) * t,
            "Caputo_sub": lambda t, x: (T - t) ** (a - 1) * (c1 + c2 * x),
            "Caputo_wave": lambda t, x: (T - t) ** (a - 2) * (c1 + c3 * x + (T - t) * (c2 + c4 * x)),
        }[regime]

    @given(regime=st.sampled_from(SUBSTITUTION_REGIMES), frac=st.floats(0.05, 0.95),
           T=st.floats(0.5, 2.0), cs=st.lists(st.floats(-2.0, 2.0), min_size=4, max_size=4),
           order=st.integers(0, 2))
    def test_field_is_the_derivative_of_the_closed_form(self, regime, frac, T, cs, order):
        kind, n, _ = _REGIMES[regime]
        cs = cs[:2 * n] + [0.0] * (4 - 2 * n)  # the regime takes c1..c_2n
        assume(any(cs))
        alpha = frac + (n - 1.0)
        sub = AdjointSubstitution(regime, FractionalSpec(kind, alpha), *cs)
        tgrid = TimeGrid(T, 8)
        x = SpaceGrid(0.0, 1.0, 4)
        v = sub.field(tgrid, x, order)
        assert all(tm.power > -1.0 and not float(tm.power).is_integer() for tm in v.singular)
        f = self._closed_form(regime, mpmath.mpf(alpha), mpmath.mpf(T), *map(mpmath.mpf, cs))
        with mpmath.workdps(30):
            ref = np.array([[float(mpmath.diff(lambda t: f(t, mpmath.mpf(xj)), mpmath.mpf(ti), order))
                             for xj in x.nodes()] for ti in tgrid.nodes()[1:-1]])
        err = np.max(np.abs(v.values[1:-1] - ref))
        assert err <= 1e-10 * (1.0 + np.max(np.abs(ref)))


class TestAdjointResidual:
    def _grid(self, n=64):
        return TimeGrid(1.0, n), SpaceGrid(0.0, 1.0, 32)

    # regime -> (time steps, tolerance) on the stationary k = u^2 solution
    _ADJOINT_CASES = {"RL_sub": (64, 1e-12), "RL_wave": (64, 1e-12),
                      "Caputo_sub": (64, 1e-10), "Caputo_wave": (128, 1e-6)}

    @pytest.mark.parametrize("regime", SUBSTITUTION_REGIMES)
    def test_substitution_solves_adjoint(self, regime):
        kind, n, _ = _REGIMES[regime]
        steps, tol = self._ADJOINT_CASES[regime]
        spec = FractionalSpec(kind, n - 0.5)
        d = Diffusivity.power(2.0)
        tgrid, x = self._grid(steps)
        u = exact_stationary_caputo(d, 0.1, 1.0, tgrid, x)
        sub = AdjointSubstitution(regime, spec, *[1.0] * (2 * n))
        res = adjoint_residual(sub.field(tgrid, x), u, d, spec)
        assert np.max(np.abs(res.values[1:-1, 1:-1])) < tol

    def test_nonsolution_has_large_residual(self):
        # sanity: a generic field does not satisfy the adjoint equation
        spec = FractionalSpec(RL, 0.5)
        d = Diffusivity.power(2.0)
        tgrid, x = self._grid()
        u = exact_stationary_caputo(d, 0.1, 1.0, tgrid, x)
        v = TimeSeries(tgrid, np.outer(np.cos(tgrid.nodes()), np.cos(3.0 * x.nodes())), x=x)
        res = adjoint_residual(v, u, d, spec)
        assert np.max(np.abs(res.values[1:-1, 1:-1])) > 1e-2

    @pytest.mark.parametrize("u_space", [SpaceGrid(0.0, 1.0, 16), None], ids=["other", "none"])
    def test_fields_on_different_space_grids_refused(self, u_space):
        # v on [0, 2] and u on [0, 1], 17 nodes each: only the shapes were
        # compared; a 1-D u of 17 rows would broadcast along v's 17 columns
        spec = FractionalSpec(RL, 0.5)
        d = Diffusivity.power(2.0)
        tgrid = TimeGrid(1.0, 16)
        u = (TimeSeries(tgrid, np.ones(17)) if u_space is None
             else exact_stationary_caputo(d, 0.1, 1.0, tgrid, u_space))
        v = AdjointSubstitution("RL_sub", spec, c1=1.0).field(tgrid, SpaceGrid(0.0, 2.0, 16))
        with pytest.raises(ValueError, match="different space grids"):
            adjoint_residual(v, u, d, spec)
