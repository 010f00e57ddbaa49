
import numpy as np
import pytest

from fraccons.fracops import FractionalSpec, Kind, SingularTerm, TimeGrid
from fraccons.tfde import (
    Diffusivity,
    DiffusivityFamily,
    GridFunction,
    SolverError,
    TFDEProblem,
    exact_linear_separable,
    exact_rl_power_mode,
    exact_rl_separable,
    exact_stationary_caputo,
    solve_nonlinear,
    tfde_residual,
)


class TestDiffusivity:
    def test_constant_family(self):
        d = Diffusivity.constant(2.0)
        u = np.array([0.5, 1.0, 3.0])
        assert np.allclose(d.k(u), 2.0)
        assert np.allclose(d.k_prime(u), 0.0)
        assert np.allclose(d.K(u), 2.0 * u)
        assert np.allclose(d.K_inv(d.K(u)), u)

    def test_power_family(self):
        d = Diffusivity.power(2.0)
        u = np.array([0.5, 1.0, 2.0])
        assert np.allclose(d.k(u), u ** 2)
        assert np.allclose(d.k_prime(u), 2.0 * u)
        assert np.allclose(d.K(u), u ** 3 / 3.0)
        assert np.allclose(d.K_inv(d.K(u)), u)

    def test_negative_power_family(self):
        d = Diffusivity.power(-4.0 / 3.0)
        u = np.array([0.5, 1.0, 2.0])
        assert np.allclose(d.K_inv(d.K(u)), u)

    def test_exponential_family(self):
        d = Diffusivity.exponential()
        u = np.array([-1.0, 0.0, 1.5])
        assert np.allclose(d.k(u), np.exp(u))
        assert np.allclose(d.k_prime(u), np.exp(u))
        assert np.allclose(d.K_inv(d.K(u)), u)

    def test_k_inv_range_checks(self):
        with pytest.raises(ValueError):
            Diffusivity.power(2.0).K_inv(np.array([-1.0]))
        with pytest.raises(ValueError):
            Diffusivity.exponential().K_inv(np.array([0.0]))

    def test_validation(self):
        with pytest.raises(ValueError):
            Diffusivity.constant(0.0)
        with pytest.raises(ValueError):
            Diffusivity(DiffusivityFamily.POWER, beta=0.0)


class TestGridFunction:
    def _field(self):
        tgrid = TimeGrid(1.0, 8)
        x = np.linspace(0.0, 1.0, 5)
        vals = np.outer(tgrid.nodes(), x)
        return GridFunction(tgrid, x, vals)

    def test_shape_validation(self):
        tgrid = TimeGrid(1.0, 8)
        x = np.linspace(0.0, 1.0, 5)
        with pytest.raises(ValueError):
            GridFunction(tgrid, x, np.zeros((3, 5)))

    def test_dx_field_on_separable_data(self):
        u = self._field()
        dux = u.dx_field()
        # d/dx (t x) = t
        assert np.allclose(dux.values, np.outer(u.grid.nodes(), np.ones(5)), atol=1e-12)

    def test_csv_round_trip(self, tmp_path):
        u = self._field()
        path = tmp_path / "field.csv"
        u.to_csv(str(path))
        back = GridFunction.from_csv(str(path))
        assert back.grid == u.grid
        assert np.allclose(back.x, u.x)
        assert np.allclose(back.values, u.values)

    def test_from_parts_round_trip(self):
        tgrid = TimeGrid(1.0, 8)
        x = np.linspace(0.0, 1.0, 5)
        term = SingularTerm(np.ones(5), -0.5)
        reg = np.outer(tgrid.nodes(), x)
        u = GridFunction.from_parts(tgrid, reg, (term,), x=x)
        # the term is infinite at t = 0; the stored value there is 0
        assert u.values[0, 0] == 0.0
        assert np.allclose(u.regular_part(), reg)


class TestExactSolutions:
    def test_caputo_linear_mode_satisfies_equation(self):
        spec = FractionalSpec(Kind.CAPUTO, 0.5, 1.0)
        tgrid = TimeGrid(1.0, 128)
        x = np.linspace(0.0, np.pi, 65)
        u = exact_linear_separable(spec, 1.0, tgrid, x)
        prob = TFDEProblem(spec, Diffusivity.constant(1.0), 0.0, np.pi,
                           initial=lambda xx: np.sin(xx))
        res = tfde_residual(u, prob)
        # interior residual: spatial truncation O(hx^2) plus the fractional
        # quadrature error; both small on this grid
        assert np.max(np.abs(res.values[2:-2, 1:-1])) < 5e-3

    def test_rl_power_mode_is_annihilated(self):
        tgrid = TimeGrid(1.0, 64)
        x = np.linspace(0.0, 1.0, 17)
        u = exact_rl_power_mode(0.5, 0.7, tgrid, x)
        spec = FractionalSpec(Kind.RIEMANN_LIOUVILLE, 0.5, 1.0)
        prob = TFDEProblem(spec, Diffusivity.constant(1.0), 0.0, 1.0,
                           initial=lambda xx: np.full_like(xx, 0.7))
        res = tfde_residual(u, prob)
        assert np.max(np.abs(res.values[1:, :])) < 1e-12

    def test_stationary_caputo_satisfies_equation(self):
        d = Diffusivity.power(1.0)
        tgrid = TimeGrid(1.0, 32)
        x = np.linspace(0.0, 1.0, 257)
        u = exact_stationary_caputo(d, 0.1, 1.0, tgrid, x)
        spec = FractionalSpec(Kind.CAPUTO, 0.5, 1.0)
        prob = TFDEProblem(spec, d, 0.0, 1.0, initial=lambda xx: d.K_inv(0.1 * xx + 1.0))
        res = tfde_residual(u, prob)
        assert np.max(np.abs(res.values[1:, 1:-1])) < 1e-7

    def test_rl_separable_satisfies_equation(self):
        d = Diffusivity.power(2.0)
        alpha = 0.5
        tgrid = TimeGrid(1.0, 64)
        x = np.linspace(0.0, 1.0, 129)
        u = exact_rl_separable(d, alpha, 0.5, 1.0, tgrid, x)
        spec = FractionalSpec(Kind.RIEMANN_LIOUVILLE, alpha, 1.0)
        prob = TFDEProblem(spec, d, 0.0, 1.0, initial=lambda xx: d.K_inv(0.5 * xx + 1.0))
        res = tfde_residual(u, prob)
        assert np.max(np.abs(res.values[1:, 1:-1])) < 1e-6

    def test_rl_separable_requires_power_family(self):
        tgrid = TimeGrid(1.0, 8)
        x = np.linspace(0.0, 1.0, 5)
        with pytest.raises(ValueError):
            exact_rl_separable(Diffusivity.constant(1.0), 0.5, 0.5, 1.0, tgrid, x)


class TestSolver:
    def test_caputo_linear_converges_to_exact(self):
        spec = FractionalSpec(Kind.CAPUTO, 0.5, 1.0)
        d = Diffusivity.constant(1.0)
        prob = TFDEProblem(spec, d, 0.0, np.pi,
                           initial=lambda xx: np.sin(xx),
                           boundary_lo=lambda t: 0.0, boundary_hi=lambda t: 0.0)
        errs = []
        for n in (32, 64):
            tgrid = TimeGrid(1.0, n)
            u = solve_nonlinear(prob, tgrid, 64)
            ref = exact_linear_separable(spec, 1.0, tgrid, u.x)
            # compare on the later half where the L1 scheme has settled
            errs.append(np.max(np.abs(u.values[n // 2:, :] - ref.values[n // 2:, :])))
        assert errs[1] < errs[0]
        assert errs[1] < 5e-3

    def test_stationary_data_stays_stationary(self):
        d = Diffusivity.power(2.0)
        spec = FractionalSpec(Kind.CAPUTO, 0.5, 1.0)
        g = lambda xx: d.K_inv(0.1 * xx + 1.0)
        prob = TFDEProblem(spec, d, 0.0, 1.0, initial=g,
                           boundary_lo=lambda t: float(g(np.array([0.0]))[0]),
                           boundary_hi=lambda t: float(g(np.array([1.0]))[0]))
        tgrid = TimeGrid(1.0, 32)
        u = solve_nonlinear(prob, tgrid, 32)
        ref = np.tile(g(u.x)[None, :], (33, 1))
        assert np.max(np.abs(u.values - ref)) < 1e-6

    def test_rl_separable_mode_reproduced(self):
        # The solver splits off the t^{alpha-1} mode; with separable data the
        # remaining regular part vanishes up to the Newton tolerance.
        d = Diffusivity.power(2.0)
        alpha = 0.5
        spec = FractionalSpec(Kind.RIEMANN_LIOUVILLE, alpha, 1.0)
        g = lambda xx: d.K_inv(0.5 * xx + 1.0)
        prob = TFDEProblem(
            spec, d, 0.0, 1.0, initial=g,
            boundary_lo=lambda t: float(g(np.array([0.0]))[0]) * t ** (alpha - 1.0),
            boundary_hi=lambda t: float(g(np.array([1.0]))[0]) * t ** (alpha - 1.0))
        tgrid = TimeGrid(1.0, 32)
        u = solve_nonlinear(prob, tgrid, 32)
        ref = exact_rl_separable(d, alpha, 0.5, 1.0, tgrid, u.x)
        assert np.max(np.abs(u.values[1:, :] - ref.values[1:, :])) < 1e-5

    def test_wave_regime_runs_and_converges(self):
        spec = FractionalSpec(Kind.CAPUTO, 1.5, 1.0)
        d = Diffusivity.constant(1.0)
        prob = TFDEProblem(spec, d, 0.0, np.pi,
                           initial=lambda xx: np.sin(xx),
                           initial_velocity=lambda xx: np.zeros_like(xx),
                           boundary_lo=lambda t: 0.0, boundary_hi=lambda t: 0.0)
        errs = []
        for n in (32, 64):
            tgrid = TimeGrid(1.0, n)
            u = solve_nonlinear(prob, tgrid, 64)
            ref = exact_linear_separable(spec, 1.0, tgrid, u.x)
            errs.append(np.max(np.abs(u.values - ref.values)))
        assert errs[1] < errs[0]

    def test_missing_initial_velocity_rejected(self):
        spec = FractionalSpec(Kind.CAPUTO, 1.5, 1.0)
        with pytest.raises(ValueError):
            TFDEProblem(spec, Diffusivity.constant(1.0), 0.0, 1.0,
                        initial=lambda xx: np.zeros_like(xx))

    def test_solver_error_type(self):
        assert issubclass(SolverError, RuntimeError)
