
import numpy as np
import pytest
import scipy.linalg
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from fraccons import tfde
from fraccons.fracops import FractionalSpec, Kind, SingularTerm, TimeGrid
from fraccons.tfde import (
    Diffusivity,
    DiffusivityFamily,
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

    @pytest.mark.parametrize("family, k0, beta", [
        (DiffusivityFamily.CONSTANT, np.nan, 0.0),
        (DiffusivityFamily.CONSTANT, np.inf, 0.0),
        (DiffusivityFamily.POWER, 1.0, np.nan),
        (DiffusivityFamily.EXPONENTIAL, np.nan, 0.0),
    ])
    def test_non_finite_parameters_rejected(self, family, k0, beta):
        with pytest.raises(ValueError, match="k0 and beta must be finite"):
            Diffusivity(family, k0=k0, beta=beta)


class TestExactSolutions:
    def test_caputo_linear_mode_satisfies_equation(self):
        spec = FractionalSpec(Kind.CAPUTO, 0.5)
        tgrid = TimeGrid(1.0, 128)
        x = np.linspace(0.0, np.pi, 65)
        u = exact_linear_separable(spec, 1.0, tgrid, x)
        res = tfde_residual(u, spec, Diffusivity.constant(1.0))
        # interior residual: spatial truncation O(hx^2) plus the fractional
        # quadrature error; both small on this grid
        assert np.max(np.abs(res.values[2:-2, 1:-1])) < 5e-3

    def test_rl_power_mode_is_annihilated(self):
        tgrid = TimeGrid(1.0, 64)
        x = np.linspace(0.0, 1.0, 17)
        u = exact_rl_power_mode(0.5, 0.7, tgrid, x)
        spec = FractionalSpec(Kind.RIEMANN_LIOUVILLE, 0.5)
        res = tfde_residual(u, spec, Diffusivity.constant(1.0))
        assert np.max(np.abs(res.values[1:, :])) < 1e-12

    def test_stationary_caputo_satisfies_equation(self):
        d = Diffusivity.power(1.0)
        tgrid = TimeGrid(1.0, 32)
        x = np.linspace(0.0, 1.0, 257)
        u = exact_stationary_caputo(d, 0.1, 1.0, tgrid, x)
        spec = FractionalSpec(Kind.CAPUTO, 0.5)
        res = tfde_residual(u, spec, d)
        assert np.max(np.abs(res.values[1:, 1:-1])) < 1e-7

    def test_rl_separable_satisfies_equation(self):
        d = Diffusivity.power(2.0)
        alpha = 0.5
        tgrid = TimeGrid(1.0, 64)
        x = np.linspace(0.0, 1.0, 129)
        u = exact_rl_separable(d, alpha, 0.5, 1.0, tgrid, x)
        spec = FractionalSpec(Kind.RIEMANN_LIOUVILLE, alpha)
        res = tfde_residual(u, spec, d)
        assert np.max(np.abs(res.values[1:, 1:-1])) < 1e-6

    def test_rl_separable_requires_power_family(self):
        tgrid = TimeGrid(1.0, 8)
        x = np.linspace(0.0, 1.0, 5)
        with pytest.raises(ValueError):
            exact_rl_separable(Diffusivity.constant(1.0), 0.5, 0.5, 1.0, tgrid, x)


class TestSolver:
    def test_caputo_linear_converges_to_exact(self):
        spec = FractionalSpec(Kind.CAPUTO, 0.5)
        d = Diffusivity.constant(1.0)
        prob = TFDEProblem(spec, d, 0.0, np.pi, initial=np.sin)
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
        spec = FractionalSpec(Kind.CAPUTO, 0.5)
        g = lambda xx: d.K_inv(0.1 * xx + 1.0)
        prob = TFDEProblem(spec, d, 0.0, 1.0, initial=g)
        tgrid = TimeGrid(1.0, 32)
        u = solve_nonlinear(prob, tgrid, 32)
        ref = np.tile(g(u.x)[None, :], (33, 1))
        assert np.max(np.abs(u.values - ref)) < 1e-6

    @pytest.mark.parametrize("alpha, tol", [(0.5, 1e-5), (1.5, 1e-6)], ids=["sub", "wave"])
    def test_rl_separable_mode_reproduced(self, alpha, tol):
        # The solver splits off the t^{alpha-1} mode; with separable data the
        # remaining regular part vanishes up to the Newton tolerance. For
        # alpha = 1.5 the velocity is zero (no t^{alpha-2} mode) and the L1
        # scheme runs on the time derivative of the regular part.
        d = Diffusivity.power(2.0)
        spec = FractionalSpec(Kind.RIEMANN_LIOUVILLE, alpha)
        g = lambda xx: d.K_inv(0.5 * xx + 1.0)
        prob = TFDEProblem(spec, d, 0.0, 1.0, initial=g, initial_velocity=np.zeros_like)
        tgrid = TimeGrid(1.0, 32)
        u = solve_nonlinear(prob, tgrid, 32)
        ref = exact_rl_separable(d, alpha, 0.5, 1.0, tgrid, u.x)
        assert np.max(np.abs(u.values[1:, :] - ref.values[1:, :])) < tol

    def test_steps_call_module_banded_solver(self, monkeypatch):
        # the benchmark tracer counts Newton solves through this module attribute
        real = tfde.solve_banded
        calls = []
        monkeypatch.setattr(tfde, "solve_banded",
                            lambda *args: calls.append(1) or real(*args))
        spec = FractionalSpec(Kind.CAPUTO, 0.5)
        prob = TFDEProblem(spec, Diffusivity.constant(1.0), 0.0, np.pi, initial=np.sin)
        solve_nonlinear(prob, TimeGrid(1.0, 16), 16)
        assert len(calls) >= 16

    def test_newton_path_matches_scipy_banded_solve(self, monkeypatch):
        # the LAPACK solve behind tfde.solve_banded takes the same Newton
        # path as scipy's solve_banded on the same system
        d = Diffusivity.power(2.0)
        g = lambda xx: d.K_inv(0.5 * xx + 1.0) * (1.0 + 0.1 * np.sin(np.pi * xx))
        prob = TFDEProblem(FractionalSpec(Kind.RIEMANN_LIOUVILLE, 0.5), d, 0.0, 1.0,
                           initial=g)

        def via_scipy(dl, main, du, b):
            ab = np.zeros((3, main.size))
            ab[0, 1:], ab[1], ab[2, :-1] = du, main, dl
            return scipy.linalg.solve_banded((1, 1), ab, b)

        def solve(banded):
            calls = []
            monkeypatch.setattr(tfde, "solve_banded",
                                lambda *args: calls.append(1) or banded(*args))
            return solve_nonlinear(prob, TimeGrid(1.0, 64), 16).values, len(calls)

        lean, n_lean = solve(tfde.solve_banded)
        ref, n_ref = solve(via_scipy)
        assert n_lean == n_ref
        assert np.max(np.abs(lean - ref)) <= 1e-13 * np.max(np.abs(ref))

    def test_wave_regime_runs_and_converges(self):
        spec = FractionalSpec(Kind.CAPUTO, 1.5)
        d = Diffusivity.constant(1.0)
        prob = TFDEProblem(spec, d, 0.0, np.pi, initial=np.sin,
                           initial_velocity=np.zeros_like)
        errs = []
        for n in (32, 64):
            tgrid = TimeGrid(1.0, n)
            u = solve_nonlinear(prob, tgrid, 64)
            ref = exact_linear_separable(spec, 1.0, tgrid, u.x)
            errs.append(np.max(np.abs(u.values - ref.values)))
        assert errs[1] < errs[0]

    @pytest.mark.parametrize("kind, alpha", [(Kind.CAPUTO, 0.5), (Kind.CAPUTO, 1.5),
                                             (Kind.RIEMANN_LIOUVILLE, 0.5)])
    def test_ends_hold_the_initial_trace(self, kind, alpha):
        # no boundary data: the ends of the regular part keep their t = 0
        # values, u0 at each end (Caputo) or 0 under the singular modes (RL)
        d = Diffusivity.power(2.0)
        g = lambda xx: d.K_inv(0.5 * xx + 1.0) * (1.0 + 0.1 * np.sin(np.pi * xx))
        prob = TFDEProblem(FractionalSpec(kind, alpha), d, 0.0, 1.0, initial=g,
                           initial_velocity=np.zeros_like)
        u = solve_nonlinear(prob, TimeGrid(1.0, 32), 16)
        if kind is Kind.CAPUTO:
            for end in (0, -1):
                assert np.array_equal(u.values[:, end], np.full(33, g(u.x)[end]))
        else:
            assert np.array_equal(u.regular_part()[:, [0, -1]], np.zeros((33, 2)))

    def test_missing_initial_velocity_rejected(self):
        spec = FractionalSpec(Kind.CAPUTO, 1.5)
        with pytest.raises(ValueError):
            TFDEProblem(spec, Diffusivity.constant(1.0), 0.0, 1.0,
                        initial=lambda xx: np.zeros_like(xx))

    def test_solver_error_type(self):
        assert issubclass(SolverError, RuntimeError)


class TestNewtonJacobian:
    @pytest.mark.parametrize("d", [Diffusivity.constant(1.5), Diffusivity.power(2.0),
                                   Diffusivity.power(-0.5), Diffusivity.exponential()],
                             ids=["constant", "power_2", "power_-0.5", "exponential"])
    def test_diagonals_match_central_difference_of_flux(self, d):
        x = np.linspace(0.0, 1.0, 17)
        u = 1.0 + 0.2 * x + 0.3 * np.sin(3.0 * x)
        hx2 = (x[1] - x[0]) ** 2
        _, mid = tfde._flux(d.k, u, hx2)
        sub, main, sup = tfde._flux_jacobian(d.k_prime, mid, hx2)
        jac = np.diag(main) + np.diag(sub, -1) + np.diag(sup, 1)
        # column j - 1: the flux at the interior nodes against u_j
        fd = np.empty_like(jac)
        for j in range(1, x.size - 1):
            step = 1e-6 * abs(u[j])
            up, down = u.copy(), u.copy()
            up[j] += step
            down[j] -= step
            fd[:, j - 1] = (tfde._flux(d.k, up, hx2)[0] - tfde._flux(d.k, down, hx2)[0]) / (2 * step)
        assert np.max(np.abs(fd - jac)) <= 1e-6 * np.max(np.abs(jac))

    def test_one_jacobian_per_banded_solve(self, monkeypatch):
        counts = {"_flux": 0, "_flux_jacobian": 0, "solve_banded": 0}
        for name in counts:
            real = getattr(tfde, name)
            monkeypatch.setattr(tfde, name, lambda *args, _name=name, _real=real:
                                counts.__setitem__(_name, counts[_name] + 1) or _real(*args))
        d = Diffusivity.power(2.0)
        g = lambda xx: d.K_inv(0.5 * xx + 1.0) * (1.0 + 0.1 * np.sin(np.pi * xx))
        prob = TFDEProblem(FractionalSpec(Kind.RIEMANN_LIOUVILLE, 0.5), d, 0.0, 1.0,
                           initial=g)
        solve_nonlinear(prob, TimeGrid(1.0, 64), 16)
        assert counts["solve_banded"] >= 64
        assert counts["_flux_jacobian"] == counts["solve_banded"]
        # each step's accepted residual needs no Jacobian
        assert counts["_flux"] >= counts["_flux_jacobian"] + 64


class TestBandedSolve:
    @given(st.data(), st.integers(1, 80))
    def test_matches_dense_solve(self, data, m):
        def draw(size, lo, hi):
            return data.draw(hnp.arrays(float, size, elements=st.floats(lo, hi)))

        # off-diagonals in [-1, 1] and |main| >= 2.5: strictly diagonally dominant
        dl, du, b = draw(m - 1, -1.0, 1.0), draw(m - 1, -1.0, 1.0), draw(m, -10.0, 10.0)
        signs = data.draw(hnp.arrays(float, m, elements=st.sampled_from([-1.0, 1.0])))
        main = draw(m, 2.5, 10.0) * signs
        A = np.diag(main) + np.diag(dl, -1) + np.diag(du, 1)
        ref = np.linalg.solve(A, b)
        got = tfde.solve_banded(dl.copy(), main.copy(), du.copy(), b.copy())
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("dl, main, du", [
        ([], [0.0], []),
        ([0.0, 1.0], [0.0, 1.0, 1.0], [1.0, 1.0]),
        ([1.0, 0.0], [1.0, 1.0, 1.0], [1.0, 0.0]),
    ], ids=["1x1", "zero_column", "equal_rows"])
    def test_zero_pivot_raises_solver_error(self, dl, main, du):
        with pytest.raises(SolverError, match="singular"):
            tfde.solve_banded(np.array(dl), np.array(main), np.array(du), np.ones(len(main)))
