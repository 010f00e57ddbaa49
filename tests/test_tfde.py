
import json
import os
import re
import subprocess
import sys
from functools import partial, wraps
from importlib.machinery import ModuleSpec
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from fraccons import cli, tfde
from fraccons.fracops import FractionalSpec, Kind, SingularTerm, SpaceGrid, TimeGrid, TimeSeries
from fraccons.specialfn import gamma
from fraccons.tfde import (
    Diffusivity,
    DiffusivityFamily,
    SolverError,
    exact_linear_separable,
    exact_rl_power_mode,
    exact_rl_separable,
    exact_stationary_caputo,
    solve_nonlinear,
    tfde_residual,
)


def perturbed_profile(d, x):
    """K^-1(x/2 + 1) (1 + sin(pi x) / 10) on the nodes of x."""
    xx = x.nodes()
    return d.K_inv(0.5 * xx + 1.0) * (1.0 + 0.1 * np.sin(np.pi * xx))


def _flux(k, u, hx2):
    """Conservative (k(u) u_x)_x at interior nodes, and the midpoint values
    (um, k(um), du) it was built from, which :func:`_flux_jacobian` reuses."""
    um = 0.5 * (u[1:] + u[:-1])
    kh = k(um)
    du = u[1:] - u[:-1]
    q = kh * du
    return (q[1:] - q[:-1]) / hx2, (um, kh, du)


def _flux_jacobian(k_prime, mid, hx2):
    """The flux Jacobian's sub-, main and super-diagonals (w.r.t. u_{j-1}, u_j,
    u_{j+1}) from the midpoint values ``mid`` of :func:`_flux`."""
    um, kh, du = mid
    s = 0.5 * k_prime(um) * du
    return ((kh[1:-1] - s[1:-1]) / hx2, (s[1:] - kh[1:] - s[:-1] - kh[:-1]) / hx2,
            (kh[1:-1] + s[1:-1]) / hx2)


# the solver's Newton tolerance and iteration cap, written out so that a
# change to tfde._TOL or tfde._MAX_ITER shows against the oracle
_REF_TOL, _REF_MAX_ITER = 1e-10, 50


def _reference_newton_step(k, k_prime, c0, rhs, base_row, w, hx2):
    """One implicit step as the solver took it before its step loop was
    rewritten for fewer numpy calls: a residual closure, a copied trial row,
    and |k(u)| |u| in the tolerance. Returns the whole row w."""

    def residual(v, u):
        f, mid = _flux(k, u, hx2)
        g = c0 * v[1:-1] - f - rhs
        return g, np.abs(g).max(), mid

    with np.errstate(all="ignore"):
        u0 = base_row + w
        term_mag = float((np.abs(k(u0)) * np.abs(u0)).max()) / hx2
        tol_eff = max(_REF_TOL * max(1.0, float(np.abs(rhs).max())), 1e-12 * term_mag)
        g, gn, mid = residual(w, u0)
        trial = w.copy()
        for _ in range(_REF_MAX_ITER):
            if gn <= tol_eff:
                return w
            sub, main, sup = _flux_jacobian(k_prime, mid, hx2)
            d = main - c0
            if not (np.isfinite(gn) and np.isfinite(d).all()):
                raise SolverError("Newton iterate outside the domain of k: "
                                  "non-finite residual or Jacobian")
            delta = tfde.solve_banded(sub, d, sup, g)
            lam = 1.0
            while True:
                trial[1:-1] = w[1:-1] + lam * delta
                g_try, gn_try, mid_try = residual(trial, base_row + trial)
                if gn_try < gn:
                    break
                lam *= 0.5
                if lam < 1e-6:
                    raise SolverError("Newton line search stalled")
            w, trial, g, gn, mid = trial, w, g_try, gn_try, mid_try
        if gn <= tol_eff:
            return w
    raise SolverError("nonlinear iteration did not converge")


def reference_solve_nonlinear(spec, diffusivity, grid, x, initial, initial_velocity=None):
    """The L1/Newton solver with the step loop above, one copied row per
    step: the bitwise oracle of :func:`tfde.solve_nonlinear`."""
    alpha, n = spec.alpha, spec.n
    cols = x.n_x + 1
    u0, v0 = (np.broadcast_to(np.asarray(d, dtype=float), (cols,))
              for d in (initial, 0.0 if initial_velocity is None else initial_velocity))
    hx2, h, n_t = x.h ** 2, grid.h, grid.n_steps
    W = np.zeros((n_t + 1, cols))
    y = W[0]
    terms = []
    if spec.kind is Kind.RIEMANN_LIOUVILLE:
        terms.append(SingularTerm(u0, alpha - 1.0))
        if n == 2 and np.any(v0 != 0.0):
            terms.append(SingularTerm(v0, alpha - 2.0))
    else:
        W[0] = u0
        if n == 2:
            y = v0
    base = sum((term.sample(grid) for term in terms), np.zeros((n_t + 1, cols)))
    mu = alpha - (n - 1)
    j = np.arange(n_t + 1, dtype=float)
    a_rev = np.ascontiguousarray(((j + 1.0) ** (1.0 - mu) - j ** (1.0 - mu))[::-1])
    c_l1 = h ** (-mu) / gamma(2.0 - mu)
    c0 = c_l1 / h ** (n - 1)
    dY = np.zeros((n_t + 1, cols))
    k, k_prime = (partial(f, diffusivity) for f in tfde._FAMILY_ROWS[diffusivity.family][:2])
    for m in range(1, n_t + 1):
        hist = c_l1 * (a_rev[n_t - m + 1: n_t] @ dY[1:m])
        w_prev = W[m - 1, 1:-1] if n == 2 else 0.0
        rhs = c0 * w_prev + c_l1 * y[1:-1] - hist[1:-1]
        w = W[m - 1].copy()
        W[m] = _reference_newton_step(k, k_prime, c0, rhs, base[m], w, hx2)
        y_m = W[m] if n == 1 else (W[m] - W[m - 1]) / h
        dY[m] = y_m - y
        y = y_m
    return TimeSeries.from_parts(grid, W, terms, x)


def assert_same_bits(u: TimeSeries, ref: TimeSeries) -> None:
    assert np.array_equal(u.values, ref.values)
    assert np.array_equal(u.regular_part(), ref.regular_part())
    assert len(u.singular) == len(ref.singular)
    for term, want in zip(u.singular, ref.singular):
        assert (term.power, term.anchor) == (want.power, want.anchor)
        assert np.array_equal(term.coeff, want.coeff)


def count_newton(monkeypatch, cols):
    """Count the steps, residuals, Jacobians and banded solves of solves on
    rows of ``cols`` nodes, through what the step loop looks up on the module:
    the k and k' of ``tfde._FAMILY_ROWS`` and ``tfde.solve_banded``. k runs on
    the whole row once per step (its tolerance) and on the cells' midpoints
    once per residual; k' runs once per Jacobian. Keeps the banded solves of
    each step; a trial the line search refuses costs a residual beyond the
    step's first and one per solve."""
    counts = {"steps": 0, "residuals": 0, "jacobians": 0, "solve_banded": 0,
              "solves_per_step": []}

    def k_counted(real):
        def call(d, u):
            if u.size == cols:
                counts["steps"] += 1
                counts["solves_per_step"].append(0)
            else:
                counts["residuals"] += 1
            return real(d, u)
        return call

    def k_prime_counted(real):
        def call(d, u):
            counts["jacobians"] += 1
            return real(d, u)
        return call

    real_solve = tfde.solve_banded

    def solve(*args):
        counts["solve_banded"] += 1
        counts["solves_per_step"][-1] += 1
        return real_solve(*args)

    rows = {family: (k_counted(k), k_prime_counted(k_prime), *rest)
            for family, (k, k_prime, *rest) in tfde._FAMILY_ROWS.items()}
    monkeypatch.setattr(tfde, "_FAMILY_ROWS", rows)
    monkeypatch.setattr(tfde, "solve_banded", solve)
    return counts


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
        x = SpaceGrid(0.0, np.pi, 64)
        u = exact_linear_separable(spec, 1.0, tgrid, x)
        res = tfde_residual(u, spec, Diffusivity.constant(1.0))
        # interior residual: spatial truncation O(hx^2) plus the fractional
        # quadrature error; both small on this grid
        assert np.max(np.abs(res.values[2:-2, 1:-1])) < 5e-3

    def test_rl_power_mode_is_annihilated(self):
        tgrid = TimeGrid(1.0, 64)
        x = SpaceGrid(0.0, 1.0, 16)
        u = exact_rl_power_mode(0.5, 0.7, tgrid, x)
        spec = FractionalSpec(Kind.RIEMANN_LIOUVILLE, 0.5)
        res = tfde_residual(u, spec, Diffusivity.constant(1.0))
        assert np.max(np.abs(res.values[1:, :])) < 1e-12

    def test_stationary_caputo_satisfies_equation(self):
        d = Diffusivity.power(1.0)
        tgrid = TimeGrid(1.0, 32)
        x = SpaceGrid(0.0, 1.0, 256)
        u = exact_stationary_caputo(d, 0.1, 1.0, tgrid, x)
        spec = FractionalSpec(Kind.CAPUTO, 0.5)
        res = tfde_residual(u, spec, d)
        assert np.max(np.abs(res.values[1:, 1:-1])) < 1e-7

    def test_rl_separable_satisfies_equation(self):
        d = Diffusivity.power(2.0)
        alpha = 0.5
        tgrid = TimeGrid(1.0, 64)
        x = SpaceGrid(0.0, 1.0, 128)
        u = exact_rl_separable(d, alpha, 0.5, 1.0, tgrid, x)
        spec = FractionalSpec(Kind.RIEMANN_LIOUVILLE, alpha)
        res = tfde_residual(u, spec, d)
        assert np.max(np.abs(res.values[1:, 1:-1])) < 1e-6

    def test_rl_separable_requires_power_family(self):
        tgrid = TimeGrid(1.0, 8)
        x = SpaceGrid(0.0, 1.0, 4)
        with pytest.raises(ValueError):
            exact_rl_separable(Diffusivity.constant(1.0), 0.5, 0.5, 1.0, tgrid, x)


class TestSolver:
    def test_caputo_linear_converges_to_exact(self):
        spec = FractionalSpec(Kind.CAPUTO, 0.5)
        d = Diffusivity.constant(1.0)
        x = SpaceGrid(0.0, np.pi, 64)
        errs = []
        for n in (32, 64):
            tgrid = TimeGrid(1.0, n)
            u = solve_nonlinear(spec, d, tgrid, x, np.sin(x.nodes()))
            ref = exact_linear_separable(spec, 1.0, tgrid, x)
            # compare on the later half where the L1 scheme has settled
            errs.append(np.max(np.abs(u.values[n // 2:, :] - ref.values[n // 2:, :])))
        assert errs[1] < errs[0]
        assert errs[1] < 5e-3

    def test_stationary_data_stays_stationary(self):
        d = Diffusivity.power(2.0)
        spec = FractionalSpec(Kind.CAPUTO, 0.5)
        x = SpaceGrid(0.0, 1.0, 32)
        u0 = d.K_inv(0.1 * x.nodes() + 1.0)
        u = solve_nonlinear(spec, d, TimeGrid(1.0, 32), x, u0)
        ref = np.tile(u0[None, :], (33, 1))
        assert np.max(np.abs(u.values - ref)) < 1e-6

    @pytest.mark.parametrize("alpha, tol", [(0.5, 1e-5), (1.5, 1e-6)], ids=["sub", "wave"])
    def test_rl_separable_mode_reproduced(self, alpha, tol):
        # The solver splits off the t^{alpha-1} mode; with separable data the
        # remaining regular part vanishes up to the Newton tolerance. For
        # alpha = 1.5 the velocity is zero (no t^{alpha-2} mode) and the L1
        # scheme runs on the time derivative of the regular part.
        d = Diffusivity.power(2.0)
        spec = FractionalSpec(Kind.RIEMANN_LIOUVILLE, alpha)
        x = SpaceGrid(0.0, 1.0, 32)
        tgrid = TimeGrid(1.0, 32)
        u = solve_nonlinear(spec, d, tgrid, x, d.K_inv(0.5 * x.nodes() + 1.0), initial_velocity=0.0)
        ref = exact_rl_separable(d, alpha, 0.5, 1.0, tgrid, x)
        assert np.max(np.abs(u.values[1:, :] - ref.values[1:, :])) < tol

    def test_steps_call_module_banded_solver(self, monkeypatch):
        # the benchmark tracer counts Newton solves through this module attribute
        real = tfde.solve_banded
        calls = []
        monkeypatch.setattr(tfde, "solve_banded",
                            lambda *args: calls.append(1) or real(*args))
        spec = FractionalSpec(Kind.CAPUTO, 0.5)
        x = SpaceGrid(0.0, np.pi, 16)
        solve_nonlinear(spec, Diffusivity.constant(1.0), TimeGrid(1.0, 16), x, np.sin(x.nodes()))
        assert len(calls) >= 16

    def test_newton_path_matches_scipy_banded_solve(self, monkeypatch):
        # the LAPACK solve behind tfde.solve_banded takes the same Newton
        # path as scipy's solve_banded on the same system
        d = Diffusivity.power(2.0)
        spec = FractionalSpec(Kind.RIEMANN_LIOUVILLE, 0.5)
        x = SpaceGrid(0.0, 1.0, 16)

        def via_scipy(dl, main, du, b):
            ab = np.zeros((3, main.size))
            ab[0, 1:], ab[1], ab[2, :-1] = du, main, dl
            return scipy.linalg.solve_banded((1, 1), ab, b)

        def solve(banded):
            calls = []
            monkeypatch.setattr(tfde, "solve_banded",
                                lambda *args: calls.append(1) or banded(*args))
            u = solve_nonlinear(spec, d, TimeGrid(1.0, 64), x, perturbed_profile(d, x))
            return u.values, len(calls)

        lean, n_lean = solve(tfde.solve_banded)
        ref, n_ref = solve(via_scipy)
        assert n_lean == n_ref
        assert np.max(np.abs(lean - ref)) <= 1e-13 * np.max(np.abs(ref))

    def test_wave_regime_runs_and_converges(self):
        spec = FractionalSpec(Kind.CAPUTO, 1.5)
        d = Diffusivity.constant(1.0)
        x = SpaceGrid(0.0, np.pi, 64)
        errs = []
        for n in (32, 64):
            tgrid = TimeGrid(1.0, n)
            u = solve_nonlinear(spec, d, tgrid, x, np.sin(x.nodes()), initial_velocity=0.0)
            ref = exact_linear_separable(spec, 1.0, tgrid, x)
            errs.append(np.max(np.abs(u.values - ref.values)))
        assert errs[1] < errs[0]

    @pytest.mark.parametrize("kind, alpha", [(Kind.CAPUTO, 0.5), (Kind.CAPUTO, 1.5),
                                             (Kind.RIEMANN_LIOUVILLE, 0.5)])
    def test_ends_hold_the_initial_trace(self, kind, alpha):
        # no boundary data: the ends of the regular part keep their t = 0
        # values, u0 at each end (Caputo) or 0 under the singular modes (RL)
        d = Diffusivity.power(2.0)
        x = SpaceGrid(0.0, 1.0, 16)
        u0 = perturbed_profile(d, x)
        u = solve_nonlinear(FractionalSpec(kind, alpha), d, TimeGrid(1.0, 32), x, u0,
                            initial_velocity=0.0)
        if kind is Kind.CAPUTO:
            for end in (0, -1):
                assert np.array_equal(u.values[:, end], np.full(33, u0[end]))
        else:
            assert np.array_equal(u.regular_part()[:, [0, -1]], np.zeros((33, 2)))

    def test_missing_initial_velocity_rejected(self):
        spec = FractionalSpec(Kind.CAPUTO, 1.5)
        with pytest.raises(ValueError, match="requires initial_velocity data"):
            solve_nonlinear(spec, Diffusivity.constant(1.0), TimeGrid(1.0, 8),
                            SpaceGrid(0.0, 1.0, 8), 0.0)

    def test_initial_data_must_fit_the_space_grid(self):
        spec = FractionalSpec(Kind.CAPUTO, 0.5)
        with pytest.raises(ValueError, match="broadcast"):
            solve_nonlinear(spec, Diffusivity.constant(1.0), TimeGrid(1.0, 8),
                            SpaceGrid(0.0, 1.0, 8), np.ones(8))

    def test_solver_error_type(self):
        assert issubclass(SolverError, RuntimeError)

    def test_space_grid_without_interior_node_rejected(self):
        spec = FractionalSpec(Kind.CAPUTO, 0.5)
        with pytest.raises(ValueError, match=r"needs n_x >= 2 space cells .* got n_x = 1$"):
            solve_nonlinear(spec, Diffusivity.constant(1.0), TimeGrid(1.0, 8),
                            SpaceGrid(0.0, 1.0, 1), 1.0)

    def test_two_cells_solve_one_interior_node(self):
        # the smallest grid the solver takes: a 1 x 1 Newton system per step
        spec = FractionalSpec(Kind.CAPUTO, 0.5)
        d = Diffusivity.power(2.0)
        x = SpaceGrid(0.0, 1.0, 2)
        u = solve_nonlinear(spec, d, TimeGrid(1.0, 8), x, perturbed_profile(d, x))
        ref = reference_solve_nonlinear(spec, d, TimeGrid(1.0, 8), x, perturbed_profile(d, x))
        assert_same_bits(u, ref)

    @pytest.mark.parametrize("kind, alpha, name, bad", [
        (Kind.CAPUTO, 0.5, "initial", np.inf),
        (Kind.CAPUTO, 0.5, "initial", np.nan),
        (Kind.RIEMANN_LIOUVILLE, 0.5, "initial", np.inf),
        (Kind.RIEMANN_LIOUVILLE, 0.5, "initial", np.nan),
        (Kind.CAPUTO, 1.5, "initial_velocity", np.inf),
        (Kind.CAPUTO, 1.5, "initial_velocity", np.nan),
        (Kind.RIEMANN_LIOUVILLE, 1.5, "initial_velocity", -np.inf),
        (Kind.RIEMANN_LIOUVILLE, 1.5, "initial", np.inf),
    ], ids=["caputo-inf", "caputo-nan", "rl-inf", "rl-nan", "caputo_wave-velocity-inf",
            "caputo_wave-velocity-nan", "rl_wave-velocity-inf", "rl_wave-inf"])
    def test_non_finite_initial_data_named_before_solving(self, monkeypatch, kind, alpha,
                                                          name, bad):
        # an inf at an end leaked a RuntimeWarning and failed late, naming
        # neither the argument nor the cause; a NaN failed as a SolverError
        x = SpaceGrid(0.0, 1.0, 8)
        counts = count_newton(monkeypatch, x.n_x + 1)
        data = {"initial": np.ones(9), "initial_velocity": np.zeros(9)}
        data[name][-1] = bad
        with pytest.raises(ValueError, match=f"^{name} must be finite at every node of x$"):
            solve_nonlinear(FractionalSpec(kind, alpha), Diffusivity.constant(1.0),
                            TimeGrid(1.0, 8), x, data["initial"], data["initial_velocity"])
        assert counts["steps"] == 0

    def test_overflowing_tolerance_raises(self):
        # k(u) u / hx^2 overflows for u near 706 with k = e^u: the tolerance
        # was inf, and the start guess passed as the solution of every step
        spec = FractionalSpec(Kind.CAPUTO, 0.5)
        x = SpaceGrid(0.0, 1.0, 8)
        u0 = 706.0 + 0.01 * np.sin(np.pi * x.nodes())
        with pytest.raises(SolverError, match="^Newton tolerance is not finite"):
            solve_nonlinear(spec, Diffusivity.exponential(), TimeGrid(1.0, 8), x, u0)


_FAMILIES = {"constant": Diffusivity.constant(1.5), "power": Diffusivity.power(2.0),
             "exponential": Diffusivity.exponential()}


class TestSolverMatchesReference:
    """The solver's fields equal the reference step loop's bit for bit."""

    @pytest.mark.parametrize("family", sorted(_FAMILIES))
    @pytest.mark.parametrize("kind, alpha", [(Kind.CAPUTO, 0.5), (Kind.CAPUTO, 1.5),
                                             (Kind.RIEMANN_LIOUVILLE, 0.5),
                                             (Kind.RIEMANN_LIOUVILLE, 1.5)],
                             ids=["caputo_sub", "caputo_wave", "rl_sub", "rl_wave"])
    def test_fields_bitwise(self, kind, alpha, family):
        d = _FAMILIES[family]
        x = SpaceGrid(0.0, 1.0, 16)
        args = (FractionalSpec(kind, alpha), d, TimeGrid(1.0, 32), x, perturbed_profile(d, x),
                0.3 * np.sin(np.pi * x.nodes()))
        u = solve_nonlinear(*args)
        if kind is Kind.RIEMANN_LIOUVILLE:
            # the nonzero velocity adds the t^(alpha-2) mode when n = 2
            assert len(u.singular) == args[0].n
        assert_same_bits(u, reference_solve_nonlinear(*args))

    @pytest.mark.parametrize("kind, alpha, velocity, T, eps, path", [
        (Kind.RIEMANN_LIOUVILLE, 0.5, None, 1.0, 0.9, "halving"),
        (Kind.RIEMANN_LIOUVILLE, 0.5, None, 1.0, 0.1, "three_iterations"),
        (Kind.CAPUTO, 1.5, 30.0, 8.0, 0.1, "halving"),
        (Kind.CAPUTO, 1.5, 0.3, 1.0, 0.9, "three_iterations"),
        (Kind.RIEMANN_LIOUVILLE, 1.5, 1.0, 1.0, 0.1, "halving"),
        (Kind.RIEMANN_LIOUVILLE, 1.5, 0.3, 1.0, 0.9, "three_iterations"),
    ], ids=["0.9-halving", "0.1-three_iterations", "caputo_wave-halving",
            "caputo_wave-three_iterations", "rl_wave-halving", "rl_wave-three_iterations"])
    def test_newton_paths_bitwise(self, monkeypatch, kind, alpha, velocity, T, eps, path):
        # "halving": a full Newton step raises the residual, and the line search
        # halves it; every run here takes 3 or more solves in a step. The wave
        # cases step the n = 2 rhs, and at RL a nonzero velocity adds t^(alpha-2);
        # rl_wave-halving also halves a trial after a Newton step was accepted
        d = Diffusivity.power(2.0)
        x = SpaceGrid(0.0, 1.0, 16)
        u0 = d.K_inv(0.5 * x.nodes() + 1.0) * (1.0 + eps * np.sin(np.pi * x.nodes()))
        v0 = None if velocity is None else velocity * np.sin(np.pi * x.nodes())
        args = (FractionalSpec(kind, alpha), d, TimeGrid(T, 32), x, u0, v0)
        ref = reference_solve_nonlinear(*args)
        counts = count_newton(monkeypatch, x.n_x + 1)
        u = solve_nonlinear(*args)
        assert_same_bits(u, ref)
        assert len(u.singular) == (args[0].n if kind is Kind.RIEMANN_LIOUVILLE else 0)
        assert counts["steps"] == 32
        assert max(counts["solves_per_step"]) >= 3
        halvings = counts["residuals"] - counts["steps"] - counts["solve_banded"]
        assert (halvings > 0) is (path == "halving")

    @pytest.mark.parametrize("kind, alpha", [(Kind.CAPUTO, 1.5), (Kind.RIEMANN_LIOUVILLE, 0.5),
                                             (Kind.RIEMANN_LIOUVILLE, 1.5)],
                             ids=["caputo_wave", "rl_sub", "rl_wave"])
    def test_two_cells_bitwise(self, monkeypatch, kind, alpha):
        # one interior node: zero-length off-diagonal rows, and the 1 x 1
        # system that solve_banded hands to dgtsv with padded off-diagonals;
        # TestSolver::test_two_cells_solve_one_interior_node is the Caputo alpha < 1 case
        d = Diffusivity.power(2.0)
        x = SpaceGrid(0.0, 1.0, 2)
        args = (FractionalSpec(kind, alpha), d, TimeGrid(1.0, 16), x, perturbed_profile(d, x),
                0.3 * np.sin(np.pi * x.nodes()))
        ref = reference_solve_nonlinear(*args)
        counts = count_newton(monkeypatch, x.n_x + 1)
        assert_same_bits(solve_nonlinear(*args), ref)
        assert counts["solve_banded"] >= 16

    def test_two_solves_share_no_memory(self):
        # the rows of the step loop are the solve's own: a second solve in the
        # same process writes into none of the first field's arrays
        d = Diffusivity.power(2.0)
        x = SpaceGrid(0.0, 1.0, 16)
        args = (FractionalSpec(Kind.RIEMANN_LIOUVILLE, 0.5), d, TimeGrid(1.0, 32), x,
                perturbed_profile(d, x))
        u = solve_nonlinear(*args)
        before = u.values.copy()
        v = solve_nonlinear(*args)
        assert_same_bits(u, v)
        assert np.array_equal(u.values, before)
        for a in (u.values, u.regular_part(), u.singular[0].coeff):
            for b in (v.values, v.regular_part(), v.singular[0].coeff):
                assert not np.shares_memory(a, b)

    @pytest.mark.parametrize("variant", range(8))
    def test_bench_variants_bitwise(self, monkeypatch, variant):
        # the data of each verify_solver variant (RL, alpha = 0.5, k = u^2) as
        # the CLI builds them, on 64 steps and 16 cells
        workload = json.loads((Path(__file__).resolve().parents[1] / "bench" / "workloads"
                               / "verify_solver.json").read_text(encoding="utf-8"))
        config = json.loads(json.dumps(workload["config"]))
        for dotted, value in workload["variants"][variant].items():
            *path, last = dotted.split(".")
            node = config
            for key in path:
                node = node[key]
            node[last] = value
        cfg = cli.parse_config({**config, "grids": [64], "n_x": 16})
        u = cli._solution(cfg, 64)
        monkeypatch.setattr(cli, "solve_nonlinear", reference_solve_nonlinear)
        assert_same_bits(u, cli._solution(cfg, 64))

    def test_verify_report_rows_match_reference(self, tmp_path, capsys, monkeypatch):
        # the bench's verify_solver scenario (variant 0) at its first grid
        config = {
            "kind": "rl", "alpha": 0.5, "T": 1.0, "x_lo": 0.0, "x_hi": 1.0,
            "diffusivity": {"family": "power", "beta": 2.0},
            "source": {"id": "solver", "params": {"a": 0.5, "b": 1.0, "perturb": 0.1}},
            "vectors": ["NL_RL_sub", "NL_RL_sub_t1", "NL_RL_sub_t2", "Trivial_RL"],
            "grids": [512], "n_x": 64,
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))

        def rows():
            assert cli.main(["verify", "--config", str(path)]) == 0
            lines = capsys.readouterr().out.splitlines()
            assert lines[0].startswith("# generated ")
            return lines[1:]

        lean = rows()
        monkeypatch.setattr(cli, "solve_nonlinear", reference_solve_nonlinear)
        ref = rows()
        assert len(lean) == 9 and lean == ref


class TestNewtonJacobian:
    @pytest.mark.parametrize("d", [Diffusivity.constant(1.5), Diffusivity.power(2.0),
                                   Diffusivity.power(-0.5), Diffusivity.exponential()],
                             ids=["constant", "power_2", "power_-0.5", "exponential"])
    def test_diagonals_match_central_difference_of_flux(self, d):
        x = np.linspace(0.0, 1.0, 17)
        u = 1.0 + 0.2 * x + 0.3 * np.sin(3.0 * x)
        hx2 = (x[1] - x[0]) ** 2
        _, mid = _flux(d.k, u, hx2)
        sub, main, sup = _flux_jacobian(d.k_prime, mid, hx2)
        jac = np.diag(main) + np.diag(sub, -1) + np.diag(sup, 1)
        # column j - 1: the flux at the interior nodes against u_j
        fd = np.empty_like(jac)
        for j in range(1, x.size - 1):
            step = 1e-6 * abs(u[j])
            up, down = u.copy(), u.copy()
            up[j] += step
            down[j] -= step
            fd[:, j - 1] = (_flux(d.k, up, hx2)[0] - _flux(d.k, down, hx2)[0]) / (2 * step)
        assert np.max(np.abs(fd - jac)) <= 1e-6 * np.max(np.abs(jac))

    @given(hnp.arrays(float, st.integers(1, 80),
                      elements=st.floats(allow_nan=True, allow_infinity=True)))
    def test_max_abs_is_the_max_of_abs_nan_included(self, v):
        # a max that skipped a NaN would let a NaN residual pass the tolerance
        want = np.abs(v).max()
        got = tfde._max_abs(v)
        assert type(got) is float
        assert got == want or (np.isnan(got) and np.isnan(want))

    def test_one_jacobian_per_banded_solve(self, monkeypatch):
        d = Diffusivity.power(2.0)
        x = SpaceGrid(0.0, 1.0, 16)
        u0 = perturbed_profile(d, x)
        counts = count_newton(monkeypatch, x.n_x + 1)
        solve_nonlinear(FractionalSpec(Kind.RIEMANN_LIOUVILLE, 0.5), d, TimeGrid(1.0, 64), x, u0)
        assert counts["solve_banded"] >= 64
        assert counts["jacobians"] == counts["solve_banded"]
        # each step's accepted residual needs no Jacobian
        assert counts["residuals"] >= counts["jacobians"] + 64

    def test_tracer_probe_on_solve_banded_sees_every_solve(self, monkeypatch):
        # the bench tracer rebinds tfde.solve_banded after import to a
        # functools.wraps counter (bench/child.py, LayerTracer.install); the
        # step loop must look the name up at each solve, not bind it once
        d = Diffusivity.power(2.0)
        x = SpaceGrid(0.0, 1.0, 16)
        u0 = perturbed_profile(d, x)
        counts = count_newton(monkeypatch, x.n_x + 1)
        calls = {"tfde.banded_solves": 0}
        real = tfde.solve_banded

        @wraps(real)
        def counted(*args, **kwargs):
            calls["tfde.banded_solves"] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(tfde, "solve_banded", counted)
        solve_nonlinear(FractionalSpec(Kind.RIEMANN_LIOUVILLE, 0.5), d, TimeGrid(1.0, 64), x, u0)
        assert calls["tfde.banded_solves"] == counts["jacobians"] == counts["solve_banded"] >= 64


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


def _dgtsv_outputs(dgtsv, dl, d, du, b):
    """The bytes of each output of ``dgtsv`` on copies of the system, and its info."""
    *arrays, info = dgtsv(dl.copy(), d.copy(), du.copy(), b.copy(), 1, 1, 1, 1)
    return [a.tobytes() for a in arrays], info


class TestLapackLoader:
    @given(st.data(), st.integers(2, 80))
    def test_bitwise_equal_to_scipy_dgtsv(self, data, m):
        def draw(size):
            return data.draw(hnp.arrays(float, size, elements=st.floats(-10.0, 10.0)))

        dl, d, du, b = draw(m - 1), draw(m), draw(m - 1), draw(m)
        # |dl| > |d| in the first row, so dgtsv interchanges rows there; the
        # other rows are drawn at random, singular ones included
        dl[0] = np.copysign(2.0 * abs(d[0]) + 1.0, dl[0])
        ours = _dgtsv_outputs(tfde._load_dgtsv(), dl, d, du, b)
        assert ours == _dgtsv_outputs(scipy.linalg.lapack.dgtsv, dl, d, du, b)

    @pytest.mark.parametrize("dl, d, du", [
        ([0.0, 1.0], [0.0, 1.0, 1.0], [1.0, 1.0]),
        ([1.0, 0.0], [1.0, 1.0, 1.0], [1.0, 0.0]),
        ([2.0, 3.0, 1.0], [1.0, 2.0, 3.0, 0.0], [4.0, 1.5, 0.0]),
    ], ids=["zero_column", "equal_rows", "zero_last_row"])
    def test_singular_system_same_info(self, dl, d, du):
        dl, d, du = np.array(dl), np.array(d), np.array(du)
        b = np.arange(1.0, d.size + 1)
        ours = _dgtsv_outputs(tfde._load_dgtsv(), dl, d, du, b)
        assert ours[1] > 0
        assert ours == _dgtsv_outputs(scipy.linalg.lapack.dgtsv, dl, d, du, b)

    def test_loaded_before_scipy_linalg_in_one_process(self):
        # fraccons' copy of the extension first, then scipy's own under its
        # own name: two modules of one .so, which solve alike
        code = (
            "import json, sys\n"
            "import numpy as np\n"
            "from fraccons import tfde\n"
            "ours = tfde._load_dgtsv()\n"
            "alone = sorted(m for m in sys.modules if 'scipy' in m or 'flapack' in m)\n"
            "import scipy.linalg.lapack\n"
            "rng = np.random.default_rng(7)\n"
            "same = []\n"
            "for m in (2, 9, 80):\n"
            "    dl, d, du, b = (rng.standard_normal(n) for n in (m - 1, m, m - 1, m))\n"
            "    got, ref = ([np.asarray(o).tobytes() for o in f(dl, d, du, b)]\n"
            "                for f in (ours, scipy.linalg.lapack.dgtsv))\n"
            "    same.append(got == ref)\n"
            "print(json.dumps([alone, same, ours is scipy.linalg.lapack.dgtsv]))")
        src = os.path.dirname(os.path.dirname(tfde.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True).stdout
        alone, same, identical = json.loads(out.strip().splitlines()[-1])
        assert alone == []
        assert same == [True, True, True]
        assert not identical

    @pytest.mark.parametrize("found", ["no_scipy", "scipy_module", "no_flapack"])
    def test_missing_lapack_is_a_solver_failure(self, tmp_path, capsys, monkeypatch, found):
        if found == "no_scipy":
            spec, where = None, "no scipy package on sys.path"
        elif found == "scipy_module":  # a scipy.py, with no directory to search
            spec, where = ModuleSpec("scipy", None), "no scipy package on sys.path"
        else:
            spec = ModuleSpec("scipy", None, is_package=True)
            spec.submodule_search_locations = [str(tmp_path)]
            where = f"no _flapack extension in {tmp_path / 'linalg'}"
        monkeypatch.setattr(tfde, "find_spec", lambda name: spec)
        tfde._load_dgtsv.cache_clear()
        with pytest.raises(SolverError, match=re.escape(where)):
            tfde._load_dgtsv()
        config = {
            "kind": "rl", "alpha": 0.5, "T": 1.0, "x_lo": 0.0, "x_hi": 1.0,
            "diffusivity": {"family": "power", "beta": 2.0},
            "source": {"id": "solver", "params": {"a": 0.5, "b": 1.0, "perturb": 0.1}},
            "vectors": ["NL_RL_sub"], "grids": [16], "n_x": 8,
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        assert cli.main(["verify", "--config", str(path)]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"solver failure: LAPACK dgtsv: {where}")
