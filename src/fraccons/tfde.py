"""Time-fractional diffusion problems, reference solutions, and solvers.

The model equation is

    D^alpha_t u = k'(u) u_x^2 + k(u) u_xx    on (0,T) x (x_lo, x_hi),

where D^alpha_t is the left Riemann-Liouville or Caputo derivative of order
alpha in (0,2) \\ {1}. Solution fields carry explicit power-law-in-time terms
(see :class:`fraccons.fracops.SingularTerm`) so that downstream fractional
kernels can treat initial-time singularities analytically instead of
sampling through them.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np
from scipy.linalg.lapack import dgtsv

from .specialfn import gamma, mittag_leffler
from .fracops import (
    Kind,
    FractionalSpec,
    SingularTerm,
    SpaceGrid,
    TimeGrid,
    TimeSeries,
    caputo_left_derivative,
    rl_left_derivative,
)

__all__ = [
    "DiffusivityFamily",
    "Diffusivity",
    "SolverError",
    "exact_linear_separable",
    "exact_rl_power_mode",
    "exact_rl_separable",
    "exact_stationary_caputo",
    "solve_nonlinear",
    "tfde_residual",
]


class DiffusivityFamily(enum.Enum):
    CONSTANT = "constant"
    POWER = "power"
    EXPONENTIAL = "exponential"


def _invertible(w):
    if np.any(w <= 0):
        raise ValueError("K_inv argument outside the invertibility range")
    return w


def _power_K(d, u):
    return np.log(u) if d.beta == -1.0 else u ** (d.beta + 1.0) / (d.beta + 1.0)


def _power_K_inv(d, w):
    if d.beta == -1.0:
        return np.exp(w)
    return _invertible((d.beta + 1.0) * w) ** (1.0 / (d.beta + 1.0))


# family -> (k, k', K, K^{-1}), each taking the Diffusivity and a float array
_FAMILY_ROWS = {
    DiffusivityFamily.CONSTANT: (lambda d, u: np.full_like(u, d.k0),
                                 lambda d, u: np.zeros_like(u),
                                 lambda d, u: d.k0 * u, lambda d, w: w / d.k0),
    DiffusivityFamily.POWER: (lambda d, u: u ** d.beta,
                              lambda d, u: d.beta * u ** (d.beta - 1.0), _power_K, _power_K_inv),
    DiffusivityFamily.EXPONENTIAL: (lambda d, u: np.exp(u), lambda d, u: np.exp(u),
                                    lambda d, u: np.exp(u),
                                    lambda d, w: np.log(_invertible(w))),
}


@dataclass(frozen=True)
class Diffusivity:
    """Diffusivity k(u) with derivative k'(u) and primitive K(u), K' = k.

    Families: constant k(u) = k0; power k(u) = u^beta; exponential k(u) = e^u.
    K(u) -> 0 as u -> 0 for the constant and power families (K = log u for
    beta = -1), and K = e^u for the exponential one.
    """

    family: DiffusivityFamily
    k0: float = 1.0
    beta: float = 0.0

    def __post_init__(self) -> None:
        if not np.isfinite([self.k0, self.beta]).all():
            raise ValueError("diffusivity k0 and beta must be finite")
        if self.family is DiffusivityFamily.CONSTANT and self.k0 <= 0:
            raise ValueError("constant diffusivity requires k0 > 0")
        if self.family is DiffusivityFamily.POWER and self.beta == 0:
            raise ValueError("power diffusivity requires beta != 0; use constant()")

    @classmethod
    def constant(cls, k0: float = 1.0) -> "Diffusivity":
        return cls(DiffusivityFamily.CONSTANT, k0=k0)

    @classmethod
    def power(cls, beta: float) -> "Diffusivity":
        return cls(DiffusivityFamily.POWER, beta=beta)

    @classmethod
    def exponential(cls) -> "Diffusivity":
        return cls(DiffusivityFamily.EXPONENTIAL)

    def k(self, u):
        return _FAMILY_ROWS[self.family][0](self, np.asarray(u, dtype=float))

    def k_prime(self, u):
        return _FAMILY_ROWS[self.family][1](self, np.asarray(u, dtype=float))

    def K(self, u):
        return _FAMILY_ROWS[self.family][2](self, np.asarray(u, dtype=float))

    def K_inv(self, w):
        return _FAMILY_ROWS[self.family][3](self, np.asarray(w, dtype=float))


class SolverError(RuntimeError):
    """Nonlinear iteration failed to converge, or its linear system is singular."""


# ---------------------------------------------------------------------------
# exact reference solutions
# ---------------------------------------------------------------------------

def exact_linear_separable(spec: FractionalSpec, lam: float, grid: TimeGrid,
                           x: SpaceGrid) -> TimeSeries:
    """Separable mode of the linear equation (constant diffusivity k = 1).

    Caputo: u = E_alpha(-lam^2 t^alpha) sin(lam x).
    Riemann-Liouville: u = t^{alpha-1} E_{alpha,alpha}(-lam^2 t^alpha) sin(lam x).
    """
    if lam <= 0:
        raise ValueError("lam must be positive")
    alpha = spec.alpha
    t = grid.nodes()
    sx = np.sin(lam * x.nodes())
    z = -(lam ** 2) * t ** alpha
    terms: list[SingularTerm] = []
    if spec.kind is Kind.CAPUTO:
        et = np.array([mittag_leffler(alpha, 1.0, zz) for zz in z])
        vals = np.outer(et, sx)
        # leading power-law terms of the series, handled exactly downstream
        for kk in range(1, 4):
            c = (-(lam ** 2)) ** kk / gamma(1.0 + kk * alpha)
            terms.append(SingularTerm(c * sx, kk * alpha))
    else:
        et = np.array([mittag_leffler(alpha, alpha, zz) for zz in z])
        vals = np.outer(SingularTerm(1.0, alpha - 1.0).sample(grid) * et, sx)
        for kk in range(0, 4):
            c = (-(lam ** 2)) ** kk / gamma(alpha * (kk + 1.0))
            terms.append(SingularTerm(c * sx, alpha * (kk + 1.0) - 1.0))
    return TimeSeries(grid, vals, tuple(terms), x)


def exact_rl_power_mode(alpha: float, c: float, grid: TimeGrid, x: SpaceGrid) -> TimeSeries:
    """Space-constant Riemann-Liouville mode u = c t^{alpha-1} (D^alpha u = 0)."""
    zero = np.zeros((grid.n_steps + 1, x.n_x + 1))
    return TimeSeries.from_parts(grid, zero, (SingularTerm(c, alpha - 1.0),), x)


def exact_stationary_caputo(diffusivity: Diffusivity, a: float, b: float,
                            grid: TimeGrid, x: SpaceGrid) -> TimeSeries:
    """Time-independent solution u = K^{-1}(a x + b) of the Caputo-kind equation."""
    ux = diffusivity.K_inv(a * x.nodes() + b)
    vals = np.tile(ux[None, :], (grid.n_steps + 1, 1))
    return TimeSeries(grid, vals, x=x)


def exact_rl_separable(diffusivity: Diffusivity, alpha: float, a: float, b: float,
                       grid: TimeGrid, x: SpaceGrid) -> TimeSeries:
    """Separable solution u = t^{alpha-1} K^{-1}(a x + b) of the RL-kind equation.

    Valid for the power diffusivity family: the flux term is proportional to
    the second space derivative of (a x + b) and vanishes identically, while
    the Riemann-Liouville derivative annihilates the t^{alpha-1} mode.
    """
    if diffusivity.family is not DiffusivityFamily.POWER:
        raise ValueError("the separable mode requires a power-law diffusivity")
    term = SingularTerm(diffusivity.K_inv(a * x.nodes() + b), alpha - 1.0)
    return TimeSeries.from_parts(grid, np.zeros((grid.n_steps + 1, x.n_x + 1)), (term,), x)


# ---------------------------------------------------------------------------
# implicit solver
# ---------------------------------------------------------------------------

# Newton tolerance on the step residual, relative to max(1, |rhs|), and its iteration cap
_TOL = 1e-10
_MAX_ITER = 50


def solve_banded(dl: np.ndarray, d: np.ndarray, du: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve the tridiagonal system with diagonals dl (sub), d and du (super) by
    LAPACK dgtsv, overwriting all four arrays; a zero pivot raises SolverError."""
    if d.size == 1:  # f2py rejects the empty off-diagonals of a 1 x 1 system
        dl = du = np.zeros(1)
    x, info = dgtsv(dl, d, du, b, 1, 1, 1, 1)[3:]
    if info != 0:
        raise SolverError(f"singular Newton system: LAPACK dgtsv info = {info}")
    return x


def _flux(k: Callable, u: np.ndarray, hx2: float):
    """Conservative (k(u) u_x)_x at interior nodes, and the midpoint values
    (um, k(um), du) it was built from, which :func:`_flux_jacobian` reuses."""
    um = 0.5 * (u[1:] + u[:-1])
    kh = k(um)
    du = u[1:] - u[:-1]
    q = kh * du
    return (q[1:] - q[:-1]) / hx2, (um, kh, du)


def _flux_jacobian(k_prime: Callable, mid: tuple, hx2: float):
    """The flux Jacobian's sub-, main and super-diagonals (w.r.t. u_{j-1}, u_j,
    u_{j+1}) from the midpoint values ``mid`` of :func:`_flux`."""
    um, kh, du = mid
    s = 0.5 * k_prime(um) * du
    return ((kh[1:-1] - s[1:-1]) / hx2, (s[1:] - kh[1:] - s[:-1] - kh[:-1]) / hx2,
            (kh[1:-1] + s[1:-1]) / hx2)


def _newton_step_solve(k: Callable, k_prime: Callable, c0: float, rhs: np.ndarray,
                       base_row: np.ndarray, w: np.ndarray, hx2: float) -> np.ndarray:
    """Solve c0 * w - flux(base_row + w) = rhs at the interior nodes (hx2 = hx^2).

    ``k`` and ``k_prime`` take float arrays (the diffusivity's row, bound once per solve).
    ``w`` is the start guess with the Dirichlet values in its end entries;
    it may be overwritten.
    Every residual evaluation keeps its midpoint values; the Jacobian is built
    from them only when Newton steps, once per banded solve.
    A non-finite residual or Jacobian (an iterate outside the domain of k), a
    singular system, a stalled line search or the iteration cap raise SolverError.
    """

    def residual(v, u):
        f, mid = _flux(k, u, hx2)
        g = c0 * v[1:-1] - f - rhs
        return g, np.abs(g).max(), mid

    with np.errstate(all="ignore"):
        # residual tolerance relative to the magnitude of the balanced terms;
        # the flux difference cancels catastrophically when the field carries
        # an initial-time singularity, so the roundoff floor scales with k*u/hx^2
        u0 = base_row + w
        term_mag = float((np.abs(k(u0)) * np.abs(u0)).max()) / hx2
        tol_eff = max(_TOL * max(1.0, float(np.abs(rhs).max())), 1e-12 * term_mag)
        g, gn, mid = residual(w, u0)
        trial = w.copy()
        for _ in range(_MAX_ITER):
            if gn <= tol_eff:
                return w
            # (J - c0) delta = g; main holds every midpoint value of k and k',
            # so its being finite covers the off-diagonals too
            sub, main, sup = _flux_jacobian(k_prime, mid, hx2)
            d = main - c0
            if not (np.isfinite(gn) and np.isfinite(d).all()):
                raise SolverError("Newton iterate outside the domain of k: "
                                  "non-finite residual or Jacobian")
            delta = solve_banded(sub, d, sup, g)
            # damped update: halve the step until the residual decreases
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


def solve_nonlinear(spec: FractionalSpec, diffusivity: Diffusivity, grid: TimeGrid,
                    x: SpaceGrid, initial, initial_velocity=None) -> TimeSeries:
    """Implicit L1 time stepping with Newton in space, on the grids ``grid`` and ``x``.

    The data are arrays on ``x.nodes()`` (or scalars). For the Caputo kind,
    ``initial`` is u(0, x) and, when n = 2, ``initial_velocity`` is u_t(0, x).
    For the Riemann-Liouville kind the initial data are of integrated type:
    ``initial`` is the coefficient c1(x) of the t^{alpha-1} mode (the value
    of the (n-alpha)-order integral of u at t = 0 divided by Gamma(alpha)),
    and when n = 2 ``initial_velocity`` is the coefficient c2(x) of
    t^{alpha-2}. ``initial_velocity`` is required when n = 2 and unused when
    n = 1.

    Caputo kind: standard L1 discretization of the fractional derivative.
    Riemann-Liouville kind: the field is split as u = (singular modes) + w
    with w vanishing at t = 0; on w the Riemann-Liouville and Caputo
    derivatives coincide and the L1 scheme applies, which keeps the
    t^{alpha-1} (and t^{alpha-2}) singularity out of the stepping loop.
    The L1 scheme for the derivative of order alpha - n + 1 acts on y = w
    (n = 1) or on its backward difference quotient y = w_t (n = 2,
    first-order accurate).
    Dirichlet data: the ends of w keep their t = 0 values, so u at x_lo and
    x_hi is held at u0 there (Caputo kind) or is the singular modes alone,
    e.g. c1 t^{alpha-1} (RL kind).
    Raises SolverError when a Newton step fails, including an iterate
    outside the domain of k.
    """
    alpha = spec.alpha
    n = spec.n
    if n == 2 and initial_velocity is None:
        raise ValueError("second-order time regime requires initial_velocity data")
    cols = x.n_x + 1
    u0, v0 = (np.broadcast_to(np.asarray(d, dtype=float), (cols,))
              for d in (initial, 0.0 if initial_velocity is None else initial_velocity))
    hx2 = x.h ** 2
    h = grid.h
    n_t = grid.n_steps

    W = np.zeros((n_t + 1, cols))
    y = W[0]  # y_0: w(0), or w_t(0) when n = 2; both 0 for the RL kind
    terms: list[SingularTerm] = []
    if spec.kind is Kind.RIEMANN_LIOUVILLE:
        terms.append(SingularTerm(u0, alpha - 1.0))
        if n == 2 and np.any(v0 != 0.0):
            terms.append(SingularTerm(v0, alpha - 2.0))
    else:
        W[0] = u0
        if n == 2:
            y = v0

    # the singular modes; row 0 (never evaluated) is 0
    base = sum((term.sample(grid) for term in terms), np.zeros((n_t + 1, cols)))
    mu = alpha - (n - 1)
    j = np.arange(n_t + 1, dtype=float)
    # L1 weights a_j, reversed once so that each step's history is a contiguous slice
    a_rev = np.ascontiguousarray(((j + 1.0) ** (1.0 - mu) - j ** (1.0 - mu))[::-1])
    c_l1 = h ** (-mu) / gamma(2.0 - mu)
    c0 = c_l1 / h ** (n - 1)
    dY = np.zeros((n_t + 1, cols))  # dY[j] = y_j - y_{j-1}
    k, k_prime = (partial(f, diffusivity) for f in _FAMILY_ROWS[diffusivity.family][:2])
    for m in range(1, n_t + 1):
        # L1 history: sum_{j=1}^{m-1} a_{m-j} (y_j - y_{j-1})
        hist = c_l1 * (a_rev[n_t - m + 1: n_t] @ dY[1:m])
        # c_l1 (y_m - y_{m-1}) + hist = flux, with y_m = (w_m - w_prev) / h^(n-1)
        w_prev = W[m - 1, 1:-1] if n == 2 else 0.0
        rhs = c0 * w_prev + c_l1 * y[1:-1] - hist[1:-1]
        # the start guess carries the held end values of w
        w = W[m - 1].copy()
        W[m] = _newton_step_solve(k, k_prime, c0, rhs, base[m], w, hx2)
        y_m = W[m] if n == 1 else (W[m] - W[m - 1]) / h
        dY[m] = y_m - y
        y = y_m

    return TimeSeries.from_parts(grid, W, terms, x)


def tfde_residual(u: TimeSeries, spec: FractionalSpec, diffusivity: Diffusivity) -> TimeSeries:
    """Equation residual D^alpha_t u - k'(u) u_x^2 - k(u) u_xx on the grid."""
    op = rl_left_derivative if spec.kind is Kind.RIEMANN_LIOUVILLE else caputo_left_derivative
    res = (op(u, spec.alpha).values - diffusivity.k_prime(u.values) * u.dx_field().values ** 2
           - diffusivity.k(u.values) * u.dx_field(2).values)
    return TimeSeries(u.grid, res, x=u.x)
