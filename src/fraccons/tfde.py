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
from typing import Callable, Optional

import numpy as np
from scipy.linalg import solve_banded

from .specialfn import gamma, mittag_leffler
from .fracops import (
    Kind,
    FractionalSpec,
    SingularTerm,
    TimeGrid,
    TimeSeries,
    _power_samples,
    caputo_left_derivative,
    diff1,
    diff2,
    rl_left_derivative,
)

__all__ = [
    "DiffusivityFamily",
    "Diffusivity",
    "TFDEProblem",
    "GridFunction",
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


@dataclass(frozen=True)
class Diffusivity:
    """Diffusivity k(u) with derivative k'(u) and primitive K(u), K' = k.

    Families: constant k(u) = k0; power k(u) = u^beta; exponential k(u) = e^u.
    """

    family: DiffusivityFamily
    k0: float = 1.0
    beta: float = 0.0

    def __post_init__(self) -> None:
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
        u = np.asarray(u, dtype=float)
        if self.family is DiffusivityFamily.CONSTANT:
            return np.full_like(u, self.k0)
        if self.family is DiffusivityFamily.POWER:
            return u ** self.beta
        return np.exp(u)

    def k_prime(self, u):
        u = np.asarray(u, dtype=float)
        if self.family is DiffusivityFamily.CONSTANT:
            return np.zeros_like(u)
        if self.family is DiffusivityFamily.POWER:
            return self.beta * u ** (self.beta - 1.0)
        return np.exp(u)

    def K(self, u):
        """Primitive of k with K(u) -> 0 as u -> 0 (constant/power) or K = e^u."""
        u = np.asarray(u, dtype=float)
        if self.family is DiffusivityFamily.CONSTANT:
            return self.k0 * u
        if self.family is DiffusivityFamily.POWER:
            if self.beta == -1.0:
                return np.log(u)
            return u ** (self.beta + 1.0) / (self.beta + 1.0)
        return np.exp(u)

    def K_inv(self, w):
        w = np.asarray(w, dtype=float)
        if self.family is DiffusivityFamily.CONSTANT:
            return w / self.k0
        if self.family is DiffusivityFamily.POWER:
            if self.beta == -1.0:
                return np.exp(w)
            arg = (self.beta + 1.0) * w
            if np.any(arg <= 0):
                raise ValueError("K_inv argument outside the invertibility range")
            return arg ** (1.0 / (self.beta + 1.0))
        if np.any(w <= 0):
            raise ValueError("K_inv argument outside the invertibility range")
        return np.log(w)


@dataclass(frozen=True)
class TFDEProblem:
    """Problem data for the time-fractional diffusion equation.

    For the Caputo kind, ``initial`` is u(0, x) and, when n = 2,
    ``initial_velocity`` is u_t(0, x). For the Riemann-Liouville kind the
    initial data are of integrated type and ``initial`` supplies the
    coefficient c1(x) of the t^{alpha-1} mode (equivalently, the value of
    the (n-alpha)-order integral of u at t = 0 divided by Gamma(alpha));
    when n = 2, ``initial_velocity`` supplies the coefficient c2(x) of
    t^{alpha-2}. Boundary callables give the full solution trace at
    x_lo / x_hi as functions of t.
    """

    spec: FractionalSpec
    diffusivity: Diffusivity
    x_lo: float
    x_hi: float
    initial: Callable[[np.ndarray], np.ndarray]
    initial_velocity: Optional[Callable[[np.ndarray], np.ndarray]] = None
    boundary_lo: Optional[Callable[[float], float]] = None
    boundary_hi: Optional[Callable[[float], float]] = None

    def __post_init__(self) -> None:
        if self.x_lo >= self.x_hi:
            raise ValueError("x_lo must be less than x_hi")
        if self.spec.n == 2 and self.initial_velocity is None:
            raise ValueError("second-order time regime requires initial_velocity data")


class GridFunction(TimeSeries):
    """Space-time field: a TimeSeries with a trailing space axis on uniform nodes ``x``.

    ``values`` has shape (n_steps+1, n_x+1) and holds samples of the full
    function, stored as 0 where a singular term is infinite (its anchor
    row, in the columns where its coefficient is nonzero). The
    ``singular`` terms carry one coefficient per space node, so the
    fractional kernels treat power-law behaviour in time exactly on every
    column at once.
    """

    def __init__(self, grid: TimeGrid, x: np.ndarray, values: np.ndarray,
                 singular: tuple[SingularTerm, ...] = ()) -> None:
        object.__setattr__(self, "x", np.asarray(x, dtype=float))
        super().__init__(grid, values, singular)

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.x.ndim != 1 or self.x.size < 2:
            raise ValueError("x must be a 1-D array with at least two nodes")
        if self.values.shape != (self.grid.n_steps + 1, self.x.size):
            raise ValueError("values shape must be (n_steps+1, n_x+1)")

    @property
    def hx(self) -> float:
        return float(self.x[1] - self.x[0])

    def dx_field(self) -> "GridFunction":
        """Space derivative, differentiating term coefficients analytically."""
        reg = diff1(self.regular_part(), self.hx, axis=1)
        terms = tuple(SingularTerm(diff1(t.coeff, self.hx), t.power, t.anchor)
                      for t in self.singular)
        return GridFunction.from_parts(self.grid, reg, terms, x=self.x)

    def to_csv(self, path: str) -> None:
        """Write the field as CSV: header row of x nodes, first column of t nodes."""
        t = self.grid.nodes()
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("t\\x," + ",".join(f"{xv:.17g}" for xv in self.x) + "\n")
            for i in range(t.size):
                row = ",".join(f"{v:.17g}" for v in self.values[i])
                fh.write(f"{t[i]:.17g},{row}\n")

    @classmethod
    def from_csv(cls, path: str) -> "GridFunction":
        raw = np.genfromtxt(path, delimiter=",", skip_header=1)
        with open(path, "r", encoding="utf-8") as fh:
            header = fh.readline().strip().split(",")
        x = np.array([float(s) for s in header[1:]])
        t = raw[:, 0]
        grid = TimeGrid(T=float(t[-1]), n_steps=t.size - 1)
        return cls(grid, x, raw[:, 1:])


class SolverError(RuntimeError):
    """Nonlinear iteration failed to converge."""


# ---------------------------------------------------------------------------
# exact reference solutions
# ---------------------------------------------------------------------------

def _check_xgrid(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.size < 2:
        raise ValueError("x must be a 1-D array with at least two nodes")
    return x


def exact_linear_separable(spec: FractionalSpec, lam: float, grid: TimeGrid,
                           x: np.ndarray) -> GridFunction:
    """Separable mode of the linear equation (constant diffusivity k = 1).

    Caputo: u = E_alpha(-lam^2 t^alpha) sin(lam x).
    Riemann-Liouville: u = t^{alpha-1} E_{alpha,alpha}(-lam^2 t^alpha) sin(lam x).
    """
    if lam <= 0:
        raise ValueError("lam must be positive")
    x = _check_xgrid(x)
    if grid.T > spec.T + 1e-12:
        raise ValueError("time grid extends beyond the problem horizon")
    alpha = spec.alpha
    t = grid.nodes()
    sx = np.sin(lam * x)
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
        vals = np.outer(_power_samples(grid, alpha - 1.0, "start") * et, sx)
        for kk in range(0, 4):
            c = (-(lam ** 2)) ** kk / gamma(alpha * (kk + 1.0))
            terms.append(SingularTerm(c * sx, alpha * (kk + 1.0) - 1.0))
    return GridFunction(grid, x, vals, tuple(terms))


def exact_rl_power_mode(alpha: float, c: float, grid: TimeGrid, x: np.ndarray) -> GridFunction:
    """Space-constant Riemann-Liouville mode u = c t^{alpha-1} (D^alpha u = 0)."""
    x = _check_xgrid(x)
    term = SingularTerm(np.full(x.size, c), alpha - 1.0)
    return GridFunction.from_parts(grid, np.zeros((grid.n_steps + 1, x.size)), (term,), x=x)


def exact_stationary_caputo(diffusivity: Diffusivity, a: float, b: float,
                            grid: TimeGrid, x: np.ndarray) -> GridFunction:
    """Time-independent solution u = K^{-1}(a x + b) of the Caputo-kind equation."""
    x = _check_xgrid(x)
    ux = diffusivity.K_inv(a * x + b)
    vals = np.tile(ux[None, :], (grid.n_steps + 1, 1))
    return GridFunction(grid, x, vals)


def exact_rl_separable(diffusivity: Diffusivity, alpha: float, a: float, b: float,
                       grid: TimeGrid, x: np.ndarray) -> GridFunction:
    """Separable solution u = t^{alpha-1} K^{-1}(a x + b) of the RL-kind equation.

    Valid for the power diffusivity family: the flux term is proportional to
    the second space derivative of (a x + b) and vanishes identically, while
    the Riemann-Liouville derivative annihilates the t^{alpha-1} mode.
    """
    if diffusivity.family is not DiffusivityFamily.POWER:
        raise ValueError("the separable mode requires a power-law diffusivity")
    x = _check_xgrid(x)
    term = SingularTerm(diffusivity.K_inv(a * x + b), alpha - 1.0)
    return GridFunction.from_parts(grid, np.zeros((grid.n_steps + 1, x.size)), (term,), x=x)


# ---------------------------------------------------------------------------
# implicit solver
# ---------------------------------------------------------------------------

def _flux_divergence(diff: Diffusivity, u: np.ndarray, hx: float) -> np.ndarray:
    """Conservative discretization of (k(u) u_x)_x at interior nodes."""
    k_half = diff.k(0.5 * (u[1:] + u[:-1]))
    return (k_half[1:] * (u[2:] - u[1:-1]) - k_half[:-1] * (u[1:-1] - u[:-2])) / hx ** 2


def _flux_jacobian_bands(diff: Diffusivity, u: np.ndarray, hx: float) -> np.ndarray:
    """Banded (3 x m) Jacobian of _flux_divergence w.r.t. interior unknowns."""
    um = 0.5 * (u[1:] + u[:-1])
    kh = diff.k(um)
    kp = 0.5 * diff.k_prime(um)
    du = u[1:] - u[:-1]
    m = u.size - 2
    ab = np.zeros((3, m))
    # d/du_{j+1} (superdiagonal), d/du_j (diagonal), d/du_{j-1} (subdiagonal)
    upper = (kp[1:] * du[1:] + kh[1:]) / hx ** 2
    lower = (-kp[:-1] * du[:-1] + kh[:-1]) / hx ** 2
    diag = (kp[1:] * du[1:] - kh[1:] - kp[:-1] * du[:-1] - kh[:-1]) / hx ** 2
    ab[0, 1:] = upper[:-1]
    ab[1, :] = diag
    ab[2, :-1] = lower[1:]
    return ab


def _l1_weights(alpha: float, n: int) -> np.ndarray:
    j = np.arange(n + 1, dtype=float)
    return (j + 1.0) ** (1.0 - alpha) - j ** (1.0 - alpha)


def _newton_step_solve(problem: TFDEProblem, c0: float, rhs: np.ndarray,
                       base_row: np.ndarray, w_start: np.ndarray,
                       bc: tuple[float, float], hx: float,
                       tol: float = 1e-10, max_iter: int = 50) -> np.ndarray:
    """Solve c0 * w - flux(base_row + w) = rhs for w with Dirichlet traces bc."""
    diff = problem.diffusivity
    w = w_start.copy()
    w[0], w[-1] = bc
    # residual tolerance relative to the magnitude of the balanced terms;
    # the flux difference cancels catastrophically when the field carries an
    # initial-time singularity, so the roundoff floor scales with k*u/hx^2
    u0 = base_row + w
    term_mag = float(np.max(np.abs(diff.k(u0)) * np.abs(u0))) / hx ** 2
    scale = max(1.0, float(np.max(np.abs(rhs))))
    tol_eff = max(tol * scale, 1e-12 * term_mag)
    for _ in range(max_iter):
        u_full = base_row + w
        g = c0 * w[1:-1] - _flux_divergence(diff, u_full, hx) - rhs
        gn = np.max(np.abs(g))
        if gn <= tol_eff:
            return w
        ab = -_flux_jacobian_bands(diff, u_full, hx)
        ab[1, :] += c0
        delta = solve_banded((1, 1), ab, -g)
        # damped update: backtrack while the residual fails to decrease
        lam = 1.0
        for _ in range(20):
            w_try = w.copy()
            w_try[1:-1] = w[1:-1] + lam * delta
            g_try = c0 * w_try[1:-1] - _flux_divergence(diff, base_row + w_try, hx) - rhs
            if np.max(np.abs(g_try)) < gn or lam < 1e-6:
                w = w_try
                break
            lam *= 0.5
    u_full = base_row + w
    g = c0 * w[1:-1] - _flux_divergence(diff, u_full, hx) - rhs
    if np.max(np.abs(g)) > tol_eff:
        raise SolverError("nonlinear iteration did not converge")
    return w


def solve_nonlinear(problem: TFDEProblem, grid: TimeGrid, n_x: int) -> GridFunction:
    """Implicit L1 / product-integration time stepping with Newton in space.

    Caputo kind: standard L1 discretization of the fractional derivative.
    Riemann-Liouville kind: the field is split as u = (singular modes) + w
    with w vanishing at t = 0; on w the Riemann-Liouville and Caputo
    derivatives coincide and the L1 scheme applies, which keeps the
    t^{alpha-1} (and t^{alpha-2}) singularity out of the stepping loop.
    For n = 2 the scheme advances u_t with an L1 memory term of order
    alpha - 1 and backward differences in time (first-order accurate).
    """
    spec = problem.spec
    alpha = spec.alpha
    n = spec.n
    x = np.linspace(problem.x_lo, problem.x_hi, n_x + 1)
    hx = x[1] - x[0]
    h = grid.h
    t = grid.nodes()
    n_t = grid.n_steps

    terms: list[SingularTerm] = []
    if spec.kind is Kind.RIEMANN_LIOUVILLE:
        c1 = np.asarray(problem.initial(x), dtype=float)
        terms.append(SingularTerm(c1, alpha - 1.0))
        if n == 2:
            c2 = np.asarray(problem.initial_velocity(x), dtype=float)
            if np.any(c2 != 0.0):
                terms.append(SingularTerm(c2, alpha - 2.0))
        w0 = np.zeros(x.size)
        v0 = np.zeros(x.size)
    else:
        w0 = np.asarray(problem.initial(x), dtype=float)
        v0 = (np.asarray(problem.initial_velocity(x), dtype=float)
              if problem.initial_velocity is not None else np.zeros(x.size))

    def trace(side: str, ti: float, default: float) -> float:
        fn = problem.boundary_lo if side == "lo" else problem.boundary_hi
        if fn is None:
            return default
        val = float(fn(ti))
        # boundary callables give the full trace; the stepping variable is w
        if spec.kind is Kind.RIEMANN_LIOUVILLE:
            j = 0 if side == "lo" else -1
            for term in terms:
                val -= term.coeff[j] * ti ** term.power
        return val

    # the singular modes; row 0 (never evaluated) is 0
    base = sum((term.sample(grid) for term in terms), np.zeros((n_t + 1, x.size)))
    W = np.zeros((n_t + 1, x.size))
    W[0] = w0
    mu = alpha if n == 1 else alpha - 1.0
    a_w = _l1_weights(mu, n_t)
    c_l1 = h ** (-mu) / gamma(2.0 - mu)

    if n == 1:
        for m in range(1, n_t + 1):
            # L1 history: sum_{j=1}^{m-1} a_{m-j} (W_j - W_{j-1})
            hist = np.zeros(x.size)
            if m >= 2:
                dW = W[1:m] - W[: m - 1]
                hist = c_l1 * np.tensordot(a_w[m - 1: 0: -1], dW, axes=(0, 0))
            rhs = c_l1 * W[m - 1, 1:-1] - hist[1:-1]
            bc = (trace("lo", t[m], w0[0]), trace("hi", t[m], w0[-1]))
            W[m] = _newton_step_solve(problem, c_l1, rhs, base[m], W[m - 1], bc, hx)
    else:
        V = np.zeros((n_t + 1, x.size))
        V[0] = v0
        for m in range(1, n_t + 1):
            hist = np.zeros(x.size)
            if m >= 2:
                dV = V[1:m] - V[: m - 1]
                hist = c_l1 * np.tensordot(a_w[m - 1: 0: -1], dV, axes=(0, 0))
            # unknown is u_m with v_m = (u_m - u_{m-1}) / h
            rhs = (c_l1 / h) * W[m - 1, 1:-1] + c_l1 * V[m - 1, 1:-1] - hist[1:-1]
            bc = (trace("lo", t[m], w0[0]), trace("hi", t[m], w0[-1]))
            W[m] = _newton_step_solve(problem, c_l1 / h, rhs, base[m], W[m - 1], bc, hx)
            V[m] = (W[m] - W[m - 1]) / h

    return GridFunction.from_parts(grid, W, terms, x=x)


def _equation_residual(u: GridFunction, spec: FractionalSpec,
                       diffusivity: Diffusivity) -> np.ndarray:
    """D^alpha_t u - k'(u) u_x^2 - k(u) u_xx on the grid."""
    op = rl_left_derivative if spec.kind is Kind.RIEMANN_LIOUVILLE else caputo_left_derivative
    frac = op(u, spec.alpha)
    vals = u.values
    ux = diff1(vals, u.hx, axis=1)
    uxx = diff2(vals, u.hx, axis=1)
    return frac.values - diffusivity.k_prime(vals) * ux ** 2 - diffusivity.k(vals) * uxx


def tfde_residual(u: GridFunction, problem: TFDEProblem) -> GridFunction:
    """Equation residual D^alpha_t u - k'(u) u_x^2 - k(u) u_xx on the grid."""
    return GridFunction(u.grid, u.x, _equation_residual(u, problem.spec, problem.diffusivity))
