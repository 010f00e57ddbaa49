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
import math
import os
import sys
from dataclasses import dataclass
from functools import cache, partial
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder
from importlib.util import find_spec, module_from_spec

import numpy as np

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


@cache
def _load_dgtsv():
    """LAPACK dgtsv of scipy's f2py extension ``scipy/linalg/_flapack``, loaded
    from its file on the first call as ``fraccons._flapack``, kept out of
    sys.modules, and without importing scipy.linalg (about 0.3 s on a 2-vCPU
    host, against 5 ms for this load). Raises SolverError naming the place
    searched when the scipy package or the extension is missing."""
    scipy = find_spec("scipy")
    if scipy is None or not scipy.submodule_search_locations:
        raise SolverError(f"LAPACK dgtsv: no scipy package on sys.path {sys.path}")
    linalg = os.path.join(scipy.submodule_search_locations[0], "linalg")
    spec = FileFinder(linalg, (ExtensionFileLoader, EXTENSION_SUFFIXES)).find_spec(
        "fraccons._flapack")
    if spec is None:
        raise SolverError(f"LAPACK dgtsv: no _flapack extension in {linalg}")
    module = module_from_spec(spec)
    sys.modules.pop(spec.name, None)  # a single-phase extension enters itself there
    spec.loader.exec_module(module)
    return module.dgtsv


def solve_banded(dl: np.ndarray, d: np.ndarray, du: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve the tridiagonal system with diagonals dl (sub), d and du (super) by
    LAPACK dgtsv, overwriting all four arrays; a zero pivot raises SolverError.

    dgtsv is loaded from scipy's _flapack extension, without importing
    scipy.linalg, when a solver scenario is built (``cli.parse_config``), or
    else by the first solve.
    """
    if d.size == 1:  # f2py rejects the empty off-diagonals of a 1 x 1 system
        dl = du = np.zeros(1)
    x, info = _load_dgtsv()(dl, d, du, b, 1, 1, 1, 1)[3:]
    if info != 0:
        raise SolverError(f"singular Newton system: LAPACK dgtsv info = {info}")
    return x


def _max_abs(v: np.ndarray, out=None) -> float:
    """max |v| as a float, NaN when v holds a NaN: argmax stops at the first
    NaN, and it costs less than a ufunc reduce on the solver's short rows.
    |v| goes to ``out`` when given, which may be v itself."""
    a = np.abs(v, out)
    return float(a[a.argmax()])


def l1_history_work(n_steps: int, n_x: int) -> float:
    """Multiply-adds of the L1 history sums of one solve: step m sums m - 1
    rows of n_x + 1 entries, about n_steps^2 (n_x + 1) / 2 in all."""
    return n_steps * n_steps * (n_x + 1) / 2


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
    Each step m solves c0 w - (k(u) u_x)_x = rhs at the interior nodes, with
    u = base[m] + w and the conservative flux on midpoint values, by damped
    Newton from w = W[m-1]: the residual tolerance is relative to max(1, |rhs|),
    with a floor of 1e-12 |k(u) u| / hx^2 for the cancellation in the flux
    difference; the tridiagonal Jacobian is built from the midpoint values of
    the last residual, only when Newton steps, and solved by the module's
    ``solve_banded``; a step whose residual does not fall is halved.
    Each row the loop writes (u, um, du, q, s, the flux difference, the three
    diagonals, rhs and a |.| scratch) is allocated once per solve and written
    by ufuncs with ``out``, bit for bit as on fresh arrays; the residual and the
    trial alternate between two rows each, as dgtsv returns delta in the
    residual's row. 0.5, c0, c_l1 and hx^2 are 0-d arrays, since a ufunc
    converts a Python float operand on every call.
    The loop runs under one ``np.errstate(all="ignore")``: a non-finite value
    reaches the tolerance, the residual or the Jacobian, whose checks raise.
    Raises ValueError when x has no interior node (n_x < 2) or when the
    initial data it uses are not finite, and SolverError when a Newton step
    fails: a tolerance that is not finite (the step's terms overflow the
    float64 range), a non-finite residual or Jacobian (an iterate outside the
    domain of k), a singular system, a stalled line search or the iteration cap.
    """
    alpha = spec.alpha
    n = spec.n
    if n == 2 and initial_velocity is None:
        raise ValueError("second-order time regime requires initial_velocity data")
    if x.n_x < 2:
        raise ValueError(f"the solver needs n_x >= 2 space cells (an interior node), "
                         f"got n_x = {x.n_x}")
    cols = x.n_x + 1
    u0, v0 = (np.broadcast_to(np.asarray(d, dtype=float), (cols,))
              for d in (initial, 0.0 if initial_velocity is None else initial_velocity))
    # initial_velocity is read only when n = 2
    for name, data in (("initial", u0), ("initial_velocity", v0))[:n]:
        if not np.isfinite(data).all():
            raise ValueError(f"{name} must be finite at every node of x")
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
    W[1:, 0], W[1:, -1] = W[0, 0], W[0, -1]  # the held end values of w

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
    add, subtract, multiply, divide = np.add, np.subtract, np.multiply, np.divide
    half, c0, c_l1, hx2 = (np.array(v, dtype=float) for v in (0.5, c0, c_l1, hx2))
    u = np.empty(cols)  # the row base[m] + w of the Newton iterate
    u_r, u_l, u_in = u[1:], u[:-1], u[1:-1]
    um, du, q, s = (np.empty(cols - 1) for _ in range(4))  # on the cells' midpoints
    q_r, q_l, s_r, s_l, s_in = q[1:], q[:-1], s[1:], s[:-1], s[1:-1]
    flux, d, rhs = (np.empty(cols - 2) for _ in range(3))
    sub, sup = np.empty(cols - 3), np.empty(cols - 3)
    # dgtsv returns delta in g's row, so the residual and the trial each alternate
    # between two rows, and w starts as a view of W[m - 1]
    g, g_try = np.empty(cols - 2), np.empty(cols - 2)
    trial, spare = np.empty(cols - 2), np.empty(cols - 2)
    scratch = np.empty(cols)  # |.| of _max_abs, or a term of the n = 2 rhs
    scratch_in = scratch[1:-1]

    def residual(v, out):
        """The residual c0 v - (q[1:] - q[:-1]) / hx2 - rhs, q = k(um) du, of the row u
        into ``out``; returns k(um)."""
        multiply(half, add(u_r, u_l, um), um)
        kh = k(um)
        multiply(kh, subtract(u_r, u_l, du), q)
        divide(subtract(q_r, q_l, flux), hx2, flux)
        subtract(subtract(multiply(c0, v, out), flux, out), rhs, out)
        return kh

    with np.errstate(all="ignore"):
        for m in range(1, n_t + 1):
            # L1 history: sum_{j=1}^{m-1} a_{m-j} (y_j - y_{j-1})
            hist = a_rev[n_t - m + 1: n_t] @ dY[1:m]
            hist_in = multiply(c_l1, hist, hist)[1:-1]
            # c_l1 (y_m - y_{m-1}) + hist = flux, with y_m = (w_m - w_prev) / h^(n-1)
            if n == 1:
                subtract(multiply(c_l1, y[1:-1], rhs), hist_in, rhs)
            else:
                add(multiply(c0, W[m - 1, 1:-1], rhs), multiply(c_l1, y[1:-1], scratch_in), rhs)
                subtract(rhs, hist_in, rhs)
            base_row = base[m]
            add(base_row, W[m - 1], u)
            # the flux difference cancels catastrophically when the field carries
            # an initial-time singularity, so the roundoff floor scales with k*u/hx^2
            term_mag = _max_abs(multiply(k(u), u, scratch), scratch) / hx2
            tol_eff = max(_TOL * max(1.0, _max_abs(rhs, scratch_in)), 1e-12 * term_mag)
            if not math.isfinite(tol_eff):
                raise SolverError("Newton tolerance is not finite: the step's terms "
                                  "exceed the float64 range")
            base_in, w = base_row[1:-1], W[m - 1, 1:-1]
            kh = residual(w, g)
            gn = _max_abs(g, scratch_in)
            for _ in range(_MAX_ITER):
                if gn <= tol_eff:
                    break
                # (J - c0) delta = g; d holds every midpoint value of k and k',
                # so its being finite covers the off-diagonals too
                multiply(multiply(half, k_prime(um), s), du, s)
                subtract(subtract(subtract(s_r, kh[1:], d), s_l, d), kh[:-1], d)
                subtract(divide(d, hx2, d), c0, d)
                if not (math.isfinite(gn) and math.isfinite(_max_abs(d, scratch_in))):
                    raise SolverError("Newton iterate outside the domain of k: "
                                      "non-finite residual or Jacobian")
                kh_in = kh[1:-1]
                delta = solve_banded(divide(subtract(kh_in, s_in, sub), hx2, sub), d,
                                     divide(add(kh_in, s_in, sup), hx2, sup), g)
                # damped update: halve the step until the residual decreases
                add(w, delta, trial)
                lam = 1.0
                while True:
                    add(base_in, trial, u_in)
                    kh = residual(trial, g_try)
                    gn_try = _max_abs(g_try, scratch_in)
                    if gn_try < gn:
                        break
                    lam *= 0.5
                    if lam < 1e-6:
                        raise SolverError("Newton line search stalled")
                    add(w, multiply(lam, delta, trial), trial)
                # the accepted trial is w, and the next trial goes to the pair's other row
                w, trial, spare = trial, spare, trial
                g, g_try, gn = g_try, g, gn_try
            else:
                if not gn <= tol_eff:
                    raise SolverError("nonlinear iteration did not converge")
            W[m, 1:-1] = w
            y_m = W[m] if n == 1 else (W[m] - W[m - 1]) / h
            subtract(y_m, y, dY[m])
            y = y_m

    return TimeSeries.from_parts(grid, W, terms, x)


def tfde_residual(u: TimeSeries, spec: FractionalSpec, diffusivity: Diffusivity) -> TimeSeries:
    """Equation residual D^alpha_t u - k'(u) u_x^2 - k(u) u_xx on the grid."""
    op = rl_left_derivative if spec.kind is Kind.RIEMANN_LIOUVILLE else caputo_left_derivative
    res = (op(u, spec.alpha).values - diffusivity.k_prime(u.values) * u.dx_field().values ** 2
           - diffusivity.k(u.values) * u.dx_field(2).values)
    return TimeSeries(u.grid, res, x=u.x)
