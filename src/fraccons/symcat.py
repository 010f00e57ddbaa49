"""Point-symmetry catalog, characteristics, and adjoint-equation residuals.

The catalog lists the Lie point symmetries admitted by the time-fractional
diffusion equation for each diffusivity family, the substitutions v(t, x)
that make the adjoint equation hold on all solutions (nonlinear
self-adjointness), and a residual evaluator for that adjoint equation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .fracops import (
    Kind,
    FractionalSpec,
    SingularTerm,
    TimeGrid,
    TimeSeries,
    _power_samples,
    caputo_right_derivative,
    diff1,
    diff2,
    rl_right_derivative,
)
from .tfde import Diffusivity, DiffusivityFamily, GridFunction

__all__ = [
    "Symmetry",
    "AdjointSubstitution",
    "list_symmetries",
    "characteristic",
    "adjoint_substitution",
    "adjoint_residual",
    "SUBSTITUTION_REGIMES",
]


@dataclass(frozen=True)
class Symmetry:
    """Point symmetry xi0 d/dt + xi1 d/dx + eta d/du.

    The coefficient callables take broadcastable (t, x, u) arrays. The
    generators with id ``X1`` and ``X2`` are stored with the overall sign
    flipped relative to the plain coordinate generators, so that the
    characteristics come out as W1 = u_x and W2 = 2t u_t + alpha x u_x.
    """

    id: str
    xi0: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]
    xi1: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]
    eta: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]
    alpha: float = 0.0
    beta: float = 0.0
    h: Optional[GridFunction] = None


def _sym(sym_id: str, alpha: float, beta: float = 0.0,
         h: Optional[GridFunction] = None) -> Symmetry:
    zero = lambda t, x, u: np.zeros(np.broadcast(t, x).shape)
    table = {
        "X1": (zero, lambda t, x, u: -np.ones(np.broadcast(t, x).shape), zero),
        "X2": (lambda t, x, u: -2.0 * t * np.ones_like(x),
               lambda t, x, u: -alpha * x * np.ones_like(t), zero),
        "X3_lin": (zero, zero, lambda t, x, u: u),
        "Xinf": (zero, zero, lambda t, x, u: h.values if h is not None else 0.0 * u),
        "X3_pow": (zero, lambda t, x, u: beta * x * np.ones_like(t),
                   lambda t, x, u: 2.0 * u),
        "X3_exp": (zero, lambda t, x, u: x * np.ones_like(t),
                   lambda t, x, u: 2.0 * np.ones(np.broadcast(t, x).shape)),
        "X4_pow43": (zero, lambda t, x, u: x ** 2 * np.ones_like(t),
                     lambda t, x, u: -3.0 * x * u),
        "X4_rl": (lambda t, x, u: t ** 2 * np.ones_like(x), zero,
                  lambda t, x, u: (alpha - 1.0) * t * u),
    }
    xi0, xi1, eta = table[sym_id]
    return Symmetry(sym_id, xi0, xi1, eta, alpha=alpha, beta=beta, h=h)


def rl_extra_beta(alpha: float) -> float:
    """Power-law exponent -2*alpha/(alpha-1) admitting the extra generator X4_rl."""
    return -2.0 * alpha / (alpha - 1.0)


def list_symmetries(kind: Kind, alpha: float, diffusivity: Diffusivity,
                    h: Optional[GridFunction] = None,
                    allow_conditional: bool = False) -> list[Symmetry]:
    """Admitted point symmetries for the given derivative kind and diffusivity.

    ``h`` supplies the arbitrary-solution generator of the linear case.
    ``allow_conditional`` additionally admits X4_rl for the Caputo kind with
    k = u^{2 alpha / (1 - alpha)}, alpha in (1,2), which holds conditionally
    on problem data with u_t(0, x) = 0.
    """
    if not (0.0 < alpha < 2.0) or alpha == 1.0:
        raise ValueError("alpha must lie in (0,2) with alpha != 1")
    if diffusivity.family is DiffusivityFamily.CONSTANT:
        return [_sym("X1", alpha), _sym("X2", alpha), _sym("X3_lin", alpha),
                _sym("Xinf", alpha, h=h)]
    out = [_sym("X1", alpha), _sym("X2", alpha)]
    if diffusivity.family is DiffusivityFamily.POWER:
        beta = diffusivity.beta
        out.append(_sym("X3_pow", alpha, beta=beta))
        if np.isclose(beta, -4.0 / 3.0):
            out.append(_sym("X4_pow43", alpha, beta=beta))
        extra = np.isclose(beta, rl_extra_beta(alpha))
        if extra and kind is Kind.RIEMANN_LIOUVILLE:
            out.append(_sym("X4_rl", alpha, beta=beta))
        elif extra and kind is Kind.CAPUTO and alpha > 1.0 and allow_conditional:
            out.append(_sym("X4_rl", alpha, beta=beta))
    elif diffusivity.family is DiffusivityFamily.EXPONENTIAL:
        if kind is Kind.CAPUTO:
            out.append(_sym("X3_exp", alpha))
    return out


def characteristic(sym: Symmetry, u: GridFunction) -> GridFunction:
    """Characteristic W = eta - xi0 u_t - xi1 u_x of the symmetry on the field u.

    Power-law-in-time term metadata of u is propagated analytically so the
    result can be fed to the fractional kernels without losing accuracy at
    the initial time.
    """
    t = u.grid.nodes()
    x = u.x
    hx = u.hx
    reg = u.regular_part()
    reg_x = diff1(reg, hx, axis=1)
    reg_t = diff1(reg, u.grid.h, axis=0)
    for term in u.singular:
        if term.anchor != "start":
            raise ValueError("characteristics support start-anchored terms only")

    def derived(new_reg: np.ndarray, fn) -> GridFunction:
        # fn maps each power term of u to the (coeff, power) of its image
        terms = tuple(SingularTerm(*fn(term)) for term in u.singular)
        return GridFunction.from_parts(u.grid, new_reg, terms, x=x)

    alpha = sym.alpha
    if sym.id == "X1":
        return u.dx_field()
    if sym.id == "X2":
        new_reg = 2.0 * t[:, None] * reg_t + alpha * x[None, :] * reg_x
        return derived(new_reg, lambda tm: (
            2.0 * tm.power * tm.coeff + alpha * x * diff1(tm.coeff, hx), tm.power))
    if sym.id == "X3_lin":
        return u
    if sym.id == "Xinf":
        if sym.h is None:
            raise ValueError("Xinf requires a user-supplied solution field h")
        return sym.h
    if sym.id == "X3_pow":
        new_reg = 2.0 * reg - sym.beta * x[None, :] * reg_x
        return derived(new_reg, lambda tm: (
            2.0 * tm.coeff - sym.beta * x * diff1(tm.coeff, hx), tm.power))
    if sym.id == "X3_exp":
        new_reg = 2.0 - x[None, :] * reg_x
        return derived(new_reg, lambda tm: (-x * diff1(tm.coeff, hx), tm.power))
    if sym.id == "X4_pow43":
        new_reg = -3.0 * x[None, :] * reg - x[None, :] ** 2 * reg_x
        return derived(new_reg, lambda tm: (
            -3.0 * x * tm.coeff - x ** 2 * diff1(tm.coeff, hx), tm.power))
    if sym.id == "X4_rl":
        # (alpha-1) t u - t^2 u_t; each power term c t^p maps to (alpha-1-p) c t^{p+1}
        new_reg = (alpha - 1.0) * t[:, None] * reg - t[:, None] ** 2 * reg_t
        return derived(new_reg, lambda tm: (
            (alpha - 1.0 - tm.power) * tm.coeff, tm.power + 1.0))
    raise ValueError(f"unknown symmetry id {sym.id!r}")


SUBSTITUTION_REGIMES = ("RL_sub", "RL_wave", "Caputo_sub", "Caputo_wave",
                        "Linear_particular")


@dataclass(frozen=True)
class AdjointSubstitution:
    """Solution v(t, x) of the adjoint equation, valid on all solutions u.

    Functional forms per regime (c1..c4 constants, T the time horizon):
      RL_sub:             v = c1 + c2 x
      RL_wave:            v = c1 + c2 x + (c3 + c4 x) t
      Caputo_sub:         v = (T - t)^{alpha-1} (c1 + c2 x)
      Caputo_wave:        v = (T-t)^{alpha-2} [c1 + c3 x + (T-t)(c2 + c4 x)]
      Linear_particular:  v = c1 t^{alpha-1} x (RL kind) or c1 t x (Caputo kind)
    """

    regime: str
    spec: FractionalSpec
    c1: float = 0.0
    c2: float = 0.0
    c3: float = 0.0
    c4: float = 0.0

    def __post_init__(self) -> None:
        if self.regime not in SUBSTITUTION_REGIMES:
            raise ValueError(f"unknown substitution regime {self.regime!r}")
        if self.c1 == self.c2 == self.c3 == self.c4 == 0.0:
            raise ValueError("substitution must not be identically zero")
        alpha = self.spec.alpha
        if self.regime in ("RL_sub", "Caputo_sub") and alpha >= 1.0:
            raise ValueError(f"{self.regime} requires alpha in (0,1)")
        if self.regime in ("RL_wave", "Caputo_wave") and alpha <= 1.0:
            raise ValueError(f"{self.regime} requires alpha in (1,2)")
        kind_map = {"RL_sub": Kind.RIEMANN_LIOUVILLE, "RL_wave": Kind.RIEMANN_LIOUVILLE,
                    "Caputo_sub": Kind.CAPUTO, "Caputo_wave": Kind.CAPUTO}
        want = kind_map.get(self.regime)
        if want is not None and self.spec.kind is not want:
            raise ValueError(f"{self.regime} applies to the {want.value} kind")

    def field(self, grid: TimeGrid, x: np.ndarray) -> GridFunction:
        """Evaluate v on the grid, with power-law metadata where applicable."""
        x = np.asarray(x, dtype=float)
        t = grid.nodes()
        alpha = self.spec.alpha
        zeros = np.zeros((t.size, x.size))
        if self.regime == "RL_sub":
            return GridFunction(grid, x, zeros + (self.c1 + self.c2 * x)[None, :])
        if self.regime == "RL_wave":
            vals = (self.c1 + self.c2 * x)[None, :] + np.outer(t, self.c3 + self.c4 * x)
            return GridFunction(grid, x, vals)
        if self.regime == "Caputo_sub":
            terms = (SingularTerm(self.c1 + self.c2 * x, alpha - 1.0, "end"),)
            return GridFunction.from_parts(grid, zeros, terms, x=x)
        if self.regime == "Caputo_wave":
            terms = (SingularTerm(self.c1 + self.c3 * x, alpha - 2.0, "end"),
                     SingularTerm(self.c2 + self.c4 * x, alpha - 1.0, "end"))
            return GridFunction.from_parts(grid, zeros, terms, x=x)
        # Linear_particular
        if self.spec.kind is Kind.RIEMANN_LIOUVILLE:
            terms = (SingularTerm(self.c1 * x, alpha - 1.0, "start"),)
            return GridFunction.from_parts(grid, zeros, terms, x=x)
        return GridFunction(grid, x, np.outer(t, self.c1 * x))

    def dt_field(self, grid: TimeGrid, x: np.ndarray) -> GridFunction:
        """Analytic time derivative v_t on the grid.

        Non-integrable powers (below -1) are returned as plain samples with
        no metadata; they only ever enter kernels that integrate them away
        from their singular endpoint.
        """
        x = np.asarray(x, dtype=float)
        t = grid.nodes()
        alpha = self.spec.alpha
        zeros = np.zeros((t.size, x.size))
        if self.regime == "RL_sub":
            return GridFunction(grid, x, zeros)
        if self.regime == "RL_wave":
            return GridFunction(grid, x, zeros + (self.c3 + self.c4 * x)[None, :])
        if self.regime == "Caputo_sub":
            return _sampled_power(grid, x, -(alpha - 1.0) * (self.c1 + self.c2 * x),
                                  alpha - 2.0, "end")
        if self.regime == "Caputo_wave":
            a = _sampled_power(grid, x, -(alpha - 2.0) * (self.c1 + self.c3 * x),
                               alpha - 3.0, "end")
            b = _sampled_power(grid, x, -(alpha - 1.0) * (self.c2 + self.c4 * x),
                               alpha - 2.0, "end")
            return GridFunction(grid, x, a.values + b.values)
        if self.spec.kind is Kind.RIEMANN_LIOUVILLE:
            return _sampled_power(grid, x, (alpha - 1.0) * self.c1 * x, alpha - 2.0, "start")
        return GridFunction(grid, x, zeros + (self.c1 * x)[None, :])

    def dtt_field(self, grid: TimeGrid, x: np.ndarray) -> GridFunction:
        """Analytic second time derivative v_tt on the grid."""
        x = np.asarray(x, dtype=float)
        zeros = np.zeros((grid.n_steps + 1, x.size))
        if self.regime in ("RL_sub", "RL_wave"):
            return GridFunction(grid, x, zeros)
        raise NotImplementedError("v_tt is only used with polynomial substitutions")


def _sampled_power(grid: TimeGrid, x: np.ndarray, coeffs: np.ndarray, power: float,
                   anchor: str) -> GridFunction:
    """Samples of coeffs * t^power ('start') or coeffs * (T-t)^power ('end').

    The anchor row holds 0; no term metadata is attached, so the power may
    be non-integrable.
    """
    return GridFunction(grid, x, np.multiply.outer(_power_samples(grid, power, anchor), coeffs))


def adjoint_substitution(regime: str, spec: FractionalSpec,
                         c1: float = 0.0, c2: float = 0.0,
                         c3: float = 0.0, c4: float = 0.0) -> AdjointSubstitution:
    """Build the adjoint-equation substitution of the given regime."""
    return AdjointSubstitution(regime, spec, c1, c2, c3, c4)


def adjoint_residual(v: GridFunction, u: GridFunction, diffusivity: Diffusivity,
                     spec: FractionalSpec) -> GridFunction:
    """Residual of the adjoint equation (D*)v - k(u) v_xx on the grid.

    The adjoint operator D* is the right-sided Caputo derivative when the
    problem uses the Riemann-Liouville derivative, and the right-sided
    Riemann-Liouville derivative when the problem uses the Caputo one.
    """
    if v.grid != u.grid or v.x.shape != u.x.shape:
        raise ValueError("fields are defined on different grids")
    op = caputo_right_derivative if spec.kind is Kind.RIEMANN_LIOUVILLE else rl_right_derivative
    try:
        frac = op(v, spec.alpha)
    except ValueError:
        # power-law metadata not representable through this kernel (for
        # example a t^{alpha-1} mode under the right Caputo derivative);
        # fall back to plain samples
        frac = op(TimeSeries(v.grid, v.values), spec.alpha)
    vxx = diff2(v.regular_part(), v.hx, axis=1)
    for term in v.singular:
        col = _power_samples(v.grid, term.power, term.anchor)
        vxx += np.outer(col, diff2(term.coeff, v.hx))
    return GridFunction(v.grid, v.x, frac.values - diffusivity.k(u.values) * vxx)
