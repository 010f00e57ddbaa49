"""Point-symmetry catalog, characteristics, and adjoint-equation residuals.

The catalog lists the Lie point symmetries admitted by the time-fractional
diffusion equation for each diffusivity family, the substitutions v(t, x)
that make the adjoint equation hold on all solutions (nonlinear
self-adjointness), and a residual evaluator for that adjoint equation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .fracops import (
    Kind,
    FractionalSpec,
    SingularTerm,
    TimeGrid,
    TimeSeries,
    _order_and_n,
    _power_rule,
    _power_samples,
    caputo_right_derivative,
    diff1,
    rl_right_derivative,
)
from .tfde import Diffusivity, DiffusivityFamily

__all__ = [
    "Symmetry",
    "AdjointSubstitution",
    "list_symmetries",
    "rl_extra_beta",
    "characteristic",
    "adjoint_residual",
    "SUBSTITUTION_REGIMES",
    "regime_of",
    "regime_constants",
]


def _zero(t, x, u, g):
    return np.zeros(np.broadcast(t, x).shape)


def _ones(t, x):
    return np.ones(np.broadcast(t, x).shape)


# Generator table: id -> (xi0, xi1, eta, shift). The coefficients take
# broadcastable (t, x, u) arrays and the Symmetry g, whose alpha, beta and h
# they read. Every generator is homogeneous in t and affine in u, so its
# characteristic maps a term c(x) t^p of u to c~(x) t^(p + shift).
_GENERATORS = {
    "X1": (_zero, lambda t, x, u, g: -_ones(t, x), _zero, 0.0),
    "X2": (lambda t, x, u, g: -2.0 * t * np.ones_like(x),
           lambda t, x, u, g: -g.alpha * x * np.ones_like(t), _zero, 0.0),
    "X3_lin": (_zero, _zero, lambda t, x, u, g: u, 0.0),
    "Xinf": (_zero, _zero, lambda t, x, u, g: g.h.values if g.h is not None else 0.0 * u, 0.0),
    "X3_pow": (_zero, lambda t, x, u, g: g.beta * x * np.ones_like(t),
               lambda t, x, u, g: 2.0 * u, 0.0),
    "X3_exp": (_zero, lambda t, x, u, g: x * np.ones_like(t),
               lambda t, x, u, g: 2.0 * _ones(t, x), 0.0),
    "X4_pow43": (_zero, lambda t, x, u, g: x ** 2 * np.ones_like(t),
                 lambda t, x, u, g: -3.0 * x * u, 0.0),
    "X4_rl": (lambda t, x, u, g: t ** 2 * np.ones_like(x), _zero,
              lambda t, x, u, g: (g.alpha - 1.0) * t * u, 1.0),
}


@dataclass(frozen=True)
class Symmetry:
    """Point symmetry xi0 d/dt + xi1 d/dx + eta d/du of the generator table.

    The coefficient methods take broadcastable (t, x, u) arrays. The
    generators with id ``X1`` and ``X2`` are stored with the overall sign
    flipped relative to the plain coordinate generators, so that the
    characteristics come out as W1 = u_x and W2 = 2t u_t + alpha x u_x.
    """

    id: str
    alpha: float = 0.0
    beta: float = 0.0
    h: Optional[TimeSeries] = None

    def __post_init__(self) -> None:
        if self.id not in _GENERATORS:
            raise ValueError(f"unknown symmetry id {self.id!r}")

    def xi0(self, t, x, u):
        return _GENERATORS[self.id][0](t, x, u, self)

    def xi1(self, t, x, u):
        return _GENERATORS[self.id][1](t, x, u, self)

    def eta(self, t, x, u):
        return _GENERATORS[self.id][2](t, x, u, self)

    @property
    def shift(self) -> float:
        return _GENERATORS[self.id][3]


def rl_extra_beta(alpha: float) -> float:
    """Power-law exponent -2*alpha/(alpha-1) admitting the extra generator X4_rl."""
    return -2.0 * alpha / (alpha - 1.0)


def list_symmetries(kind: Kind, alpha: float, diffusivity: Diffusivity,
                    h: Optional[TimeSeries] = None) -> list[Symmetry]:
    """Admitted point symmetries for the given derivative kind and diffusivity.

    ``h`` supplies the arbitrary-solution generator of the linear case.
    X4_rl of k = u^{2 alpha / (1 - alpha)} is listed for the Caputo kind
    with alpha in (1,2) too, where it holds for data with u_t(0, x) = 0.
    """
    _order_and_n(alpha)
    if diffusivity.family is DiffusivityFamily.CONSTANT:
        return [Symmetry("X1", alpha), Symmetry("X2", alpha), Symmetry("X3_lin", alpha),
                Symmetry("Xinf", alpha, h=h)]
    out = [Symmetry("X1", alpha), Symmetry("X2", alpha)]
    if diffusivity.family is DiffusivityFamily.POWER:
        beta = diffusivity.beta
        out.append(Symmetry("X3_pow", alpha, beta=beta))
        if np.isclose(beta, -4.0 / 3.0):
            out.append(Symmetry("X4_pow43", alpha, beta=beta))
        if np.isclose(beta, rl_extra_beta(alpha)) and (kind is Kind.RIEMANN_LIOUVILLE
                                                       or alpha > 1.0):
            out.append(Symmetry("X4_rl", alpha, beta=beta))
    elif diffusivity.family is DiffusivityFamily.EXPONENTIAL:
        if kind is Kind.CAPUTO:
            out.append(Symmetry("X3_exp", alpha))
    return out


def characteristic(sym: Symmetry, u: TimeSeries) -> TimeSeries:
    """Characteristic W = eta - xi0 u_t - xi1 u_x of the symmetry on the field u.

    Power-law-in-time term metadata of u is propagated analytically so the
    result can be fed to the fractional kernels without losing accuracy at
    the initial time: a term c t^p maps to c~ t^(p + shift), with c~ the
    same formula at t = 1 on the term alone.
    """
    if any(term.anchor != "start" for term in u.singular):
        raise ValueError("characteristics support start-anchored terms only")
    if sym.id == "Xinf":
        if sym.h is None:
            raise ValueError("Xinf requires a user-supplied solution field h")
        return sym.h
    t, x = u.grid.nodes()[:, None], u.x[None, :]
    reg = u.regular_part()
    new_reg = (sym.eta(t, x, reg) - sym.xi0(t, x, reg) * diff1(reg, u.grid.h, axis=0)
               - sym.xi1(t, x, reg) * diff1(reg, u.hx, axis=1))
    terms = tuple(SingularTerm(
        sym.eta(1.0, u.x, tm.coeff) - sym.eta(1.0, u.x, 0.0)
        - sym.xi0(1.0, u.x, tm.coeff) * tm.power * tm.coeff
        - sym.xi1(1.0, u.x, tm.coeff) * diff1(tm.coeff, u.hx), tm.power + sym.shift)
        for tm in u.singular)
    return TimeSeries.from_parts(u.grid, new_reg, terms, u.x)


# Regime table: regime -> (kind, n, terms). The regime's substitution solves
# the adjoint equation of that kind and order and takes the constants
# c1..c_2n (indexed from 0 here). Each term (i, j, offset, anchor) is
# (c_i + c_j x) t^offset, or (c_i + c_j x) (T - t)^(alpha + offset), T the
# grid's horizon, when end-anchored.
_REGIMES = {
    "RL_sub": (Kind.RIEMANN_LIOUVILLE, 1, ((0, 1, 0.0, "start"),)),
    "RL_wave": (Kind.RIEMANN_LIOUVILLE, 2, ((0, 1, 0.0, "start"), (2, 3, 1.0, "start"))),
    "Caputo_sub": (Kind.CAPUTO, 1, ((0, 1, -1.0, "end"),)),
    "Caputo_wave": (Kind.CAPUTO, 2, ((0, 2, -2.0, "end"), (1, 3, -1.0, "end"))),
}
SUBSTITUTION_REGIMES = tuple(_REGIMES)


def regime_of(spec: FractionalSpec) -> str:
    """The substitution regime of the spec's derivative kind and order."""
    return next(r for r, (kind, n, _) in _REGIMES.items() if (kind, n) == (spec.kind, spec.n))


def regime_constants(regime: str) -> tuple[str, ...]:
    """Names of the constants c1..c_2n the regime's substitution takes."""
    if regime not in _REGIMES:
        raise ValueError(f"unknown substitution regime {regime!r}")
    return tuple(f"c{i + 1}" for i in range(2 * _REGIMES[regime][1]))


@dataclass(frozen=True)
class AdjointSubstitution:
    """Solution v(t, x) of the adjoint equation, valid on all solutions u.

    One regime per derivative kind and order (c1..c_2n constants, T the
    horizon of the grid ``field`` is given), as listed in the regime table:
      RL_sub       (Riemann-Liouville, alpha in (0,1)):  v = c1 + c2 x
      RL_wave      (Riemann-Liouville, alpha in (1,2)):  v = c1 + c2 x + (c3 + c4 x) t
      Caputo_sub   (Caputo, alpha in (0,1)):  v = (T - t)^{alpha-1} (c1 + c2 x)
      Caputo_wave  (Caputo, alpha in (1,2)):  v = (T-t)^{alpha-2} [c1 + c3 x + (T-t)(c2 + c4 x)]
    A regime applied to a spec of another kind or order, a nonzero constant
    past c_2n, or all constants zero raise ValueError.
    """

    regime: str
    spec: FractionalSpec
    c1: float = 0.0
    c2: float = 0.0
    c3: float = 0.0
    c4: float = 0.0

    def __post_init__(self) -> None:
        names = regime_constants(self.regime)
        kind, n, _ = _REGIMES[self.regime]
        if (self.spec.kind, self.spec.n) != (kind, n):
            span = "(0,1)" if n == 1 else "(1,2)"
            raise ValueError(f"{self.regime} applies to the {kind.value} kind "
                             f"with alpha in {span}")
        cs = (self.c1, self.c2, self.c3, self.c4)
        if any(cs[len(names):]):
            raise ValueError(f"{self.regime} takes the constants {', '.join(names)} only")
        if not any(cs):
            raise ValueError("substitution must not be identically zero")

    def field(self, grid: TimeGrid, x: np.ndarray, order: int = 0) -> TimeSeries:
        """v (order 0), v_t (1) or v_tt (2) on the grid, by the power rule.

        Whole powers are sampled as regular values and other integrable ones
        carried as power-law metadata. Non-integrable powers (-1 or below)
        are plain samples, 0 at the anchor; they only ever enter kernels
        that integrate them away from their singular endpoint.
        """
        x = np.asarray(x, dtype=float)
        reg = np.zeros((grid.n_steps + 1, x.size))
        terms = []
        cs = (self.c1, self.c2, self.c3, self.c4)
        for i, j, offset, anchor in _REGIMES[self.regime][2]:
            coeff = cs[i] + cs[j] * x
            power = offset + (self.spec.alpha if anchor == "end" else 0.0)
            c = _power_rule(coeff, power, anchor, order)
            p = power - order
            if p <= -1.0 or float(p).is_integer():
                reg += np.multiply.outer(_power_samples(grid, p, anchor), c)
            else:
                terms.append(SingularTerm(c, p, anchor))
        return TimeSeries.from_parts(grid, reg, terms, x)


def adjoint_residual(v: TimeSeries, u: TimeSeries, diffusivity: Diffusivity,
                     spec: FractionalSpec) -> TimeSeries:
    """Residual of the adjoint equation (D*)v - k(u) v_xx on the grid.

    The adjoint operator D* is the right-sided Caputo derivative when the
    problem uses the Riemann-Liouville derivative, and the right-sided
    Riemann-Liouville derivative when the problem uses the Caputo one.
    """
    if v.grid != u.grid or v.x.shape != u.x.shape:
        raise ValueError("fields are defined on different grids")
    op = caputo_right_derivative if spec.kind is Kind.RIEMANN_LIOUVILLE else rl_right_derivative
    frac = op(v, spec.alpha)
    return TimeSeries(v.grid, frac.values - diffusivity.k(u.values) * v.dx_field(2).values, x=v.x)
