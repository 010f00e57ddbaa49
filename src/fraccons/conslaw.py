"""Conserved vectors for the time-fractional diffusion equation and verifiers.

Vectors are built two ways: by applying the fractional Noether operators to
the formal Lagrangian (``noether_vector``), and from the closed-form catalog
(``catalog_vector``), whose ``Linear_*`` ids are the Noether vectors without
their xi L terms. ``divergence_residual`` and ``flux_balance``
check D_t C^t + D_x C^x = 0 on solution fields.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .specialfn import phi_sub, phi_psi_wave
from .fracops import (
    Kind,
    FractionalSpec,
    TimeSeries,
    diff1,
    f_modified_integral,
    j_integral,
    left_frac_integral,
    left_integral_endpoint_pole,
    right_frac_integral,
    rl_left_derivative,
    rl_right_derivative,
    time_derivative,
)
from .tfde import Diffusivity, GridFunction, _equation_residual
from .symcat import AdjointSubstitution, Symmetry, _sym, characteristic

__all__ = [
    "ConservedVectorEval",
    "ResidualReport",
    "CSV_HEADER",
    "formal_lagrangian",
    "noether_vector",
    "catalog_vector",
    "catalog_ids",
    "correspondence",
    "divergence_residual",
    "flux_balance",
]


# ---------------------------------------------------------------------------
# grid-field helpers
# ---------------------------------------------------------------------------

def _pole_integral(u: GridFunction, mu: float) -> np.ndarray:
    """(I^mu (u/(T-.)))(t) on the whole field; metadata-free samples are used."""
    return left_integral_endpoint_pole(TimeSeries(u.grid, u.values), mu).values


def _ux(u: GridFunction) -> np.ndarray:
    return u.dx_field().values


# ---------------------------------------------------------------------------
# formal Lagrangian and Noether operators
# ---------------------------------------------------------------------------

def formal_lagrangian(u: GridFunction, v: GridFunction, diffusivity: Diffusivity,
                      spec: FractionalSpec) -> GridFunction:
    """L = v [D^alpha_t u - k'(u) u_x^2 - k(u) u_xx]."""
    bracket = _equation_residual(u, spec, diffusivity)
    return GridFunction(u.grid, u.x, v.values * bracket)


def _noether_core(W: GridFunction, v: GridFunction, u: GridFunction,
                  sub: AdjointSubstitution, spec: FractionalSpec,
                  diffusivity: Diffusivity) -> tuple[np.ndarray, np.ndarray]:
    """Noether operators applied to the formal Lagrangian, without the xi L terms.

    ``W`` is the characteristic of the symmetry on u, ``v`` the adjoint
    substitution on u's grid. The dropped terms xi0 L and xi1 L vanish on
    solutions.

    Riemann-Liouville kind:
      n=1: C^t = v * I^{1-a} W + J(W, v_t)
      n=2: C^t = v * D^{a-1} W - v_t * I^{2-a} W - J(W, v_tt)
    Caputo kind:
      n=1: C^t = W * (right I^{1-a} v) - J(W_t, v)
      n=2: C^t = W * (right D^{a-1} v) + W_t * (right I^{2-a} v) - J(W_tt, v)
    and C^x = W (v_x k - v k' u_x) - W_x v k, which is k0 (v_x W - v W_x)
    for a constant diffusivity k0.
    """
    alpha = spec.alpha
    if spec.kind is Kind.RIEMANN_LIOUVILLE:
        vt = sub.dt_field(u.grid, u.x)
        if spec.n == 1:
            ct = v.values * left_frac_integral(W, 1.0 - alpha).values + j_integral(W, vt, alpha).values
        else:
            vtt = sub.dtt_field(u.grid, u.x)
            ct = (v.values * rl_left_derivative(W, alpha - 1.0).values
                  - vt.values * left_frac_integral(W, 2.0 - alpha).values
                  - j_integral(W, vtt, alpha).values)
    elif spec.n == 1:
        ct = (W.values * right_frac_integral(v, 1.0 - alpha).values
              - j_integral(time_derivative(W), v, alpha).values)
    else:
        ct = (W.values * rl_right_derivative(v, alpha - 1.0).values
              + time_derivative(W).values * right_frac_integral(v, 2.0 - alpha).values
              - j_integral(time_derivative(W, 2), v, alpha).values)
    uv = u.values
    k = diffusivity.k(uv)
    ux = diff1(uv, u.hx, axis=1)
    cx = (W.values * (v.dx_field().values * k - v.values * diffusivity.k_prime(uv) * ux)
          - W.dx_field().values * v.values * k)
    return ct, cx


# ---------------------------------------------------------------------------
# conserved-vector evaluators
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConservedVectorEval:
    """Evaluator pair for a conserved vector (C^t, C^x)."""

    provenance: str
    spec: FractionalSpec
    _fn: Callable[[GridFunction], tuple[np.ndarray, np.ndarray]]

    def components(self, u: GridFunction) -> tuple[np.ndarray, np.ndarray]:
        # the vectors themselves may be infinite at an end row: the weights
        # (T-t)^{alpha-k} at t = T, and k(u) = u^beta with beta < 0 at u = 0;
        # the verifiers exclude those rows and reject non-finite interior values
        with np.errstate(divide="ignore", invalid="ignore"):
            ct, cx = self._fn(u)
        return np.asarray(ct, dtype=float), np.asarray(cx, dtype=float)


def noether_vector(sym: Symmetry, sub: AdjointSubstitution, spec: FractionalSpec,
                   diffusivity: Diffusivity) -> ConservedVectorEval:
    """Conserved vector obtained by the Noether operators for (sym, sub).

    C^t = xi0 L + core^t and C^x = xi1 L + core^x, with the core of
    ``_noether_core``; xi L is taken as 0 where xi is 0 (L may be infinite
    at an end row).
    """

    def fn(u: GridFunction) -> tuple[np.ndarray, np.ndarray]:
        W = characteristic(sym, u)
        v = sub.field(u.grid, u.x)
        L = formal_lagrangian(u, v, diffusivity, spec).values
        t = u.grid.nodes()[:, None]
        x = u.x[None, :]
        ct, cx = _noether_core(W, v, u, sub, spec, diffusivity)
        for xi, comp in ((sym.xi0, ct), (sym.xi1, cx)):
            coeff = xi(t, x, u.values)
            comp += np.where(coeff == 0.0, 0.0, coeff * L)
        return ct, cx

    name = f"NoetherDerived({sym.id},{sub.regime})"
    return ConservedVectorEval(name, spec, fn)


def _need(value, what: str):
    if value is None:
        raise ValueError(f"this catalog vector requires {what}")
    return value


def _as_x_array(data, x: np.ndarray) -> np.ndarray:
    if callable(data):
        return np.asarray(data(x), dtype=float)
    return np.broadcast_to(np.asarray(data, dtype=float), x.shape).astype(float)


_LINEAR_SYMS = ("X1", "X2", "X3", "Xinf")


def catalog_ids() -> list[str]:
    """All recognized closed-form catalog provenance ids."""
    ids = ["Trivial_RL", "Trivial_Caputo", "NL_RL_sub", "NL_RL_sub_t1", "NL_RL_sub_t2"]
    ids += [f"Table1_v{i}" for i in range(1, 7)] + ["Table1_v6_alt"]
    ids += [f"Table3_v{i}" for i in range(1, 5)]
    ids += [f"Table5_v{i}" for i in range(1, 7)]
    for kind in ("RL", "Cap"):
        for regime in ("sub", "wave"):
            ids += [f"Linear_{kind}_{regime}_{s}" for s in _LINEAR_SYMS]
    return ids


def catalog_vector(provenance: str, spec: FractionalSpec, diffusivity: Diffusivity,
                   initial=None, initial_velocity=None,
                   substitution: Optional[AdjointSubstitution] = None,
                   h: Optional[GridFunction] = None) -> ConservedVectorEval:
    """Closed-form conserved-vector evaluator for the given provenance id.

    ``initial``/``initial_velocity`` supply u(0, x) and u_t(0, x) where the
    closed forms reference the initial data directly. Linear-case ids need
    the adjoint ``substitution``; the Xinf ids additionally need the field
    ``h`` solving the linear equation.
    """
    alpha = spec.alpha
    n = spec.n

    def check(cond: bool, msg: str) -> None:
        if not cond:
            raise ValueError(f"{provenance}: {msg}")

    if provenance == "Trivial_RL":
        check(spec.kind is Kind.RIEMANN_LIOUVILLE, "requires the Riemann-Liouville kind")

        def fn(u: GridFunction):
            if n == 1:
                ct = left_frac_integral(u, 1.0 - alpha).values
            else:
                ct = rl_left_derivative(u, alpha - 1.0).values
            cx = -diffusivity.k(u.values) * _ux(u)
            return ct, cx

        return ConservedVectorEval(provenance, spec, fn)

    if provenance == "Trivial_Caputo":
        check(spec.kind is Kind.CAPUTO, "requires the Caputo kind")

        def fn(u: GridFunction):
            ct = left_frac_integral(time_derivative(u, n), n + 1.0 - alpha).values
            cx = -diffusivity.k(u.values) * _ux(u)
            return ct, cx

        return ConservedVectorEval(provenance, spec, fn)

    if provenance in ("NL_RL_sub", "NL_RL_sub_t1", "NL_RL_sub_t2"):
        check(spec.kind is Kind.RIEMANN_LIOUVILLE and n == 1,
              "requires the Riemann-Liouville kind with alpha in (0,1)")

        def fn(u: GridFunction):
            x = u.x[None, :]
            t = u.grid.nodes()[:, None]
            uv = u.values
            k = diffusivity.k(uv)
            ux = _ux(u)
            i1 = left_frac_integral(u, 1.0 - alpha).values
            if provenance == "NL_RL_sub":
                ct = x * i1
                cx = diffusivity.K(uv) - x * k * ux
            else:
                i2 = left_frac_integral(u, 2.0 - alpha).values
                core = t * i1 - i2
                if provenance == "NL_RL_sub_t1":
                    ct = core
                    cx = -t * k * ux
                else:
                    ct = x * core
                    cx = t * k * ((1.0 - alpha) / (1.0 + alpha) * uv - x * ux)
            return ct, cx

        return ConservedVectorEval(provenance, spec, fn)

    if provenance.startswith("Table1_"):
        check(spec.kind is Kind.RIEMANN_LIOUVILLE and n == 2,
              "requires the Riemann-Liouville kind with alpha in (1,2)")
        idx = provenance[len("Table1_v"):]

        def fn(u: GridFunction):
            x = u.x[None, :]
            t = u.grid.nodes()[:, None]
            uv = u.values
            k = diffusivity.k(uv)
            K = diffusivity.K(uv)
            ux = _ux(u)
            d = rl_left_derivative(u, alpha - 1.0).values
            if idx == "1":
                return d, -k * ux
            i2 = left_frac_integral(u, 2.0 - alpha).values
            if idx == "2":
                return t * d - i2, -t * k * ux
            if idx == "3":
                return x * d, K - x * k * ux
            if idx == "4":
                return t * x * d - x * i2, t * K - t * x * k * ux
            i3 = left_frac_integral(u, 3.0 - alpha).values
            if idx == "5":
                return t ** 2 * d - 2.0 * t * i2 + 2.0 * i3, -t ** 2 * k * ux
            cx = t ** 2 * K - t ** 2 * x * k * ux
            if idx == "6":
                # third term as printed in the source table (suspected typo)
                return t ** 2 * x * d - 2.0 * t * x * i2 + 2.0 * x * i2, cx
            # "6_alt": structurally consistent with vector 5
            return t ** 2 * x * d - 2.0 * t * x * i2 + 2.0 * x * i3, cx

        return ConservedVectorEval(provenance, spec, fn)

    if provenance.startswith("Table3_"):
        check(spec.kind is Kind.CAPUTO and n == 1,
              "requires the Caputo kind with alpha in (0,1)")
        idx = provenance[len("Table3_v"):]
        T = spec.T

        def fn(u: GridFunction):
            x = u.x[None, :]
            t = u.grid.nodes()
            s = (T - t)[:, None]
            uv = u.values
            k = diffusivity.k(uv)
            K = diffusivity.K(uv)
            ux = _ux(u)
            if idx in ("1", "3"):
                u0 = _as_x_array(_need(initial, "initial data u(0, x)"), u.x)
                phi = phi_sub(t, alpha, T)[:, None]
                core = u0[None, :] * phi + s ** alpha * _pole_integral(u, 1.0 - alpha)
                if idx == "1":
                    return core, -s ** (alpha - 1.0) * k * ux
                return x * core, s ** (alpha - 1.0) * (K - x * k * ux)
            ut = time_derivative(u)
            core = s ** (alpha - 1.0) * _pole_integral(ut, 2.0 - alpha)
            if idx == "2":
                return core, -s ** (alpha - 2.0) * k * ux
            return x * core, s ** (alpha - 2.0) * (K - x * k * ux)

        return ConservedVectorEval(provenance, spec, fn)

    if provenance.startswith("Table5_"):
        check(spec.kind is Kind.CAPUTO and n == 2,
              "requires the Caputo kind with alpha in (1,2)")
        idx = provenance[len("Table5_v"):]
        T = spec.T

        def fn(u: GridFunction):
            x = u.x[None, :]
            t = u.grid.nodes()
            s = (T - t)[:, None]
            uv = u.values
            k = diffusivity.k(uv)
            K = diffusivity.K(uv)
            ux = _ux(u)
            if idx in ("1", "4"):
                utt = time_derivative(u, 2)
                core = s ** (alpha - 2.0) * _pole_integral(utt, 3.0 - alpha)
                if idx == "1":
                    return core, -s ** (alpha - 3.0) * k * ux
                return x * core, s ** (alpha - 3.0) * (K - x * k * ux)
            ut0 = _as_x_array(_need(initial_velocity, "initial data u_t(0, x)"), u.x)
            ut = time_derivative(u)
            phi, psi = phi_psi_wave(t, alpha, T)
            if idx in ("2", "5"):
                core = ut0[None, :] * phi[:, None] + s ** (alpha - 1.0) * _pole_integral(ut, 2.0 - alpha)
                if idx == "2":
                    return core, -s ** (alpha - 2.0) * k * ux
                return x * core, s ** (alpha - 2.0) * (K - x * k * ux)
            fint = f_modified_integral(ut, alpha).values
            core = ut0[None, :] * psi[:, None] + s ** alpha * fint
            if idx == "3":
                return core, -s ** (alpha - 1.0) * k * ux
            return x * core, s ** (alpha - 1.0) * (K - x * k * ux)

        return ConservedVectorEval(provenance, spec, fn)

    if provenance.startswith("Linear_"):
        _, kind_tag, regime, sym_tag = provenance.split("_")
        check(kind_tag in ("RL", "Cap") and regime in ("sub", "wave")
              and sym_tag in _LINEAR_SYMS, "unknown linear catalog id")
        want = Kind.RIEMANN_LIOUVILLE if kind_tag == "RL" else Kind.CAPUTO
        check(spec.kind is want, f"requires the {want.value} kind")
        check((regime == "sub") == (n == 1), "regime inconsistent with alpha")
        sub = _need(substitution, "an adjoint substitution")
        # the Noether vector of the symmetry without its xi L terms
        sym = _sym({"X3": "X3_lin"}.get(sym_tag, sym_tag), alpha, h=h)

        def fn(u: GridFunction):
            return _noether_core(characteristic(sym, u), sub.field(u.grid, u.x), u, sub,
                                 spec, diffusivity)

        return ConservedVectorEval(provenance, spec, fn)

    raise ValueError(f"unknown catalog vector id {provenance!r}")


# ---------------------------------------------------------------------------
# symmetry <-> vector correspondence
# ---------------------------------------------------------------------------

# rows: constants c1..c4; columns keyed by symmetry id
_TABLE_RL_WAVE = {
    "X1": (0, 1, 0, 2),
    "X2": (1, 3, 2, 4),
    "X3_pow": (1, 3, 2, 4),
    "X4_pow43": (3, 0, 4, 0),
    "X4_rl": (2, 4, 5, 6),
}
_TABLE_CAP_SUB = {
    "X1": ((0,), (1,)),
    "X2": ((1, 2), (3, 4)),
    "X3_pow": ((1,), (3,)),
    "X3_exp": ((1,), (3,)),
    "X4_pow43": ((3,), (0,)),
}
_TABLE_CAP_WAVE = {
    "X1": ((0,), (0,), (2,), (3,)),
    "X2": ((1, 2), (2, 3), (4, 5), (5, 6)),
    "X3_pow": ((2,), (3,), (5,), (6,)),
    "X3_exp": ((2,), (3,), (5,), (6,)),
    "X4_pow43": ((5,), (6,), (0,), (0,)),
    "X4_rl": ((1, 2, 3), (2, 3), (4, 5, 6), (5, 6)),  # conditional, u_t(0,x)=0
}
_RL_SUB_PROSE = {
    "X1": ("Zero", "Trivial_RL"),
    "X2": ("Trivial_RL", "NL_RL_sub"),
    "X3_pow": ("Trivial_RL", "NL_RL_sub"),
    "X4_pow43": ("NL_RL_sub", "Zero"),
    "X4_rl": ("NL_RL_sub_t1", "NL_RL_sub_t2"),
}


def correspondence(sym_id: str, constant: str, regime: str) -> tuple[str, ...]:
    """Catalog ids produced by (symmetry, substitution constant) in a regime.

    ``regime`` is one of RL_sub, RL_wave, Caputo_sub, Caputo_wave. Entries
    recorded as trivial in the source tables are returned as ("Zero",).
    """
    if constant not in ("c1", "c2", "c3", "c4"):
        raise ValueError("constant must be one of c1..c4")
    ci = int(constant[1]) - 1
    if regime == "RL_sub":
        if ci > 1:
            raise ValueError("RL_sub has constants c1 and c2 only")
        return (_RL_SUB_PROSE[sym_id][ci],)
    if regime == "RL_wave":
        num = _TABLE_RL_WAVE[sym_id][ci]
        return ("Zero",) if num == 0 else (f"Table1_v{num}",)
    if regime == "Caputo_sub":
        if ci > 1:
            raise ValueError("Caputo_sub has constants c1 and c2 only")
        nums = _TABLE_CAP_SUB[sym_id][ci]
        return tuple("Zero" if m == 0 else f"Table3_v{m}" for m in nums)
    if regime == "Caputo_wave":
        nums = _TABLE_CAP_WAVE[sym_id][ci]
        return tuple("Zero" if m == 0 else f"Table5_v{m}" for m in nums)
    raise ValueError(f"unknown regime {regime!r}")


# ---------------------------------------------------------------------------
# verifiers
# ---------------------------------------------------------------------------

CSV_HEADER = "provenance_id,kind,alpha,n_steps,n_x,Linf,L2,excluded_nodes,convergence_ratio"


@dataclass
class ResidualReport:
    """Norm report for a pointwise or integrated conservation residual."""

    provenance: str
    kind: str
    alpha: float
    n_steps: int
    n_x: int
    linf: float
    l2: float
    excluded_nodes: int
    convergence_ratio: Optional[float] = None
    residual: np.ndarray = field(default=None, repr=False)

    def csv_row(self) -> str:
        ratio = "" if self.convergence_ratio is None else f"{self.convergence_ratio:.6g}"
        return (f"{self.provenance},{self.kind},{self.alpha:g},{self.n_steps},"
                f"{self.n_x},{self.linf:.12g},{self.l2:.12g},{self.excluded_nodes},{ratio}")


def _time_window(n_nodes: int, exclude_frac: float) -> tuple[int, int]:
    lo = max(2, math.ceil(exclude_frac * n_nodes))
    hi = n_nodes - lo
    if hi <= lo:
        raise ValueError("exclusion window leaves no interior nodes")
    return lo, hi


def divergence_residual(cv: ConservedVectorEval, u: GridFunction,
                        exclude_frac: float = 0.05,
                        components: Optional[tuple[np.ndarray, np.ndarray]] = None,
                        ) -> ResidualReport:
    """Pointwise residual D_t C^t + D_x C^x on the interior region.

    Norms exclude ``exclude_frac`` of the time nodes at each end (initial and
    final boundary layers, where the catalog weights may be singular) and
    three space columns at each side: the one-sided edge stencils leave a
    kink in the discretization error that spreads one column per repeated
    differentiation, and the divergence stencil amplifies it by 1/h.
    ``components`` is ``cv.components(u)`` when the caller has it already.
    """
    ct, cx = cv.components(u) if components is None else components
    with np.errstate(invalid="ignore"):
        res = diff1(ct, u.grid.h, axis=0) + diff1(cx, u.hx, axis=1)
    lo, hi = _time_window(u.grid.n_steps + 1, exclude_frac)
    window = res[lo:hi, 3:-3]
    if not np.isfinite(window).all():
        raise FloatingPointError(f"{cv.provenance}: non-finite residual inside the window")
    linf = float(np.max(np.abs(window)))
    l2 = float(np.sqrt(np.mean(window ** 2)))
    excluded = 2 * lo
    return ResidualReport(cv.provenance, cv.spec.kind.value, cv.spec.alpha,
                          u.grid.n_steps, u.x.size - 1, linf, l2, excluded,
                          residual=res)


def flux_balance(cv: ConservedVectorEval, u: GridFunction,
                 exclude_frac: float = 0.05,
                 components: Optional[tuple[np.ndarray, np.ndarray]] = None) -> ResidualReport:
    """Integrated residual d/dt (integral of C^t dx) + [C^x] at the space ends.

    ``components`` is ``cv.components(u)`` when the caller has it already.
    """
    ct, cx = cv.components(u) if components is None else components
    # C^t and C^x may be infinite at the end rows, which the window excludes
    with np.errstate(invalid="ignore"):
        mass = np.trapezoid(ct, dx=u.hx, axis=1)
        bal = diff1(mass, u.grid.h) + (cx[:, -1] - cx[:, 0])
    lo, hi = _time_window(u.grid.n_steps + 1, exclude_frac)
    window = bal[lo:hi]
    if not np.isfinite(window).all():
        raise FloatingPointError(f"{cv.provenance}: non-finite balance inside the window")
    linf = float(np.max(np.abs(window)))
    l2 = float(np.sqrt(np.mean(window ** 2)))
    return ResidualReport(cv.provenance, cv.spec.kind.value, cv.spec.alpha,
                          u.grid.n_steps, u.x.size - 1, linf, l2, 2 * lo,
                          residual=bal)
