"""Conserved vectors for the time-fractional diffusion equation and their verifier.

``catalog_vector`` builds every vector from its id: ``Noether:<symmetry>``
ids apply the fractional Noether operators to the formal Lagrangian, for a
symmetry the equation admits; a ``Linear_<regime>_<symmetry>`` id is the same
vector of the linear case under its own id; the other ids are closed forms.
``conservation_residuals`` checks D_t C^t + D_x C^x = 0 on solution fields.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional

import numpy as np

from .specialfn import gamma
from .fracops import (
    Kind,
    FractionalSpec,
    TimeSeries,
    _power_samples,
    _read_only,
    _require_same_grid,
    j_integral,
    left_integral_endpoint_pole,
    rl_left_derivative,
    rl_right_derivative,
    time_derivative,
)
from .tfde import Diffusivity, tfde_residual
from .symcat import (SUBSTITUTION_REGIMES, AdjointSubstitution, characteristic,
                     list_symmetries, regime_constants, regime_of)

__all__ = [
    "ConservedVectorEval",
    "ResidualReport",
    "CSV_HEADER",
    "formal_lagrangian",
    "catalog_vector",
    "catalog_ids",
    "dense_weight_bytes",
    "correspondence",
    "conservation_residuals",
]


# ---------------------------------------------------------------------------
# formal Lagrangian and Noether operators
# ---------------------------------------------------------------------------

def formal_lagrangian(u: TimeSeries, v: TimeSeries, diffusivity: Diffusivity,
                      spec: FractionalSpec) -> TimeSeries:
    """L = v [D^alpha_t u - k'(u) u_x^2 - k(u) u_xx]; ValueError for fields on
    different time or space grids."""
    _require_same_grid(u, v)
    return TimeSeries(u.grid, v.values * tfde_residual(u, spec, diffusivity).values, x=u.x)


def _noether_ct(W: TimeSeries, v: TimeSeries, sub: Optional[AdjointSubstitution],
                spec: FractionalSpec) -> np.ndarray:
    """Time component of the Noether operators on (W, v), without the xi0 L term.

    With D^{-mu} = I^mu and the sums over k = 0..n-1:

      Riemann-Liouville kind: C^t = sum (-1)^k D_t^k v * D^{a-1-k} W - (-1)^n J(W, D_t^n v)
      Caputo kind:            C^t = sum D_t^k W * (right D^{a-1-k} v) - J(D_t^n W, v)

    ``sub`` gives D_t^k v for the Riemann-Liouville kind. The Caputo kind
    takes D_t^k W (k >= 1) of W - W(0, x), which is exactly 0 on a field
    constant in time, so no roundoff of the end stencils enters J there.
    """
    # each order is alpha - (1 + k), one rounding: the exact negation of (1 + k) - alpha
    alpha, n = spec.alpha, spec.n
    if spec.kind is Kind.RIEMANN_LIOUVILLE:
        vk = [v] + [sub.field(v.grid, v.x, k) for k in range(1, n + 1)]
        return (sum((-1) ** k * vk[k].values * rl_left_derivative(W, alpha - (1.0 + k)).values
                    for k in range(n))
                - (-1) ** n * j_integral(W, vk[n], alpha).values)
    moved = TimeSeries.from_parts(W.grid, W.regular_part() - W.values[0], W.singular, W.x)
    Wk = [W] + [time_derivative(moved, k) for k in range(1, n + 1)]
    return (sum(Wk[k].values * rl_right_derivative(v, alpha - (1.0 + k)).values
                for k in range(n))
            - j_integral(Wk[n], v, alpha).values)


def _noether_core(W: TimeSeries, v: TimeSeries, u: TimeSeries,
                  sub: AdjointSubstitution, spec: FractionalSpec,
                  diffusivity: Diffusivity) -> tuple[np.ndarray, np.ndarray]:
    """Noether operators applied to the formal Lagrangian, without the xi L terms.

    ``W`` is the characteristic of the symmetry on u, ``v`` the adjoint
    substitution on u's grid. The dropped terms xi0 L and xi1 L vanish on
    solutions. C^t is ``_noether_ct``'s, and C^x = W (v_x k - v k' u_x) - W_x v k,
    which is k0 (v_x W - v W_x) for a constant diffusivity k0.
    """
    uv = u.values
    k = diffusivity.k(uv)
    ux = u.dx_field().values
    cx = (W.values * (v.dx_field().values * k - v.values * diffusivity.k_prime(uv) * ux)
          - W.dx_field().values * v.values * k)
    return _noether_ct(W, v, sub, spec), cx


# ---------------------------------------------------------------------------
# conserved-vector evaluators
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConservedVectorEval:
    """Evaluator pair for a conserved vector (C^t, C^x)."""

    provenance: str
    spec: FractionalSpec
    _fn: Callable[[TimeSeries], tuple[np.ndarray, np.ndarray]]

    def components(self, u: TimeSeries) -> tuple[np.ndarray, np.ndarray]:
        # k(u), k'(u) and L may be infinite where an anchor value is stored as
        # 0 (u = c t^{alpha-1} with k = u^{-4/3} on row 0); the verifier reads
        # no such row and rejects non-finite values inside its windows
        with np.errstate(divide="ignore", invalid="ignore"):
            ct, cx = self._fn(u)
        return np.asarray(ct, dtype=float), np.asarray(cx, dtype=float)


def _noether_fn(name: str, sym_id: str, h: Optional[TimeSeries],
                sub: Optional[AdjointSubstitution], spec: FractionalSpec,
                diffusivity: Diffusivity):
    """The evaluator function of the Noether vector of (sym_id, sub), checked here.

    The symmetry is the one ``list_symmetries`` admits for the equation
    (X4_rl of the Caputo kind holds for u_t(0, x) = 0); ``h`` is
    the field of the Xinf generator. ``name`` heads the error messages. xi L
    is added to the core of ``_noether_core`` where xi is nonzero (L may be
    infinite at an end row), and L is not built when both xi vanish.
    """
    if sub is None:
        raise ValueError(f"{name}: requires an adjoint substitution")
    if sub.spec != spec:
        raise ValueError(f"{name}: the substitution was built for another spec")
    sym = next((s for s in list_symmetries(spec.kind, spec.alpha, diffusivity, h)
                if s.id == sym_id), None)
    if sym is None:
        raise ValueError(f"{name}: the equation does not admit the symmetry {sym_id!r}")
    if sym_id == "Xinf" and h is None:
        raise ValueError(f"{name}: Xinf requires a user-supplied solution field h")

    def fn(u: TimeSeries) -> tuple[np.ndarray, np.ndarray]:
        v = sub.field(u.grid, u.x)
        ct, cx = _noether_core(characteristic(sym, u), v, u, sub, spec, diffusivity)
        t, x = u.grid.nodes()[:, None], u.x.nodes()[None, :]
        xi_terms = ((sym.xi0(t, x, u.values), ct), (sym.xi1(t, x, u.values), cx))
        if any(np.any(coeff) for coeff, _ in xi_terms):
            L = formal_lagrangian(u, v, diffusivity, spec).values
            for coeff, comp in xi_terms:
                comp += np.where(coeff == 0.0, 0.0, coeff * L)
        return ct, cx

    return fn


# Each closed-form vector has a time component c with D_t c = w(t) (k u_x)_x on
# solutions, so its flux is -w k u_x; its x-moment partner is
# (x c, w (K - x k u_x)). A core maps (u, spec, start) to (c, w), where
# start(u) is the initial datum D^{n-1} u(0, x) on u's space grid. The core
# factories are cached, so a vector and its x-moment share one core object.

@lru_cache(maxsize=None)
def _rl_moment(j: int, printed_typo: bool = False):
    """Time moment j of the Riemann-Liouville kind, weight t^j.

    c = sum_i (-1)^i j!/(j-i)! t^{j-i} R_i with R_i = D^{a-1-i} u (an integral
    where the order is negative). ``printed_typo`` puts R_1 where R_2 belongs,
    as Table 1 prints its sixth vector.
    """

    def core(u, spec, start):
        t = u.grid.nodes()[:, None]
        a = spec.alpha

        def R(i: int) -> np.ndarray:
            r = 1 if printed_typo and i == 2 else i
            return rl_left_derivative(u, a - (1.0 + r)).values

        c = sum((-1) ** i * math.perm(j, i) * t ** (j - i) * R(i) for i in range(j + 1))
        return c, t ** j

    return core


@lru_cache(maxsize=None)
def _pole_moment(m: int):
    """Caputo core s^{a-m} I^{m+1-a}(D^m u / s), weight s^{a-m-1}, s = T - t by the anchor rule.

    For m = n - 1 it carries the initial term f0 Phi(t), f0 = D^m u(0, x), whose
    weight Phi = Gamma(a-m) - s^{a-m} I^{m+1-a}(1/s) is the same kernel on f0:
    the core is Gamma(a-m) f0 + s^{a-m} I^{m+1-a}((D^m u - f0) / s).
    """

    def core(u, spec, start):
        a = spec.alpha
        f, f0 = (time_derivative(u, m) if m else u), 0.0
        if m == spec.n - 1:
            f0 = start(u)[None, :]
            f = TimeSeries.from_parts(u.grid, f.regular_part() - f0, f.singular, u.x)
        pole = left_integral_endpoint_pole(f, m + 1.0 - a).values
        c = gamma(a - m) * f0 + _power_samples(u.grid, a - m, "end")[:, None] * pole
        return c, _power_samples(u.grid, a - m - 1.0, "end")[:, None]

    core.pole_m = m  # read by dense_weight_bytes
    return core


def _noether_time(u, spec, start):
    """Caputo n = 2 core: the Noether C^t of W = u and v = s^{a-1} (Caputo_wave,
    c2 = 1), Gamma(a) (u + s u_t) - J(u_tt, v), weight s^{a-1}, s = T - t (0 at t = T)."""
    v = AdjointSubstitution("Caputo_wave", spec, c2=1.0).field(u.grid, u.x)
    return _noether_ct(u, v, None, spec), _power_samples(u.grid, spec.alpha - 1.0, "end")[:, None]


def _trivial_caputo(u, spec, start):
    """D^{a-1-n} D^n u = I^{n+1-a} D^n u, weight 1."""
    return rl_left_derivative(time_derivative(u, spec.n), spec.alpha - (spec.n + 1.0)).values, 1.0


_RL, _CAP = Kind.RIEMANN_LIOUVILLE, Kind.CAPUTO
_KIND_NAMES = {_RL: "Riemann-Liouville", _CAP: "Caputo"}
# id -> (kind, n or None for both, core, x-moment)
_CLOSED_FORMS = {
    "Trivial_RL": (_RL, None, _rl_moment(0), False),
    "Trivial_Caputo": (_CAP, None, _trivial_caputo, False),
    "NL_RL_sub": (_RL, 1, _rl_moment(0), True),
    "NL_RL_sub_t1": (_RL, 1, _rl_moment(1), False),
    "NL_RL_sub_t2": (_RL, 1, _rl_moment(1), True),
    "Table1_v1": (_RL, 2, _rl_moment(0), False),
    "Table1_v2": (_RL, 2, _rl_moment(1), False),
    "Table1_v3": (_RL, 2, _rl_moment(0), True),
    "Table1_v4": (_RL, 2, _rl_moment(1), True),
    "Table1_v5": (_RL, 2, _rl_moment(2), False),
    "Table1_v6": (_RL, 2, _rl_moment(2, printed_typo=True), True),
    "Table1_v6_alt": (_RL, 2, _rl_moment(2), True),
    "Table3_v1": (_CAP, 1, _pole_moment(0), False),
    "Table3_v2": (_CAP, 1, _pole_moment(1), False),
    "Table3_v3": (_CAP, 1, _pole_moment(0), True),
    "Table3_v4": (_CAP, 1, _pole_moment(1), True),
    "Table5_v1": (_CAP, 2, _pole_moment(2), False),
    "Table5_v2": (_CAP, 2, _pole_moment(1), False),
    "Table5_v3": (_CAP, 2, _noether_time, False),
    "Table5_v4": (_CAP, 2, _pole_moment(2), True),
    "Table5_v5": (_CAP, 2, _pole_moment(1), True),
    "Table5_v6": (_CAP, 2, _noether_time, True),
}
# the closed forms whose core reads u_t(0, x): _pole_moment(1) at n = 2
_READS_VELOCITY = ("Table5_v2", "Table5_v5")

_LINEAR_SYMS = ("X1", "X2", "X3", "Xinf")


def dense_weight_bytes(vectors, grids) -> int:
    """Bytes of the dense (n+1)^2 float64 weights that ``vectors`` keep over ``grids``:
    per grid, one endpoint-pole matrix per order m + 1 - alpha of the closed forms."""
    orders = {getattr(_CLOSED_FORMS[vid][2], "pole_m", None) for vid in vectors
              if vid in _CLOSED_FORMS} - {None}
    return len(orders) * sum((n + 1) ** 2 * 8 for n in grids)


def catalog_ids() -> list[str]:
    """All recognized closed-form catalog provenance ids."""
    return list(_CLOSED_FORMS) + [f"{_linear_prefix(regime)}_{s}"
                                  for regime in SUBSTITUTION_REGIMES for s in _LINEAR_SYMS]


def _linear_prefix(regime: str) -> str:
    """Linear_RL_sub, ..., Linear_Cap_wave: the id prefix of the regime's linear vectors."""
    return "Linear_" + regime.replace("Caputo", "Cap")


def catalog_vector(provenance: str, spec: FractionalSpec, diffusivity: Diffusivity,
                   initial_velocity=None,
                   substitution: Optional[AdjointSubstitution] = None,
                   h: Optional[TimeSeries] = None) -> ConservedVectorEval:
    """Conserved-vector evaluator for a catalog id or a ``Noether:<symmetry>`` id.

    The closed forms that carry the initial datum read u(0, x) off the
    field; ``initial_velocity`` supplies u_t(0, x) (an array over x or a
    scalar), which a sampled field does not determine. ``Noether:``
    ids and the linear-case ids need the adjoint ``substitution`` and a
    symmetry the equation admits (``list_symmetries``; any other id raises
    ValueError); the Xinf generator additionally needs the field ``h``
    solving the linear equation. A Noether vector keeps its
    ``NoetherDerived(...)`` provenance.
    """
    n = spec.n

    def check(cond: bool, msg: str) -> None:
        if not cond:
            raise ValueError(f"{provenance}: {msg}")

    if provenance in _CLOSED_FORMS:
        kind, want_n, core, moment = _CLOSED_FORMS[provenance]
        span = {None: "", 1: " with alpha in (0,1)", 2: " with alpha in (1,2)"}[want_n]
        check(spec.kind is kind and want_n in (None, n),
              f"requires the {_KIND_NAMES[kind]} kind{span}")
        check(initial_velocity is not None or provenance not in _READS_VELOCITY,
              "requires the initial data u_t(0, x)")

        velocity = np.asarray(initial_velocity, dtype=float)
        # (c, w) depends on the field, the spec and u_t(0, x) alone, so it is
        # kept on the field, read-only, for every vector with the same core
        key = ("core", core, spec, velocity.tobytes())

        def start(u: TimeSeries) -> np.ndarray:
            if n == 1:
                return u.values[0]
            return np.broadcast_to(velocity, (u.x.n_x + 1,))

        def fn(u: TimeSeries):
            c, w = u._memoized(key, lambda: tuple(
                _read_only(np.asarray(a, dtype=float)) for a in core(u, spec, start)))
            kux = diffusivity.k(u.values) * u.dx_field().values
            if not moment:
                return c, -w * kux
            x = u.x.nodes()[None, :]
            flux = w * (diffusivity.K(u.values) - x * kux)
            return x * c, flux

        return ConservedVectorEval(provenance, spec, fn)

    if provenance.startswith("Noether:"):
        sym_id = provenance.split(":", 1)[1]
        fn = _noether_fn(provenance, sym_id, h, substitution, spec, diffusivity)
        return ConservedVectorEval(f"NoetherDerived({sym_id},{substitution.regime})", spec, fn)

    if provenance in catalog_ids():  # Linear_<regime>_<symmetry>
        prefix, sym_tag = provenance.rsplit("_", 1)
        regime = regime_of(spec)
        check(prefix == _linear_prefix(regime), f"does not fit the {regime} regime of the spec")
        fn = _noether_fn(provenance, {"X3": "X3_lin"}.get(sym_tag, sym_tag), h, substitution,
                         spec, diffusivity)
        return ConservedVectorEval(provenance, spec, fn)

    raise ValueError(f"unknown catalog vector id {provenance!r}")


# ---------------------------------------------------------------------------
# symmetry <-> vector correspondence
# ---------------------------------------------------------------------------

# regime -> symmetry id -> the catalog ids of each constant c1..c_2n, joined
# by "+"; "Zero" marks an entry the source tables record as trivial. In the
# linear case every constant gives the regime's Linear_* vector of X3_lin or Xinf.
_CORRESPONDENCE = {
    "RL_sub": {
        "X3_lin": ("Linear_RL_sub_X3",) * 2,
        "Xinf": ("Linear_RL_sub_Xinf",) * 2,
        "X1": ("Zero", "Trivial_RL"),
        "X2": ("Trivial_RL", "NL_RL_sub"),
        "X3_pow": ("Trivial_RL", "NL_RL_sub"),
        "X4_pow43": ("NL_RL_sub", "Zero"),
        "X4_rl": ("NL_RL_sub_t1", "NL_RL_sub_t2"),
    },
    "RL_wave": {
        "X3_lin": ("Linear_RL_wave_X3",) * 4,
        "Xinf": ("Linear_RL_wave_Xinf",) * 4,
        "X1": ("Zero", "Table1_v1", "Zero", "Table1_v2"),
        "X2": ("Table1_v1", "Table1_v3", "Table1_v2", "Table1_v4"),
        "X3_pow": ("Table1_v1", "Table1_v3", "Table1_v2", "Table1_v4"),
        "X4_pow43": ("Table1_v3", "Zero", "Table1_v4", "Zero"),
        "X4_rl": ("Table1_v2", "Table1_v4", "Table1_v5", "Table1_v6"),
    },
    "Caputo_sub": {
        "X3_lin": ("Linear_Cap_sub_X3",) * 2,
        "Xinf": ("Linear_Cap_sub_Xinf",) * 2,
        "X1": ("Zero", "Table3_v1"),
        "X2": ("Table3_v1+Table3_v2", "Table3_v3+Table3_v4"),
        "X3_pow": ("Table3_v1", "Table3_v3"),
        "X3_exp": ("Table3_v1", "Table3_v3"),
        "X4_pow43": ("Table3_v3", "Zero"),
    },
    "Caputo_wave": {
        "X3_lin": ("Linear_Cap_wave_X3",) * 4,
        "Xinf": ("Linear_Cap_wave_Xinf",) * 4,
        "X1": ("Zero", "Zero", "Table5_v2", "Table5_v3"),
        "X2": ("Table5_v1+Table5_v2", "Table5_v2+Table5_v3",
               "Table5_v4+Table5_v5", "Table5_v5+Table5_v6"),
        "X3_pow": ("Table5_v2", "Table5_v3", "Table5_v5", "Table5_v6"),
        "X3_exp": ("Table5_v2", "Table5_v3", "Table5_v5", "Table5_v6"),
        "X4_pow43": ("Table5_v5", "Table5_v6", "Zero", "Zero"),
        # conditional, u_t(0, x) = 0
        "X4_rl": ("Table5_v1+Table5_v2+Table5_v3", "Table5_v2+Table5_v3",
                  "Table5_v4+Table5_v5+Table5_v6", "Table5_v5+Table5_v6"),
    },
}


def correspondence(sym_id: str, constant: str, regime: str) -> tuple[str, ...]:
    """Catalog ids produced by (symmetry, substitution constant) in a regime.

    ``regime`` is one of ``SUBSTITUTION_REGIMES``. Entries recorded as
    trivial in the source tables are returned as ("Zero",). An unknown
    regime, a symmetry without an entry or a constant the regime does not
    take raise ValueError.
    """
    names = regime_constants(regime)
    if constant not in names:
        raise ValueError(f"{regime} takes the constants {', '.join(names)} only")
    if sym_id not in _CORRESPONDENCE[regime]:
        raise ValueError(f"{regime} has no entry for the symmetry {sym_id!r}")
    return tuple(_CORRESPONDENCE[regime][sym_id][names.index(constant)].split("+"))


# ---------------------------------------------------------------------------
# verifier
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

    def csv_row(self) -> str:
        ratio = "" if self.convergence_ratio is None else f"{self.convergence_ratio:.6g}"
        return (f"{self.provenance},{self.kind},{self.alpha:g},{self.n_steps},"
                f"{self.n_x},{self.linf:.12g},{self.l2:.12g},{self.excluded_nodes},{ratio}")


def _time_window(n_steps: int, exclude_frac: float) -> tuple[int, int]:
    """The time rows lo:hi a report measures on ``n_steps`` steps: ``exclude_frac``
    of the nodes, and at least 2, dropped at each end; ValueError if none is left."""
    lo = max(2, math.ceil(exclude_frac * (n_steps + 1)))
    if n_steps + 1 - lo <= lo:
        raise ValueError(f"exclude_frac = {exclude_frac:g} leaves no time node on {n_steps} steps")
    return lo, n_steps + 1 - lo


def _report(cv: ConservedVectorEval, u: TimeSeries, window: np.ndarray, lo: int,
            what: str) -> ResidualReport:
    """Norms of ``window``, a residual on the time rows lo:hi of ``_time_window``."""
    if not np.isfinite(window).all():
        raise FloatingPointError(f"{cv.provenance}: non-finite {what} inside the window")
    linf = float(np.max(np.abs(window)))
    l2 = float(np.sqrt(np.mean(window ** 2)))
    return ResidualReport(cv.provenance, cv.spec.kind.value, cv.spec.alpha,
                          u.grid.n_steps, u.x.n_x, linf, l2, 2 * lo)


def conservation_residuals(cv: ConservedVectorEval, u: TimeSeries, exclude_frac: float = 0.05,
                           ) -> tuple[ResidualReport, ResidualReport]:
    """Reports of D_t C^t + D_x C^x = 0 on one evaluation of the vector: the
    pointwise residual and the integrated balance d/dt (int C^t dx) + [C^x].

    Both are computed on the time rows lo..hi-1 alone, D_t by central
    differences, so the ``exclude_frac`` of the nodes at each end (initial and
    final boundary layers, where the catalog weights may be singular) never
    enter. The residual, D_x by central differences too, drops three space
    columns at each side: the one-sided edge stencils leave a kink in the
    discretization error that spreads one column per repeated differentiation,
    and the divergence stencil amplifies it by 1/h.
    """
    if u.x.n_x < 6:
        raise ValueError("the residual's space window drops 3 columns at each side "
                         f"and needs n_x >= 6, got n_x = {u.x.n_x}")
    lo, hi = _time_window(u.grid.n_steps, exclude_frac)
    ct, cx = cv.components(u)
    res = ((ct[lo + 1:hi + 1, 3:-3] - ct[lo - 1:hi - 1, 3:-3]) / (2.0 * u.grid.h)
           + (cx[lo:hi, 4:-2] - cx[lo:hi, 2:-4]) / (2.0 * u.hx))
    residual = _report(cv, u, res, lo, "residual")
    mass = np.trapezoid(ct[lo - 1:hi + 1], dx=u.hx, axis=1)
    bal = (mass[2:] - mass[:-2]) / (2.0 * u.grid.h) + (cx[lo:hi, -1] - cx[lo:hi, 0])
    return residual, _report(cv, u, bal, lo, "balance")
