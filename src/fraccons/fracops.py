"""Discretized fractional integrals and derivatives on uniform time grids.

All quadratures are product-integration rules that integrate the singular
kernel exactly against piecewise-linear interpolants of the data, so they
are exact (to roundoff) on piecewise-linear inputs. Known algebraic
singularities of the data at either end of the time interval are carried
as explicit power-law terms and handled by exact power rules, since a
piecewise-linear interpolant cannot resolve them.

Every kernel acts on axis 0 of the whole sample array, so a space-time
field with a trailing space axis is processed in one call.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .specialfn import DEFAULT_SERIES_CONTROL, SeriesControl, gamma, hyp2f1, reciprocal_gamma

__all__ = [
    "Kind",
    "FractionalSpec",
    "TimeGrid",
    "TimeSeries",
    "SingularTerm",
    "left_frac_integral",
    "right_frac_integral",
    "rl_left_derivative",
    "rl_right_derivative",
    "caputo_left_derivative",
    "caputo_right_derivative",
    "gl_left_derivative",
    "j_integral",
    "f_modified_integral",
    "left_integral_endpoint_pole",
    "diff1",
    "diff2",
]

# matrices kept per weight builder; a full selftest builds at most 9 distinct
# ones per builder, a verify call fewer (counts per workload in CHANGES.md)
_CACHE_SIZE = 16


class Kind(enum.Enum):
    RIEMANN_LIOUVILLE = "rl"
    CAPUTO = "caputo"


@dataclass(frozen=True)
class FractionalSpec:
    """Derivative kind and order for a time-fractional problem."""

    kind: Kind
    alpha: float
    T: float

    def __post_init__(self) -> None:
        if not (0.0 < self.alpha < 2.0) or self.alpha == 1.0:
            raise ValueError("alpha must lie in (0,2) with alpha != 1")
        if self.T <= 0:
            raise ValueError("T must be positive")

    @property
    def n(self) -> int:
        return 1 if self.alpha < 1.0 else 2


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid on [0, T] with nodes t_i = i*h."""

    T: float
    n_steps: int

    def __post_init__(self) -> None:
        if self.T <= 0:
            raise ValueError("T must be positive")
        if self.n_steps < 2:
            raise ValueError("n_steps must be >= 2")

    @property
    def h(self) -> float:
        return self.T / self.n_steps

    def nodes(self) -> np.ndarray:
        return np.linspace(0.0, self.T, self.n_steps + 1)


def _power_samples(grid: TimeGrid, power: float, anchor: str) -> np.ndarray:
    """t^power ('start') or (T-t)^power ('end') at the nodes; 0 where the base is 0 and power < 0."""
    t = grid.nodes()
    s = t if anchor == "start" else grid.T - t
    return np.power(s, power, out=np.zeros_like(s), where=(s > 0.0) | (power >= 0.0))


def _along_time(col: np.ndarray, ndim: int) -> np.ndarray:
    """View of a per-node vector that broadcasts against ndim-dimensional samples."""
    return col.reshape(col.shape + (1,) * (ndim - 1))


@dataclass(frozen=True, eq=False)
class SingularTerm:
    """Algebraic term coeff * t^power (anchor 'start') or coeff * (T-t)^power ('end').

    ``coeff`` is a float, or an (m,) array holding one coefficient per space
    column of a field.
    """

    coeff: float | np.ndarray
    power: float
    anchor: str = "start"

    def __post_init__(self) -> None:
        c = np.asarray(self.coeff, dtype=float)
        object.__setattr__(self, "coeff", float(c) if c.ndim == 0 else c)
        if self.anchor not in ("start", "end"):
            raise ValueError("anchor must be 'start' or 'end'")
        if self.power <= -1.0:
            raise ValueError("singular power must be > -1 for integrability")

    def sample(self, grid: TimeGrid) -> np.ndarray:
        """Samples of the term; 0 at the anchor node when the power is negative."""
        return np.multiply.outer(_power_samples(grid, self.power, self.anchor), self.coeff)


def _anchor_entries(terms) -> list[tuple[int, np.ndarray]]:
    """(row, column mask) of the entries where a negative-power term is infinite:
    its anchor row, in the columns where its coefficient is nonzero."""
    return [(0 if tm.anchor == "start" else -1, np.asarray(tm.coeff) != 0.0)
            for tm in terms if tm.power < 0.0]


def _zero_anchors(v: np.ndarray, terms) -> np.ndarray:
    """Set the entries of v where a term is infinite to 0, in place."""
    for row, hit in _anchor_entries(terms):
        v[row] = np.where(hit, 0.0, v[row])
    return v


def _fit_terms(terms, space: tuple) -> tuple[SingularTerm, ...]:
    """The nonzero terms, with a float coefficient spread over the space axis ``space``."""
    out = []
    for term in terms:
        if np.ndim(term.coeff) == 0 and space:
            term = SingularTerm(np.full(space, term.coeff), term.power, term.anchor)
        if np.shape(term.coeff) != space:
            raise ValueError("term coefficients must match the space axis of the values")
        if np.any(term.coeff):
            out.append(term)
    return tuple(out)


@dataclass(frozen=True)
class TimeSeries:
    """Sampled f(t) on a TimeGrid, with optional explicit power-law terms.

    ``values`` has shape (n_steps+1,), or (n_steps+1, m) for a field with a
    trailing space axis; every kernel acts on axis 0. The values are samples
    of the full function and must be finite at interior nodes. Where a term
    with a negative power is infinite (its anchor node, in the columns where
    its coefficient is nonzero) the value is stored as 0, and the term
    carries the singularity; so the library's kernels return finite samples
    throughout. Term coefficients are floats for 1-D values and (m,) arrays
    otherwise; all-zero terms are dropped.
    """

    grid: TimeGrid
    values: np.ndarray
    singular: tuple[SingularTerm, ...] = ()

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=float)
        if v.ndim not in (1, 2) or v.shape[0] != self.grid.n_steps + 1:
            raise ValueError("values must have one row per grid node")
        if not np.isfinite(v[1:-1]).all():
            raise ValueError("values must be finite at interior nodes")
        terms = _fit_terms(self.singular, v.shape[1:])
        # copy only when some anchor entry is not 0 yet: from_parts, the
        # kernels' constructor, zeroes them in its own array
        if any(np.any(np.where(hit, v[row], 0.0)) for row, hit in _anchor_entries(terms)):
            v = _zero_anchors(v.copy(), terms)
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "singular", terms)

    @classmethod
    def from_function(cls, grid: TimeGrid, fn, singular: tuple[SingularTerm, ...] = ()) -> "TimeSeries":
        with np.errstate(divide="ignore"):
            return cls(grid, np.asarray(fn(grid.nodes()), dtype=float), singular)

    @classmethod
    def from_parts(cls, grid: TimeGrid, reg: np.ndarray, singular=(), **fields):
        """Series whose values are ``reg`` plus the samples of the terms ``singular``.

        ``fields`` holds the further constructor arguments of a subclass.
        """
        vals = np.array(reg, dtype=float)
        terms = _fit_terms(singular, vals.shape[1:])
        for term in terms:
            vals += term.sample(grid)
        return cls(grid=grid, values=_zero_anchors(vals, terms), singular=terms, **fields)

    def regular_part(self) -> np.ndarray:
        """Samples of the function minus all declared power-law terms.

        It is 0 where a term is infinite (the term dominates there by
        assumption), like the values.
        """
        reg = self.values.copy()
        for term in self.singular:
            reg -= term.sample(self.grid)
        return _zero_anchors(reg, self.singular)


def _require_same_grid(a: TimeSeries, b: TimeSeries) -> None:
    if a.grid != b.grid:
        raise ValueError("time series are defined on different grids")


def _read_only(mat: np.ndarray) -> np.ndarray:
    mat.setflags(write=False)
    return mat


# ---------------------------------------------------------------------------
# piecewise-linear product-integration weights
# ---------------------------------------------------------------------------

@lru_cache(maxsize=_CACHE_SIZE)
def _pl_weight_matrix(n_steps: int, mu: float, h: float) -> np.ndarray:
    """Lower-triangular W with (I^mu f)(t_i) = sum_j W[i,j] f_j, exact for piecewise-linear f."""
    n = n_steps
    W = np.zeros((n + 1, n + 1))
    k = np.arange(0, n + 2, dtype=float)
    kp = k ** (mu + 1.0)
    scale = h ** mu / gamma(mu + 2.0)
    # interior lags share the same second-difference weights
    d = kp[2:] - 2.0 * kp[1:-1] + kp[:-2]  # d[k-1] = (k+1)^{mu+1} - 2k^{mu+1} + (k-1)^{mu+1}
    for i in range(1, n + 1):
        W[i, i] = 1.0
        W[i, 0] = (i - 1.0) ** (mu + 1.0) - i ** (mu + 1.0) + (mu + 1.0) * i ** mu
        if i >= 2:
            lags = np.arange(1, i)
            W[i, i - lags] = d[lags - 1]
    W *= scale
    return _read_only(W)


def _integral_of_end_power(coeff, p: float, mu: float, grid: TimeGrid,
                           ctl: SeriesControl = DEFAULT_SERIES_CONTROL) -> np.ndarray:
    """Exact samples of I^mu applied to coeff * (T - t)^p.

    (1/Gamma(mu)) int_0^t (t-tau)^{mu-1} (T-tau)^p dtau
      = coeff * t^mu (T-t)^{p+mu} T^{-mu} / Gamma(mu+1)
        * 2F1(mu+1+p, mu; mu+1; t/T)
    (Euler integral plus the Pfaff transformation).
    """
    t = grid.nodes()
    T = grid.T
    col = np.zeros_like(t)
    tt = t[1:-1]
    c = T - tt
    fvals = hyp2f1(mu + 1.0 + p, mu, mu + 1.0, tt / T, ctl)
    col[1:-1] = tt ** mu * c ** (p + mu) * T ** (-mu) * fvals / gamma(mu + 1.0)
    # at t = T the kernel and the pole coalesce; elementary closed form, and
    # infinite when mu + p <= 0, stored as 0 like the anchor value of a term
    col[-1] = T ** (mu + p) / ((mu + p) * gamma(mu)) if mu + p > 0 else 0.0
    return np.multiply.outer(col, coeff)


def _reverse(f: TimeSeries) -> TimeSeries:
    flipped = tuple(SingularTerm(s.coeff, s.power, "end" if s.anchor == "start" else "start")
                    for s in f.singular)
    return TimeSeries(f.grid, f.values[::-1].copy(), flipped)


def left_frac_integral(f: TimeSeries, mu: float) -> TimeSeries:
    """Left-sided fractional integral (0I^mu_t f) at every grid node."""
    if mu <= 0:
        raise ValueError("fractional integral order mu must be positive")
    grid = f.grid
    W = _pl_weight_matrix(grid.n_steps, mu, grid.h)
    vals = W @ f.regular_part()
    out_terms: list[SingularTerm] = []
    for term in f.singular:
        p = term.power
        if term.anchor == "start":
            # power rule: I^mu t^p = Gamma(p+1)/Gamma(p+mu+1) t^{p+mu}
            c2 = term.coeff * gamma(p + 1.0) * reciprocal_gamma(p + mu + 1.0)
            out_terms.append(SingularTerm(c2, p + mu, "start"))
        else:
            vals += _integral_of_end_power(term.coeff, p, mu, grid)
    return TimeSeries.from_parts(grid, vals, out_terms)


def right_frac_integral(f: TimeSeries, mu: float) -> TimeSeries:
    """Right-sided fractional integral (tI^mu_T f) at every grid node."""
    return _reverse(left_frac_integral(_reverse(f), mu))


# ---------------------------------------------------------------------------
# finite differences
# ---------------------------------------------------------------------------

def diff1(v: np.ndarray, h: float, axis: int = 0) -> np.ndarray:
    """Second-order first derivative: central interior, one-sided ends."""
    v = np.moveaxis(np.asarray(v, dtype=float), axis, 0)
    out = np.empty_like(v)
    out[1:-1] = (v[2:] - v[:-2]) / (2.0 * h)
    out[0] = (-3.0 * v[0] + 4.0 * v[1] - v[2]) / (2.0 * h)
    out[-1] = (3.0 * v[-1] - 4.0 * v[-2] + v[-3]) / (2.0 * h)
    return np.moveaxis(out, 0, axis)


def diff2(v: np.ndarray, h: float, axis: int = 0) -> np.ndarray:
    """Second-order second derivative: central interior, one-sided ends."""
    v = np.moveaxis(np.asarray(v, dtype=float), axis, 0)
    out = np.empty_like(v)
    out[1:-1] = (v[2:] - 2.0 * v[1:-1] + v[:-2]) / h ** 2
    out[0] = (2.0 * v[0] - 5.0 * v[1] + 4.0 * v[2] - v[3]) / h ** 2
    out[-1] = (2.0 * v[-1] - 5.0 * v[-2] + 4.0 * v[-3] - v[-4]) / h ** 2
    return np.moveaxis(out, 0, axis)


def _falling(p: float, n: int) -> float:
    out = 1.0
    for k in range(n):
        out *= p - k
    return out


def _diff_terms(terms: tuple[SingularTerm, ...], n: int) -> tuple[SingularTerm, ...]:
    """Analytic n-th time derivatives of power terms."""
    out: list[SingularTerm] = []
    for term in terms:
        c = term.coeff * _falling(term.power, n) * ((-1.0) ** n if term.anchor == "end" else 1.0)
        if not np.any(c):
            continue
        p = term.power - n
        if p <= -1.0:
            raise ValueError(
                f"derivative of singular term t^{term.power} has non-integrable order {p}"
            )
        out.append(SingularTerm(c, p, term.anchor))
    return tuple(out)


def time_derivative(f: TimeSeries, order: int = 1) -> TimeSeries:
    """Discrete d^order/dt^order, differentiating declared power terms analytically."""
    if order not in (1, 2):
        raise ValueError("only first and second time derivatives are supported")
    grid = f.grid
    reg = f.regular_part()
    dreg = diff1(reg, grid.h) if order == 1 else diff2(reg, grid.h)
    return TimeSeries.from_parts(grid, dreg, _diff_terms(f.singular, order))


def _order_and_n(alpha: float) -> int:
    if not (0.0 < alpha < 2.0) or alpha == 1.0:
        raise ValueError("alpha must lie in (0,2) with alpha != 1")
    return 1 if alpha < 1.0 else 2


def _derivative_order(alpha: float, grid: TimeGrid) -> int:
    n = _order_and_n(alpha)
    if grid.n_steps < 2 * n + (n - 1):
        raise ValueError("grid too coarse for the requested derivative order")
    return n


def rl_left_derivative(f: TimeSeries, alpha: float) -> TimeSeries:
    """Riemann-Liouville left derivative D^n (0I^{n-alpha} f)."""
    n = _derivative_order(alpha, f.grid)
    return time_derivative(left_frac_integral(f, n - alpha), n)


def caputo_left_derivative(f: TimeSeries, alpha: float) -> TimeSeries:
    """Caputo left derivative 0I^{n-alpha} (D^n f) (L1-type discretization)."""
    n = _derivative_order(alpha, f.grid)
    return left_frac_integral(time_derivative(f, n), n - alpha)


def rl_right_derivative(f: TimeSeries, alpha: float) -> TimeSeries:
    """Right RL derivative (-1)^n D^n (tI^{n-alpha}_T f)."""
    return _reverse(rl_left_derivative(_reverse(f), alpha))


def caputo_right_derivative(f: TimeSeries, alpha: float) -> TimeSeries:
    """Right Caputo derivative (-1)^n tI^{n-alpha}_T (D^n f)."""
    return _reverse(caputo_left_derivative(_reverse(f), alpha))


def gl_left_derivative(f: TimeSeries, alpha: float) -> TimeSeries:
    """Grunwald-Letnikov cross-check mode for the left RL derivative."""
    _order_and_n(alpha)
    grid = f.grid
    v = f.values
    n = grid.n_steps
    w = np.empty(n + 1)
    w[0] = 1.0
    for k in range(1, n + 1):
        w[k] = w[k - 1] * (1.0 - (alpha + 1.0) / k)
    out = np.empty_like(v)
    for i in range(n + 1):
        out[i] = np.dot(w[: i + 1], v[i::-1])
    return TimeSeries(grid, out / grid.h ** alpha)


# ---------------------------------------------------------------------------
# the J double integral
# ---------------------------------------------------------------------------

def _j_cellpairs(tau0, tau1, mu0, mu1, f0, f1, g0, g1, beta, h):
    """Exact integral of f_lin(tau) g_lin(mu) (mu-tau)^{beta-1} over cell pairs.

    All cell arguments may be arrays (broadcast together); requires mu0 >= tau1.
    """
    dg = g1 - g0
    df = f1 - f0
    bc = dg / (h * (beta + 1.0))
    total = 0.0
    for mu_c, sgn in ((mu1, 1.0), (mu0, -1.0)):
        upper = mu_c - tau0
        lower = mu_c - tau1
        f_at = f0 + df * (mu_c - tau0) / h
        g_at = (g0 + dg * (mu_c - mu0) / h) / beta
        p0 = f_at * g_at
        p1 = -(f_at * dg / (h * beta) + g_at * df / h)
        p2 = df * dg / (h * h * beta)

        def S(e):
            return (upper ** (e + 1.0) - lower ** (e + 1.0)) / (e + 1.0)

        term = p0 * S(beta) + p1 * S(beta + 1.0) + p2 * S(beta + 2.0)
        term += bc * (f_at * S(beta + 1.0) - (df / h) * S(beta + 2.0))
        total = total + sgn * term
    return total


def _j_piecewise_linear(fv: np.ndarray, gv: np.ndarray, grid: TimeGrid, beta: float) -> np.ndarray:
    n = grid.n_steps
    h = grid.h
    t = _along_time(grid.nodes(), max(fv.ndim, gv.ndim))
    out = np.zeros(np.broadcast_shapes(fv.shape, gv.shape))
    acc = 0.0
    for i in range(n):
        # strip gained: tau-cell i against mu-cells i+1..n-1
        q = np.arange(i + 1, n)
        a_i = _j_cellpairs(t[i], t[i + 1], t[q], t[q + 1],
                           fv[i], fv[i + 1], gv[q], gv[q + 1], beta, h).sum(axis=0)
        # strip lost: mu-cell i against tau-cells 0..i-1
        p = np.arange(0, i)
        b_i = _j_cellpairs(t[p], t[p + 1], t[i], t[i + 1],
                           fv[p], fv[p + 1], gv[i], gv[i + 1], beta, h).sum(axis=0)
        acc = acc + (a_i - b_i)
        out[i + 1] = acc
    return out / gamma(beta)


def _incomplete_beta_vec(x: np.ndarray, a: float, b: float,
                         ctl: SeriesControl = DEFAULT_SERIES_CONTROL) -> np.ndarray:
    """B(x; a, b) = x^a/a * 2F1(a, 1-b; a+1; x) for x in [0, 1]."""
    x = np.asarray(x, dtype=float)
    return x ** a / a * hyp2f1(a, 1.0 - b, a + 1.0, x, ctl)


@lru_cache(maxsize=_CACHE_SIZE)
def _j_start_power_matrix(grid: TimeGrid, p: float, beta: float) -> np.ndarray:
    """P[i,q] = int_0^{t_i} tau^p (t_q - tau)^{beta-1} dtau for q >= i >= 1."""
    t = grid.nodes()
    n = grid.n_steps
    P = np.zeros((n + 1, n + 1))
    ii, qq = np.triu_indices(n + 1)
    keep = ii >= 1
    ii, qq = ii[keep], qq[keep]
    x = t[ii] / t[qq]
    vals = t[qq] ** (p + beta) * _incomplete_beta_vec(x, p + 1.0, beta)
    P[ii, qq] = vals
    return _read_only(P)


@lru_cache(maxsize=_CACHE_SIZE)
def _j_end_power_matrix(grid: TimeGrid, q: float, beta: float) -> np.ndarray:
    """Q[i,p] = int_{t_i}^T (T-mu)^q (mu - t_p)^{beta-1} dmu for p <= i <= n-1."""
    t = grid.nodes()
    T = grid.T
    n = grid.n_steps
    Q = np.zeros((n + 1, n + 1))
    pp, ii = np.triu_indices(n + 1)  # p <= i
    keep = ii <= n - 1
    pp, ii = pp[keep], ii[keep]
    x = (T - t[ii]) / (T - t[pp])
    vals = (T - t[pp]) ** (q + beta) * _incomplete_beta_vec(x, q + 1.0, beta)
    Q[ii, pp] = vals
    return _read_only(Q)


def _trapz_tail(P: np.ndarray, g: np.ndarray, h: float) -> np.ndarray:
    """out[i] = trapezoid rule over q = i..n of P[i, q] g[q]; P is upper triangular."""
    diag = _along_time(np.diagonal(P), g.ndim)
    last = _along_time(P[:, -1], g.ndim)
    return h * (P @ g - 0.5 * (diag * g + last * g[-1]))


def _trapz_head(Q: np.ndarray, f: np.ndarray, h: float) -> np.ndarray:
    """out[i] = trapezoid rule over p = 0..i of Q[i, p] f[p]; Q is lower triangular."""
    diag = _along_time(np.diagonal(Q), f.ndim)
    first = _along_time(Q[:, 0], f.ndim)
    return h * (Q @ f - 0.5 * (first * f[0] + diag * f))


def _start_power_cell_weights(grid: TimeGrid, p: float) -> tuple[np.ndarray, np.ndarray]:
    """Exact moments of tau^p against the two hat functions on each cell."""
    t = grid.nodes()
    h = grid.h
    m0 = np.diff(t ** (p + 1.0)) / (p + 1.0)
    m1 = np.diff(t ** (p + 2.0)) / (p + 2.0)
    return (t[1:] * m0 - m1) / h, (m1 - t[:-1] * m0) / h


def _power_weighted_head(Q: np.ndarray, p: float, grid: TimeGrid) -> np.ndarray:
    """out[i] = int_0^{t_i} tau^p * PL(Q[i, .])(tau) dtau.

    Integrates the power weight exactly against the piecewise-linear
    interpolant of the Q row, so integrable singularities of tau^p at
    tau = 0 cost no accuracy. Q is lower triangular, so cell j < i pairs
    Q[i, j] with wl[j] and Q[i, j+1] with wr[j].
    """
    wl, wr = _start_power_cell_weights(grid, p)
    return Q[:, :-1] @ wl + Q[:, 1:] @ wr - np.diagonal(Q) * np.append(wl, 0.0)


def j_integral(f: TimeSeries, g: TimeSeries, alpha: float) -> TimeSeries:
    """J(f,g)(t_i) = (1/Gamma(n-a)) int_0^{t_i} int_{t_i}^T f(tau) g(mu) (mu-tau)^{n-a-1} dmu dtau."""
    _require_same_grid(f, g)
    n = _order_and_n(alpha)
    beta = n - alpha
    grid = f.grid
    h = grid.h
    f_start = [tm for tm in f.singular if tm.anchor == "start"]
    g_end = [tm for tm in g.singular if tm.anchor == "end"]
    # f is integrated over [0, t] and g over [t, T], so f's end terms and g's
    # start terms are smooth there and are sampled with the regular parts
    f_lin = f.regular_part() + sum(tm.sample(grid) for tm in f.singular if tm.anchor == "end")
    g_lin = g.regular_part() + sum(tm.sample(grid) for tm in g.singular if tm.anchor == "start")
    # J is bilinear: skip the O(n^2) sweep when either factor is zero (v_tt
    # of the polynomial substitutions, for example)
    if not (f_start or f_lin.any()) or not (g_end or g_lin.any()):
        return TimeSeries(grid, np.zeros(np.broadcast_shapes(f_lin.shape, g_lin.shape)))
    inv_gb = reciprocal_gamma(beta)
    out = _j_piecewise_linear(f_lin, g_lin, grid, beta)
    for term in f_start:
        P = _j_start_power_matrix(grid, term.power, beta)
        out += term.coeff * inv_gb * _trapz_tail(P, g_lin, h)
    for term in g_end:
        Q = _j_end_power_matrix(grid, term.power, beta)
        out += term.coeff * inv_gb * _trapz_head(Q, f_lin, h)
        for t2 in f_start:
            head = _power_weighted_head(Q, t2.power, grid)
            out += np.multiply.outer(head, term.coeff * t2.coeff * inv_gb)
    return TimeSeries(grid, out)


# ---------------------------------------------------------------------------
# hypergeometric-kernel integrals
# ---------------------------------------------------------------------------

def f_modified_integral(f: TimeSeries, alpha: float) -> TimeSeries:
    """(F0I^{2-alpha}_t f)(t_i): fractional integral of order 2-alpha whose kernel
    carries the extra factor 2F1(1, 1; 2-alpha; (t-tau)/(T-tau))."""
    if not (1.0 < alpha < 2.0):
        raise ValueError("f_modified_integral requires alpha in (1,2)")
    grid = f.grid
    M = _fmod_weight_matrix(grid, alpha)
    return TimeSeries(grid, M @ f.values)


@lru_cache(maxsize=_CACHE_SIZE)
def _fmod_weight_matrix(grid: TimeGrid, alpha: float) -> np.ndarray:
    t = grid.nodes()
    n = grid.n_steps
    mu = 2.0 - alpha
    W = _pl_weight_matrix(n, mu, grid.h)
    # hypergeometric kernel factor at node pairs; diverges only at (i=n, j->n)
    H = np.zeros((n + 1, n + 1))
    ii, jj = np.tril_indices(n + 1)
    z = np.zeros(len(ii))
    denom = grid.T - t[jj]
    ok = denom > 0
    z[ok] = (t[ii][ok] - t[jj][ok]) / denom[ok]
    z = np.clip(z, 0.0, 1.0 - 1e-13)
    H[ii, jj] = hyp2f1(1.0, 1.0, mu, z)
    return _read_only(W * H)


@lru_cache(maxsize=_CACHE_SIZE)
def _endpoint_pole_weight_matrix(grid: TimeGrid, mu: float) -> np.ndarray:
    """Weights V with (I^mu (f/(T-.)))(t_i) = sum_j V[i,j] f_j, exact for piecewise-linear f.

    Kernel (t-tau)^{mu-1} / ((T-tau) Gamma(mu)) integrated exactly per cell via
      E_k(s) = int_0^s sigma^{mu-1+k}/(c+sigma) dsigma
             = s^{nu}/(nu (c+s)) 2F1(1, 1; nu+1; s/(s+c)),  nu = mu+k,  c = T-t_i.
    """
    t = grid.nodes()
    T = grid.T
    n = grid.n_steps
    h = grid.h
    # s values at all (i, j) node pairs, j <= i, with c = T - t_i per row
    ii, jj = np.tril_indices(n + 1)
    keep = ii >= 1
    ii, jj = ii[keep], jj[keep]
    s = t[ii] - t[jj]
    c = T - t[ii]
    w = np.zeros_like(s)
    pos = (s > 0) & (c > 0)
    w[pos] = s[pos] / (s[pos] + c[pos])
    E = {}
    for k in (0, 1):
        nu = mu + k
        vals = np.zeros_like(s)
        fvals = hyp2f1(1.0, 1.0, nu + 1.0, w[pos])
        vals[pos] = s[pos] ** nu / (nu * (c[pos] + s[pos])) * fvals
        Em = np.zeros((n + 1, n + 1))
        Em[ii, jj] = vals
        E[k] = Em
    V = np.zeros((n + 1, n + 1))
    for i in range(1, n + 1):
        if T - t[i] <= 0:
            continue  # row at t=T is excluded (kernel pole inside the interval)
        e0 = E[0][i, : i + 1]
        e1 = E[1][i, : i + 1]
        # per cell j: dE over [s(j+1->i), s(j->i)] with s decreasing in j... s_j = t_i - t_j
        d0 = e0[:-1] - e0[1:]   # integral of kernel over cell j
        d1 = e1[:-1] - e1[1:]
        gap = t[i] - t[: i]     # t_i - t_j for each cell start
        m1 = (gap * d0 - d1) / h  # weight multiplying (f_{j+1}-f_j) slope term
        V[i, : i] += d0 - m1
        V[i, 1: i + 1] += m1
    V *= reciprocal_gamma(mu)
    return _read_only(V)


def left_integral_endpoint_pole(f: TimeSeries, mu: float) -> TimeSeries:
    """(0I^mu_t (f/(T-.)))(t_i), product integration exact for piecewise-linear f.

    The final node t = T has the kernel pole inside the integration interval and
    is returned as 0; callers must exclude it.
    """
    if mu <= 0:
        raise ValueError("order mu must be positive")
    if f.singular:
        raise NotImplementedError("singular inputs to the endpoint-pole kernel are unsupported")
    grid = f.grid
    V = _endpoint_pole_weight_matrix(grid, mu)
    return TimeSeries(grid, V @ f.values)
