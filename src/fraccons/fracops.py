"""Discretized fractional integrals and derivatives on uniform time grids.

All quadratures are product-integration rules that integrate the singular
kernel exactly against piecewise-linear interpolants of the data, so they
are exact (to roundoff) on piecewise-linear inputs. Known algebraic
singularities of the data at either end of the time interval are carried
as explicit power-law terms and handled by exact power rules, since a
piecewise-linear interpolant cannot resolve them.

Every kernel acts on axis 0 of the whole sample array, so a space-time
field with a trailing space axis is processed in one call, and returns its
result on the input's space nodes.
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional

import numpy as np
import numpy.fft  # numpy 2 loads it lazily: load it here, not in the first convolution
from numpy.lib.stride_tricks import sliding_window_view

from .specialfn import gamma, hyp2f1, reciprocal_gamma

__all__ = [
    "Kind",
    "FractionalSpec",
    "TimeGrid",
    "SpaceGrid",
    "TimeSeries",
    "SingularTerm",
    "left_frac_integral",
    "right_frac_integral",
    "rl_left_derivative",
    "rl_right_derivative",
    "caputo_left_derivative",
    "caputo_right_derivative",
    "j_integral",
    "left_integral_endpoint_pole",
    "diff1",
    "diff2",
    "time_derivative",
]

# entries kept per cached builder; a full selftest builds at most 9 distinct
# weights per weight builder, a verify call fewer (counts per workload in
# CHANGES.md). Entries are O(n) vectors (lag weights, a grid's nodes) or a
# 16-node Gauss rule per order, except the dense (n+1)^2 endpoint-pole
# matrices (Gauss quadrature, no 2F1 call)
_CACHE_SIZE = 16
# entries kept of the power samples t^p or (T-t)^p, each an (n+1)-vector: a full
# selftest asks for 74 distinct (grid, power, anchor) keys, which 16 entries
# evicted and rebuilt (355 misses against 937 hits); 128 hold them all
_SAMPLES_CACHE_SIZE = 8 * _CACHE_SIZE
# the most rows _causal_conv convolves by a dense lower-triangular Toeplitz
# product (n_steps <= 256); longer inputs go by FFT. Dense (matrix built in the
# call) against FFT, in ms, at 33/65/129 columns, one BLAS thread, 2 vCPUs:
# 129 rows 0.04/0.06/0.10 against 0.09/0.16/0.28; 257 rows 0.15/0.21/0.35
# against 0.17/0.30/0.64; 385 rows 0.29/0.47/0.77 against 0.26/0.49/0.96, about
# even; 513 rows 0.56/0.83/1.34 against 0.35/0.75/1.51. (One column: 0.05
# against 0.03 at 257 rows.) So the 65- and 129-row grids of selftest
# criterion 12 take the product, and verify grids of 513 rows and more the FFT
_DENSE_ROWS = 257
# the t and x steps of a CSV field (from_csv) may differ by this much relative to
# the largest |t| or |x|: 16 roundoffs, where np.linspace's differ by about 2
_X_RTOL = 16 * float(np.finfo(float).eps)
# the log of the largest lag power the I^mu weights take: a sum of two stays finite
_LOG_MAX = math.log(sys.float_info.max / 2.0)


class Kind(enum.Enum):
    RIEMANN_LIOUVILLE = "rl"
    CAPUTO = "caputo"


def _order_and_n(alpha: float) -> int:
    """n = ceil(alpha) for alpha in (0,2) with alpha != 1; ValueError otherwise."""
    if not (0.0 < alpha < 2.0) or alpha == 1.0:
        raise ValueError("alpha must lie in (0,2) with alpha != 1")
    return 1 if alpha < 1.0 else 2


@dataclass(frozen=True)
class FractionalSpec:
    """Derivative kind and order for a time-fractional problem (T is the grid's)."""

    kind: Kind
    alpha: float

    def __post_init__(self) -> None:
        _order_and_n(self.alpha)

    @property
    def n(self) -> int:
        return _order_and_n(self.alpha)


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid on [0, T] with nodes t_i = i*h."""

    T: float
    n_steps: int

    def __post_init__(self) -> None:
        if not (math.isfinite(self.T) and self.T > 0):
            raise ValueError(f"T must be positive and finite, got {self.T!r}")
        if not isinstance(self.n_steps, (int, np.integer)) or self.n_steps < 2:
            raise ValueError(f"n_steps must be an integer >= 2, got {self.n_steps!r}")

    @property
    def h(self) -> float:
        return self.T / self.n_steps

    def nodes(self) -> np.ndarray:
        """The nodes t_i, read-only (built once per grid)."""
        return _nodes(self)


@lru_cache(maxsize=_CACHE_SIZE)
def _nodes(grid: TimeGrid) -> np.ndarray:
    return _read_only(np.linspace(0.0, grid.T, grid.n_steps + 1))


@dataclass(frozen=True)
class SpaceGrid:
    """Uniform grid of n_x cells on [x_lo, x_hi]; it compares by value."""

    x_lo: float
    x_hi: float
    n_x: int

    def __post_init__(self) -> None:
        if not (math.isfinite(self.x_lo) and math.isfinite(self.x_hi) and self.x_lo < self.x_hi):
            raise ValueError(f"x_lo must be less than x_hi, both finite, got "
                             f"{self.x_lo!r} and {self.x_hi!r}")
        if not isinstance(self.n_x, (int, np.integer)) or self.n_x < 1:
            raise ValueError(f"n_x must be an integer >= 1, got {self.n_x!r}")

    @property
    def h(self) -> float:
        nodes = self.nodes()
        return float(nodes[1] - nodes[0])

    def nodes(self) -> np.ndarray:
        """The nodes np.linspace(x_lo, x_hi, n_x + 1), read-only (built once per grid)."""
        return _space_nodes(self)


@lru_cache(maxsize=_CACHE_SIZE)
def _space_nodes(grid: SpaceGrid) -> np.ndarray:
    return _read_only(np.linspace(grid.x_lo, grid.x_hi, grid.n_x + 1))


@lru_cache(maxsize=_SAMPLES_CACHE_SIZE)
def _power_samples(grid: TimeGrid, power: float, anchor: str) -> np.ndarray:
    """t^power ('start') or (T-t)^power ('end') at the nodes, read-only; 0 where
    the base is 0 and power < 0."""
    t = grid.nodes()
    s = t if anchor == "start" else grid.T - t
    return _read_only(np.power(s, power, out=np.zeros_like(s), where=(s > 0.0) | (power >= 0.0)))


def _along_time(col: np.ndarray, ndim: int) -> np.ndarray:
    """View of a per-node vector that broadcasts against ndim-dimensional samples."""
    return col.reshape(col.shape + (1,) * (ndim - 1))


@dataclass(frozen=True, eq=False)
class SingularTerm:
    """Algebraic term coeff * t^power (anchor 'start') or coeff * (T-t)^power ('end').

    ``coeff`` is a float, or an (m,) array holding one coefficient per space
    column of a field; the term keeps a read-only copy of an array.
    """

    coeff: float | np.ndarray
    power: float
    anchor: str = "start"

    def __post_init__(self) -> None:
        c = np.array(self.coeff, dtype=float)
        object.__setattr__(self, "coeff", float(c) if c.ndim == 0 else _read_only(c))
        if self.anchor not in ("start", "end"):
            raise ValueError("anchor must be 'start' or 'end'")
        if self.power <= -1.0:
            raise ValueError("singular power must be > -1 for integrability")

    def sample(self, grid: TimeGrid) -> np.ndarray:
        """Samples of the term; 0 at the anchor node when the power is negative."""
        return np.multiply.outer(_power_samples(grid, self.power, self.anchor), self.coeff)


def _zero_anchors(v: np.ndarray, terms) -> np.ndarray:
    """Set the entries of v where a negative-power term is infinite (its anchor
    row, in the columns where its coefficient is nonzero) to 0, in place."""
    for tm in terms:
        if tm.power < 0.0:
            row = 0 if tm.anchor == "start" else -1
            v[row] = np.where(np.asarray(tm.coeff) != 0.0, 0.0, v[row])
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


@dataclass(frozen=True, eq=False)
class TimeSeries:
    """Sampled f(t) on a TimeGrid, with optional explicit power-law terms.

    ``values`` has shape (n_steps+1,), or (n_steps+1, n_x+1) for a field
    with a trailing space axis on the SpaceGrid ``x`` (None in 1-D); every
    kernel acts on axis 0 and returns its result on its input's ``x``.
    The values are samples of the full function and must be finite at
    interior nodes. Where a term with a negative power is infinite (its
    anchor node, in the columns where its coefficient is nonzero) the value
    is stored as 0, and the term carries the singularity; so the library's
    kernels return finite samples throughout. Term coefficients are floats
    for 1-D values and (m,) arrays otherwise; all-zero terms are dropped.

    A field owns its data and is immutable after construction: ``values`` is
    a read-only copy of the caller's array, and each term a read-only copy of
    its coefficients. So a field computes each of its regular part, space
    derivatives and fractional integrals once, on the first request, and
    keeps the result, read-only, for its own lifetime.
    """

    grid: TimeGrid
    values: np.ndarray
    singular: tuple[SingularTerm, ...] = ()
    x: Optional[SpaceGrid] = None
    # the memoized quantities by key: "reg", ("dx", order) and ("I", mu)
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        v = np.array(self.values, dtype=float)
        if v.ndim not in (1, 2) or v.shape[0] != self.grid.n_steps + 1:
            raise ValueError("values must have one row per grid node")
        if not np.isfinite(v[1:-1]).all():
            raise ValueError("values must be finite at interior nodes")
        terms = _fit_terms(self.singular, v.shape[1:])
        object.__setattr__(self, "values", _read_only(_zero_anchors(v, terms)))
        object.__setattr__(self, "singular", terms)
        if self.x is not None:
            if not isinstance(self.x, SpaceGrid):
                raise ValueError(f"x must be a SpaceGrid, got {type(self.x).__name__}")
            if v.shape != (self.grid.n_steps + 1, self.x.n_x + 1):
                raise ValueError("values shape must be (n_steps+1, n_x+1)")

    @classmethod
    def from_function(cls, grid: TimeGrid, fn, singular: tuple[SingularTerm, ...] = ()) -> "TimeSeries":
        with np.errstate(divide="ignore"):
            return cls(grid, np.asarray(fn(grid.nodes()), dtype=float), singular)

    @classmethod
    def from_parts(cls, grid: TimeGrid, reg: np.ndarray, singular=(), x=None) -> "TimeSeries":
        """Series on the space grid ``x`` whose values are ``reg`` plus the samples
        of the terms ``singular``."""
        reg = np.asarray(reg, dtype=float)
        terms = _fit_terms(singular, reg.shape[1:])
        return cls(grid, sum((term.sample(grid) for term in terms), reg), terms, x)

    @classmethod
    def from_csv(cls, path: str) -> "TimeSeries":
        """The field of a CSV written by ``to_csv``; ValueError unless its t nodes start
        at 0 and its t and x nodes are uniform, as ``_uniform_axis`` checks."""
        raw = np.genfromtxt(path, delimiter=",")  # the header's "t\\x" cell reads as nan
        t0, T, n_steps = _uniform_axis("t", raw[1:, 0])
        if t0 != 0.0:
            raise ValueError(f"t must start at 0, got {t0!r}")
        return cls(TimeGrid(T, n_steps), raw[1:, 1:], x=SpaceGrid(*_uniform_axis("x", raw[0, 1:])))

    def _memoized(self, key, build):
        """``build()``, computed on the first request for ``key`` and kept."""
        if key not in self._memo:
            self._memo[key] = build()
        return self._memo[key]

    def regular_part(self) -> np.ndarray:
        """Samples of the function minus all declared power-law terms, read-only.

        It is 0 where a term is infinite (the term dominates there by
        assumption), like the values.
        """
        def build():
            if not self.singular:
                return self.values
            reg = self.values.copy()
            for term in self.singular:
                reg -= term.sample(self.grid)
            return _read_only(_zero_anchors(reg, self.singular))

        return self._memoized("reg", build)

    def _space(self) -> SpaceGrid:
        if self.x is None:
            raise ValueError("the series has no space axis x")
        return self.x

    @property
    def hx(self) -> float:
        """Spacing of the space nodes; ValueError for a series without ``x``."""
        return self._space().h

    def dx_field(self, order: int = 1) -> "TimeSeries":
        """Space derivative of order 1 or 2: diff1/diff2 along x of the regular
        part and of each term's coefficients."""
        if order not in (1, 2):
            raise ValueError("only first and second space derivatives are supported")
        d, hx = (diff1 if order == 1 else diff2), self.hx

        def build():
            terms = tuple(SingularTerm(d(t.coeff, hx), t.power, t.anchor) for t in self.singular)
            return TimeSeries.from_parts(self.grid, d(self.regular_part(), hx, axis=1), terms,
                                         self.x)

        return self._memoized(("dx", order), build)

    def to_csv(self, path: str) -> None:
        """Write the field as CSV: header row of x nodes, first column of t nodes."""
        header = "t\\x," + ",".join(f"{xv:.17g}" for xv in self._space().nodes())
        np.savetxt(path, np.column_stack([self.grid.nodes(), self.values]), fmt="%.17g",
                   delimiter=",", header=header, comments="")


def _uniform_axis(name: str, nodes: np.ndarray) -> tuple[float, float, int]:
    """(first node, last node, steps) of a CSV axis; ValueError, naming ``name``, unless its
    nodes are two or more, finite and increasing, with steps equal up to _X_RTOL."""
    if nodes.size < 2 or not np.isfinite(nodes).all():
        raise ValueError(f"{name} must be a 1-D array with at least two nodes, all finite")
    steps, h = nodes[1:] - nodes[:-1], (nodes[-1] - nodes[0]) / (nodes.size - 1)
    off = max(steps.max() - h, h - steps.min())
    if not off < min(h, _X_RTOL * max(abs(nodes[0]), abs(nodes[-1]))):
        raise ValueError(f"{name} must be increasing with equal steps")
    return float(nodes[0]), float(nodes[-1]), nodes.size - 1


def _require_same_grid(a: TimeSeries, b: TimeSeries) -> None:
    """ValueError unless a and b share the time grid, the space grid and the shape."""
    if a.grid != b.grid:
        raise ValueError("time series are defined on different grids")
    if a.x != b.x or a.values.shape != b.values.shape:
        raise ValueError(f"fields are defined on different space grids: {a.x} and {b.x}, "
                         f"values of shapes {a.values.shape} and {b.values.shape}")


def _read_only(mat: np.ndarray) -> np.ndarray:
    mat.setflags(write=False)
    return mat


# ---------------------------------------------------------------------------
# piecewise-linear product-integration weights
# ---------------------------------------------------------------------------

def _smooth_length(n: int) -> int:
    """The least 2^a 3^b 5^c >= n (n >= 1), a length pocketfft transforms at full speed."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # the least power of two times p35 that reaches n
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def _causal_conv(k: np.ndarray, F: np.ndarray) -> np.ndarray:
    """out[i] = sum_{j <= i} k[i-j] F[j] along axis 0 for every row i of F.

    ``k`` holds at least one lag per row of F. Up to _DENSE_ROWS rows, out is
    T @ F for the lower-triangular Toeplitz T[i, j] = k[i-j], a strided view of
    the reversed lags followed by rows - 1 zeros (the product may copy it: at
    most 0.5 MiB). Longer F goes by FFT, whose length is the least 5-smooth
    number >= 2 * rows - 1, so the circular product does not wrap; for the
    usual rows = 2^m + 1 it is about half the next power of two (4320 against
    8192 at rows = 2049).
    """
    rows = F.shape[0]
    if rows <= _DENSE_ROWS:
        # window s holds k[rows - 1 - s - j] at column j: row i of T is window rows - 1 - i
        lags = np.concatenate([k[rows - 1::-1], np.zeros(rows - 1)])
        return sliding_window_view(lags, rows)[::-1] @ F
    size = _smooth_length(2 * rows - 1)
    k_hat = _along_time(np.fft.rfft(k[:rows], size), F.ndim)
    return np.fft.irfft(k_hat * np.fft.rfft(F, size, axis=0), size, axis=0)[:rows]


@lru_cache(maxsize=_CACHE_SIZE)
def _pl_weights(n_steps: int, mu: float, h: float) -> tuple[np.ndarray, np.ndarray]:
    """Lag vector L and first column c of the lower-triangular weights W with
    (I^mu f)(t_i) = sum_j W[i,j] f_j, exact for piecewise-linear f.

    W[i,j] = L[i-j] for 1 <= j <= i, W[i,0] = c[i], and row 0 is 0. In units of h
    the cell at lag b covers t_i - tau = b - 1 + x, x in [0, 1], with hats x (far
    node) and 1 - x (near node): A[b] = int_0^1 (b-1+x)^{mu-1} x dx, B[b] the same
    with 1 - x, L[0] = B[1], L[k] = A[k] + B[k+1] and c[k] = A[k], times h^mu/Gamma(mu).
    Gauss rules sum positive terms: weight x^{mu-1} at lag 1, Gauss-Legendre from lag 2 on.
    ValueError where the scale underflows, or h^mu or a pair of lag powers, up to
    (n+1)^(mu-1), overflows; both are checked in logs, before a power is taken.
    """
    big = max(mu * math.log(h), (mu - 1.0) * math.log(n_steps + 1.0)) >= _LOG_MAX
    scale = 0.0 if big else h ** mu * reciprocal_gamma(mu)
    if not scale >= sys.float_info.min:
        raise ValueError(f"the weights of I^mu leave the float range at mu = {mu} "
                         f"on {n_steps} steps of {h:g}")
    (xj, wj), (xl, wl) = _gauss_jacobi01(mu), _gauss_jacobi01(1.0)
    shift = np.arange(1.0, n_steps + 1.0)[:, None]  # b - 1 for the lags b = 2..n+1
    hats = np.stack([wl * xl, wl * (1.0 - xl)], axis=1)
    A, B = np.vstack([[wj @ xj, wj @ (1.0 - xj)], (shift + xl) ** (mu - 1.0) @ hats]).T
    L = np.append(B[0], A[:-1] + B[1:])
    c = np.append(0.0, A[:-1])
    return _read_only(L * scale), _read_only(c * scale)


def _power_integral(coeff, q: float, p: float, mu: float, t: np.ndarray, T: float) -> np.ndarray:
    """Exact samples of I^mu [coeff t^q (T-t)^p] at the times t, where I^mu for mu < 0
    is D^-mu.

    The binomial series of (T-t)^p, integrated term by term:
      coeff t^(q+mu) T^p Gamma(q+1)/Gamma(q+1+mu) 2F1(-p, q+1; q+1+mu; t/T).
    Where it is infinite (t = 0 when q + mu < 0, t = T when mu + p <= 0) the
    sample is 0, like the anchor value of a term. ValueError where T^p or
    t^(q+mu) at a kept time overflows, checked in logs before a power is taken,
    as in :func:`_pl_weights`.
    """
    keep = ((t > 0.0) | (q + mu >= 0.0)) & ((t < T) | (mu + p > 0.0))
    col = np.zeros_like(t)
    tk = t[keep]
    # t^(q+mu) is largest at the least or the greatest kept time (t = 0 is kept only for q + mu >= 0)
    logs = [(q + mu) * math.log(s) for s in (tk.min(), tk.max()) if s > 0.0]
    if max(logs + [p * math.log(T)]) >= _LOG_MAX:
        raise ValueError(f"the power terms of I^mu leave the float range at mu = {mu} "
                         f"on [0, {T:g}]")
    col[keep] = (tk ** (q + mu) * T ** p * gamma(q + 1.0) * reciprocal_gamma(q + 1.0 + mu)
                 * hyp2f1(-p, q + 1.0, q + 1.0 + mu, tk / T))
    return np.multiply.outer(col, coeff)


@lru_cache(maxsize=_CACHE_SIZE)
def _gauss_jacobi01(mu: float) -> tuple[np.ndarray, np.ndarray]:
    """16-point Gauss rule for int_0^1 x^{mu-1} g(x) dx: nodes and weights, read-only.

    Golub-Welsch (Math. Comp. 23 (1969) 221): the nodes are the eigenvalues of
    the Jacobi matrix of the monic Jacobi polynomials P^(0, mu-1) mapped to
    [0, 1], and the weights are the squared first eigenvector components,
    scaled to sum to int_0^1 x^{mu-1} dx = 1/mu. mu = 1 is Gauss-Legendre. The
    entries s - 1, s + 1, b + 2 and k + b (s = 2k + b) are written in mu, so none cancels.
    """
    b = mu - 1.0
    k = np.arange(1.0, 16.0)
    s = 2.0 * k + b
    diag = np.append(b / (mu + 1.0), b * b / (s * (s + 2.0)))
    off = 2.0 * k * (k - 1.0 + mu) / (s * np.sqrt((2.0 * k + mu) * (2.0 * (k - 1.0) + mu)))
    z, vecs = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    w = vecs[0] ** 2
    return _read_only(0.5 * (z + 1.0)), _read_only(w / (mu * w.sum()))


def _reverse(f: TimeSeries) -> TimeSeries:
    flipped = tuple(SingularTerm(s.coeff, s.power, "end" if s.anchor == "start" else "start")
                    for s in f.singular)
    return TimeSeries(f.grid, f.values[::-1], flipped, f.x)


def left_frac_integral(f: TimeSeries, mu: float) -> TimeSeries:
    """Left-sided fractional integral (0I^mu_t f) at every grid node, computed
    once per field and order."""
    if mu <= 0:
        raise ValueError("fractional integral order mu must be positive")
    return f._memoized(("I", mu), lambda: _left_frac_integral(f, mu))


def _left_frac_integral(f: TimeSeries, mu: float) -> TimeSeries:
    grid = f.grid
    L, c = _pl_weights(grid.n_steps, mu, grid.h)
    reg = f.regular_part()
    # W @ reg, with column 0 of the Toeplitz part replaced by c
    vals = _causal_conv(L, reg) + np.multiply.outer(c - L, reg[0])
    vals[0] = 0.0
    out_terms: list[SingularTerm] = []
    for term in f.singular:
        p = term.power
        if term.anchor == "start":
            # power rule: I^mu t^p = Gamma(p+1)/Gamma(p+mu+1) t^{p+mu}
            c2 = term.coeff * gamma(p + 1.0) * reciprocal_gamma(p + mu + 1.0)
            out_terms.append(SingularTerm(c2, p + mu, "start"))
        else:
            vals += _power_integral(term.coeff, 0.0, p, mu, grid.nodes(), grid.T)
    return TimeSeries.from_parts(grid, vals, out_terms, f.x)


def right_frac_integral(f: TimeSeries, mu: float) -> TimeSeries:
    """Right-sided fractional integral (tI^mu_T f) at every grid node."""
    return _reverse(left_frac_integral(_reverse(f), mu))


# ---------------------------------------------------------------------------
# finite differences
# ---------------------------------------------------------------------------

def diff1(v: np.ndarray, h: float, axis: int = 0) -> np.ndarray:
    """Second-order first derivative: central interior, one-sided ends."""
    v = np.asarray(v, dtype=float).swapaxes(0, axis)
    if v.shape[0] < 3:
        raise ValueError(f"diff1 needs at least 3 nodes along the axis, got {v.shape[0]}")
    out = np.empty_like(v)
    out[1:-1] = (v[2:] - v[:-2]) / (2.0 * h)
    out[0] = (-3.0 * v[0] + 4.0 * v[1] - v[2]) / (2.0 * h)
    out[-1] = (3.0 * v[-1] - 4.0 * v[-2] + v[-3]) / (2.0 * h)
    return out.swapaxes(0, axis)


def diff2(v: np.ndarray, h: float, axis: int = 0) -> np.ndarray:
    """Second-order second derivative: central interior, one-sided ends."""
    v = np.asarray(v, dtype=float).swapaxes(0, axis)
    if v.shape[0] < 4:
        raise ValueError(f"diff2 needs at least 4 nodes along the axis, got {v.shape[0]}")
    out = np.empty_like(v)
    out[1:-1] = (v[2:] - 2.0 * v[1:-1] + v[:-2]) / h ** 2
    out[0] = (2.0 * v[0] - 5.0 * v[1] + 4.0 * v[2] - v[3]) / h ** 2
    out[-1] = (2.0 * v[-1] - 5.0 * v[-2] + 4.0 * v[-3] - v[-4]) / h ** 2
    return out.swapaxes(0, axis)


def _power_rule(coeff, power: float, anchor: str, n: int):
    """Coefficient of the n-th time derivative of coeff t^power (start anchor)
    or coeff (T - t)^power (end anchor), whose power is power - n."""
    falling = math.prod(power - k for k in range(n))
    return coeff * falling * ((-1.0) ** n if anchor == "end" else 1.0)


def _diff_terms(terms: tuple[SingularTerm, ...], n: int) -> tuple[SingularTerm, ...]:
    """Analytic n-th time derivatives of power terms."""
    out: list[SingularTerm] = []
    for term in terms:
        c = _power_rule(term.coeff, term.power, term.anchor, n)
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
    return TimeSeries.from_parts(grid, dreg, _diff_terms(f.singular, order), f.x)


def _derivative_order(alpha: float, grid: TimeGrid) -> int:
    n = _order_and_n(alpha)
    if grid.n_steps < 2 * n + (n - 1):
        raise ValueError("grid too coarse for the requested derivative order")
    return n


def rl_left_derivative(f: TimeSeries, alpha: float) -> TimeSeries:
    """Riemann-Liouville left derivative D^n (0I^{n-alpha} f); D^{-mu} is 0I^mu."""
    if alpha < 0.0:
        return left_frac_integral(f, -alpha)
    n = _derivative_order(alpha, f.grid)
    return time_derivative(left_frac_integral(f, n - alpha), n)


def caputo_left_derivative(f: TimeSeries, alpha: float) -> TimeSeries:
    """Caputo left derivative 0I^{n-alpha} (D^n f) (L1-type discretization)."""
    n = _derivative_order(alpha, f.grid)
    return left_frac_integral(time_derivative(f, n), n - alpha)


def rl_right_derivative(f: TimeSeries, alpha: float) -> TimeSeries:
    """Right RL derivative (-1)^n D^n (tI^{n-alpha}_T f); D^{-mu} is tI^mu_T."""
    return _reverse(rl_left_derivative(_reverse(f), alpha))


def caputo_right_derivative(f: TimeSeries, alpha: float) -> TimeSeries:
    """Right Caputo derivative (-1)^n tI^{n-alpha}_T (D^n f)."""
    return _reverse(caputo_left_derivative(_reverse(f), alpha))


# ---------------------------------------------------------------------------
# the J double integral
# ---------------------------------------------------------------------------

@lru_cache(maxsize=_CACHE_SIZE)
def _j_lag_kernels(n_steps: int, beta: float) -> np.ndarray:
    """kappa[a, b, d] = int_0^1 int_0^1 phi_a(s) phi_b(r) (d + r - s)^{beta-1} dr ds
    for lags d < n_steps, with phi_0(s) = 1 - s, phi_1(s) = s and kappa[..., 0] = 0.

    The integral of f_lin(tau) g_lin(mu) (mu - tau)^{beta-1} over tau-cell p
    and mu-cell p + d is h^{beta+1} sum_ab kappa[a, b, d] f_{p+a} g_{p+d+b}.
    At lag 1 the cells touch, and kappa is in closed form. From lag 2 on the
    kernel is analytic on the cell pair, and a 16-point tensor Gauss-Legendre
    rule sums positive terms, where a closed form would subtract powers of
    size d^{beta+2} from each other.
    """
    kappa = np.zeros((2, 2, n_steps))
    # lag 1 from i_jk = int_0^1 int_0^1 x^j r^k (x + r)^{beta-1} dx dr, x = 1 - s
    e = math.expm1(beta * math.log(2.0))  # 2^beta - 1
    i00 = 2.0 * e / (beta * (beta + 1.0))
    i10 = (2.0 * e + 1.0) / ((beta + 1.0) * (beta + 2.0))
    i11 = (2.0 * e + 1.0) / (beta + 1.0) - 2.0 * e / (3.0 * beta) - (4.0 * e + 3.0) / (3.0 * (beta + 3.0))
    kappa[:, :, 1] = [[i10 - i11, i11], [i00 - 2.0 * i10 + i11, i10 - i11]]
    s, w = _gauss_jacobi01(1.0)
    hat = w * np.stack([1.0 - s, s])  # weighted phi_a at the nodes
    d = np.arange(2, n_steps, dtype=float)
    for s_i, hat_i in zip(s, hat.T):
        over_r = ((d[:, None] + s - s_i) ** (beta - 1.0)) @ hat.T
        kappa[:, :, 2:] += np.multiply.outer(hat_i, over_r.T)
    return _read_only(kappa)


def _j_piecewise_linear(fv: np.ndarray, gv: np.ndarray, grid: TimeGrid, beta: float) -> np.ndarray:
    """J of the piecewise-linear interpolants of fv and gv.

    Passing cell i, J gains the pairs of tau-cell i with later mu-cells and
    loses those of mu-cell i with earlier tau-cells. Both sums are lag
    convolutions with kappa, the gained one along reversed g. fv and gv
    have the same shape.
    """
    kappa = _j_lag_kernels(grid.n_steps, beta)
    f_ends = (fv[:-1], fv[1:])  # f_{p+a} for cells p = 0..n-1
    g_ends = (gv[:-1], gv[1:])
    step = 0.0
    for a in (0, 1):
        for b in (0, 1):
            gained = _causal_conv(kappa[a, b], g_ends[b][::-1])[::-1]
            lost = _causal_conv(kappa[a, b], f_ends[a])
            step = step + f_ends[a] * gained - g_ends[b] * lost
    out = np.zeros_like(fv)
    out[1:] = np.cumsum(step, axis=0)
    return out * (grid.h ** (beta + 1.0) / gamma(beta))


def _start_power_product(grid: TimeGrid, p: float, beta: float,
                         g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P @ g along axis 0 without P, and diag P, for the upper triangular
    P[i, q] = int_0^{t_i} tau^p (t_q - tau)^{beta-1} dtau, q >= i >= 1.

    In units of h, P[i, q] = sum_{j<i} c[j, q-j], c[j, d] = int_0^1 (j + x)^p (d - x)^{beta-1} dx.
    So passing node i, P @ g gains sum_d c[i, d] g_{i+d} and loses P[i, i] g_i, where
    P[i, i] = B(p+1, beta) t_i^(p+beta). 16-point Gauss rules sum c: Gauss-Legendre on cells
    j >= 1 at lags d >= 2 (a lag correlation with g per node), Gauss-Jacobi of weight x^p
    on cell 0 and of weight (1-x)^(beta-1) at lag 1; c[0, 1] = B(p+1, beta).
    """
    b = gamma(p + 1.0) * gamma(beta) * reciprocal_gamma(p + 1.0 + beta)
    k = np.arange(grid.n_steps + 1.0)
    lags, cells = k[2:], k[1:-1]
    gained = np.zeros_like(g[:-1])  # at the nodes i = 0..n-1
    for x, w in zip(*_gauss_jacobi01(1.0)):
        kern = np.append([0.0, 0.0], (lags - x) ** (beta - 1.0))
        corr = _causal_conv(kern, g[::-1])[::-1]  # corr[i] = sum_d kern[d] g[i+d]
        gained[1:] += _along_time(w * (cells + x) ** p, g.ndim) * corr[1:-1]
    x0, w0 = _gauss_jacobi01(p + 1.0)
    gained[0] += ((lags[:, None] - x0) ** (beta - 1.0) @ w0) @ g[2:]
    y1, w1 = _gauss_jacobi01(beta)
    lag1 = np.append(b, (cells[:, None] + 1.0 - y1) ** p @ w1)
    gained += _along_time(lag1, g.ndim) * g[1:]
    scale = grid.h ** (p + beta)
    diag = scale * b * np.power(k, p + beta, out=np.zeros_like(k), where=k > 0.0)
    out = np.zeros_like(g)
    np.cumsum(gained * scale - _along_time(diag[:-1], g.ndim) * g[:-1], axis=0, out=out[1:])
    return out, diag


def _trapz_tail(grid: TimeGrid, p: float, beta: float, g: np.ndarray) -> np.ndarray:
    """out[i] = trapezoid rule over q = i..n of P[i, q] g[q], P of _start_power_product."""
    Pg, diag = _start_power_product(grid, p, beta, np.concatenate([g[:-1], 0.5 * g[-1:]]))
    return grid.h * (Pg - 0.5 * _along_time(diag, g.ndim) * g)


def _power_weighted_head(grid: TimeGrid, p: float, q: float, beta: float) -> np.ndarray:
    """out[i] = int_0^{t_i} tau^q PL(Q[i, .])(tau) dtau, Q[i, j] = P[n-i, n-j] of power p.

    tau^q meets each cell's hats exactly (moments wl, wr), so its singularity at 0 costs
    no accuracy: out is Q @ (wl + wr, node by node) less Q[i, i] wl[i], as cell j < i
    pairs Q[i, j] with wl[j] and Q[i, j+1] with wr[j]."""
    t, h = grid.nodes(), grid.h
    m0 = np.diff(t ** (q + 1.0)) / (q + 1.0)
    m1 = np.diff(t ** (q + 2.0)) / (q + 2.0)
    wl = np.append((t[1:] * m0 - m1) / h, 0.0)
    wr = np.insert((m1 - t[:-1] * m0) / h, 0, 0.0)
    Pw, diag = _start_power_product(grid, p, beta, (wl + wr)[::-1])
    return (Pw - diag * wl[::-1])[::-1]


def j_integral(f: TimeSeries, g: TimeSeries, alpha: float) -> TimeSeries:
    """J(f,g)(t_i) = (1/Gamma(n-a)) int_0^{t_i} int_{t_i}^T f(tau) g(mu) (mu-tau)^{n-a-1} dmu dtau.

    ValueError for fields on different time or space grids.
    """
    _require_same_grid(f, g)
    beta = _order_and_n(alpha) - alpha
    grid = f.grid
    f_start = [tm for tm in f.singular if tm.anchor == "start"]
    g_end = [tm for tm in g.singular if tm.anchor == "end"]
    # f is integrated over [0, t] and g over [t, T], so f's end terms and g's
    # start terms are smooth there and are sampled with the regular parts
    f_lin = f.regular_part() + sum(tm.sample(grid) for tm in f.singular if tm.anchor == "end")
    g_lin = g.regular_part() + sum(tm.sample(grid) for tm in g.singular if tm.anchor == "start")
    # J is bilinear: skip all of it when either factor is zero (v_tt of the polynomial
    # substitutions, for example), and its piecewise-linear part when either regular part is
    out = np.zeros_like(f_lin)
    if not (f_start or np.any(f_lin)) or not (g_end or np.any(g_lin)):
        return TimeSeries(grid, out, x=f.x)
    inv_gb = reciprocal_gamma(beta)
    if np.any(f_lin) and np.any(g_lin):
        out = _j_piecewise_linear(f_lin, g_lin, grid, beta)
    for term in f_start:
        out += term.coeff * inv_gb * _trapz_tail(grid, term.power, beta, g_lin)
    for term in g_end:
        # t -> T - t maps g's end term to a start term and [t, T] to [0, T - t]:
        # Q[i, p] = int_{t_i}^T (T-mu)^q (mu - t_p)^{beta-1} dmu = P[n-i, n-p]
        out += term.coeff * inv_gb * _trapz_tail(grid, term.power, beta, f_lin[::-1])[::-1]
        for t2 in f_start:
            head = _power_weighted_head(grid, term.power, t2.power, beta)
            out += np.multiply.outer(head, term.coeff * t2.coeff * inv_gb)
    return TimeSeries(grid, out, x=f.x)


# ---------------------------------------------------------------------------
# the endpoint-pole integral
# ---------------------------------------------------------------------------

@lru_cache(maxsize=_CACHE_SIZE)
def _endpoint_pole_weight_matrix(grid: TimeGrid, mu: float) -> np.ndarray:
    """Weights V with (I^mu (f/(T-.)))(t_i) = sum_j V[i,j] f_j, exact for piecewise-linear f.

    In units of h, cell p of row i has lag b = i - p and covers
    t_i - tau = h (b - 1 + x), x in [0, 1], where T - tau = h (r_p + x) with
    r_p = n - p - 1, and f's hats are x (f_p) and 1 - x (f_{p+1}). So
      V[i, p] += h^{mu-1}/Gamma(mu) int_0^1 (b-1+x)^{mu-1} x / (r_p + x) dx,
    and the same with 1 - x for V[i, p+1]. Rows i < n have r_p >= 1, so every
    pole and branch point lies at x <= -1, and a 16-point Gauss rule sums
    positive terms to roundoff: Gauss-Jacobi of weight x^{mu-1} at lag 1,
    Gauss-Legendre from lag 2 on. Each lag fills two subdiagonals in place;
    row n (kernel pole inside the interval) stays 0. ValueError where the scale
    h^(mu-1)/Gamma(mu), a lag power up to (n-1)^(mu-1) or the lag-1 weights'
    1/mu leaves the float range, checked in logs as in :func:`_pl_weights`.
    """
    n = grid.n_steps
    N = n + 1
    big = max((mu - 1.0) * math.log(grid.h), (mu - 1.0) * math.log(n - 1.0),
              -math.log(mu)) >= _LOG_MAX
    scale = 0.0 if big else grid.h ** (mu - 1.0) * reciprocal_gamma(mu)
    if not scale >= sys.float_info.min:
        raise ValueError(f"the endpoint-pole weights of I^mu leave the float range at "
                         f"mu = {mu} on {n} steps of {grid.h:g}")
    V = np.zeros((N, N))
    flat = V.ravel()
    r = np.arange(n - 1.0, 0.0, -1.0)[:, None]  # r_p of the cells p = 0..n-2 of rows i < n
    (xl, wl), (xj, wj) = _gauss_jacobi01(1.0), _gauss_jacobi01(mu)
    over_r_j, over_r_l = 1.0 / (r + xj), 1.0 / (r + xl)
    for b in range(1, n):
        x, over_r = (xj, over_r_j) if b == 1 else (xl, over_r_l)
        lag = wj if b == 1 else wl * (b - 1.0 + xl) ** (mu - 1.0)
        # cells p = 0..n-b-1, rows i = p + b < n: V[i, p] and V[i, p+1]
        hats = over_r[:n - b] @ np.stack([lag * x, lag * (1.0 - x)], axis=1)
        flat[b * N::N + 1][:n - b] += hats[:, 0]
        flat[b * N + 1::N + 1][:n - b] += hats[:, 1]
    V *= scale
    return _read_only(V)


def left_integral_endpoint_pole(f: TimeSeries, mu: float) -> TimeSeries:
    """(0I^mu_t (f/(T-.)))(t_i), product integration exact for piecewise-linear f.

    A term t^q of f enters as t^q (T-t)^-1 and a term (T-t)^p as (T-t)^(p-1),
    both in closed form. The final node t = T has the kernel pole inside the
    integration interval and is returned as 0; callers must exclude it. ValueError
    unless mu is positive and finite and the weights stay in the float range.
    """
    if not 0.0 < mu < math.inf:
        raise ValueError(f"order mu must be positive and finite, got mu = {mu}")
    grid = f.grid
    vals = _endpoint_pole_weight_matrix(grid, mu) @ f.regular_part()
    for term in f.singular:
        q, p = (term.power, -1.0) if term.anchor == "start" else (0.0, term.power - 1.0)
        vals += _power_integral(term.coeff, q, p, mu, grid.nodes(), grid.T)
    vals[-1] = 0.0
    return TimeSeries(grid, vals, x=f.x)
