"""Special functions used by the fractional operator kernels.

All functions are pure and safe for concurrent use. Real arguments only;
complex support is out of scope. ``hyp2f1`` and the time weights take a
float or an array argument.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SeriesControl",
    "ConvergenceError",
    "GammaPoleError",
    "gamma",
    "reciprocal_gamma",
    "mittag_leffler",
    "hyp2f1",
    "phi_sub",
    "phi_psi_wave",
]


class ConvergenceError(RuntimeError):
    """A series did not reach the requested tolerance within max_terms."""


class GammaPoleError(ValueError):
    """Gamma evaluated at a non-positive integer."""


@dataclass(frozen=True)
class SeriesControl:
    """Truncation control for series evaluations."""

    max_terms: int = 500
    abs_tol: float = 1e-14
    rel_tol: float = 1e-12

    def __post_init__(self) -> None:
        if self.max_terms < 1:
            raise ValueError("max_terms must be >= 1")
        if self.abs_tol < 0 or self.rel_tol < 0:
            raise ValueError("tolerances must be >= 0")
        if self.abs_tol == 0 and self.rel_tol == 0:
            raise ValueError("at least one of abs_tol, rel_tol must be > 0")


DEFAULT_SERIES_CONTROL = SeriesControl()

_INT_EPS = 1e-12


def _is_nonpositive_integer(z: float) -> bool:
    return z <= _INT_EPS and abs(z - round(z)) < _INT_EPS


def gamma(z: float) -> float:
    """Gamma function (``math.gamma``), raising GammaPoleError at its poles."""
    if _is_nonpositive_integer(z):
        raise GammaPoleError(f"gamma pole at z={z}")
    return math.gamma(z)


def reciprocal_gamma(z: float) -> float:
    """1/Gamma(z), with the value 0 at the poles of Gamma."""
    if _is_nonpositive_integer(z):
        return 0.0
    return 1.0 / gamma(z)


def mittag_leffler(
    alpha: float,
    beta: float,
    z: float,
    ctl: SeriesControl = DEFAULT_SERIES_CONTROL,
) -> float:
    """Two-parameter Mittag-Leffler function E_{alpha,beta}(z).

    Direct power series with compensated (Kahan) summation. Intended for
    moderate |z|; raises ConvergenceError when the tolerance is not met.
    """
    if alpha <= 0:
        raise ValueError("mittag_leffler requires alpha > 0")
    total = 0.0
    comp = 0.0
    small_streak = 0
    for k in range(ctl.max_terms):
        a = alpha * k + beta
        if _is_nonpositive_integer(a):
            term = 0.0
        elif k == 0:
            term = reciprocal_gamma(a)
        elif z == 0.0:
            term = 0.0
        else:
            # log form avoids overflow of z**k and Gamma(a) separately;
            # math.lgamma gives log|Gamma| for negative non-integers too
            sign_g = 1.0 if a > 0 else math.copysign(1.0, math.sin(math.pi * a))
            sign_z = 1.0 if z > 0 else (-1.0) ** k
            term = sign_g * sign_z * math.exp(k * math.log(abs(z)) - math.lgamma(a))
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        tol = max(ctl.abs_tol, ctl.rel_tol * abs(total))
        if abs(term) <= tol:
            small_streak += 1
            # two consecutive small terms: robust for alternating series
            if small_streak >= 2:
                return total
        else:
            small_streak = 0
    raise ConvergenceError(
        f"Mittag-Leffler series did not converge for alpha={alpha}, beta={beta}, z={z}"
    )


def _hyp2f1_series_vec(a: float, b: float, c: float, z: np.ndarray, ctl: SeriesControl) -> np.ndarray:
    """Gauss series, vectorized over z with |z| < 1 (or terminating)."""
    z = np.asarray(z, dtype=float)
    term = np.ones_like(z)
    total = np.ones_like(z)
    active = np.ones(z.shape, dtype=bool)
    for k in range(ctl.max_terms):
        ratio = (a + k) * (b + k) / ((c + k) * (k + 1.0))
        term = term * ratio * z
        total = np.where(active, total + term, total)
        tol = np.maximum(ctl.abs_tol, ctl.rel_tol * np.abs(total))
        active &= np.abs(term) > tol
        if not active.any():
            return total
    raise ConvergenceError(f"2F1 series did not converge (a={a}, b={b}, c={c})")


def hyp2f1(a: float, b: float, c: float, z, ctl: SeriesControl = DEFAULT_SERIES_CONTROL):
    """Gauss hypergeometric function 2F1(a, b; c; z) for z in [0, 1).

    ``z`` is a float (a float is returned) or an array; z = 1 is allowed
    when c-a-b > 0. Direct series for z <= 0.5, two-term z -> 1-z linear
    transformation otherwise (requires non-integer c - a - b).
    """
    if _is_nonpositive_integer(c):
        raise ValueError(f"hyp2f1 parameter c={c} is a non-positive integer")
    z_in = np.asarray(z, dtype=float)
    z = np.atleast_1d(z_in)
    if np.any(z < 0) or np.any(z > 1):
        raise ValueError("hyp2f1 argument must lie in [0, 1)")
    out = np.empty_like(z)
    near = z > 0.5
    if np.any(~near):
        out[~near] = _hyp2f1_series_vec(a, b, c, z[~near], ctl)
    if np.any(near):
        s = c - a - b
        if abs(s - round(s)) < _INT_EPS:
            # transformation degenerates; fall back to the raw series
            if np.any(z[near] >= 1.0):
                raise ConvergenceError("2F1 transformation unavailable for integer c-a-b at z -> 1")
            big = SeriesControl(max_terms=200000, abs_tol=ctl.abs_tol, rel_tol=ctl.rel_tol)
            out[near] = _hyp2f1_series_vec(a, b, c, z[near], big)
        else:
            if np.any(z[near] >= 1.0) and s <= 0:
                raise ConvergenceError("2F1 diverges at z=1 for c-a-b <= 0")
            w = 1.0 - z[near]
            g = gamma
            f1 = g(c) * g(s) / (g(c - a) * g(c - b)) * _hyp2f1_series_vec(a, b, 1.0 - s, w, ctl)
            f2 = (
                g(c) * g(-s) / (g(a) * g(b))
                * w ** s
                * _hyp2f1_series_vec(c - a, c - b, 1.0 + s, w, ctl)
            )
            out[near] = f1 + f2
    return float(out[0]) if z_in.ndim == 0 else out.reshape(z_in.shape)


def _time_fraction(name: str, t, T: float):
    """1 - t/T, checking T > 0 and every t in [0, T]; a float for a float t."""
    if T <= 0:
        raise ValueError(f"{name} requires T > 0")
    t = np.asarray(t, dtype=float)
    if not np.all((0 <= t) & (t <= T)):
        raise ValueError(f"{name} requires t in [0, T]")
    w = 1.0 - t / T
    return float(w) if w.ndim == 0 else w


def phi_sub(t, alpha: float, T: float):
    """Time weight Phi(t) for the subdiffusion (Caputo, alpha in (0,1)) catalog.

    Phi(t) = (1 / (alpha * Gamma(1-alpha))) (1 - t/T)^alpha
             * 2F1(alpha, alpha; alpha+1; 1 - t/T)

    ``t`` is a float or an array of times in [0, T]; Phi(T) = 0.
    """
    if not 0 < alpha < 1:
        raise ValueError("phi_sub requires alpha in (0, 1)")
    w = _time_fraction("phi_sub", t, T)
    return w ** alpha * hyp2f1(alpha, alpha, alpha + 1.0, w) / (alpha * gamma(1.0 - alpha))


def phi_psi_wave(t, alpha: float, T: float):
    """Time weights (Phi, Psi) for the diffusion-wave (Caputo, alpha in (1,2)) catalog.

    ``t`` is a float or an array of times in [0, T]; both weights are 0 at T.
    """
    if not 1 < alpha < 2:
        raise ValueError("phi_psi_wave requires alpha in (1, 2)")
    w = _time_fraction("phi_psi_wave", t, T)
    g2 = gamma(2.0 - alpha)
    phi = w ** (alpha - 1.0) * hyp2f1(alpha - 1.0, alpha - 1.0, alpha, w) / ((alpha - 1.0) * g2)
    psi = w ** alpha * hyp2f1(alpha - 1.0, alpha, alpha + 1.0, w) / (alpha * g2)
    return phi, psi
