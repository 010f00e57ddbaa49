"""Special functions used by the fractional operator kernels.

All functions are pure and safe for concurrent use. Real arguments only;
complex support is out of scope. ``hyp2f1`` takes a float or an array
argument.
"""

from __future__ import annotations

import math
import sys

import numpy as np

__all__ = [
    "ConvergenceError",
    "GammaPoleError",
    "gamma",
    "reciprocal_gamma",
    "mittag_leffler",
    "hyp2f1",
]


class ConvergenceError(RuntimeError):
    """A series cannot reach float64 accuracy, or a function diverges at the argument."""


class GammaPoleError(ValueError):
    """Gamma evaluated at a non-positive integer."""


_INT_EPS = 1e-12

# Mittag-Leffler series: truncation after two consecutive terms below
# max(_ML_ABS_TOL, _ML_REL_TOL |sum|), within _ML_MAX_TERMS terms; the sum is
# refused when its rounding-error estimate eps * sum_k |term_k| exceeds
# _ML_CANCEL_TOL |sum| (an alternating series for large negative z)
_ML_MAX_TERMS = 500
_ML_ABS_TOL = 1e-14
_ML_REL_TOL = 1e-12
_ML_CANCEL_TOL = 1e-10


def _is_nonpositive_integer(z: float) -> bool:
    return z <= 0.0 and abs(z - round(z)) < _INT_EPS


def gamma(z: float) -> float:
    """Gamma function (``math.gamma``), raising GammaPoleError at its poles and
    ValueError where Gamma(z) exceeds the float range (z above 171.62, or z
    below 5.6e-309 and positive)."""
    if _is_nonpositive_integer(z):
        raise GammaPoleError(f"gamma pole at z={z}")
    try:
        return math.gamma(z)
    except OverflowError:
        raise ValueError(f"Gamma(z) exceeds the float range at z = {z}") from None


def reciprocal_gamma(z: float) -> float:
    """1/Gamma(z), with the value 0 at the poles of Gamma. From z = 171.6 on (Gamma
    overflows at 171.62) it is exp(-lgamma(z)), 0 once that underflows; below
    z = 1e-300 and positive it is z / Gamma(1 + z) = z, where Gamma(z) overflows
    from 5.6e-309 down; ValueError where |1/Gamma(z)| exceeds the float range
    (z below about -171)."""
    if _is_nonpositive_integer(z):
        return 0.0
    if z >= 171.6:
        return math.exp(-math.lgamma(z)) if z < 1e300 else 0.0
    if 0.0 < z < 1e-300:
        return z
    g = gamma(z)
    if abs(g) <= 1.0 / sys.float_info.max:
        raise ValueError(f"|1/Gamma(z)| exceeds the float range at z = {z}")
    return 1.0 / g


def mittag_leffler(alpha: float, beta: float, z: float) -> float:
    """Two-parameter Mittag-Leffler function E_{alpha,beta}(z).

    Direct power series with compensated (Kahan) summation. Raises
    ConvergenceError when the series does not converge or overflows, or
    when cancellation between its terms leaves the sum less accurate than
    _ML_CANCEL_TOL relative (at alpha = 1/2 that is z below about -3.2).
    """
    if alpha <= 0:
        raise ValueError("mittag_leffler requires alpha > 0")
    total = 0.0
    comp = 0.0
    magnitude = 0.0
    small_streak = 0
    for k in range(_ML_MAX_TERMS):
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
            try:
                term = sign_g * sign_z * math.exp(k * math.log(abs(z)) - math.lgamma(a))
            except OverflowError:
                raise ConvergenceError(f"Mittag-Leffler series overflows for alpha={alpha}, "
                                       f"beta={beta}, z={z}") from None
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        magnitude += abs(term)
        if abs(term) <= max(_ML_ABS_TOL, _ML_REL_TOL * abs(total)):
            small_streak += 1
            # two consecutive small terms: robust for alternating series
            if small_streak >= 2:
                break
        else:
            small_streak = 0
    else:
        raise ConvergenceError(
            f"Mittag-Leffler series did not converge for alpha={alpha}, beta={beta}, z={z}")
    if np.finfo(float).eps * magnitude > _ML_CANCEL_TOL * abs(total):
        raise ConvergenceError(
            f"Mittag-Leffler series loses its accuracy to cancellation for alpha={alpha}, "
            f"beta={beta}, z={z} (sum of |terms| {magnitude:.3g}, sum {total:.3g})")
    return total


def hyp2f1(a: float, b: float, c: float, z):
    """Gauss hypergeometric function 2F1(a, b; c; z) for z in [0, 1].

    ``scipy.special.hyp2f1`` behind the domain checks. ``z`` is a float (a
    float is returned) or an array (of the same shape). Raises ValueError
    for a non-positive integer c or a z outside [0, 1], and ConvergenceError
    at z = 1 when c-a-b <= 0, where the series diverges.
    """
    # imported here, so that only callers of 2F1 pay for loading scipy.special
    from scipy.special import hyp2f1 as scipy_hyp2f1

    if _is_nonpositive_integer(c):
        raise ValueError(f"hyp2f1 parameter c={c} is a non-positive integer")
    z = np.asarray(z, dtype=float)
    if not np.all((0.0 <= z) & (z <= 1.0)):
        raise ValueError("hyp2f1 argument must lie in [0, 1]")
    if c - a - b <= 0 and np.any(z == 1.0):
        raise ConvergenceError(f"2F1 diverges at z=1 for c-a-b={c - a - b} <= 0")
    out = scipy_hyp2f1(a, b, c, z)
    return float(out) if z.ndim == 0 else out

