"""Standard-Gaussian density, upper tail, quantile, and interval log-probability.

The four Gaussian functions accept scalars or arrays and are accurate
enough that threshold calibration never inherits special-function error:
Q is computed through erfc (<= 1e-14 relative), the quantile is polished
by a Newton step on Q itself, and interval probabilities are assembled in
log space so that intervals sitting 30+ sigmas out still come back finite.

The special functions under them need only numpy and the standard
library: ``erfc`` is libm's, one element at a time; ``erfcx`` scales it
by exp(x^2), or takes Laplace's continued fraction in the far tail;
``ndtri`` is ``statistics.NormalDist.inv_cdf`` (Wichura's AS 241, 1988),
good to about 1e-16; and ``log_ndtr`` reads the lower tail through erfcx
so that it never underflows.
"""

from __future__ import annotations

import math
import statistics

import numpy as np

from ..errors import DomainError

__all__ = ["gauss_pdf", "gauss_q", "gauss_q_inv", "interval_log_prob",
           "erfc", "erfcx", "ndtri", "log_ndtr"]

_INV_SQRT_2PI = 0.3989422804014327  # 1/sqrt(2*pi)
_SQRT_2 = 1.4142135623730951
_INV_SQRT_PI = 0.5641895835477563  # 1/sqrt(pi)
_SPLIT = 134217729.0  # 2^27 + 1: Dekker's splitter of a double into two halves
_CF_FROM = 8.0  # erfcx switches to the continued fraction here ...
_CF_TERMS = 12  # ... which this many terms take to full double precision
_EXP_MAX = 709.782712893384  # log of the largest double
_STANDARD_NORMAL = statistics.NormalDist()


def _elementwise(fn, x):
    """fn, a function of one float, on every element of x (any shape)."""
    x = np.asarray(x, dtype=np.float64)
    return np.fromiter(map(fn, x.ravel().tolist()), np.float64, x.size).reshape(x.shape)


def erfc(x):
    """Complementary error function, elementwise: libm's (``math.erfc``)."""
    return _elementwise(math.erfc, x)


def _erfcx(x: float) -> float:
    if x < _CF_FROM:
        sq = x * x
        if sq > _EXP_MAX:  # x < -26.6
            return math.inf
        hi = _SPLIT * x
        hi -= hi - x
        lo = x - hi  # x = hi + lo, halves whose products are exact
        return math.exp(sq) * math.erfc(x) * (1.0 + (((hi * hi - sq) + 2.0 * hi * lo) + lo * lo))
    f = x
    for k in range(_CF_TERMS, 0, -1):
        f = x + 0.5 * k / f
    return _INV_SQRT_PI / f


def erfcx(x):
    """Scaled complementary error function exp(x^2) erfc(x), elementwise.

    Below _CF_FROM it is the product of exp(x^2) and erfc(x), with the
    rounding error of x^2 (found exactly by Dekker's split of x) put back
    as a first-order factor; it is inf below x = -26.6, where exp(x^2)
    overflows.  From _CF_FROM on it is Laplace's continued fraction
    erfcx(x) = 1/(sqrt(pi) (x + (1/2)/(x + 1/(x + (3/2)/(x + ...))))),
    which neither under- nor overflows.
    """
    return _elementwise(_erfcx, x)


def ndtri(p):
    """The standard normal quantile Phi^-1(p), elementwise, for p in (0, 1):
    ``NormalDist().inv_cdf`` over p.  p at 0 or 1 raises
    ``statistics.StatisticsError`` (a ValueError); gauss_q_inv rejects it first."""
    return _elementwise(_STANDARD_NORMAL.inv_cdf, p)


def _log_ndtr(x: float) -> float:
    if x > 0.0:
        return math.log1p(-0.5 * math.erfc(x / _SQRT_2))
    half = 0.5 * _erfcx(-x / _SQRT_2)
    return (math.log(half) if half > 0.0 else -math.inf) - 0.5 * x * x


def log_ndtr(x):
    """log Phi(x), elementwise: log1p(-Q(x)) above zero, and
    log(erfcx(-x/sqrt 2)/2) - x^2/2 at or below it, which stays finite
    however far out x lies."""
    return _elementwise(_log_ndtr, x)


def gauss_pdf(t):
    """Standard normal density phi(t) = exp(-t^2/2)/sqrt(2*pi)."""
    t = np.asarray(t, dtype=np.float64)
    out = _INV_SQRT_2PI * np.exp(-0.5 * t * t)
    return out if out.ndim else float(out)


def gauss_q(t):
    """Upper-tail probability Q(t) = P(Z > t) for Z ~ N(0, 1)."""
    t = np.asarray(t, dtype=np.float64)
    out = 0.5 * erfc(t / _SQRT_2)
    return out if out.ndim else float(out)


def gauss_q_inv(u):
    """Inverse of :func:`gauss_q`: the t with Q(t) = u; u outside (0, 1) raises DomainError.

    ndtri's quantile is polished by one Newton step on gauss_q itself
    (skipped where the density underflows; there the residual
    |Q(t) - u| is already far below any representable tolerance).
    """
    u_arr = np.asarray(u, dtype=np.float64)
    if np.any(u_arr <= 0.0) or np.any(u_arr >= 1.0):
        raise DomainError("gauss_q_inv requires 0 < u < 1")
    t = -ndtri(u_arr)  # Q(t) = u  <=>  Phi(-t) = u
    dens = gauss_pdf(t)
    safe = dens > 1e-300
    t = t - np.where(safe, gauss_q(t) - u_arr, 0.0) / np.where(safe, -dens, 1.0)
    return t if t.ndim else float(t)


def _log1mexp(a):
    """log(1 - exp(a)) for a < 0, stable near both ends."""
    a = np.asarray(a, dtype=np.float64)
    out = np.empty_like(a)
    small = a < -0.6931471805599453  # log(1/2)
    out[small] = np.log1p(-np.exp(a[small]))
    rest = ~small
    out[rest] = np.log(-np.expm1(a[rest]))
    return out


def interval_log_prob(z_l, z_u):
    """log P(z_l < Z < z_u) = log(Q(z_l) - Q(z_u)), without cancellation.

    The interval is mirrored into the right half-line (the result is
    symmetric under (z_l, z_u) -> (-z_u, -z_l)), then assembled from
    log-CDF values: log Q(z_l) + log(1 - Q(z_u)/Q(z_l)).  log_ndtr
    handles the tail asymptotics, so the result stays finite for
    |z| up to 35 and beyond.
    """
    z_l = np.asarray(z_l, dtype=np.float64)
    z_u = np.asarray(z_u, dtype=np.float64)
    if np.any(~np.isfinite(z_l)) or np.any(~np.isfinite(z_u)):
        raise DomainError("interval bounds must be finite")
    if np.any(z_l >= z_u):
        raise DomainError("interval_log_prob requires z_l < z_u")
    # Mirror so the interval midpoint is >= 0; Q values then sit in (0, 1/2].
    flip = (z_l + z_u) < 0.0
    lo = np.where(flip, -z_u, z_l)
    hi = np.where(flip, -z_l, z_u)
    log_q_lo = log_ndtr(-lo)
    log_q_hi = log_ndtr(-hi)
    out = log_q_lo + _log1mexp(log_q_hi - log_q_lo)
    return out if out.ndim else float(out)
