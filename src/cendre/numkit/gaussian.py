"""Standard-Gaussian density, upper tail, quantile, and interval log-probability.

The four Gaussian functions accept scalars or arrays and are accurate
enough that threshold calibration never inherits special-function error:
Q is computed through erfc (<= 1e-14 relative), the quantile is polished
by a Newton step on Q itself, and interval probabilities are assembled in
log space so that intervals sitting 30+ sigmas out still come back finite.

The special functions under them are written here on numpy and ``math``
alone: ``erfc`` is libm's, one element at a time; ``erfcx`` scales it by
exp(x^2), or takes Laplace's continued fraction in the far tail; ``ndtri``
is Wichura's AS 241 (Applied Statistics 37(3), 1988), good to about 1e-16;
and ``log_ndtr`` reads the lower tail through erfcx so that it never
underflows.
"""

from __future__ import annotations

import math

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

# AS 241 (PPND16): numerator and denominator coefficients, highest power
# first, of its central region |p - 1/2| <= 0.425, and of its two tail
# regions in r = sqrt(-log(min(p, 1 - p))), r <= 5 and r > 5.
_NDTRI_CENTRAL = (
    (2509.0809287301226727, 33430.575583588128105, 67265.770927008700853,
     45921.953931549871457, 13731.693765509461125, 1971.5909503065514427,
     133.14166789178437745, 3.387132872796366608),
    (5226.495278852545925, 28729.085735721942674, 39307.89580009271061,
     21213.794301586595867, 5394.1960214247511077, 687.1870074920579083,
     42.313330701600911252, 1.0))
_NDTRI_NEAR = (
    (7.7454501427834140764e-4, 0.0227238449892691845833, 0.24178072517745061177,
     1.27045825245236838258, 3.64784832476320460504, 5.7694972214606914055,
     4.6303378461565452959, 1.42343711074968357734),
    (1.05075007164441684324e-9, 5.475938084995344946e-4, 0.0151986665636164571966,
     0.14810397642748007459, 0.68976733498510000455, 1.6763848301838038494,
     2.05319162663775882187, 1.0))
_NDTRI_FAR = (
    (2.01033439929228813265e-7, 2.71155556874348757815e-5, 0.0012426609473880784386,
     0.026532189526576123093, 0.29656057182850489123, 1.7848265399172913358,
     5.4637849111641143699, 6.6579046435011037772),
    (2.04426310338993978564e-15, 1.4215117583164458887e-7, 1.8463183175100546818e-5,
     7.868691311456132591e-4, 0.0148753612908506148525, 0.13692988092273580531,
     0.59983220655588793769, 1.0))


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


def _rational(r, coeffs):
    num = den = 0.0
    for c in coeffs[0]:
        num = num * r + c
    for c in coeffs[1]:
        den = den * r + c
    return num / den


def ndtri(p):
    """The standard normal quantile Phi^-1(p), elementwise, for p in (0, 1)
    (AS 241; p at 0 or 1 is the caller's to reject)."""
    p = np.asarray(p, dtype=np.float64)
    q = p - 0.5
    central = q * _rational(0.180625 - q * q, _NDTRI_CENTRAL)
    with np.errstate(divide="ignore", invalid="ignore"):
        r = np.sqrt(-np.log(np.minimum(p, 0.5 - q)))  # 0.5 - q is 1 - p, exactly
    tail = np.where(r <= 5.0, _rational(r - 1.6, _NDTRI_NEAR), _rational(r - 5.0, _NDTRI_FAR))
    return np.where(np.abs(q) <= 0.425, central, np.copysign(tail, q))


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
    """Inverse of :func:`gauss_q`: the t with Q(t) = u, for u in (0, 1).

    The rational approximation behind ndtri is polished by one Newton
    step on Q (skipped where the density underflows; there the residual
    |Q(t) - u| is already far below any representable tolerance).
    """
    u_arr = np.asarray(u, dtype=np.float64)
    if np.any(u_arr <= 0.0) or np.any(u_arr >= 1.0):
        raise DomainError("gauss_q_inv requires 0 < u < 1")
    t = -ndtri(u_arr)  # Q(t) = u  <=>  Phi(-t) = u
    dens = _INV_SQRT_2PI * np.exp(-0.5 * t * t)
    safe = dens > 1e-300
    resid = 0.5 * erfc(t / _SQRT_2) - u_arr
    t = t - np.where(safe, resid, 0.0) / np.where(safe, -dens, 1.0)
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
