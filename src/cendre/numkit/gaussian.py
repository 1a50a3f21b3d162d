"""Standard-Gaussian density, upper tail, quantile, and interval log-probability.

The four Gaussian functions accept scalars or arrays and are accurate
enough that threshold calibration never inherits special-function error:
Q is computed through erfc (<= 1e-14 relative), the quantile is polished
by a Newton step on Q itself, and interval probabilities right of zero
are differences of Mills ratios Q/phi, finite 30+ sigmas out, or, when
narrow, a series about their midpoint.

The special functions under them need only numpy and the standard
library: ``erfc`` is libm's, one element at a time; ``erfcx`` scales it
by exp(x^2), or takes Laplace's continued fraction in the far tail; and
``ndtri`` is ``statistics.NormalDist.inv_cdf`` (Wichura's AS 241, 1988),
good to about 1e-16.
"""

from __future__ import annotations

import math
import statistics

import numpy as np

from ..errors import DomainError

__all__ = ["gauss_pdf", "gauss_q", "gauss_q_inv", "interval_log_prob",
           "erfc", "erfcx", "ndtri"]

_INV_SQRT_2PI = 0.3989422804014327  # 1/sqrt(2*pi)
_SQRT_2 = 1.4142135623730951
_INV_SQRT_PI = 0.5641895835477563  # 1/sqrt(pi)
_SQRT_HALF_PI = 1.2533141373155003  # sqrt(pi/2)
_LOG_INV_SQRT_2PI = -0.9189385332046728  # log(1/sqrt(2*pi))
_SPLIT = 134217729.0  # 2^27 + 1: Dekker's splitter of a double into two halves
_CF_FROM = 8.0  # erfcx switches to the continued fraction here ...
_CF_TERMS = 12  # ... which this many terms take to full double precision
_EXP_MAX = 709.782712893384  # log of the largest double
_NARROW = 0.2  # intervals right of zero with w max(1, c) below this take the midpoint series ...
_NARROW_TERMS = 5  # ... summed through w^10
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


def _midpoint_sum(w: float, c: float) -> float:
    """sum over k = 1.._NARROW_TERMS of He_2k(c) (w/2)^2k / (2k+1)!, He the
    probabilists' Hermite polynomials: P(c - w/2 < Z < c + w/2) is
    w phi(c) (1 + this sum), the Taylor series of the integral about c.
    g_n = He_n(c) (w/2)^n is carried by He's recurrence, scaled so that
    no term overflows: g_n+1 = (w c / 2) g_n - n (w/2)^2 g_n-1."""
    a, b = 0.5 * w * c, 0.25 * w * w
    even, odd, fact, total = 1.0, a, 1.0, 0.0  # g_2k-2, g_2k-1, (2k-1)!
    for k in range(1, _NARROW_TERMS + 1):
        even = a * odd - (2 * k - 1) * b * even
        odd = a * even - 2 * k * b * odd
        fact *= 2 * k * (2 * k + 1)
        total += even / fact
    return total


def _interval_log_prob(lo: float, hi: float) -> float:
    if lo + hi < 0.0:  # mirror: the probability is even under (lo, hi) -> (-hi, -lo)
        lo, hi = -hi, -lo
    if lo < 0.0:  # across zero: two positive erf halves, or one minus both tails past 1/2
        a, b = -lo / _SQRT_2, hi / _SQRT_2
        p = 0.5 * (math.erf(a) + math.erf(b))
        return math.log(p) if p < 0.5 else math.log1p(-0.5 * (math.erfc(a) + math.erfc(b)))
    w, c = hi - lo, 0.5 * (lo + hi)
    if w * max(c, 1.0) < _NARROW:
        return math.log(w) - 0.5 * c * c + _LOG_INV_SQRT_2PI + math.log1p(_midpoint_sum(w, c))
    # P = phi(lo) (m(lo) - r m(hi)), m = Q/phi the Mills ratio, r = phi(hi)/phi(lo)
    r = math.exp(-0.5 * (hi - lo) * (hi + lo))
    m = _SQRT_HALF_PI * (_erfcx(lo / _SQRT_2) - r * _erfcx(hi / _SQRT_2))
    return math.log(m) - 0.5 * lo * lo + _LOG_INV_SQRT_2PI if m > 0.0 else -math.inf


def interval_log_prob(z_l, z_u):
    """log P(z_l < Z < z_u) = log(Q(z_l) - Q(z_u)), without cancellation.

    The interval is mirrored so that its midpoint is >= 0 (the result is
    symmetric under (z_l, z_u) -> (-z_u, -z_l)).  Across zero the mass is
    (erf(-z_l/sqrt 2) + erf(z_u/sqrt 2))/2, two positive terms, or above
    1/2 one minus the two tails, through log1p.  Right of zero it is the
    censored score's tail form phi(z_l) (m(z_l) - r m(z_u)), m = Q/phi the
    Mills ratio through erfcx and r = phi(z_u)/phi(z_l), whose log stays
    finite for |z| up to 35 and beyond; where that difference rounds to
    zero or below, -inf.  That difference cancels as the width
    w = z_u - z_l shrinks, losing digits like eps/w, so while
    w max(1, c) < 0.2, c the midpoint, the mass is taken as
    w phi(c) (1 + S) instead, S the midpoint Taylor series through w^10
    (its first term is w^2 (c^2 - 1)/24), and its log as
    log w + log phi(c) + log1p(S).  At that switch both forms are within
    3 ulp of a 50-digit reference for c up to 38, and the midpoint form
    holds 2 ulp down to w = 1e-300.
    """
    z_l = np.asarray(z_l, dtype=np.float64)
    z_u = np.asarray(z_u, dtype=np.float64)
    if np.any(~np.isfinite(z_l)) or np.any(~np.isfinite(z_u)):
        raise DomainError("interval bounds must be finite")
    if np.any(z_l >= z_u):
        raise DomainError("interval_log_prob requires z_l < z_u")
    lo, hi = np.broadcast_arrays(z_l, z_u)
    out = np.fromiter(map(_interval_log_prob, lo.ravel().tolist(), hi.ravel().tolist()),
                      np.float64, lo.size).reshape(lo.shape)
    return out if out.ndim else float(out)
