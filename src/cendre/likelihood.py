"""Per-datum censored-Gaussian likelihood quantities.

A datum either arrives intact (its value y is known) or censored, in
which case all that is known is that y fell within sigma*tau of a
prediction anchor y_hat.  Each datum contributes one convex term to the
negative log-likelihood:

    uncensored:  (y - x'theta)^2 / (2 sigma^2)
    censored:    -log P(z_l < Z < z_u),   Z ~ N(0,1)

with z_l = -tau - (x'theta - y_hat)/sigma and z_u = z_l + 2 tau.  The
gradient of a term is -beta * x and its Hessian is h * x x', where beta
(the score scalar) and h (the information scalar) are computed here.
beta is oriented as the DESCENT scalar: theta + mu*beta*x reduces the
loss, and for an uncensored datum it is exactly the LMS correction
(y - x'theta)/sigma^2.

beta and h come from one array routine, :func:`score_info`, which
serves many terms at once and, through :func:`evaluate`, one term at a
time; :func:`loss` is the one formula for the loss.  score_info stacks
both interval bounds of every term as one (2, ...) array, |shift| -/+ tau,
and runs the interval formulas once over all of it, kept terms included;
np.where then picks the censored entries, so none is gathered or
scattered.  The offsets (-tau, tau) come from :func:`interval_offsets`,
once per panel when a caller steps through the rows of one tau panel.
The tail regime of censored terms (interval bounds sharing a sign beyond
z ~ 6) switches to scaled Mills ratios via erfcx so the beta and h
ratios stay finite out to arbitrarily distant intervals, approaching the
clipping limit beta -> z_near/sigma.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .numkit.gaussian import _INV_SQRT_2PI, _SQRT_2, erfc, erfcx, interval_log_prob

__all__ = [
    "CensoredTerm",
    "ScoreInfo",
    "loss",
    "evaluate",
    "score_info",
    "interval_offsets",
]

_SQRT_HALF_PI = 1.2533141373155003  # sqrt(pi/2)
_TAIL_SWITCH = 6.0
_SIGNS = np.array([-1.0, 1.0])


@dataclass(frozen=True, slots=True)
class CensoredTerm:
    """One datum's contribution to the censored negative log-likelihood.

    Attributes
    ----------
    censored : bool
        True when only the censoring interval is known.
    y_or_anchor : float
        The observed value y when uncensored; the prediction anchor
        y_hat the censor compared against when censored.
    x : ndarray
        Regressor vector.
    tau : float
        Censoring threshold (half-width of the interval in sigma units).
    sigma : float
        Noise standard deviation.
    """

    censored: bool
    y_or_anchor: float
    x: np.ndarray
    tau: float
    sigma: float

    def __post_init__(self):
        if self.sigma <= 0.0:
            raise DomainError("sigma must be positive")
        if self.tau < 0.0:
            raise DomainError("tau must be non-negative")
        if self.censored and self.tau == 0.0:
            raise DomainError("a censored term needs tau > 0")


@dataclass(frozen=True, slots=True)
class ScoreInfo:
    """Loss value, descent score scalar, and information scalar at theta."""

    loss: float
    beta: float
    info: float


@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def _interval_scalars(resid, offsets, sigma):
    """(beta, h) of every entry read as a censored term, resid being
    y_hat - x'theta and offsets the stacked (-tau, tau).

    The interval (-tau - shift, tau - shift), shift = -resid/sigma, is
    mirrored into the right tail as z = (z_l, z_u) = a + offsets,
    a = |shift|: beta is odd under the reflection, h is even.  Both bounds
    are one (2, ...) array, so exp, erfc and the products z phi(z) each
    run once over every entry, and the two ratios

        (phi(z_l) - phi(z_u))/P  and  (z_u phi(z_u) - z_l phi(z_l))/P,

    P = Q(z_l) - Q(z_u), once each.  Where both bounds sit beyond z ~ 6
    in one tail, everything is rescaled by phi(z_l): P becomes a
    difference of Mills ratios and the ratios stay well conditioned.
    Entries that are not censored may divide 0 by 0 here, silently; the
    caller drops them.
    """
    z = np.abs(resid) / sigma + offsets
    phi = _INV_SQRT_2PI * np.exp(-0.5 * z * z)
    zphi = z * phi
    half = 0.5 * erfc(z / _SQRT_2)
    p = half[0] - half[1]
    ratio = (phi[0] - phi[1]) / p
    curve = (zphi[1] - zphi[0]) / p
    tail = z[0] > _TAIL_SWITCH
    if np.count_nonzero(tail):
        # r = phi(z_u)/phi(z_l) decays like exp(-2*tau*z_l); underflow to
        # zero is harmless and yields the one-sided clipping limits
        # beta -> 1/(sigma*mills(z_l)) ~ z_l/sigma.
        z_l, z_u = z[0], z[1]
        r = np.exp(-0.5 * (z_u - z_l) * (z_u + z_l))
        mills = _SQRT_HALF_PI * erfcx(z / _SQRT_2)  # Q(z)/phi(z)
        scaled_p = mills[0] - r * mills[1]  # P / phi(z_l)
        ratio = np.where(tail, (1.0 - r) / scaled_p, ratio)
        curve = np.where(tail, (z_u * r - z_l) / scaled_p, curve)
    return np.copysign(ratio, resid) / sigma, (ratio * ratio + curve) / (sigma * sigma)


def score_info(censored, y_or_anchor, prediction, tau, sigma: float, offsets=None):
    """beta and h of many terms at once, without the loss.

    Censored flags, observed values or anchors, predictions x'theta and
    thresholds tau are arrays of one shape (tau may be a scalar); sigma
    is shared.  Returns (beta, h) arrays of that shape.  h = 1/sigma^2
    exactly for uncensored terms and lies in (0, 1/sigma^2] for censored
    ones (an interval never carries more curvature than an observation).
    Censored entries need tau > 0: a zero-width interval has P = 0 and
    gives NaN.

    The interval formulas run over every entry and np.where picks the
    censored ones, so no entry is gathered or scattered.  `offsets`, the
    stacked (-tau, tau) of :func:`interval_offsets` (2 by the entries'
    shape), spares a caller that steps through the rows of one tau panel
    the stacking per call; tau is then unused.
    """
    censored = np.asarray(censored, dtype=bool)
    inv_var = 1.0 / (sigma * sigma)
    resid = np.asarray(y_or_anchor, dtype=np.float64) - prediction
    beta = resid * inv_var
    if not np.count_nonzero(censored):
        return beta, np.full_like(beta, inv_var)
    if offsets is None:  # a scalar tau broadcasts over the entries behind the new axis
        tau = np.asarray(tau, dtype=np.float64)
        offsets = interval_offsets(tau).reshape((2,) + (tau.shape or (1,) * resid.ndim))
    beta_c, info_c = _interval_scalars(resid, offsets, sigma)
    return np.where(censored, beta_c, beta), np.where(censored, info_c, inv_var)


def interval_offsets(tau):
    """(-tau, tau) on a new leading axis of length 2: the offsets that
    :func:`score_info` adds to |shift| for the two interval bounds."""
    return np.multiply.outer(_SIGNS, tau)


def loss(term: CensoredTerm, theta) -> float:
    """The term's negative log-likelihood contribution at theta."""
    if term.censored:
        shift = (float(term.x @ theta) - term.y_or_anchor) / term.sigma
        return -interval_log_prob(-term.tau - shift, term.tau - shift)
    resid = term.y_or_anchor - float(term.x @ theta)
    return 0.5 * resid * resid / (term.sigma * term.sigma)


def evaluate(term: CensoredTerm, theta) -> ScoreInfo:
    """Loss, beta and h of one term: :func:`loss` and a one-element :func:`score_info`."""
    beta, info = score_info([term.censored], [term.y_or_anchor], [float(term.x @ theta)],
                            term.tau, term.sigma)
    return ScoreInfo(loss(term, theta), float(beta[0]), float(info[0]))
