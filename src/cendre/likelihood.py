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
time; :func:`loss` is the one formula for the loss.  The tail regime of
censored terms (interval bounds sharing a sign beyond z ~ 6) switches to
scaled Mills ratios via erfcx so the beta and h ratios stay finite out
to arbitrarily distant intervals, approaching the clipping limit
beta -> z_near/sigma.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import special

from .errors import DomainError
from .numkit.gaussian import interval_log_prob

__all__ = [
    "CensoredTerm",
    "ScoreInfo",
    "loss",
    "evaluate",
    "score_info",
]

_INV_SQRT_2PI = 0.3989422804014327
_SQRT_2 = 1.4142135623730951
_SQRT_HALF_PI = 1.2533141373155003  # sqrt(pi/2)
_TAIL_SWITCH = 6.0


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


@dataclass(frozen=True, slots=True)
class ScoreInfo:
    """Loss value, descent score scalar, and information scalar at theta."""

    loss: float
    beta: float
    info: float


def _censored_scalars(shift, tau, sigma):
    """(beta, h) arrays for censored terms whose prediction sits shift =
    (x'theta - y_hat)/sigma away from the anchor.

    The interval (z_l, z_u) = (-tau - shift, tau - shift) is mirrored
    into the right tail, [|shift| - tau, |shift| + tau]; beta is odd
    under the reflection, h is even.  Central intervals use phi/Q
    directly.  Once both bounds sit in one tail, everything is rescaled
    by phi(z_near): the probability becomes a difference of Mills ratios
    and the ratios stay well conditioned.
    """
    shift = np.asarray(shift, dtype=np.float64)
    a = np.abs(shift)
    z_l = a - tau
    z_u = a + tau
    tail = z_l > _TAIL_SWITCH
    if not tail.any():
        ratio, curve = _central_ratios(z_l, z_u)
    else:
        # r = phi(z_u)/phi(z_l) decays like exp(-2*tau*z_l); underflow to
        # zero is harmless and yields the one-sided clipping limits
        # beta -> 1/(sigma*mills(z_l)) ~ z_l/sigma.
        r = np.exp(-0.5 * (z_u - z_l) * (z_u + z_l))
        scaled_p = _mills(z_l) - r * _mills(z_u)  # P / phi(z_l)
        ratio = (1.0 - r) / scaled_p  # (phi(z_l)-phi(z_u))/P
        curve = (z_u * r - z_l) / scaled_p  # (z_u phi(z_u)-z_l phi(z_l))/P
        if not tail.all():
            with np.errstate(divide="ignore", invalid="ignore"):
                central = _central_ratios(z_l, z_u)
            ratio = np.where(tail, ratio, central[0])
            curve = np.where(tail, curve, central[1])
    beta = np.copysign(ratio, -shift) / sigma
    info = (ratio * ratio + curve) / (sigma * sigma)
    return beta, info


def _central_ratios(z_l, z_u):
    """(phi(z_l)-phi(z_u))/P and (z_u phi(z_u)-z_l phi(z_l))/P, P = Q(z_l)-Q(z_u)."""
    phi_l = _INV_SQRT_2PI * np.exp(-0.5 * z_l * z_l)
    phi_u = _INV_SQRT_2PI * np.exp(-0.5 * z_u * z_u)
    p = 0.5 * special.erfc(z_l / _SQRT_2) - 0.5 * special.erfc(z_u / _SQRT_2)
    return (phi_l - phi_u) / p, (z_u * phi_u - z_l * phi_l) / p


def _mills(z):
    """Mills ratio Q(z)/phi(z), stable for large positive z."""
    return _SQRT_HALF_PI * special.erfcx(z / _SQRT_2)


def score_info(censored, y_or_anchor, prediction, tau, sigma: float):
    """beta and h of many terms at once, without the loss.

    Censored flags, observed values or anchors, predictions x'theta and
    thresholds tau are arrays of one shape (tau may be a scalar); sigma
    is shared.  Returns (beta, h) arrays of that shape.  h = 1/sigma^2
    exactly for uncensored terms and lies in (0, 1/sigma^2] for censored
    ones (an interval never carries more curvature than an observation).
    """
    censored = np.asarray(censored, dtype=bool)
    inv_var = 1.0 / (sigma * sigma)
    resid = np.asarray(y_or_anchor, dtype=np.float64) - prediction
    beta = resid * inv_var
    info = np.full_like(beta, inv_var)
    if censored.any():
        tau = np.asarray(tau, dtype=np.float64)
        tau_c = tau[censored] if tau.ndim else tau
        # -resid is x'theta - y_hat exactly.
        beta[censored], info[censored] = _censored_scalars(
            -resid[censored] / sigma, tau_c, sigma)
    return beta, info


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
