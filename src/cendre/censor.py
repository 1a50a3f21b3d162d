"""Censoring rules and threshold design.

A censoring rule looks at one innovation e = y - y_hat and decides
whether the datum carries enough new information to keep.  The decision
is always |e|/sigma >= tau, with the boundary kept; the rules differ in
where y_hat comes from:

* non-adaptive (NAC): y_hat = x'theta_K against a fixed preliminary
  estimate; censored data still contribute interval terms downstream.
* adaptive (AC): y_hat = x'theta_{n-1} against the latest iterate;
  censored data are dropped entirely.
* robust: an AC rule with a second threshold tau_o; data beyond it are
  treated as outliers and only allowed a clipped influence.

Threshold design turns a target censoring probability pi* into tau.
The exact rule integrates the prediction-error variance of a specific
x; the CLT rule replaces the leverage term by its average p/K; the
online rule tracks the estimator's current step matrix; the offline
rule anticipates how much data a target schedule will have kept.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .errors import ConfigError, DomainError
from .numkit.gaussian import gauss_q, gauss_q_inv

__all__ = [
    "CensorDecision",
    "ThresholdPlan",
    "nac_decide",
    "robust_decide",
    "nac_threshold_exact",
    "censor_prob_exact",
    "nac_threshold_clt",
    "censor_prob_clt",
    "ac_threshold_offline",
]


@dataclass(frozen=True, slots=True)
class CensorDecision:
    """Outcome of a censoring rule for one datum.

    kept is True when the datum survived (c_n = 0); value carries y for
    rules that see it (the robust rule receives only the innovation, so
    estimator steps fill value themselves); outlier is set only by the
    robust rule and implies kept.
    """

    kept: bool
    value: float | None = None
    outlier: bool = False


def _check_rule_args(sigma: float, tau: float, *values: float) -> None:
    if not (sigma > 0.0) or not math.isfinite(sigma):
        raise DomainError("sigma must be positive and finite")
    if not (tau >= 0.0) or not math.isfinite(tau):
        raise DomainError("tau must be non-negative and finite")
    for v in values:
        if not math.isfinite(v):
            raise DomainError("censoring rule received a non-finite value")


def nac_decide(y: float, y_hat: float, sigma: float, tau: float) -> CensorDecision:
    """Censor y against a fixed prediction y_hat; keep iff |y - y_hat| >= tau*sigma."""
    _check_rule_args(sigma, tau, y, y_hat)
    kept = bool(abs(y - y_hat) >= tau * sigma)
    return CensorDecision(kept, float(y) if kept else None)


def robust_decide(e: float, sigma: float, tau: float, tau_o: float) -> CensorDecision:
    """Three-way rule on the innovation e: censored / nominal / outlier.

    |e| < tau*sigma        -> censored
    tau*sigma <= |e| < tau_o*sigma -> kept, nominal
    |e| >= tau_o*sigma     -> kept, outlier (clipped downstream)
    """
    _check_rule_args(sigma, tau, e)
    if not tau <= tau_o:
        raise DomainError("robust rule requires tau <= tau_o")
    a = abs(e)
    if a < tau * sigma:
        return CensorDecision(False)
    if a < tau_o * sigma:
        return CensorDecision(True)
    return CensorDecision(True, outlier=True)


def _check_pi(pi_star: float) -> float:
    if not (0.0 <= pi_star < 1.0):
        raise DomainError(f"target censoring probability {pi_star!r} outside [0, 1)")
    return float(pi_star)


def _half_tail_quantiles(pi_star):
    """Q^-1((1-pi)/2): the two-sided Gaussian threshold with tail mass 1-pi."""
    return gauss_q_inv(0.5 * (1.0 - np.asarray(pi_star, dtype=np.float64)))


@lru_cache(maxsize=256)
def _half_tail_quantile(pi_star: float) -> float:
    # Cached: threshold plans evaluate this once per datum with the same
    # target, and the quantile is by far the costliest piece of tau_n.
    return float(_half_tail_quantiles(pi_star))


def nac_threshold_exact(x, gram_inv, pi_star: float):
    """Per-datum threshold hitting censoring probability pi_star exactly.

    The NAC prediction error has variance sigma^2 (x' gram_inv x + 1)
    for a preliminary LSE with Gram inverse gram_inv, so
    tau* = sqrt(x' gram_inv x + 1) * Q^-1((1-pi*)/2).  x may stack
    several data along leading axes; the result then has those axes.
    """
    _check_pi(pi_star)
    x = np.asarray(x, dtype=np.float64)
    lever = np.einsum("...i,ij,...j->...", x, np.asarray(gram_inv), x)
    out = np.sqrt(lever + 1.0) * _half_tail_quantile(pi_star)
    return out if out.ndim else float(out)


def censor_prob_exact(x, gram_inv, tau: float) -> float:
    """Censoring probability of the NAC rule at threshold tau for this x."""
    if tau < 0.0:
        raise DomainError("tau must be non-negative")
    x = np.asarray(x, dtype=np.float64)
    lever = float(x @ (np.asarray(gram_inv) @ x))
    return 1.0 - 2.0 * gauss_q(tau / math.sqrt(lever + 1.0))


def nac_threshold_clt(p: int, K: int, pi_star: float) -> float:
    """Leverage-averaged NAC threshold: sqrt(1 + p/K) * Q^-1((1-pi*)/2)."""
    if p < 1 or K < 1:
        raise DomainError("p and K must be positive")
    _check_pi(pi_star)
    return math.sqrt(1.0 + p / K) * _half_tail_quantile(pi_star)


def censor_prob_clt(tau: float, p: int, K: int) -> float:
    """Average censoring probability of the NAC rule: 1 - 2Q(tau/sqrt(p/K+1))."""
    if tau < 0.0:
        raise DomainError("tau must be non-negative")
    if p < 1 or K < 1:
        raise DomainError("p and K must be positive")
    return 1.0 - 2.0 * gauss_q(tau / math.sqrt(p / K + 1.0))


def ac_threshold_offline(p: int, n, pi_star: float):
    """Constant-target offline AC threshold at step n (a scalar or an array).

    tau_n = sqrt(p/((n-1)(1-pi*)) + 1) * Q^-1((1-pi*)/2); decreasing in
    n toward the asymptote Q^-1((1-pi*)/2).
    """
    if p < 1:
        raise DomainError("p must be positive")
    n = np.asarray(n)
    if (n < 2).any():
        raise DomainError("offline threshold is defined for n >= 2")
    _check_pi(pi_star)
    out = np.sqrt(p / ((n - 1) * (1.0 - pi_star)) + 1.0) * _half_tail_quantile(pi_star)
    return out if out.ndim else float(out)


_PLAN_KINDS = ("constant", "nac-exact", "nac-clt", "ac-online", "ac-offline")
_TABLE_BLOCK = 1024


@dataclass(frozen=True)
class ThresholdPlan:
    """A rule for producing tau_n at every step.

    kind selects the strategy; target_pi is the censoring-probability
    target (scalar, or a per-datum schedule for ac-offline); p, K, and
    gram_inv are carried only by the kinds that need them.  Construct
    through the classmethods.
    """

    kind: str
    tau: float | None = None
    target_pi: float | tuple[float, ...] | None = None
    p: int | None = None
    K: int | None = None
    gram_inv: np.ndarray | None = field(default=None, repr=False)

    # (k, tau_n block k) of the block threshold() last read; not a field.
    _block = (None, None)

    def __post_init__(self):
        if self.kind not in _PLAN_KINDS:
            raise ConfigError(f"unknown threshold plan kind {self.kind!r}")
        if self.kind == "constant":
            if self.tau is None or not (self.tau >= 0.0 and math.isfinite(self.tau)):
                raise ConfigError("constant plan needs a finite tau >= 0")
            return
        pi = self.target_pi
        if pi is None:
            raise ConfigError(f"{self.kind} plan needs target_pi")
        for v in pi if isinstance(pi, tuple) else (pi,):
            if not (0.0 <= v < 1.0):
                raise ConfigError("target_pi entries must lie in [0, 1)")
        if isinstance(pi, tuple) and self.kind != "ac-offline":
            raise ConfigError("per-datum pi schedules are supported by the ac-offline kind only")
        if self.kind == "nac-exact" and self.gram_inv is None:
            raise ConfigError("nac-exact plan needs the preliminary Gram inverse")
        if self.kind == "nac-clt" and (self.p is None or self.K is None):
            raise ConfigError("nac-clt plan needs p and K")
        if self.kind == "ac-offline" and self.p is None:
            raise ConfigError("ac-offline plan needs p")

    # -- constructors -------------------------------------------------
    @classmethod
    def constant(cls, tau: float) -> "ThresholdPlan":
        return cls(kind="constant", tau=float(tau))

    @classmethod
    def nac_exact(cls, gram_inv, pi_star: float) -> "ThresholdPlan":
        return cls(kind="nac-exact", target_pi=float(pi_star),
                   gram_inv=np.asarray(gram_inv, dtype=np.float64))

    @classmethod
    def nac_clt(cls, p: int, K: int, pi_star: float) -> "ThresholdPlan":
        return cls(kind="nac-clt", target_pi=float(pi_star), p=int(p), K=int(K))

    @classmethod
    def ac_online(cls, pi_star: float) -> "ThresholdPlan":
        return cls(kind="ac-online", target_pi=float(pi_star))

    @classmethod
    def ac_offline(cls, p: int, pi_star) -> "ThresholdPlan":
        if np.ndim(pi_star) > 0:
            return cls(kind="ac-offline", target_pi=tuple(float(v) for v in pi_star), p=int(p))
        return cls(kind="ac-offline", target_pi=float(pi_star), p=int(p))

    # -- queries ------------------------------------------------------
    @property
    def needs_quadratic_form(self) -> bool:
        return self.kind == "ac-online"

    def threshold(self, n: int, x=None, quadratic_form: float | None = None) -> float:
        """tau_n for step n; x or x'Cx/n supplied by the caller where needed.

        Kinds that depend on n alone read a block of :meth:`thresholds`
        computed on first use, so a per-datum caller pays for the vector
        path once per block of steps, not once per step.  Only the block
        last read is held, so memory stays flat over any stream length.
        """
        if n < 1:
            raise DomainError("threshold steps start at n = 1")
        if self.kind in ("nac-exact", "ac-online"):
            if x is not None:
                x = np.asarray(x, dtype=np.float64)[None]
            if quadratic_form is not None:
                quadratic_form = np.array([quadratic_form], dtype=np.float64)
            return float(self.thresholds(n, n + 1, x=x, quadratic_form=quadratic_form)[0])
        k, i = divmod(n - 1, _TABLE_BLOCK)
        held, block = self._block
        if held != k:
            start = k * _TABLE_BLOCK + 1
            stop = start + _TABLE_BLOCK
            if isinstance(self.target_pi, tuple):
                stop = min(stop, len(self.target_pi) + 1)
            block = self.thresholds(start, max(start, stop))
            object.__setattr__(self, "_block", (k, block))
        return float(block[i])

    def thresholds(self, start: int, stop: int, x=None, quadratic_form=None) -> np.ndarray:
        """tau_n for n = start, ..., stop - 1, along the first axis.

        nac-exact reads each step's x (first axis n, last axis p) and
        ac-online the estimator's x'Cx/n (first axis n); axes in between
        carry through, so one call serves several streams at once.
        """
        n = np.arange(start, stop)
        if self.kind == "constant":
            return np.full(n.size, self.tau)
        if self.kind == "nac-exact":
            if x is None:
                raise ConfigError("nac-exact threshold needs the datum's x")
            return nac_threshold_exact(x, self.gram_inv, self.target_pi)
        if self.kind == "nac-clt":
            return np.full(n.size, nac_threshold_clt(self.p, self.K, self.target_pi))
        if self.kind == "ac-online":
            if quadratic_form is None:
                raise ConfigError("ac-online threshold needs x'Cx/n from the estimator")
            q = np.maximum(np.asarray(quadratic_form, dtype=np.float64), 0.0)
            return np.sqrt(q + 1.0) * _half_tail_quantile(self.target_pi)
        # ac-offline: tau_1 = 0, then the prefactor anticipates the
        # expected kept count sum_{i<n} (1 - pi*_i).
        later = n[1:] if start == 1 else n
        if isinstance(self.target_pi, tuple):
            taus = np.sqrt(self.p / self._kept_mass[later - 1] + 1.0) * self._quantiles[later - 1]
        else:
            taus = ac_threshold_offline(self.p, later, self.target_pi)
        return np.concatenate(([0.0], taus)) if start == 1 else taus

    @cached_property
    def _kept_mass(self) -> np.ndarray:
        """Expected kept count before each step of a per-datum schedule."""
        return np.concatenate(([0.0], np.cumsum([1.0 - v for v in self.target_pi])))

    @cached_property
    def _quantiles(self) -> np.ndarray:
        return _half_tail_quantiles(self.target_pi)
