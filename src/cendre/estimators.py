"""Online estimators for streaming regression under censoring.

The paper's one idea is a censoring gate on the innovation in front of a
recursion.  Here that is one gate and two recursions:

- ``LMS``, the first-order recursion: theta += mu_n beta x.
- ``RLS``, the second-order one: a Sherman-Morrison step with weight h,
  P <- (P^-1 + h x x')^-1 in place, then theta += beta P x.

Both read the same gate.  With no sigma it is open: every datum is kept
with beta = e and h = 1, the classical LMS and RLS.  With sigma, a datum
is kept when its innovation |e| >= tau sigma, with tau given per step or
read from a ``ThresholdPlan`` (adaptive censoring); a censored datum moves
nothing.  With tau_out as well, an innovation at or beyond tau_out sigma
is an outlier: its score is clipped to tau_out sigma sign(e) and its
weight is h = 0, so the step matrix stays as it is.

Likelihood-driven estimators (non-adaptive censoring) feed the same two
recursions.  A preliminary least-squares fit anchors the censor, and
every datum -- kept or censored -- becomes a convex likelihood term whose
score beta and curvature h drive the update: ``FirstOrderCensoredMLE``
walks the stochastic gradient, and ``SecondOrderCensoredMLE`` scales it
by the inverse of the accumulated per-datum information.

Second-order recursions never re-invert.  They carry the unnormalized
inverse P_n = (P_0^{-1} + sum_i h_i x_i x_i')^{-1}, updated by one
Sherman-Morrison correction per contributing datum; the conventionally
n-scaled step matrix is the ``C`` property (C_n = n P_n, and C_0 is the
prior block P_0^{-1}).  For RLS P_0 = (1/eps) I, which makes the
trajectory the exact ridge minimizer with penalty eps over the kept rows
at every step; ``default_ridge`` sets eps when none is given.

Every estimator counts scalar multiplies in its update path (adds and
comparisons are free; divisions are restated as reciprocal-multiplies
and only the multiplies are counted).  Data-independent products such
as tau*sigma or a constant step size are configuration: a streaming
implementation computes them once, so they are not charged per step.
The per-step costs are exact and asserted in the test suite; see each
class docstring.

``snapshot()`` writes an estimator's state as one JSON document: its
``kind``, its scalar attributes as they are, its step-size policy as
{"policy", "value"}, and its arrays as nested lists.  ``from_snapshot``
reads that document back.  A threshold plan is configuration, not state,
and is not saved; a restored gated estimator is given tau at each step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .censor import CensorDecision, ThresholdPlan, robust_decide
from .errors import ConfigError, DomainError, SingularityError, UsageError
from .likelihood import CensoredTerm, evaluate, loss
from .numkit.linalg import cholesky_solve
from .numkit.rng import substream

__all__ = [
    "StepSize",
    "PreliminaryFit",
    "preliminary_fit",
    "FirstOrderCensoredMLE",
    "SecondOrderCensoredMLE",
    "LMS",
    "RLS",
    "default_ridge",
    "kaczmarz_run",
    "batch_lse",
    "regret",
    "from_snapshot",
]

_SINGULAR_TOL = 1e-12
_PANEL = 1024  # rows per block of a stream held in memory


@dataclass(frozen=True, slots=True)
class StepSize:
    """Step-size policy: constant mu, or diminishing mu/n."""

    policy: str
    value: float

    def __post_init__(self):
        if self.policy not in ("constant", "diminishing"):
            raise ConfigError(f"unknown step-size policy {self.policy!r}")
        if not (self.value > 0.0):
            raise ConfigError("step size must be positive")

    @classmethod
    def constant(cls, mu: float) -> "StepSize":
        return cls("constant", float(mu))

    @classmethod
    def diminishing(cls, mu0: float) -> "StepSize":
        return cls("diminishing", float(mu0))

    def at(self, n: int) -> float:
        return self.value / n if self.policy == "diminishing" else self.value


@dataclass(frozen=True)
class PreliminaryFit:
    """Least-squares fit on the first K data: estimate plus Gram inverse."""

    theta: np.ndarray
    gram_inv: np.ndarray
    K: int


def preliminary_fit(first_k) -> PreliminaryFit:
    """Batch LSE over the warm-up block, keeping (X'X)^{-1}.

    Parameters
    ----------
    first_k : iterable of (y, x) pairs, K >= p of them.

    Raises
    ------
    SingularityError
        If the design is rank deficient.
    """
    pairs = list(first_k)
    if not pairs:
        raise DomainError("preliminary_fit needs at least one datum")
    y = np.array([float(v) for v, _ in pairs], dtype=np.float64)
    X = np.array([np.asarray(x, dtype=np.float64) for _, x in pairs])
    K, p = X.shape
    if K < p:
        raise DomainError(f"need K >= p, got K={K}, p={p}")
    gram = X.T @ X
    gram_inv = cholesky_solve(gram, np.eye(p))
    theta = cholesky_solve(gram, X.T @ y)
    return PreliminaryFit(theta=theta, gram_inv=gram_inv, K=K)


def batch_lse(X, y) -> np.ndarray:
    """Full-data least-squares estimate via the normal equations."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.shape[0] < X.shape[1]:
        raise SingularityError("fewer rows than columns; normal equations singular")
    return cholesky_solve(X.T @ X, X.T @ y)


def default_ridge(x, plan: ThresholdPlan | None, tau_out: float | None):
    """The ridge eps of an RLS gated by (plan, tau_out) when none is given,
    from the first regressor x: (p,), or (R, p) with one row per replicate.

    eps is a fraction of ||x||^2 / p, one average coordinate's energy:
    1e-2 of it, a faint prior that leaves the trajectory near-LS from the
    start, unless the outlier clip or an online plan reads the step
    matrix.  Then it is all of it, one datum's worth of prior information:
    a near-flat prior would destabilize the clipped update, or keep tau
    huge, censor everything and never let the step matrix contract.
    """
    x = np.asarray(x, dtype=np.float64)
    reads_P = tau_out is not None or (plan is not None and plan.needs_quadratic_form)
    eps = (1.0 if reads_P else 1e-2) * np.einsum("...i,...i->...", x, x) / x.shape[-1]
    if np.any(eps <= 0.0):
        raise DomainError("first regressor has zero norm; supply epsilon")
    return eps


# ---------------------------------------------------------------------
# The gate and the two recursions
# ---------------------------------------------------------------------


class _Gate:
    """State, censoring gate and snapshot shared by LMS and RLS.

    A subclass supplies the recursion: ``_kept`` updates on a datum the
    gate keeps and charges its multiplies, and ``_ready`` sets up state
    that waits for the first datum.
    """

    def __init__(self, theta, sigma: float | None, plan: ThresholdPlan | None,
                 tau_out: float | None):
        if sigma is None:
            if plan is not None or tau_out is not None:
                raise ConfigError("a threshold plan or an outlier bound needs sigma")
        elif sigma <= 0.0:
            raise ConfigError("sigma must be positive")
        self.theta = np.array(theta, dtype=np.float64)
        self.sigma = None if sigma is None else float(sigma)
        self.plan = plan
        self.tau_out = None if tau_out is None else float(tau_out)
        self.n = 0
        self.multiply_count = 0
        self.kept_count = 0

    @property
    def p(self) -> int:
        return self.theta.shape[0]

    def _ready(self, x: np.ndarray) -> None:
        pass

    def _plan_tau(self, n: int, x: np.ndarray):
        """(tau, v, s) for step n; v = Px and s = x'Px when the plan read them."""
        return self.plan.threshold(n, x=x), None, None

    def step(self, y: float, x, tau: float | None = None) -> tuple["_Gate", CensorDecision]:
        """Gate one datum and update on it if kept; returns (self, decision).

        An open gate keeps every datum and ignores tau.  Otherwise the
        datum is kept iff |e| >= tau sigma (boundary kept), with tau given
        here or read from the plan.  With tau_out, robust_decide takes the
        decision and an outlier is kept with its score clipped.
        """
        x = np.asarray(x, dtype=np.float64)
        self._ready(x)
        n = self.n + 1
        v = s = None
        if self.sigma is not None and tau is None:
            if self.plan is None:
                raise ConfigError("no tau given and no threshold plan configured")
            tau, v, s = self._plan_tau(n, x)
            if self.tau_out is not None:
                # An adaptive schedule can ask for a threshold above the clip
                # boundary while it warms up; the clip stays in charge there.
                tau = min(tau, self.tau_out)
        self.n = n
        e = float(y) - float(x @ self.theta)
        self.multiply_count += x.shape[0]
        if self.tau_out is not None:
            decision = robust_decide(e, self.sigma, tau, self.tau_out)
            kept, outlier = decision.kept, decision.outlier
        else:
            kept, outlier = self.sigma is None or abs(e) >= tau * self.sigma, False
        if not kept:
            return self, CensorDecision(False)
        self.kept_count += 1
        if outlier:
            e = self.tau_out * self.sigma * math.copysign(1.0, e)
        self._kept(x, e, outlier, v, s)
        return self, CensorDecision(True, float(y), outlier)

    def snapshot(self) -> dict:
        """The estimator's state as a JSON document (see the module docstring)."""
        doc = {"kind": self.kind}
        for name, value in vars(self).items():
            if name == "plan":
                continue
            if isinstance(value, np.ndarray):
                value = value.tolist()
            elif isinstance(value, StepSize):
                value = {"policy": value.policy, "value": value.value}
            doc[name] = value
        return doc


class LMS(_Gate):
    """First-order recursion: theta += mu_n beta x, with beta = e on a kept
    datum.

    Multiplies: the innovation x'theta (p) on every step; a kept datum,
    nominal or clipped, adds mu*beta (1) and the scaled add (p).  So an
    open gate costs 2p + 1 per step, and a gated censored step costs p.
    """

    kind = "lms"

    def __init__(self, p: int, mu: StepSize, sigma: float | None = None,
                 plan: ThresholdPlan | None = None, tau_out: float | None = None):
        super().__init__(np.zeros(int(p)), sigma, plan, tau_out)
        self.mu = mu

    def _update(self, x: np.ndarray, beta: float) -> None:
        self.theta += (self.mu.at(self.n) * beta) * x

    def _kept(self, x, beta, outlier, v, s) -> None:
        self._update(x, beta)
        self.multiply_count += x.shape[0] + 1


class RLS(_Gate):
    """Second-order recursion: recursive least squares, exact ridge at
    every step.

    Carries P_n = (eps I + sum of kept x x')^{-1}; theta_n is the
    minimizer of sum (y - x'theta)^2 + eps ||theta||^2 over the kept data
    seen so far.  eps defaults to ``default_ridge`` of the first
    regressor, at data scale when the outlier clip or an online plan
    reads P.  Override with an explicit epsilon, or initialize from a
    (theta0, inv_gram0) block.  A clipped outlier moves theta by
    tau_o sigma sign(e) P x and leaves P as it is, so a wild datum can
    neither drag the estimate far nor corrupt the step matrix.

    Multiplies: the innovation (p) on every step.  A kept nominal datum
    adds Px (p^2), x'Px (p), gain (p), theta (p) and rank-one (p^2), for
    2p^2 + 4p in all, the cost of every step with the gate open; a
    clipped outlier adds Px (p^2) and theta (p).  A gated stream of D
    data with d kept and none clipped therefore costs exactly
    d(2p^2 + 3p) + Dp.  An ac-online plan adds p(p+1) every step for
    x'Px; a kept step reuses that product.
    """

    kind = "rls"
    _breakdown = "update denominator vanished"

    def __init__(self, p: int, epsilon: float | None = None, theta0=None, inv_gram0=None,
                 sigma: float | None = None, plan: ThresholdPlan | None = None,
                 tau_out: float | None = None):
        super().__init__(np.zeros(int(p)) if theta0 is None else theta0, sigma, plan, tau_out)
        self.epsilon = None if epsilon is None else float(epsilon)
        self.P = None if inv_gram0 is None else np.array(inv_gram0, dtype=np.float64)

    @property
    def C(self) -> np.ndarray:
        """n-scaled step matrix; before any update, the prior block P^-1."""
        if self.P is None:
            raise UsageError("step matrix undefined before the first datum fixes eps")
        if self.n == 0:
            return np.linalg.inv(self.P)
        return self.n * self.P

    def _ready(self, x: np.ndarray) -> None:
        if self.P is not None:
            return
        if self.epsilon is None:
            self.epsilon = float(default_ridge(x, self.plan, self.tau_out))
        self.P = np.eye(self.p) / self.epsilon

    def _plan_tau(self, n: int, x: np.ndarray):
        if not self.plan.needs_quadratic_form:
            return super()._plan_tau(n, x)
        v = self.P @ x
        s = float(x @ v)
        self.multiply_count += self.p * (self.p + 1)
        q = s * (n - 1) / n  # x' C_{n-1} x / n with C_{n-1} = (n-1) P
        return self.plan.threshold(n, quadratic_form=q), v, s

    def _update(self, x: np.ndarray, beta: float, h: float, v=None, s=None) -> None:
        """Sherman-Morrison with weight h, P <- (P^-1 + h x x')^-1 in place,
        then theta += beta P x with the updated P; v = Px and s = x'Px if
        known.  h = 0 leaves P untouched."""
        P = self.P
        if v is None:
            v = P @ x
            s = float(x @ v) if h else 0.0
        denom = 1.0 + h * s
        if abs(denom) < _SINGULAR_TOL:
            raise SingularityError(self._breakdown)
        k = v * (1.0 / denom)  # the updated P times x
        if h:
            P -= np.outer(k * h, v)
        self.theta += beta * k

    def _kept(self, x, beta, outlier, v, s) -> None:
        p = self.p
        if v is None:
            self.multiply_count += p * p + (0 if outlier else p)
        self._update(x, beta, 0.0 if outlier else 1.0, v, s)
        self.multiply_count += p if outlier else p * p + 2 * p


# ---------------------------------------------------------------------
# Likelihood-driven estimators (non-adaptive censoring)
# ---------------------------------------------------------------------


def _likelihood_term(est, decision: CensorDecision, x: np.ndarray, tau: float) -> CensoredTerm:
    """Count one datum and turn the censor's decision into its likelihood
    term; a censored term is anchored at x'theta_K, which costs p."""
    est.n += 1
    if decision.kept:
        if decision.value is None:
            raise UsageError("kept decision carries no value")
        est.kept_count += 1
        return CensoredTerm(False, float(decision.value), x, tau, est.sigma)
    est.multiply_count += x.shape[0]
    return CensoredTerm(True, float(x @ est.anchor_theta), x, tau, est.sigma)


class FirstOrderCensoredMLE(LMS):
    """Stochastic-gradient MLE over censored likelihood terms.

    theta_n = theta_{n-1} + mu_n * beta_n * x_n, started at the
    preliminary estimate.  On uncensored data this is literally LMS
    with gain mu_n / sigma^2; on censored data beta pulls the
    prediction back toward the censoring interval.

    Multiplies per step: x'theta (p) + update scale (p + 1), plus the
    anchor prediction x'theta_K (p) on censored steps.
    """

    kind = "samle1"

    def __init__(self, prelim: PreliminaryFit, sigma: float, mu: StepSize):
        super().__init__(prelim.theta.size, mu, sigma)
        self.theta = np.array(prelim.theta, dtype=np.float64)
        self.anchor_theta = self.theta.copy()

    def step(self, decision: CensorDecision, x, tau: float) -> "FirstOrderCensoredMLE":
        x = np.asarray(x, dtype=np.float64)
        term = _likelihood_term(self, decision, x, tau)
        self._update(x, evaluate(term, self.theta).beta)
        self.multiply_count += 2 * x.shape[0] + 1
        return self


class SecondOrderCensoredMLE(RLS):
    """Newton-style MLE: the gradient is scaled by the inverse average
    per-datum information.

    The information recursion accumulates h_n x_n x_n' on every datum,
    censored or not (an interval still carries curvature h_n > 0).  The
    prior block P_0 = sigma^2 (X_K'X_K)^{-1} keeps the warm-up data's
    information, so with no censoring the trajectory coincides with
    recursive least squares continued from the preliminary fit.

    Multiplies per step: x'theta (p), P x (p^2), x'Px (p), rank-one
    correction (p^2 + 1), theta update (p + 1), plus the anchor (p) on
    censored steps.
    """

    kind = "samle2"
    _breakdown = "information update denominator vanished"

    def __init__(self, prelim: PreliminaryFit, sigma: float):
        super().__init__(prelim.theta.size, theta0=prelim.theta,
                         inv_gram0=(sigma * sigma) * np.asarray(prelim.gram_inv), sigma=sigma)
        self.anchor_theta = self.theta.copy()

    def step(self, decision: CensorDecision, x, tau: float) -> "SecondOrderCensoredMLE":
        x = np.asarray(x, dtype=np.float64)
        term = _likelihood_term(self, decision, x, tau)
        si = evaluate(term, self.theta)
        self._update(x, si.beta, si.info)
        p = x.shape[0]
        self.multiply_count += 2 * p * p + 3 * p + 2
        return self


# ---------------------------------------------------------------------
# Batch-style iterates and diagnostics
# ---------------------------------------------------------------------


def kaczmarz_run(X, y, iters: int, seed, callback=None) -> np.ndarray:
    """Randomized Kaczmarz sweep with energy-proportional row sampling.

    Row i is drawn with probability ||x_i||^2 / ||X||_F^2 and theta is
    projected onto its hyperplane.  Deterministic given seed.  The
    optional callback(k, theta) observes the iterate after draw k.

    seed is one seed, giving a (p,) iterate, or a sequence of R seeds,
    giving an (R, p) iterate whose row r is bitwise the sweep of seed r
    alone: all R sweeps draw in lockstep, one batched projection per draw.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    norms_sq = np.einsum("ij,ij->i", X, X)
    if np.any(norms_sq == 0.0):
        raise DomainError("kaczmarz_run requires no zero rows")
    probs = norms_sq / norms_sq.sum()
    single = np.ndim(seed) == 0
    draws = np.stack([substream(s).choice(X.shape[0], size=int(iters), p=probs)
                      for s in ([seed] if single else seed)], axis=1)
    theta = np.zeros((draws.shape[1], X.shape[1]), dtype=np.float64)
    if single:
        # The 1-D arithmetic of one sweep: x'theta is a scalar dot.
        draws, theta = draws[:, 0], theta[0]
        state = col = theta
    else:
        # Replicate r's x'theta is the (1, p) @ (p, 1) product of its
        # own row and iterate, the same dot as the single sweep's.
        state, col = theta[:, None, :], theta[:, :, None]
    for a in range(0, draws.shape[0], _PANEL):
        picked = draws[a:a + _PANEL]
        rows, resp, energy = X[picked], y[picked], norms_sq[picked]
        if not single:
            rows, resp, energy = rows[:, :, None], resp[..., None, None], energy[..., None, None]
        for k, (row, y_k, e_k) in enumerate(zip(rows, resp, energy), start=a + 1):
            state += ((y_k - row @ col) / e_k) * row
            if callback is not None:
                callback(k, theta)
    return theta


def regret(traj, terms, theta_ref) -> float:
    """Cumulative excess loss of a trajectory against a fixed comparator.

    sum_n [ loss_n(traj[n]) - loss_n(theta_ref) ]; traj[n] is whichever
    iterate the caller wants charged for term n.
    """
    if len(traj) != len(terms):
        raise DomainError("trajectory and term list lengths differ")
    total = 0.0
    for theta_n, term in zip(traj, terms):
        total += loss(term, theta_n) - loss(term, theta_ref)
    return total


def from_snapshot(doc: dict):
    """Rebuild an estimator from its ``snapshot()`` document."""
    kinds = {cls.kind: cls for cls in (LMS, RLS, FirstOrderCensoredMLE, SecondOrderCensoredMLE)}
    cls = kinds.get(doc.get("kind"))
    if cls is None:
        raise ConfigError(f"unknown estimator kind in snapshot: {doc.get('kind')!r}")
    est = object.__new__(cls)
    est.plan = None
    for name, value in doc.items():
        if isinstance(value, list):
            value = np.array(value, dtype=np.float64)
        elif isinstance(value, dict):
            value = StepSize(**value)
        if name != "kind":
            setattr(est, name, value)
    return est
