"""Independent reference implementations used to pin expected values.

Everything here deliberately avoids the code paths under test: interval
probabilities come from adaptive quadrature of the density, quantiles
from bisection, Hadamard products from the explicit matrix or a
stage-by-stage butterfly, inverse updates from dense re-inversion, and
derivatives from central differences.  The streaming recursions take
only the censoring rules, the threshold plans and the likelihood's beta
and h from the package, which their own tests check.  Slow and obvious
beats fast and clever in an oracle.
"""

import math

import numpy as np
from scipy import integrate

from cendre.censor import robust_decide
from cendre.errors import SingularityError
from cendre.likelihood import CensoredTerm, evaluate
from cendre.numkit.gaussian import erfc, erfcx

SQRT_2PI = float(np.sqrt(2.0 * np.pi))
# The likelihood's float64 constants, for the bitwise reference below.
INV_SQRT_2PI = 0.3989422804014327
SQRT_2 = 1.4142135623730951
SQRT_HALF_PI = 1.2533141373155003  # sqrt(pi/2)


def pdf(t):
    return np.exp(-0.5 * t * t) / SQRT_2PI


def quad_q(t):
    """Upper-tail probability by adaptive quadrature."""
    val, _ = integrate.quad(pdf, t, np.inf)
    return val


def quad_interval_prob(z_l, z_u):
    """P(z_l < Z < z_u) by adaptive quadrature of the density."""
    val, _ = integrate.quad(pdf, z_l, z_u)
    return val


def bisect_q_inv(u, lo=-40.0, hi=40.0, iters=200):
    """Invert the upper-tail probability by bisection on quad_q."""
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if quad_q(mid) > u:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def ac_offline_schedule(p, pis, q_inv):
    """Offline adaptive-censoring thresholds for a per-datum target
    schedule pi*_1..pi*_N, one datum at a time in a plain loop.

    tau_1 = 0; for n >= 2, tau_n = sqrt(p / m_n + 1) * q_inv((1 - pi*_n)/2),
    with m_n = sum_{i<n} (1 - pi*_i) the expected kept count so far.
    q_inv is the Gaussian upper-tail quantile: bisect_q_inv for an
    independent value, or the package's own for a bitwise comparison.
    """
    taus, kept_mass = [], 0.0
    for n, pi_n in enumerate(pis, start=1):
        if n == 1:
            taus.append(0.0)
        else:
            taus.append(math.sqrt(p / kept_mass + 1.0) * float(q_inv(0.5 * (1.0 - pi_n))))
        kept_mass += 1.0 - pi_n
    return taus


def hadamard_matrix(n):
    """Explicit Sylvester-ordered Hadamard matrix (entries +-1)."""
    if n < 1 or (n & (n - 1)) != 0:
        raise ValueError("n must be a power of two")
    H = np.array([[1.0]])
    while H.shape[0] < n:
        H = np.block([[H, H], [H, -H]])
    return H


def fwht_stagewise(v):
    """Walsh-Hadamard transform of v along axis 0, returned as a new
    float64 array: one butterfly stage at a time over the whole array,
    three numpy passes a stage, half-widths 1, 2, 4, ... in order."""
    v = np.array(v, dtype=np.float64, order="C")
    n = v.shape[0]
    work = v.reshape(n, -1)
    h = 1
    while h < n:
        blocks = work.reshape(n // (2 * h), 2, h, -1)
        top, bottom = blocks[:, 0], blocks[:, 1]
        diff = top - bottom
        top += bottom
        bottom[...] = diff
        h *= 2
    return v


def score_info_gathered(censored, y_or_anchor, prediction, tau, sigma):
    """beta and h of many likelihood terms, the censored ones gathered.

    The censored entries are gathered, their bounds z_l = |shift| - tau
    and z_u = |shift| + tau (shift = (x'theta - y_hat)/sigma) evaluated
    one bound at a time, through phi/Q when central and through erfcx
    Mills ratios once both sit beyond 6 in one tail, and the results
    scattered back over the uncensored beta = resid/sigma^2 and
    h = 1/sigma^2.  Every element sees the operations, in order, of
    ``cendre.likelihood.score_info``, for a bitwise comparison; it takes
    erfc and erfcx from the package too, whose accuracy
    ``test_special_functions.py`` checks against scipy.
    """
    censored = np.asarray(censored, dtype=bool)
    inv_var = 1.0 / (sigma * sigma)
    resid = np.asarray(y_or_anchor, dtype=np.float64) - prediction
    beta = resid * inv_var
    info = np.full_like(beta, inv_var)
    if not censored.any():
        return beta, info
    tau = np.asarray(tau, dtype=np.float64)
    tau = tau[censored] if tau.ndim else tau
    shift = -resid[censored] / sigma
    z_l = np.abs(shift) - tau
    z_u = np.abs(shift) + tau
    with np.errstate(divide="ignore", invalid="ignore"):
        phi_l = INV_SQRT_2PI * np.exp(-0.5 * z_l * z_l)
        phi_u = INV_SQRT_2PI * np.exp(-0.5 * z_u * z_u)
        p = 0.5 * erfc(z_l / SQRT_2) - 0.5 * erfc(z_u / SQRT_2)
        ratio = (phi_l - phi_u) / p
        curve = (z_u * phi_u - z_l * phi_l) / p
        tail = z_l > 6.0
        if tail.any():
            r = np.exp(-0.5 * (z_u - z_l) * (z_u + z_l))
            mills_l = SQRT_HALF_PI * erfcx(z_l / SQRT_2)
            mills_u = SQRT_HALF_PI * erfcx(z_u / SQRT_2)
            scaled_p = mills_l - r * mills_u
            ratio = np.where(tail, (1.0 - r) / scaled_p, ratio)
            curve = np.where(tail, (z_u * r - z_l) / scaled_p, curve)
    beta[censored] = np.copysign(ratio, -shift) / sigma
    info[censored] = (ratio * ratio + curve) / (sigma * sigma)
    return beta, info


def dense_inverse_update(C, x, w):
    """(C^-1 + w x x^T)^-1 the expensive way: invert, add, invert."""
    C = np.asarray(C, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    return np.linalg.inv(np.linalg.inv(C) + w * np.outer(x, x))


def central_diff_grad(f, x, h=1e-6):
    """Central-difference gradient of a scalar function of a vector."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (f(x + e) - f(x - e)) / (2.0 * h)
    return g


def central_diff_scalar(f, t, h=1e-6):
    """Central-difference derivative of a scalar function of a scalar."""
    return (f(t + h) - f(t - h)) / (2.0 * h)


def ridge_solution(X, y, epsilon):
    """argmin ||y - X theta||^2 + epsilon ||theta||^2, solved densely."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    p = X.shape[1]
    return np.linalg.solve(X.T @ X + epsilon * np.eye(p), X.T @ y)


# ---------------------------------------------------------------------
# Streaming recursions, one datum at a time
# ---------------------------------------------------------------------
#
# Plain loops over the paper's recursions for replaying one stream.  The
# gate, the outlier clip and the step size are written out here; the
# censoring rules and threshold plans come from ``cendre.censor`` and beta
# and h from ``cendre.likelihood.evaluate``, which test_likelihood.py checks
# against quadrature.  A second-order step matrix is re-inverted
# densely on every update.  Each oracle counts its multiplies from the
# per-step costs that the estimator class docstrings state.

_SINGULAR = 1e-12


class _Oracle:
    """State and gate shared by the first- and second-order oracles.

    With sigma None the gate is open.  Otherwise a datum is kept iff
    |e| >= tau sigma, tau given per step or read from plan (capped at
    tau_out); with tau_out the robust rule of ``cendre.censor`` decides,
    and an outlier's score is clipped to tau_out sigma sign(e).
    """

    def __init__(self, theta, sigma=None, plan=None, tau_out=None):
        self.theta = np.array(theta, dtype=np.float64)
        self.sigma, self.plan, self.tau_out = sigma, plan, tau_out
        self.n = self.kept_count = self.multiply_count = 0

    def step(self, y, x, tau=None):
        """Gate one datum and update on it if kept; returns whether it was."""
        x = np.asarray(x, dtype=np.float64)
        p = x.size
        self.n += 1
        read = False
        if self.sigma is not None and tau is None:
            tau, read = self._plan_tau(x)
            if self.tau_out is not None:
                tau = min(tau, self.tau_out)
        e = float(y) - float(x @ self.theta)
        self.multiply_count += p
        outlier = False
        if self.sigma is None:
            kept = True
        elif self.tau_out is not None:
            decision = robust_decide(e, self.sigma, tau, self.tau_out)
            kept, outlier = decision.kept, decision.outlier
        else:
            kept = abs(e) >= tau * self.sigma
        if not kept:
            return False
        self.kept_count += 1
        if outlier:
            e = self.tau_out * self.sigma * math.copysign(1.0, e)
        self._kept(x, e, outlier, read)
        return True

    def _plan_tau(self, x):
        return self.plan.threshold(self.n, x=x), False


class LMSOracle(_Oracle):
    """theta += mu_n beta x on each kept datum, mu_n = mu or mu/n.

    Multiplies (``LMS``): the innovation p every step; a kept datum adds
    mu beta (1) and the scaled add (p).
    """

    def __init__(self, p, mu, sigma=None, plan=None, tau_out=None, theta=None):
        super().__init__(np.zeros(p) if theta is None else theta, sigma, plan, tau_out)
        self.mu = mu

    def rate(self):
        return self.mu.value / self.n if self.mu.policy == "diminishing" else self.mu.value

    def _kept(self, x, beta, outlier, read):
        self.theta = self.theta + self.rate() * beta * x
        self.multiply_count += x.size + 1


class RLSOracle(_Oracle):
    """theta += beta P_n x with P_n = (P_{n-1}^-1 + h x x')^-1 re-inverted
    densely, h = 1 on a nominal kept datum and 0 on a clipped outlier.

    P starts at P0, or at I / epsilon with epsilon from the first
    regressor as ``default_ridge`` states: ||x||^2 / p times 1 when the
    clip or an online plan reads P, else times 1e-2.

    Multiplies (``RLS``): the innovation p every step; a kept nominal
    datum adds 2p^2 + 3p and a clipped one p^2 + p.  An online plan pays
    p(p + 1) for x'Px every step, and a kept step reuses P x and x'Px.
    """

    breakdown = "update denominator vanished"

    def __init__(self, p, sigma=None, plan=None, tau_out=None, epsilon=None, P0=None,
                 theta=None):
        super().__init__(np.zeros(p) if theta is None else theta, sigma, plan, tau_out)
        self.epsilon = epsilon
        self.P = None if P0 is None else np.array(P0, dtype=np.float64)

    def step(self, y, x, tau=None):
        if self.P is None:
            x = np.asarray(x, dtype=np.float64)
            eps = self.epsilon
            if eps is None:
                reads_P = self.tau_out is not None or (
                    self.plan is not None and self.plan.needs_quadratic_form)
                eps = (1.0 if reads_P else 1e-2) * float(x @ x) / x.size
            self.P = np.eye(x.size) / eps
        return super().step(y, x, tau)

    def _plan_tau(self, x):
        if not self.plan.needs_quadratic_form:
            return super()._plan_tau(x)
        n = self.n
        self.multiply_count += x.size * (x.size + 1)
        q = float(x @ self.P @ x) * (n - 1) / n
        return self.plan.threshold(n, quadratic_form=q), True

    def update(self, x, beta, h):
        """theta += beta P_n x after the weighted dense re-inversion."""
        denom = 1.0 + h * float(x @ self.P @ x)
        if abs(denom) < _SINGULAR:
            raise SingularityError(self.breakdown)
        if h:
            self.P = dense_inverse_update(self.P, x, h)
        self.theta = self.theta + beta * (self.P @ x)

    def _kept(self, x, beta, outlier, read):
        p = x.size
        self.update(x, beta, 0.0 if outlier else 1.0)
        if outlier:
            self.multiply_count += p if read else p * p + p
        else:
            self.multiply_count += p * p + 2 * p if read else 2 * p * p + 3 * p


class CensoredMLEOracle:
    """The censored-likelihood recursions over NAC decisions, from the
    preliminary fit: beta and h of each datum's term from ``evaluate`` at
    the current theta, a censored term anchored at x'theta_K.  First
    order: theta += mu_n beta x.  Second order: the RLS oracle's update
    with weight h, from P_0 = sigma^2 (X_K'X_K)^-1.

    Multiplies (``FirstOrderCensoredMLE``, ``SecondOrderCensoredMLE``):
    2p + 1, or 2p^2 + 3p + 2, every step, and the anchor p on a censored
    one.
    """

    def __init__(self, prelim, sigma, mu=None):
        p = prelim.theta.size
        self.anchor = np.array(prelim.theta, dtype=np.float64)
        self.sigma, self.mu = sigma, mu
        if mu is None:
            self.inner = RLSOracle(p, P0=(sigma * sigma) * prelim.gram_inv, theta=prelim.theta)
            self.inner.breakdown = "information update denominator vanished"
        else:
            self.inner = LMSOracle(p, mu, theta=prelim.theta)
        self.n = self.kept_count = self.multiply_count = 0

    @property
    def theta(self):
        return self.inner.theta

    def step(self, decision, x, tau):
        x = np.asarray(x, dtype=np.float64)
        p = x.size
        self.n += 1
        self.inner.n = self.n
        if decision.kept:
            self.kept_count += 1
            term = CensoredTerm(False, float(decision.value), x, tau, self.sigma)
        else:
            self.multiply_count += p
            term = CensoredTerm(True, float(x @ self.anchor), x, tau, self.sigma)
        si = evaluate(term, self.inner.theta)
        if self.mu is None:
            self.inner.update(x, si.beta, si.info)
            self.multiply_count += 2 * p * p + 3 * p + 2
        else:
            self.inner.theta = self.inner.theta + self.inner.rate() * si.beta * x
            self.multiply_count += 2 * p + 1
