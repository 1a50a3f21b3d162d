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

The gate, the clip, both recursions and the multiply ledger are written
once, in ``_Lockstep``: R replicates of one method as one state, stepped a
panel at a time on every datum (open gate, NAC) or on kept data (AC).
Each estimator class holds a one-replicate ``_Lockstep`` and sends each
datum through its per-datum code.

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
class docstring and ``_multiplies``.

``snapshot()`` writes an estimator's state as one JSON document: its
``kind``, its scalars and counts as they are, its step-size policy and
threshold plan as objects of their fields, and its arrays as nested lists.
A second-order estimator saves its step matrix P and also the base and
pending vectors that P is held as (see ``_Lockstep``).  ``from_snapshot``
reads that document back, plan and counts included, so a restored
estimator steps on its own plan and resumes bitwise.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .censor import CensorDecision, ThresholdPlan, _check_rule_args, robust_decide
from .errors import (ConfigError, DomainError, SingularityError, UsageError, config_section,
                     read_field)
# evaluate is not called here: perfbench/tracer.py pins this module's binding of it.
from .likelihood import CensoredTerm, evaluate, interval_offsets, loss, score_info
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
# Rows a panel of data holds in memory: the stream generator's block, the
# harness's panels (R replicates side by side), a Kaczmarz block (shared by
# its R sweeps) and ingest's column move.  A constant, never chosen per run:
# products round differently by operand shape (see datagen._panels).
_PANEL = 256
_FOLD = 16  # kept steps a step matrix holds as pending vectors before they fold into its base


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


def _multiplies(method: str, p: int, online: bool = False):
    """The exact multiply ledger of a streaming method: (per step, per kept
    datum, per clipped datum), the cost of n steps that keep `kept` data,
    `clipped` of them as outliers, being the dot product with (n, kept,
    clipped); `online` when an ac-online plan reads x'Px every step, which
    a kept step then reuses.  The per-step costs are in the docstrings of
    LMS, RLS and the two censored-MLE classes."""
    if method == "samle1":
        return 3 * p + 1, -p, 0
    if method == "samle2":
        return 2 * p * p + 4 * p + 2, -p, 0
    if method == "lms":
        return 2 * p + 1, 0, 0
    if method == "rls":
        return 2 * p * p + 4 * p, 0, 0
    if method in ("ac-lms", "rac-lms"):
        return p, p + 1, 0
    # ac-rls, rac-rls
    nominal = 2 * p * p + 3 * p - online * p * (p + 1)
    return p + online * p * (p + 1), nominal, p + (not online) * p * p - nominal


class _Lockstep:
    """The R replicates of one streaming method, advanced as one state.

    theta is (R, p) and the step matrix P (U for samle2) is (R, p, p).
    The gate (none, the NAC interval term, the AC skip, the robust clip)
    sets a score beta and a weight h per replicate; the recursion is
    theta += mu_n beta x, or P <- (P^-1 + h x x')^-1 and theta += beta P x.

    P is held as P_b - W'W: a base P_b (R, p, p) and the pending vectors
    W (R, _FOLD, p), one a row, zero past each replicate's count c[r].
    Both are blocks of one (R, p + _FOLD, p) array, so one matrix-vector
    product gives P_b x and W x.  A step computes v = P x = P_b x - W'(W x)
    and denom = 1 + h x'v, moves theta by beta v / denom, and stores
    w = v sqrt(h / denom) as row c[r] of W, for the Sherman-Morrison step
    is P - w w' (w = 0 for a clipped outlier, so c[r] counts every kept
    step).  Once c[r] reaches _FOLD, the replicate folds: P_b -= W'W
    and W = 0, one symmetric rank-_FOLD product in place of _FOLD rank-one
    updates (the delayed update of the Level 3 BLAS; Dongarra, Du Croz,
    Duff and Hammarling, ACM TOMS 16(1), 1990).  W'W is computed as a
    symmetric product, so P stays exactly symmetric when P_b starts so.
    Each product is computed the same way for one row as for a stack of
    them, and a fold depends on c[r] alone, so a replicate's trace does
    not depend on its company.

    A panel advances by one of two loops.  ``every_panel`` steps every
    replicate on every datum (lms, rls, samle1, samle2), in one batch, or
    by the one-row update when R = 1.  ``ac_panel`` steps the gated AC
    methods in desynchronized rounds, each replicate jumping to its own
    next kept datum; once one is left (R = 1, or the others at the panel's
    end), ``_lone`` runs the same rounds on slices of its row.  A datum the
    AC gate keeps, in either loop or in a class's step, takes one routine,
    ``_keep``: the robust clip, the kept counts and the update.  Marks
    record the error, kept and clipped counts; multiply ledgers are exact.

    An estimator class holds one replicate, with no marks, and steps it a
    datum at a time through the same gate and ``_keep``; without marks a
    breakdown's message leaves out the method and step.
    """

    def __init__(self, method: str, R: int, p: int, sigma, theta=None, P=None, mu=None,
                 plan=None, tau_out=None, epsilon=None, marks=(), theta_o=None):
        self.method, self.sigma, self.theta_o, self.marks = method, sigma, theta_o, marks
        self.theta = np.zeros((R, p)) if theta is None else np.array(theta, dtype=np.float64)
        self.theta_rows = list(self.theta)  # row views, updated in place
        self.Pb = None
        if P is not None:
            self._take_P(P)
        self.mu, self.plan, self.tau_out, self.epsilon = mu, plan, tau_out, epsilon
        self.online = plan is not None and plan.needs_quadratic_form
        self.kept = np.zeros(R, dtype=np.int64)
        self.clipped = np.zeros(R, dtype=np.int64)
        self.n = self.rounds = self._kept_sum = 0  # steps before the panel; kept by all
        # Marks and a step none reaches; each replicate's next; (mse, kept, clipped) at each.
        self._mark_n = np.array([*marks, np.iinfo(np.int64).max], dtype=np.int64)
        self._mark_i = np.zeros(R, dtype=np.int64)
        self._soonest = int(self._mark_n[0])
        self._at = np.zeros((3, len(marks), R))

    def _take_P(self, P) -> None:
        """Hold a copy of P (R, p, p) as the base, with no pending vectors."""
        P = np.asarray(P, dtype=np.float64)
        R, p = P.shape[:2]
        self.PW = np.zeros((R, p + _FOLD, p))
        self.Pb, self.W = self.PW[:, :p], self.PW[:, p:]
        self.Pb[...] = P
        self.c = np.zeros(R, dtype=np.int64)
        self._WtW = np.empty((R, p, p))  # a fold's W'W, written in place

    @property
    def P(self):
        """The step matrices P_b - W'W (R, p, p), or None before an RLS
        fixes its ridge; reading them folds nothing."""
        if self.Pb is None:
            return None
        return self.Pb - np.matmul(self.W.transpose(0, 2, 1), self.W)

    def _fix_ridge(self, x) -> None:
        """Fix an RLS's ridge prior P = I/eps at its first regressors x (R, p),
        eps ``epsilon`` (one, or one per replicate) or default_ridge's."""
        if self.Pb is None and self.mu is None:
            if self.epsilon is None:
                self.epsilon = default_ridge(x, self.plan, self.tau_out)
            eps = np.broadcast_to(self.epsilon, (len(x),))
            self._take_P(np.eye(x.shape[1]) / eps[:, None, None])

    # -- the recursion ----------------------------------------------------

    def update(self, rows, x, beta, h, n, Px=None) -> None:
        """One recursion step of replicates `rows` (all when None), row i on
        datum x[i] at step n[i] (or n), with weight h (1 when None; 0, a
        clipped outlier, leaves P as it is).  rows may also be one
        replicate's index, with x of shape (p,), beta, h and n numbers
        (Python floats and ints are the cheapest), and Px its
        ``_quadratic`` if known.  No other replicate is written."""
        theta = self.theta
        if isinstance(rows, int):  # one replicate, on 1-row arrays and numbers
            if self.mu is not None:
                self.theta_rows[rows] += (self.mu.at(n) * beta) * x
                return
            v, s = self._quadratic(rows, x) if Px is None else Px
            denom = 1.0 + (s if h is None else h * s)
            if denom < _SINGULAR_TOL:
                raise self._breakdown(n, denom)
            inv = 1.0 / denom
            self._defer(rows, v * math.sqrt(inv if h is None else h * inv))
            self.theta_rows[rows] += (beta * inv) * v
            return
        every = rows is None or rows.size == theta.shape[0]
        if self.mu is not None:
            d = (self.mu.at(n) * beta)[:, None] * x
        else:
            PW, p = (self.PW if every else self.PW[rows]), x.shape[1]
            t = np.matmul(PW, x[:, :, None])[:, :, 0]  # P_b x, then W x
            v = np.matmul(PW[:, p:].transpose(0, 2, 1), t[:, p:, None])[:, :, 0]
            np.subtract(t[:, :p], v, out=v)  # P x
            s = np.matmul(x[:, None, :], v[:, :, None])[:, 0, 0]
            denom = 1.0 + (s if h is None else h * s)
            if np.fmin.reduce(denom) < _SINGULAR_TOL:  # fmin: a NaN row is no breakdown
                first = np.where(denom < _SINGULAR_TOL, n, np.iinfo(np.int64).max).argmin()
                raise self._breakdown(np.broadcast_to(n, denom.shape)[first], denom[first])
            inv = 1.0 / denom
            d = (beta * inv)[:, None] * v  # beta times the updated P x
        if every:
            theta += d
        else:
            theta[rows] += d
        if self.mu is None:
            self._defer(rows, v * np.sqrt(inv if h is None else h * inv)[:, None])

    def _defer(self, rows, w) -> None:
        """Store w as the next pending vector of replicate rows: one index,
        with w (p,); an array, with w (rows, p); or None, every replicate,
        which every_panel steps together, so all hold one count.  Fold
        those whose W is then full."""
        if rows is None:
            c = int(self.c[0])
            self.W[:, c] = w
            self.c += 1
            if c + 1 == _FOLD:
                self._fold(slice(None))
            return
        if isinstance(rows, int):  # its count as a Python int
            c = self.c.item(rows)
            self.W[rows, c] = w
            if c + 1 == _FOLD:
                self._fold(rows)
            else:
                self.c[rows] = c + 1
            return
        c = self.c[rows]
        self.W[rows, c] = w
        c += 1
        self.c[rows] = c
        if c.max() == _FOLD:
            self._fold(rows[c == _FOLD])

    def _fold(self, rows) -> None:
        """P_b -= W'W and W = 0 for replicates rows: an index, an array or
        a slice."""
        W = self.W[rows]
        WtW = self._WtW[:len(rows)] if isinstance(rows, np.ndarray) else self._WtW[rows]
        np.matmul(np.swapaxes(W, -1, -2), W, out=WtW)
        self.Pb[rows] -= WtW
        self.W[rows] = 0.0
        self.c[rows] = 0

    def _quadratic(self, r, x):
        """(P x, x'Px) of replicate r at x (p,): the products the batched
        update makes for each of its rows, made for this one."""
        t = self.PW[r] @ x  # P_b x, then W x
        v = t[:x.shape[0]] - self.W[r].T @ t[x.shape[0]:]
        return v, float(x @ v)

    def _breakdown(self, step, denom) -> SingularityError:
        """The error of a step whose denominator 1 + h x'Px fell below
        _SINGULAR_TOL: near zero, or negative on a step matrix that is not
        positive definite, where P - w w' cannot hold the step."""
        how = "vanished" if abs(denom) < _SINGULAR_TOL else "is negative"
        what = f"{'information ' * (self.method == 'samle2')}update denominator {how}"
        if not self.marks:  # a single-stream estimator reports the bare cause
            return SingularityError(what)
        return SingularityError(f"{self.method} broke down at step {step}: {what}")

    def _record(self, rows, upto) -> None:
        """Record every mark of replicate rows[i] up to its step upto[i]
        (or upto for all) from the current theta."""
        while True:
            at = self._mark_i[rows]
            due = self._mark_n[at] <= upto
            if not due.any():
                break
            rows, at, upto = rows[due], at[due], np.broadcast_to(upto, due.shape)[due]
            err = self.theta[rows] - self.theta_o
            self._at[:, at, rows] = (np.einsum("rp,rp->r", err, err), self.kept[rows],
                                     self.clipped[rows])
            self._mark_i[rows] = at + 1
        self._soonest = int(self._mark_n[self._mark_i].min())

    # -- the gates ----------------------------------------------------------

    def every_panel(self, Y, X, y_hat=None, tau=None) -> None:
        """Step every replicate on every datum of a panel: on its innovation
        with the gate open, or, given fixed predictions y_hat (m, R) and
        thresholds tau, on its NAC term, a kept datum's y or the interval
        around a censored one's y_hat.  The interval offsets (-tau, tau)
        are stacked once for the panel, (2, m, R), and each datum's
        ``score_info`` reads its (2, R) slice as a view.  R = 1 takes the
        one-row update."""
        self._fix_ridge(X[0])
        keep = np.ones(Y.shape, dtype=bool)
        if y_hat is not None:
            keep = self._hits(Y - y_hat, tau * self.sigma)[0]
            censored, value = ~keep, np.where(keep, Y, y_hat)
            offsets = interval_offsets(tau)
        kept = self.kept + np.cumsum(keep, axis=0)  # each replicate's count after each datum
        every, lone = np.arange(Y.shape[1]), Y.shape[1] == 1
        ys = Y[:, 0].tolist() if lone else None  # a lone replicate's y, as floats
        for i in range(len(X)):
            x = X[i]
            fit = np.einsum("rp,rp->r", x, self.theta)
            if y_hat is None:
                beta, h = (ys[i] - fit.item() if lone else Y[i] - fit), None
            else:
                beta, h = score_info(censored[i], value[i], fit, None, self.sigma, offsets[:, i])
                if lone:
                    beta, h = beta.item(), h.item()
            self.n += 1
            if lone:
                self.update(0, x[0], beta, h, self.n)
            else:
                self.update(None, x, beta, h, self.n)
            if self.n >= self._soonest:
                self.kept[:] = kept[i]
                self._record(every, self.n)
        self.kept[:] = kept[-1]

    def ac_panel(self, Y, X) -> None:
        """Step each replicate through a panel to its own kept data, in rounds."""
        m, R = Y.shape
        self._fix_ridge(X[0])
        panel_tau = None
        if not self.online:  # tau depends on n alone
            panel_tau = self._under_clip(self.plan.thresholds(self.n + 1, self.n + 1 + m))
        ahead = np.arange(m)[:, None]
        act, a, front = np.arange(R), np.zeros(R, dtype=np.int64), 0  # active, positions, lead
        while act.size > 1:
            B = self._window(self.n + front, R)
            n, rs = self.n + a, act if act.size < R else slice(None)
            lim = B if front + B <= m else np.minimum(m - a, B)
            at = np.minimum(a + ahead[:B], m - 1)
            Xw, Yw = X[at, act], Y[at, act]
            E = Yw - np.einsum("brp,rp->br", Xw, self.theta[rs])
            watch = self._soonest <= self.n + front + B  # a mark may fall in this round
            tau = self._online_tau(Xw, rs, n) if self.online else panel_tau[at]
            hit, bad = self._hits(E, tau * self.sigma)
            if lim is not B:
                hit &= ahead[:B] < lim
            got = hit.any(axis=0)
            j = np.where(got, hit.argmax(axis=0), lim)
            if watch:  # marks inside a jump see the theta before its step
                self._record(act, n + j)
            cols = got.nonzero()[0]
            k, rows = (j[cols], cols), act[cols]
            a += j + got
            step, front = self.n + a[cols], int(a.max())
            if rows.size:
                self._keep(rows, Xw[k], E[k], tau[k], bad, step)
                if watch:
                    self._record(rows, step)
            if front >= m:  # drop the replicates at the panel's end
                act, a = act[a < m], a[a < m]
                front = int(a.max()) if act.size else 0
        if act.size:
            self._lone(int(act[0]), front, Y, X, panel_tau)
        self.n += m

    def _lone(self, r, a, Y, X, panel_tau) -> None:
        """The rounds of ac_panel for one active replicate r, from its
        position a to the panel's end: each window a slice, and every value
        of the replicate's own a number."""
        m, R = Y.shape
        rs, act, sigma = slice(r, r + 1), np.array([r]), self.sigma
        cut = None if panel_tau is None else panel_tau * sigma
        while a < m:
            n = self.n + a
            B = min(self._window(n, R), m - a)
            Xw = X[a:a + B, rs]
            E = (Y[a:a + B, rs] - np.einsum("brp,rp->br", Xw, self.theta[rs]))[:, 0]
            watch = self._soonest <= n + B  # a mark may fall in this round
            if self.online:
                tau = self._online_tau(Xw, rs, n)[:, 0]
                hit, bad = self._hits(E, tau * sigma)
            else:
                tau = panel_tau[a:a + B]
                hit, bad = self._hits(E, cut[a:a + B])
            j = int(hit.argmax())
            got = bool(hit[j])
            j = j if got else B
            if watch:  # marks inside a jump see the theta before its step
                self._record(act, n + j)
            a += j + got
            if got:
                self._keep(r, Xw[j, 0], E[j], tau[j], bad, n + j + 1)
                if watch:
                    self._record(act, n + j + 1)

    def _window(self, lead: int, R: int) -> int:
        """Data a round scans: twice the realized mean gap between kept data,
        the lead's steps over the mean kept count."""
        return max(1, (2 * lead + 1) * R // (self._kept_sum + R))

    def _hits(self, E, cut):
        """(where |E| >= cut, bad) for innovations E, an array or one number:
        bad when, with tau_out, E holds a value that is not finite, which is
        then a hit too, for the robust rule raises on it."""
        hit = abs(E) >= cut
        bad = self.tau_out is not None and not np.isfinite(E).all()
        if bad:
            hit = hit | ~np.isfinite(E)
        return hit, bad

    def _under_clip(self, tau):
        """tau, an array or a number, capped at tau_out: the clip wins while
        a plan warms up."""
        return tau if self.tau_out is None else np.minimum(tau, self.tau_out)

    def _online_tau(self, Xw, rs, n, q=None):
        """ac-online thresholds from x'Px (n-1)/n, under the clip: of a window
        Xw (B, r, p) of replicates rs whose first data are steps n + 1, or,
        with Xw None, of one datum at step n whose x'Px is q."""
        if Xw is None:
            return self._under_clip(self.plan.threshold(n, quadratic_form=q * (n - 1) / n))
        steps = n + 1 + np.arange(len(Xw))[:, None]
        p = Xw.shape[2]
        t = np.matmul(self.PW[rs], Xw[..., None])[..., 0]  # P_b x, then W x, of each datum
        q = (np.einsum("brp,brp->br", Xw, t[..., :p])
             - np.einsum("brm,brm->br", t[..., p:], t[..., p:])) * (steps - 1) / steps
        return self._under_clip(self.plan.thresholds(1, len(Xw) + 1, quadratic_form=q))

    def _keep(self, rows, x, e, tau, check, n, Px=None, h=None):
        """The kept step of replicates rows on data x, one a row, with
        innovations e, thresholds tau and steps n; or of one replicate's
        index with numbers, as in ``update``.  With tau_out, a value of e
        that is not finite raises the robust rule if `check`, and an outlier
        is clipped to tau_out sigma sign(e) with weight h = 0.  Updates,
        counts the kept data, and returns h (None when none is clipped and
        none was given)."""
        if self.tau_out is not None:
            if check and not np.isfinite(e).all():
                e1, tau1 = np.atleast_1d(e, tau)
                r = int(np.isfinite(e1).argmin())
                robust_decide(float(e1[r]), self.sigma, float(tau1[r]), self.tau_out)
            bound = self.tau_out * self.sigma
            out = np.abs(e) >= bound
            if out.any():
                self.clipped[rows] += out
                score = bound * (e > 0) - bound * (e < 0)  # tau_out sigma sign(e), e != 0 here
                e, h = np.where(out, score, e), np.where(out, 0.0, 1.0)
        self.update(rows, x, e, h, n, Px)
        self.kept[rows] += 1
        self._kept_sum += 1 if isinstance(rows, int) else rows.size
        self.rounds += 1
        return h

    # -- results ------------------------------------------------------------

    def traces(self):
        """(mse, censor ratio, multiplies) of every replicate at each mark,
        each shaped (marks, R)."""
        mse, (kept, clipped) = self._at[0], self._at[1:].astype(np.int64)
        at = np.array(self.marks)[:, None]
        every, per_kept, per_clipped = _multiplies(self.method, self.theta.shape[1], self.online)
        return mse, (at - kept) / at, at * every + kept * per_kept + clipped * per_clipped


class _Gate:
    """A single-stream estimator: one replicate of ``_Lockstep``, stepped
    one datum at a time, and a view of it.

    theta, P for a second-order recursion, the step, kept and clipped
    counts, the ridge, sigma, tau_out and the plan are the kernel's, and
    the multiply count is the kernel's ledger of those counts.  A snapshot
    saves them all, so a restored estimator steps on its own plan.
    """

    _saved = ("theta", "sigma", "tau_out", "plan", "n", "kept_count", "clipped", "multiply_count")

    def __init__(self, theta, sigma: float | None, plan: ThresholdPlan | None,
                 tau_out: float | None, mu: StepSize | None = None, P=None, epsilon=None):
        if sigma is None:
            if plan is not None or tau_out is not None:
                raise ConfigError("a threshold plan or an outlier bound needs sigma")
        elif sigma <= 0.0:
            raise ConfigError("sigma must be positive")
        if mu is not None and plan is not None and plan.needs_quadratic_form:
            raise ConfigError("an 'ac-online' plan needs the RLS step matrix; use it with RLS")
        theta = np.asarray(theta, dtype=np.float64)
        method = self.kind if sigma is None or self.kind.startswith("samle") else "ac-" + self.kind
        self._k = _Lockstep(method, 1, theta.shape[0], None if sigma is None else float(sigma),
                            theta[None], None if P is None else np.asarray(P)[None], mu, plan,
                            None if tau_out is None else float(tau_out), epsilon)

    sigma = property(lambda self: self._k.sigma)
    tau_out = property(lambda self: self._k.tau_out)
    plan = property(lambda self: self._k.plan)
    n = property(lambda self: self._k.n)
    kept_count = property(lambda self: int(self._k.kept[0]))
    clipped = property(lambda self: int(self._k.clipped[0]))

    @property
    def multiply_count(self) -> int:
        every, per_kept, per_clipped = _multiplies(self._k.method, self.p, self._k.online)
        return self.n * every + self.kept_count * per_kept + self.clipped * per_clipped

    @property
    def theta(self) -> np.ndarray:
        return self._k.theta_rows[0]

    @theta.setter
    def theta(self, value) -> None:
        self._k.theta_rows[0][:] = value

    @property
    def p(self) -> int:
        return self.theta.shape[0]

    def step(self, y: float, x, tau: float | None = None) -> tuple["_Gate", CensorDecision]:
        """Gate one datum and update on it if kept; returns (self, decision).

        An open gate keeps every datum and ignores tau.  Otherwise the
        datum is kept iff |e| >= tau sigma (boundary kept), with tau given
        here or read from the plan; a tau given here must suit the rules.
        With tau_out, an outlier is kept with its score clipped.
        """
        x = np.asarray(x, dtype=np.float64)
        k = self._k
        k._fix_ridge(x[None])  # RLS fixes its ridge at the first datum
        # x'Px, which an ac-online plan reads on every step and a kept step reuses
        n, Px = k.n + 1, k._quadratic(0, x) if k.online else None
        planned = k.sigma is not None and tau is None
        if planned:
            if k.plan is None:
                raise ConfigError("no tau given and no threshold plan configured")
            if k.online:
                tau = k._online_tau(None, None, n, Px[1])
            else:
                # An adaptive schedule can ask for a threshold above the clip
                # boundary while it warms up; the clip stays in charge there.
                tau = k._under_clip(k.plan.threshold(n, x=x))
        k.n = n
        e, bad = float(y) - float(x @ k.theta_rows[0]), False
        if k.sigma is not None:
            if not planned:  # a tau given here must suit the rules
                if k.tau_out is None:
                    _check_rule_args(k.sigma, tau)
                else:
                    robust_decide(e, k.sigma, tau, k.tau_out)
            hit, bad = k._hits(e, tau * k.sigma)
            if not hit:
                return self, CensorDecision(False)
        h = k._keep(0, x, e, tau, bad, n, Px)
        return self, CensorDecision(True, float(y), h is not None)

    def snapshot(self) -> dict:
        """The estimator's state as a JSON document (see the module docstring)."""
        return {"kind": self.kind, **{name: _json(getattr(self, name)) for name in self._saved}}


def _json(value):
    """value in a JSON document: an array or a tuple as (nested) lists, a
    StepSize or ThresholdPlan as an object of its fields, Nones dropped."""
    if isinstance(value, (StepSize, ThresholdPlan)):
        return {name: _json(v) for name, v in asdict(value).items() if v is not None}
    return np.asarray(value).tolist() if isinstance(value, (np.ndarray, tuple)) else value


class LMS(_Gate):
    """First-order recursion: theta += mu_n beta x, with beta = e on a kept
    datum.

    Multiplies: the innovation x'theta (p) on every step; a kept datum,
    nominal or clipped, adds mu*beta (1) and the scaled add (p).  So an
    open gate costs 2p + 1 per step, and a gated censored step costs p.
    """

    kind = "lms"
    _saved = _Gate._saved + ("mu",)
    mu = property(lambda self: self._k.mu)

    def __init__(self, p: int, mu: StepSize, sigma: float | None = None,
                 plan: ThresholdPlan | None = None, tau_out: float | None = None):
        super().__init__(np.zeros(int(p)), sigma, plan, tau_out, mu)


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
    _saved = _Gate._saved + ("epsilon", "P", "P_base", "pending")

    def __init__(self, p: int, epsilon: float | None = None, theta0=None, inv_gram0=None,
                 sigma: float | None = None, plan: ThresholdPlan | None = None,
                 tau_out: float | None = None):
        super().__init__(np.zeros(int(p)) if theta0 is None else theta0, sigma, plan, tau_out,
                         P=inv_gram0, epsilon=None if epsilon is None else float(epsilon))

    # The ridge, as given or as default_ridge fixes it at the first datum.
    epsilon = property(lambda self: None if self._k.epsilon is None
                       else float(np.ravel(self._k.epsilon)[0]))

    @property
    def P(self) -> np.ndarray | None:
        return None if self._k.Pb is None else self._k.P[0]

    @property
    def P_base(self) -> np.ndarray | None:
        """The base of P = P_base - sum of w w' over ``pending``."""
        return None if self._k.Pb is None else self._k.Pb[0]

    @property
    def pending(self) -> np.ndarray | None:
        """The kept steps' vectors w not yet folded into P_base, one a row."""
        k = self._k
        return None if k.Pb is None else k.W[0, :k.c[0]]

    @property
    def C(self) -> np.ndarray:
        """n-scaled step matrix; before any update, the prior block P^-1."""
        if self.P is None:
            raise UsageError("step matrix undefined before the first datum fixes eps")
        if self.n == 0:
            return np.linalg.inv(self.P)
        return self.n * self.P


# ---------------------------------------------------------------------
# Likelihood-driven estimators (non-adaptive censoring)
# ---------------------------------------------------------------------


class _CensoredMLE:
    """Steps on a censor's decision: the datum becomes its likelihood term,
    a censored one anchored at x'theta_K, and the recursion takes the
    term's beta and h from a one-term ``score_info``, without its loss."""

    def step(self, decision: CensorDecision, x, tau: float):
        x = np.asarray(x, dtype=np.float64)
        if decision.kept:
            if decision.value is None:
                raise UsageError("kept decision carries no value")
            term = CensoredTerm(False, float(decision.value), x, tau, self.sigma)
        else:
            term = CensoredTerm(True, float(x @ self.anchor_theta), x, tau, self.sigma)
        beta, h = score_info([term.censored], [term.y_or_anchor], [float(x @ self.theta)],
                             term.tau, term.sigma)
        k = self._k
        k.n = n = k.n + 1
        if decision.kept:
            k._keep(0, x, float(beta[0]), tau, False, n, h=float(h[0]))
        else:
            k.update(0, x, float(beta[0]), float(h[0]), n)
        return self


class FirstOrderCensoredMLE(_CensoredMLE, LMS):
    """Stochastic-gradient MLE over censored likelihood terms.

    theta_n = theta_{n-1} + mu_n * beta_n * x_n, started at the
    preliminary estimate.  On uncensored data this is literally LMS
    with gain mu_n / sigma^2; on censored data beta pulls the
    prediction back toward the censoring interval.

    Multiplies per step: x'theta (p) + update scale (p + 1), plus the
    anchor prediction x'theta_K (p) on censored steps.
    """

    kind = "samle1"
    _saved = LMS._saved + ("anchor_theta",)

    def __init__(self, prelim: PreliminaryFit, sigma: float, mu: StepSize):
        _Gate.__init__(self, prelim.theta, sigma, None, None, mu)
        self.anchor_theta = self.theta.copy()


class SecondOrderCensoredMLE(_CensoredMLE, RLS):
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
    _saved = RLS._saved + ("anchor_theta",)

    def __init__(self, prelim: PreliminaryFit, sigma: float):
        super().__init__(prelim.theta.size, theta0=prelim.theta,
                         inv_gram0=(sigma * sigma) * np.asarray(prelim.gram_inv), sigma=sigma)
        self.anchor_theta = self.theta.copy()


# ---------------------------------------------------------------------
# Batch-style iterates and diagnostics
# ---------------------------------------------------------------------


def kaczmarz_run(X, y, iters: int, seed, callback=None, passes: int = 1) -> np.ndarray:
    """Randomized Kaczmarz sweep with energy-proportional row sampling.

    Row i is drawn with probability ||x_i||^2 / ||X||_F^2 and theta is
    projected onto its hyperplane.  Deterministic given seed.  The
    optional callback(k, theta) observes the iterate after draw k.

    With passes > 1 the system is X and y stacked passes times, without
    the copies: the draws range over the passes * D stacked rows, with
    the row energies tiled, and row i reads data row i mod D.  The draws
    and the iterate are bitwise those of the sweep of the tiled arrays.

    seed is a sequence of R seeds, giving an (R, p) iterate whose row r
    is bitwise the sweep of seed r alone: all R sweeps draw in lockstep,
    one batched projection per draw.  One seed s gives the (p,) iterate,
    row 0 of the sweep of [s], and the callback sees that row.
    """
    if np.ndim(seed) == 0:  # row 0 of the lockstep sweep of [seed]
        observe = None if callback is None else (lambda k, theta: callback(k, theta[0]))
        return kaczmarz_run(X, y, iters, [seed], observe, passes)[0]
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    D = X.shape[0]
    norms_sq = np.einsum("ij,ij->i", X, X)
    if np.any(norms_sq == 0.0):
        raise DomainError("kaczmarz_run requires no zero rows")
    probs = np.tile(norms_sq, passes)  # energies of the stacked rows of every pass
    probs /= probs.sum()
    draws = np.stack([substream(s).choice(probs.size, size=int(iters), p=probs)
                      for s in seed], axis=1)
    theta = np.zeros((draws.shape[1], X.shape[1]), dtype=np.float64)
    # Replicate r's x'theta is the (1, p) @ (p, 1) product of its own row
    # and iterate.  A block gathers about _PANEL rows, whatever the
    # replicate count.
    state, col = theta[:, None, :], theta[:, :, None]
    block = max(1, _PANEL // draws.shape[1])
    for a in range(0, draws.shape[0], block):
        picked = draws[a:a + block] % D
        rows, resp, energy = X[picked], y[picked], norms_sq[picked]
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
    """Rebuild an estimator from its ``snapshot()`` document: every key its
    kind writes and no other.  P and multiply_count follow from the rest."""
    kinds = {cls.kind: cls for cls in (LMS, RLS, FirstOrderCensoredMLE, SecondOrderCensoredMLE)}
    cls = kinds.get(doc.get("kind"))
    if cls is None:
        raise ConfigError(f"unknown estimator kind in snapshot: {doc.get('kind')!r}")
    s = config_section(doc, "snapshot", ("kind",) + cls._saved, ("kind",) + cls._saved)
    plan, mu = (None if s.get(name) is None
                else read_field(lambda d: make(**d), s[name], "snapshot." + name)
                for make, name in ((ThresholdPlan, "plan"), (StepSize, "mu")))
    est = object.__new__(cls)
    _Gate.__init__(est, s["theta"], s["sigma"], plan, s["tau_out"], mu, s.get("P_base"),
                   s.get("epsilon"))
    k = est._k
    for w in s.get("pending") or ():
        k._defer(0, w)
    k.n, k.kept[0], k.clipped[0] = s["n"], s["kept_count"], s["clipped"]
    if "anchor_theta" in s:
        est.anchor_theta = np.array(s["anchor_theta"], dtype=np.float64)
    return est
