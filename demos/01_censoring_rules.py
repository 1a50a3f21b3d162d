"""Censoring rules and threshold calibration.

A measurement is censored when its innovation (the gap between the
observed response and a prediction) is too small to be worth keeping.
This script walks the three decision rules and shows that the
threshold formulas hit their target censoring rates on simulated
Gaussian streams.
"""

import numpy as np

from cendre import (
    ThresholdPlan,
    censor_prob_clt,
    censor_prob_exact,
    nac_decide,
    nac_threshold_clt,
    nac_threshold_exact,
    robust_decide,
    substream,
)

# ---------------------------------------------------------------------
# The rules themselves are one-liners on the innovation.
# ---------------------------------------------------------------------
print("decision rules (sigma = 1)")
print("  nac_decide(y=2.0, y_hat=0, tau=1.5)  ->", nac_decide(2.0, 0.0, 1.0, 1.5))
print("  nac_decide(y=1.0, y_hat=0, tau=1.5)  ->", nac_decide(1.0, 0.0, 1.0, 1.5))
# The adaptive rule is the same test against the latest estimate's x'theta.
x, theta = np.array([1.0, 1.0]), np.array([0.2, 0.3])
print("  nac_decide(y=1.0, y_hat=x@theta=0.5, tau=0.4) ->",
      nac_decide(1.0, float(x @ theta), 1.0, 0.4))
print("  robust_decide(e=0.5, tau=1, tau_o=3) ->", robust_decide(0.5, 1.0, 1.0, 3.0))
print("  robust_decide(e=5.0, tau=1, tau_o=3) ->", robust_decide(5.0, 1.0, 1.0, 3.0))
print()

# ---------------------------------------------------------------------
# Exact per-datum calibration: pick tau from the preliminary fit's
# Gram inverse so each datum is censored with probability pi_star.
# ---------------------------------------------------------------------
p, K, pi_star = 8, 400, 0.3
rng = substream(42, 0)
XK = rng.standard_normal((K, p))
gram_inv = np.linalg.inv(XK.T @ XK)

hits = 0
trials = 20000
for _ in range(trials):
    x = rng.standard_normal(p)
    tau = nac_threshold_exact(x, gram_inv, pi_star)
    # Under the model the innovation is Gaussian with variance
    # sigma^2 (x' gram_inv x + 1); simulate it directly.
    s = np.sqrt(x @ gram_inv @ x + 1.0)
    e = s * rng.standard_normal()
    hits += not nac_decide(e, 0.0, 1.0, tau).kept
print(f"exact rule: target pi = {pi_star}, empirical = {hits / trials:.4f}")

# Round trip: the closed-form censoring probability at tau recovers pi.
x = rng.standard_normal(p)
tau = nac_threshold_exact(x, gram_inv, pi_star)
print(f"round trip: censor_prob_exact(tau*) = {censor_prob_exact(x, gram_inv, tau):.10f}")
print()

# ---------------------------------------------------------------------
# Data-agnostic calibration: one tau for the whole stream, using only
# the dimensions p and K.  The approximation treats the preliminary
# error as Gaussian with covariance R_x^{-1}/K, which is accurate once
# K is several times p.
# ---------------------------------------------------------------------
p, K = 100, 2000
rng = substream(42, 1)
print(f"one tau for the stream (p={p}, K={K}, {trials} draws per tau)")
print(f"  {'tau':>5} {'predicted':>10} {'empirical':>10}")
for tau in (0.5, 1.0, 1.5, 2.0):
    zeta = rng.standard_normal(p) / np.sqrt(K)      # preliminary error
    X = rng.standard_normal((trials, p))
    e = X @ zeta + rng.standard_normal(trials)
    emp = float(np.mean(np.abs(e) < tau))
    print(f"  {tau:>5.2f} {censor_prob_clt(tau, p, K):>10.4f} {emp:>10.4f}")
print()

pi_star = 0.75
tau75 = nac_threshold_clt(p, K, pi_star)
print(f"inverting for pi* = {pi_star}: tau = {tau75:.4f}")
print()

# ---------------------------------------------------------------------
# Threshold plans bundle a formula with its parameters so estimators
# can ask for tau_n step by step.  The offline schedule starts at zero
# (keep everything while the estimate is raw) and settles at the
# constant-probability threshold.
# ---------------------------------------------------------------------
plan = ThresholdPlan.ac_offline(p=10, pi_star=0.6)
marks = [1, 2, 5, 10, 100, 1000, 100000]
print("offline adaptive schedule, p=10, pi*=0.6")
print("  n   :", "  ".join(f"{n:>7d}" for n in marks))
print("  tau :", "  ".join(f"{plan.threshold(n):>7.4f}" for n in marks))
