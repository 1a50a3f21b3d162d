"""Censoring rules, threshold formulas, and threshold plans.

Threshold constants were pinned from a bisection oracle on quadrature
of the Gaussian density; calibration checks draw their own streams and
compare realized censoring frequencies against targets.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from cendre.censor import (
    CensorDecision,
    ThresholdPlan,
    ac_threshold_offline,
    censor_prob_clt,
    censor_prob_exact,
    nac_decide,
    nac_threshold_clt,
    nac_threshold_exact,
    robust_decide,
)
from cendre.errors import ConfigError, DomainError
from cendre.numkit import gauss_q, gauss_q_inv, substream

import oracles

Q_INV_QUARTER = 0.6744897501960817  # Q^-1(0.25), bisection oracle
Q_INV_005 = 1.6448536269514727      # Q^-1(0.05)


# ---------------------------------------------------------------------
# decision rules
# ---------------------------------------------------------------------

def test_nac_branches():
    kept = nac_decide(2.0, 0.0, 1.0, 1.5)
    assert kept == CensorDecision(True, 2.0)
    assert nac_decide(1.0, 0.0, 1.0, 1.5) == CensorDecision(False, None)


def test_nac_boundary_is_kept():
    assert nac_decide(1.5, 0.0, 1.0, 1.5).kept


@pytest.mark.parametrize("y, y_hat", [(1.0, 0.2), (np.float64(1.0), 0.2), (1.0, np.float64(0.2)),
                                        (np.float64(1.0), np.float64(0.9))],
                         ids=["python", "numpy-y", "numpy-y_hat", "numpy-censored"])
def test_nac_decision_fields_are_python_types(y, y_hat):
    # The dataclass declares kept: bool and value: float | None, also for
    # numpy scalars in, e.g. a prediction x @ theta.
    d = nac_decide(y, y_hat, 1.0, 0.4)
    assert type(d.kept) is bool
    assert type(d.value) is float if d.kept else d.value is None


def test_nac_value_only_when_kept():
    rng = np.random.default_rng(1)
    for _ in range(200):
        d = nac_decide(float(rng.normal()), float(rng.normal()), 1.0,
                       float(rng.uniform(0, 2)))
        assert (d.value is not None) == d.kept


def test_ac_uses_current_estimate():
    # The adaptive rule is the NAC rule against the latest estimate's x'theta.
    x, theta = np.array([1.0, 1.0]), np.array([0.2, 0.3])
    d = nac_decide(1.0, float(x @ theta), 1.0, 0.4)
    assert d.kept and d.value == 1.0
    assert not nac_decide(0.6, float(x @ theta), 1.0, 0.4).kept


def test_robust_three_branches():
    assert robust_decide(0.5, 1.0, 1.0, 3.0) == CensorDecision(False)
    assert robust_decide(2.0, 1.0, 1.0, 3.0) == CensorDecision(True)
    assert robust_decide(5.0, 1.0, 1.0, 3.0) == CensorDecision(True, None, True)


def test_robust_outlier_boundary():
    assert robust_decide(3.0, 1.0, 1.0, 3.0).outlier
    assert not robust_decide(2.999999, 1.0, 1.0, 3.0).outlier


def test_robust_degenerate_equal_thresholds():
    # tau == tau_o leaves no nominal band: censored below, clipped at and
    # above (adaptive schedules clamp into this case while warming up).
    assert not robust_decide(2.9, 1.0, 3.0, 3.0).kept
    assert robust_decide(3.1, 1.0, 3.0, 3.0).outlier


def test_robust_rejects_inverted_thresholds():
    with pytest.raises(DomainError):
        robust_decide(1.0, 1.0, 3.5, 3.0)


def test_rules_reject_bad_scale():
    with pytest.raises(DomainError):
        nac_decide(1.0, 0.0, 0.0, 1.0)
    with pytest.raises(DomainError):
        nac_decide(1.0, 0.0, 1.0, -0.1)
    with pytest.raises(DomainError):
        nac_decide(math.nan, 0.0, 1.0, 1.0)


@given(st.floats(-50.0, 50.0), st.floats(0.0, 5.0), st.floats(0.1, 5.0))
def test_nac_rule_property(y, tau, sigma):
    d = nac_decide(y, 0.0, sigma, tau)
    assert d.kept == (abs(y) >= tau * sigma)


# ---------------------------------------------------------------------
# exact per-datum threshold
# ---------------------------------------------------------------------

def test_exact_threshold_zero_target():
    assert nac_threshold_exact(np.ones(3), np.eye(3), 0.0) == 0.0


def test_exact_threshold_no_leverage():
    got = nac_threshold_exact(np.zeros(4), np.eye(4), 0.5)
    assert got == pytest.approx(Q_INV_QUARTER, rel=1e-12)


def test_exact_threshold_round_trip():
    rng = np.random.default_rng(5)
    for _ in range(50):
        p = int(rng.integers(1, 8))
        A = rng.standard_normal((p + 2, p))
        gram_inv = np.linalg.inv(A.T @ A + 0.1 * np.eye(p))
        x = rng.standard_normal(p)
        pi = float(rng.uniform(0.0, 0.99))
        tau = nac_threshold_exact(x, gram_inv, pi)
        assert censor_prob_exact(x, gram_inv, tau) == pytest.approx(pi, abs=1e-10)


def test_exact_threshold_domain():
    with pytest.raises(DomainError):
        nac_threshold_exact(np.ones(2), np.eye(2), 1.0)
    with pytest.raises(DomainError):
        nac_threshold_exact(np.ones(2), np.eye(2), -0.2)


def test_exact_calibration():
    # Per-datum thresholds targeting pi* = 0.3: the realized censoring
    # frequency over 10,000 data lands within a 3-sigma binomial band.
    rng = substream(2026, 900)
    p, K, pi_star, sigma = 6, 120, 0.3, 1.3
    XK = rng.standard_normal((K, p))
    gram_inv = np.linalg.inv(XK.T @ XK)
    chol = np.linalg.cholesky(gram_inv)
    censored = 0
    trials = 10_000
    for _ in range(trials):
        x = rng.standard_normal(p)
        tau = nac_threshold_exact(x, gram_inv, pi_star)
        # Innovation ~ N(0, sigma^2 (x' gram_inv x + 1)) under the model.
        zeta = chol @ rng.standard_normal(p)
        e = sigma * (x @ zeta + rng.standard_normal())
        censored += not nac_decide(e, 0.0, sigma, tau).kept
    assert censored / trials == pytest.approx(pi_star, abs=0.02)


# ---------------------------------------------------------------------
# leverage-averaged threshold
# ---------------------------------------------------------------------

def test_clt_threshold_formula():
    # tau = 1 at (p=100, K=200) corresponds to pi = 0.585783821757475.
    pi = censor_prob_clt(1.0, 100, 200)
    assert pi == pytest.approx(0.5857838217574749, rel=1e-12)
    assert nac_threshold_clt(100, 200, pi) == pytest.approx(1.0, abs=1e-12)


def test_clt_threshold_equal_dims():
    got = nac_threshold_clt(7, 7, 0.5)
    assert got == pytest.approx(math.sqrt(2.0) * Q_INV_QUARTER, rel=1e-12)


def test_clt_zero_cases():
    assert nac_threshold_clt(10, 20, 0.0) == 0.0
    assert censor_prob_clt(0.0, 10, 20) == 0.0


def test_clt_domain():
    with pytest.raises(DomainError):
        nac_threshold_clt(0, 10, 0.5)
    with pytest.raises(DomainError):
        censor_prob_clt(-0.5, 10, 10)


def test_clt_calibration_model():
    # Simulate the quantity the formula models: a preliminary error drawn
    # from N(0, I/K) against fresh Gaussian regressors.  The empirical
    # censoring frequency then tracks the closed form within 0.03.
    rng = substream(2026, 901)
    p, K, runs, per_run = 100, 200, 100, 200
    for tau in (0.5, 1.0, 1.5, 2.0):
        censored = 0
        for _ in range(runs):
            zeta = rng.standard_normal(p) / math.sqrt(K)
            X = rng.standard_normal((per_run, p))
            e = X @ zeta + rng.standard_normal(per_run)
            censored += int(np.sum(np.abs(e) < tau))
        emp = censored / (runs * per_run)
        assert emp == pytest.approx(censor_prob_clt(tau, p, K), abs=0.03)


# ---------------------------------------------------------------------
# adaptive-censoring thresholds
# ---------------------------------------------------------------------

def online_threshold(x, C, n, pi_star):
    """tau_n of an ac-online plan, given x and the n-scaled step matrix C."""
    return ThresholdPlan.ac_online(pi_star).threshold(n, quadratic_form=x @ C @ x / n)


def test_online_threshold_example():
    got = online_threshold(np.eye(3)[0], np.eye(3), 4, 0.5)
    assert got == pytest.approx(0.7541024657826454, rel=1e-12)


def test_online_threshold_zero_target():
    assert online_threshold(np.ones(2), np.eye(2), 1, 0.0) == 0.0


def test_online_threshold_limit():
    # Bounded x'Cx and growing n: the prefactor decays to 1.
    x, C = np.ones(2), np.eye(2)
    got = online_threshold(x, C, 10_000_000, 0.5)
    assert got == pytest.approx(Q_INV_QUARTER, rel=1e-6)


def test_offline_threshold_example():
    got = ac_threshold_offline(300, 1000, 0.9)
    assert got == pytest.approx(3.2909418973143634, rel=1e-12)


def test_offline_threshold_cases():
    assert ac_threshold_offline(5, 2, 0.0) == 0.0
    limit = ac_threshold_offline(5, 10_000_000, 0.5)
    assert limit == pytest.approx(Q_INV_QUARTER, rel=1e-5)
    with pytest.raises(DomainError):
        ac_threshold_offline(5, 1, 0.5)
    with pytest.raises(DomainError):
        ac_threshold_offline(5, 10, 1.0)


def test_offline_threshold_decreasing_in_n():
    taus = [ac_threshold_offline(20, n, 0.6) for n in range(2, 200)]
    assert all(a > b for a, b in zip(taus, taus[1:]))


def test_schedule_reduces_to_offline():
    p, pi = 12, 0.45
    sched = ThresholdPlan.ac_offline(p, [pi] * 30).thresholds(1, 31)
    assert sched[0] == 0.0
    for n in range(2, 31):
        assert sched[n - 1] == pytest.approx(ac_threshold_offline(p, n, pi), rel=1e-12)


def test_schedule_examples():
    assert list(ThresholdPlan.ac_offline(4, [0.0, 0.0, 0.0]).thresholds(1, 4)) == [0.0, 0.0, 0.0]
    sched = ThresholdPlan.ac_offline(10, [0.5, 0.9]).thresholds(1, 3)
    assert sched[1] == pytest.approx(7.537666252627779, rel=1e-12)


def test_schedule_rejects_full_censoring_prefix():
    with pytest.raises(ConfigError):
        ThresholdPlan.ac_offline(10, [1.0, 0.5])


def test_monotone_in_target():
    grid = np.linspace(0.05, 0.95, 19)
    x, ginv, C = np.ones(3), 0.2 * np.eye(3), np.eye(3)
    for f in (lambda s: nac_threshold_exact(x, ginv, s),
              lambda s: nac_threshold_clt(5, 50, s),
              lambda s: online_threshold(x, C, 7, s),
              lambda s: ac_threshold_offline(5, 9, s)):
        vals = [f(s) for s in grid]
        assert all(a < b for a, b in zip(vals, vals[1:]))


# ---------------------------------------------------------------------
# threshold plans
# ---------------------------------------------------------------------

def test_plan_constant():
    plan = ThresholdPlan.constant(1.25)
    assert plan.threshold(1) == 1.25
    assert plan.threshold(10**6, x=np.ones(3)) == 1.25
    assert not plan.needs_quadratic_form


def test_plan_nac_exact_needs_x():
    plan = ThresholdPlan.nac_exact(np.eye(2), 0.5)
    assert not plan.needs_quadratic_form
    got = plan.threshold(3, x=np.zeros(2))
    assert got == pytest.approx(Q_INV_QUARTER, rel=1e-12)
    with pytest.raises(ConfigError):
        plan.threshold(3)


def test_plan_nac_clt_constant_over_stream():
    plan = ThresholdPlan.nac_clt(30, 50, 0.75)
    want = nac_threshold_clt(30, 50, 0.75)
    assert plan.threshold(1) == plan.threshold(999) == want


def test_plan_ac_online_needs_quadratic_form():
    plan = ThresholdPlan.ac_online(0.5)
    assert plan.needs_quadratic_form
    got = plan.threshold(4, quadratic_form=0.25)
    assert got == pytest.approx(0.7541024657826454, rel=1e-12)
    with pytest.raises(ConfigError):
        plan.threshold(4)


def test_plan_ac_offline_first_step_zero():
    plan = ThresholdPlan.ac_offline(10, 0.6)
    assert plan.threshold(1) == 0.0
    assert plan.threshold(5) == pytest.approx(ac_threshold_offline(10, 5, 0.6),
                                              rel=1e-12)


def test_plan_ac_offline_schedule_tuple():
    pis = (0.5, 0.9, 0.7)
    plan = ThresholdPlan.ac_offline(10, pis)
    want = oracles.ac_offline_schedule(10, pis, oracles.bisect_q_inv)
    for n in (1, 2, 3):
        assert plan.threshold(n) == pytest.approx(want[n - 1], rel=1e-12)
    assert plan.target_pi == pis


def test_plan_vector_path_matches_schedule_function():
    # A per-datum plan sums its expected kept mass once; every window of
    # its vector path, and threshold() through it, equal the plain-loop
    # oracle (with the package's quantile) bit for bit.
    pis = [float(v) for v in substream(3).uniform(0.0, 0.95, 2000)]
    want = np.array(oracles.ac_offline_schedule(7, pis, gauss_q_inv))
    plan = ThresholdPlan.ac_offline(7, pis)
    np.testing.assert_array_equal(plan.thresholds(1, 2001), want)
    np.testing.assert_array_equal(plan.thresholds(500, 1500), want[499:1499])
    assert [plan.threshold(n) for n in (1, 2, 1999, 2000)] == list(want[[0, 1, 1998, 1999]])
    with pytest.raises(IndexError):
        plan.threshold(2001)
    scalar = ThresholdPlan.ac_offline(7, 0.8)
    np.testing.assert_array_equal(scalar.thresholds(1, 50),
                                  [0.0] + [ac_threshold_offline(7, n, 0.8) for n in range(2, 50)])


def test_scalar_threshold_memory_stays_flat():
    # Step-by-step threshold() reads blocks of 1,024 steps; holding every
    # block read grows 8 bytes per step (over 800 KB here), holding the
    # current one stays within a few blocks' worth of temporaries.
    plan = ThresholdPlan.ac_offline(30, 0.75)
    plan.threshold(1)
    tracemalloc.start()
    try:
        for n in range(1, 100_001):
            plan.threshold(n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 8 * 1024


def test_plan_schedule_materialization():
    plan = ThresholdPlan.ac_offline(10, 0.6)
    sched = plan.thresholds(1, 51)
    assert sched.shape == (50,)
    assert sched[0] == 0.0
    for kind_plan in (ThresholdPlan.nac_exact(np.eye(2), 0.5),
                      ThresholdPlan.ac_online(0.5)):
        with pytest.raises(ConfigError):
            kind_plan.thresholds(1, 11)


def test_offline_plan_calibration():
    # Running adaptive-censoring RLS under an offline plan realizes the
    # target ratio within 0.03 at D = 10,000, p = 30.
    from cendre.estimators import RLS
    from cendre.datagen import StreamSpec, generate

    pi_star, p, D = 0.6, 30, 10_000
    spec = StreamSpec(p=p, D=D, sigma=1.0, seed=424242)
    est = RLS(p, sigma=1.0, plan=ThresholdPlan.ac_offline(p, pi_star))
    for y, x in generate(spec):
        est.step(y, x)
    realized = 1.0 - est.kept_count / D
    assert realized == pytest.approx(pi_star, abs=0.03)


def test_plan_validation():
    with pytest.raises(ConfigError):
        ThresholdPlan.constant(-1.0)
    with pytest.raises(ConfigError):
        ThresholdPlan.ac_offline(10, 1.5)
    with pytest.raises(ConfigError):
        ThresholdPlan.ac_online(-0.1)
