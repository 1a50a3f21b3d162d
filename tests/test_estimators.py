"""Streaming estimators: exactness, reductions, counters, snapshots.

The recursive estimators have batch counterparts (ridge, LSE) that a
dense solve reproduces; those solves are the oracles here.  Counter
checks assert exact integer multiply budgets per branch.
"""

import json
import math
import tracemalloc

import numpy as np
import pytest

from cendre.censor import CensorDecision, ThresholdPlan
from cendre.errors import ConfigError, DomainError, SingularityError, UsageError
from cendre.estimators import (
    _FOLD,
    _PANEL,
    LMS,
    RLS,
    FirstOrderCensoredMLE,
    PreliminaryFit,
    SecondOrderCensoredMLE,
    StepSize,
    batch_lse,
    from_snapshot,
    kaczmarz_run,
    preliminary_fit,
    regret,
)
from cendre.likelihood import CensoredTerm, loss
from cendre.numkit import substream

from oracles import ridge_solution


def _stream(seed, D, p, sigma=1.0, theta=None):
    rng = substream(seed)
    theta = rng.standard_normal(p) if theta is None else np.asarray(theta)
    X = rng.standard_normal((D, p))
    y = X @ theta + sigma * rng.standard_normal(D)
    return X, y, theta


def _kept(y):
    return CensorDecision(True, float(y))


_CENSORED = CensorDecision(False)


# ---------------------------------------------------------------------
# step sizes and batch fits
# ---------------------------------------------------------------------

def test_step_size_policies():
    assert StepSize.constant(0.3).at(100) == 0.3
    assert StepSize.diminishing(0.8).at(4) == 0.2
    with pytest.raises(ConfigError):
        StepSize("annealed", 0.1)
    with pytest.raises(ConfigError):
        StepSize.constant(0.0)


def test_preliminary_fit_matches_lstsq():
    X, y, _ = _stream(11, 40, 6)
    fit = preliminary_fit(zip(y, X))
    want, *_ = np.linalg.lstsq(X, y, rcond=None)
    np.testing.assert_allclose(fit.theta, want, rtol=1e-10)
    np.testing.assert_allclose(fit.gram_inv, np.linalg.inv(X.T @ X), rtol=1e-9)
    assert fit.K == 40


def test_preliminary_fit_domain():
    with pytest.raises(DomainError):
        preliminary_fit([])
    X, y, _ = _stream(12, 3, 6)
    with pytest.raises(DomainError):
        preliminary_fit(zip(y, X))


def test_batch_lse():
    X, y, _ = _stream(13, 50, 4)
    np.testing.assert_allclose(batch_lse(X, y),
                               np.linalg.lstsq(X, y, rcond=None)[0], rtol=1e-10)
    with pytest.raises(SingularityError):
        batch_lse(X[:3], y[:3])


# ---------------------------------------------------------------------
# RLS against the dense ridge solution
# ---------------------------------------------------------------------

def test_rls_is_exact_ridge_trajectory():
    eps = 0.5
    X, y, _ = _stream(21, 60, 5)
    est = RLS(5, epsilon=eps)
    for n in range(60):
        est.step(y[n], X[n])
        want = ridge_solution(X[: n + 1], y[: n + 1], eps)
        np.testing.assert_allclose(est.theta, want, rtol=1e-8, atol=1e-10)


def test_rls_inverse_stays_exact_over_long_run():
    # Sherman-Morrison drift check: 1000 rank-one updates at p = 20
    # against a fresh dense inversion.
    eps = 0.25
    X, y, _ = _stream(22, 1000, 20)
    est = RLS(20, epsilon=eps)
    for n in range(1000):
        est.step(y[n], X[n])
    dense = np.linalg.inv(eps * np.eye(20) + X.T @ X)
    np.testing.assert_allclose(est.P, dense, rtol=1e-8, atol=1e-12)


def test_rls_warm_start_block():
    X, y, _ = _stream(23, 80, 4)
    fit = preliminary_fit(zip(y[:30], X[:30]))
    est = RLS(4, theta0=fit.theta, inv_gram0=fit.gram_inv)
    for n in range(30, 80):
        est.step(y[n], X[n])
    np.testing.assert_allclose(est.theta, batch_lse(X, y), rtol=1e-8)


def test_rls_default_ridge_from_first_regressor():
    est = RLS(3)
    with pytest.raises(UsageError):
        est.C  # undefined until the first datum fixes eps
    est.step(1.0, [2.0, 0.0, 0.0])
    assert est.epsilon == pytest.approx(1e-2 * 4.0 / 3.0)
    with pytest.raises(DomainError):
        RLS(3).step(1.0, [0.0, 0.0, 0.0])


def test_reading_the_step_matrix_folds_nothing():
    # P is held as P_base less the outer products of the pending vectors;
    # reading P, C or a snapshot leaves both as they are, so a twin that is
    # never read stays bitwise in step.
    X, y, _ = _stream(25, 3 * _FOLD, 3)
    read, twin = RLS(3, epsilon=0.5), RLS(3, epsilon=0.5)
    for n in range(3 * _FOLD):
        read.step(y[n], X[n])
        twin.step(y[n], X[n])
        pending = read.pending
        assert len(pending) == (n + 1) % _FOLD
        np.testing.assert_array_equal(read.P, read.P_base - pending.T @ pending)
        assert np.array_equal(read.P, read.P.T)
        read.C, read.snapshot()
        assert read.theta.tobytes() == twin.theta.tobytes()
    assert read.P.tobytes() == twin.P.tobytes()


def test_step_matrix_scaling():
    X, y, _ = _stream(24, 10, 3)
    est = RLS(3, epsilon=2.0)
    np.testing.assert_allclose(RLS(3, inv_gram0=np.eye(3) / 2.0).C, 2.0 * np.eye(3))
    for n in range(10):
        est.step(y[n], X[n])
    np.testing.assert_allclose(est.C, 10 * est.P)


# ---------------------------------------------------------------------
# reductions between families
# ---------------------------------------------------------------------

def test_zero_threshold_aclms_is_lms():
    X, y, _ = _stream(31, 500, 8)
    mu = StepSize.constant(0.02)
    plain, gated = LMS(8, mu), LMS(8, mu, sigma=1.0)
    for n in range(500):
        plain.step(y[n], X[n])
        _, d = gated.step(y[n], X[n], tau=0.0)
        assert d.kept
    assert float(np.max(np.abs(plain.theta - gated.theta))) <= 1e-12
    assert gated.kept_count == 500


def test_zero_threshold_acrls_is_rls():
    X, y, _ = _stream(32, 500, 8)
    plain, gated = RLS(8, epsilon=0.1), RLS(8, epsilon=0.1, sigma=1.0)
    for n in range(500):
        plain.step(y[n], X[n])
        gated.step(y[n], X[n], tau=0.0)
    assert float(np.max(np.abs(plain.theta - gated.theta))) <= 1e-12
    np.testing.assert_array_equal(plain.P, gated.P)


def test_huge_clip_boundary_recovers_plain_ac():
    X, y, _ = _stream(33, 400, 6)
    tau = 0.8
    ac = RLS(6, epsilon=1.0, sigma=1.0)
    rac = RLS(6, epsilon=1.0, sigma=1.0, tau_out=1e30)
    mu = StepSize.constant(0.05)
    ac_l, rac_l = LMS(6, mu, 1.0), LMS(6, mu, 1.0, tau_out=1e30)
    for n in range(400):
        ac.step(y[n], X[n], tau=tau)
        _, d = rac.step(y[n], X[n], tau=tau)
        assert not d.outlier
        ac_l.step(y[n], X[n], tau=tau)
        rac_l.step(y[n], X[n], tau=tau)
    assert float(np.max(np.abs(ac.theta - rac.theta))) <= 1e-12
    assert float(np.max(np.abs(ac_l.theta - rac_l.theta))) <= 1e-12


def test_second_order_uncensored_continues_rls():
    # With every datum kept, the Newton recursion is recursive least
    # squares restarted from the preliminary block, for any sigma.
    sigma = 2.0
    X, y, _ = _stream(34, 260, 5, sigma=sigma)
    fit = preliminary_fit(zip(y[:60], X[:60]))
    mle = SecondOrderCensoredMLE(fit, sigma)
    rls = RLS(5, theta0=fit.theta, inv_gram0=fit.gram_inv)
    for n in range(60, 260):
        mle.step(_kept(y[n]), X[n], tau=0.7)
        rls.step(y[n], X[n])
        np.testing.assert_allclose(mle.theta, rls.theta, rtol=1e-9, atol=1e-12)


def test_first_order_uncensored_step_is_scaled_lms():
    sigma = 2.0
    fit = PreliminaryFit(np.zeros(3), np.eye(3), 3)
    est = FirstOrderCensoredMLE(fit, sigma, StepSize.constant(0.4))
    x = np.array([1.0, 2.0, -1.0])
    est.step(_kept(3.0), x, tau=1.0)
    # beta = e / sigma^2 on a kept datum.
    np.testing.assert_allclose(est.theta, 0.4 * (3.0 / 4.0) * x, rtol=1e-12)


def test_censored_step_pulls_toward_anchor():
    # Anchor prediction 0, current prediction far above the interval:
    # the censored score drags the estimate back down.
    fit = PreliminaryFit(np.zeros(2), np.eye(2), 2)
    est = FirstOrderCensoredMLE(fit, 1.0, StepSize.constant(0.1))
    est.theta = np.array([5.0, 0.0])
    est.step(_CENSORED, np.array([1.0, 0.0]), tau=1.0)
    assert est.theta[0] < 5.0


def test_kept_decision_requires_value():
    fit = PreliminaryFit(np.zeros(2), np.eye(2), 2)
    for est in (FirstOrderCensoredMLE(fit, 1.0, StepSize.constant(0.1)),
                SecondOrderCensoredMLE(fit, 1.0)):
        with pytest.raises(UsageError):
            est.step(CensorDecision(True), np.ones(2), tau=1.0)


def test_sigma_validation():
    fit = PreliminaryFit(np.zeros(2), np.eye(2), 2)
    with pytest.raises(ConfigError):
        SecondOrderCensoredMLE(fit, 0.0)
    with pytest.raises(ConfigError):
        RLS(2, sigma=-1.0)
    # A plan or an outlier bound reads sigma; an open gate has none.
    with pytest.raises(ConfigError):
        RLS(2, tau_out=3.0)
    with pytest.raises(ConfigError):
        LMS(2, StepSize.constant(0.1), plan=ThresholdPlan.constant(1.0))


@pytest.mark.parametrize("tau", [math.nan, math.inf, -1.0])
@pytest.mark.parametrize("est", [RLS(2, sigma=1.0), LMS(2, StepSize.constant(0.1), 1.0)],
                         ids=["rls", "lms"])
def test_a_given_tau_must_suit_the_rules(est, tau):
    # As with tau_out, where the robust rule checks it.  Unchecked, a NaN
    # tau would censor the datum and -1 keep it.
    with pytest.raises(DomainError, match="tau must be non-negative and finite"):
        est.step(1.0, np.ones(2), tau=tau)
    assert est.kept_count == 0 and not est.theta.any()


def test_missing_plan_and_tau():
    with pytest.raises(ConfigError):
        RLS(2, sigma=1.0).step(1.0, np.ones(2))
    with pytest.raises(ConfigError):
        LMS(2, StepSize.constant(0.1), 1.0).step(1.0, np.ones(2))


# ---------------------------------------------------------------------
# multiply counters
# ---------------------------------------------------------------------

def test_counter_lms_family():
    p, D = 7, 120
    X, y, _ = _stream(41, D, p)
    plain = LMS(p, StepSize.constant(0.01))
    gated = LMS(p, StepSize.constant(0.01), 1.0)
    for n in range(D):
        plain.step(y[n], X[n])
        gated.step(y[n], X[n], tau=1.0)
    d = gated.kept_count
    assert plain.multiply_count == D * (2 * p + 1)
    assert gated.multiply_count == d * (p + 1) + D * p
    assert 0 < d < D


def test_counter_rls_and_ac_rls():
    p, D = 9, 200
    X, y, _ = _stream(42, D, p)
    plain = RLS(p, epsilon=1.0)
    gated = RLS(p, epsilon=1.0, sigma=1.0)
    for n in range(D):
        plain.step(y[n], X[n])
        gated.step(y[n], X[n], tau=1.0)
    d = gated.kept_count
    assert plain.multiply_count == D * (2 * p * p + 4 * p)
    assert gated.multiply_count == d * (2 * p * p + 3 * p) + D * p
    assert 0 < d < D


def test_counter_online_plan_overhead():
    # The online rule pays p(p+1) for x'Cx on every step; kept steps
    # reuse that product inside the update, so a kept step still totals
    # 2p^2 + 4p while a censored one totals p^2 + 2p.
    p, D = 6, 150
    X, y, _ = _stream(43, D, p)
    est = RLS(p, sigma=1.0, plan=ThresholdPlan.ac_online(0.5))
    for n in range(D):
        est.step(y[n], X[n])
    d = est.kept_count
    want = d * (2 * p * p + 4 * p) + (D - d) * (p * p + 2 * p)
    assert est.multiply_count == want
    assert 0 < d < D


def test_counter_first_and_second_order():
    p, D = 5, 150
    X, y, _ = _stream(44, D + 30, p)
    fit = preliminary_fit(zip(y[:30], X[:30]))
    first = FirstOrderCensoredMLE(fit, 1.0, StepSize.diminishing(1.0))
    second = SecondOrderCensoredMLE(fit, 1.0)
    d = 0
    for n in range(30, 30 + D):
        e = y[n] - X[n] @ fit.theta
        dec = _kept(y[n]) if abs(e) >= 1.0 else _CENSORED
        d += dec.kept
        first.step(dec, X[n], tau=1.0)
        second.step(dec, X[n], tau=1.0)
    assert first.multiply_count == d * (2 * p + 1) + (D - d) * (3 * p + 1)
    assert second.multiply_count == D * (2 * p * p + 2 * p + 2) + d * p + (D - d) * 2 * p
    assert first.kept_count == second.kept_count == d
    assert 0 < d < D


def test_counter_robust_branches():
    p, D = 4, 300
    rng = substream(45)
    X = rng.standard_normal((D, p))
    y = rng.standard_normal(D) * 3.0  # fat enough to hit all branches
    rac = RLS(p, epsilon=1.0, sigma=1.0, tau_out=2.0)
    rac_l = LMS(p, StepSize.constant(0.01), 1.0, tau_out=2.0)
    counts = {"censored": 0, "nominal": 0, "outlier": 0}
    for n in range(D):
        _, dec = rac.step(y[n], X[n], tau=0.5)
        rac_l.step(y[n], X[n], tau=0.5)
        if not dec.kept:
            counts["censored"] += 1
        elif dec.outlier:
            counts["outlier"] += 1
        else:
            counts["nominal"] += 1
    assert all(v > 0 for v in counts.values())
    want = (counts["censored"] * p
            + counts["nominal"] * (2 * p * p + 4 * p)
            + counts["outlier"] * (p * p + 2 * p))
    assert rac.multiply_count == want
    assert rac.kept_count == counts["nominal"] + counts["outlier"]
    # The LMS twin walks its own trajectory, so its branch counts are
    # its own; only the per-branch arithmetic is shared.
    assert rac_l.multiply_count == rac_l.kept_count * (p + 1) + D * p


# ---------------------------------------------------------------------
# snapshots
# ---------------------------------------------------------------------

def _snapshot_pairs():
    fit = PreliminaryFit(np.array([0.3, -0.2]), 0.5 * np.eye(2), 10)
    mu = StepSize.constant(0.05)
    return [
        (FirstOrderCensoredMLE(fit, 1.5, mu), "mle"),
        (SecondOrderCensoredMLE(fit, 1.5), "mle"),
        (LMS(2, mu), "plain"),
        (LMS(2, mu, 1.0), "gated"),
        (LMS(2, mu, 1.0, tau_out=3.0), "gated"),
        (RLS(2, epsilon=0.7), "plain"),
        (RLS(2, epsilon=0.7, sigma=1.0), "gated"),
        (RLS(2, epsilon=0.7, sigma=1.0, tau_out=3.0), "gated"),
    ]


def test_snapshot_round_trip_every_kind():
    rng = substream(51)
    X = rng.standard_normal((40, 2))
    y = X @ np.array([1.0, -2.0]) + rng.standard_normal(40)
    for est, style in _snapshot_pairs():
        for n in range(20):
            if style == "mle":
                est.step(_kept(y[n]), X[n], tau=0.5)
            elif style == "plain":
                est.step(y[n], X[n])
            else:
                est.step(y[n], X[n], tau=0.5)
        snap = est.snapshot()
        json.dumps(snap)  # plain JSON document, serializable as-is
        clone = from_snapshot(snap)
        assert type(clone) is type(est)
        for n in range(20, 40):
            if style == "mle":
                est.step(_kept(y[n]), X[n], tau=0.5)
                clone.step(_kept(y[n]), X[n], tau=0.5)
            elif style == "plain":
                est.step(y[n], X[n])
                clone.step(y[n], X[n])
            else:
                est.step(y[n], X[n], tau=0.5)
                clone.step(y[n], X[n], tau=0.5)
        np.testing.assert_array_equal(est.theta, clone.theta)
        assert est.multiply_count == clone.multiply_count
        assert est.n == clone.n and est.kept_count == clone.kept_count


def test_snapshot_document_format():
    # One document over the state: arrays as nested lists, the step-size
    # policy as {policy, value}, and no threshold plan.
    est = RLS(3, epsilon=0.5, sigma=1.0, plan=ThresholdPlan.constant(0.2))
    est.step(1.0, [1.0, 2.0, 0.0])
    snap = est.snapshot()
    assert snap["kind"] == "rls" and "plan" not in snap
    assert snap["P"] == est.P.tolist() and snap["theta"] == est.theta.tolist()
    assert snap["epsilon"] == 0.5 and snap["sigma"] == 1.0 and snap["tau_out"] is None
    lms = LMS(2, StepSize.diminishing(0.3)).snapshot()
    assert lms["mu"] == {"policy": "diminishing", "value": 0.3}
    assert from_snapshot(json.loads(json.dumps(lms))).mu == StepSize.diminishing(0.3)


def test_snapshot_unknown_kind():
    with pytest.raises(ConfigError):
        from_snapshot({"kind": "oracle"})


# ---------------------------------------------------------------------
# row-action solver and regret
# ---------------------------------------------------------------------

def test_kaczmarz_consistent_system():
    rng = substream(61)
    X = rng.standard_normal((30, 6))
    theta_star = rng.standard_normal(6)
    got = kaczmarz_run(X, X @ theta_star, iters=20_000, seed=7)
    np.testing.assert_allclose(got, theta_star, atol=1e-10)


def test_kaczmarz_deterministic_and_callback():
    rng = substream(62)
    X = rng.standard_normal((12, 3))
    y = rng.standard_normal(12)
    seen = []
    a = kaczmarz_run(X, y, iters=50, seed=3,
                     callback=lambda k, th: seen.append((k, th.copy())))
    b = kaczmarz_run(X, y, iters=50, seed=3)
    c = kaczmarz_run(X, y, iters=50, seed=4)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)
    assert [k for k, _ in seen] == list(range(1, 51))
    np.testing.assert_array_equal(seen[-1][1], a)


def test_kaczmarz_rejects_zero_rows():
    X = np.array([[1.0, 2.0], [0.0, 0.0]])
    with pytest.raises(DomainError):
        kaczmarz_run(X, np.ones(2), iters=5, seed=1)
    with pytest.raises(DomainError):
        kaczmarz_run(X, np.ones(2), iters=5, seed=[1, 2])


def test_kaczmarz_lockstep_rows_are_single_sweeps():
    # 2,500 draws cross several blocks of gathered rows.
    rng = substream(63)
    X = rng.standard_normal((40, 5))
    y = X @ rng.standard_normal(5) + 0.1 * rng.standard_normal(40)
    seeds = [3, 11, 4]
    seen = []
    got = kaczmarz_run(X, y, iters=2_500, seed=seeds,
                       callback=lambda k, th: seen.append((k, th.copy())))
    assert got.shape == (3, 5)
    assert [k for k, _ in seen] == list(range(1, 2_501))
    assert all(th.shape == (3, 5) for _, th in seen)
    np.testing.assert_array_equal(seen[-1][1], got)
    for r, s in enumerate(seeds):
        alone = []
        want = kaczmarz_run(X, y, iters=2_500, seed=s,
                            callback=lambda k, th: alone.append(th.copy()))
        np.testing.assert_array_equal(got[r], want)
        np.testing.assert_array_equal(np.stack([th[r] for _, th in seen]), np.stack(alone))


def test_kaczmarz_lockstep_block_memory_does_not_grow_with_replicates():
    # A block gathers about _PANEL rows of x however many replicates share
    # it.  The (iters, R) draw table is not a block: np.stack builds it
    # from R per-seed draws, alive beside it, and at 256-row blocks that
    # is the peak.  So the bound is twice the table, plus the block being
    # gathered and the one before it with room to spare.
    rng = substream(64)
    X = rng.standard_normal((5_000, 50))
    y = X @ rng.standard_normal(50)
    tracemalloc.start()
    try:
        kaczmarz_run(X, y, iters=5_000, seed=list(range(10)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    table = 5_000 * 10 * 8
    assert peak < 2 * table + 4 * _PANEL * 50 * 8


def test_kaczmarz_passes_read_rows_modulo_d():
    # Three passes over the rows sweep the stacked system without stacking
    # it: the same draws, and bitwise the iterates, of the tiled arrays.
    rng = substream(65)
    X = rng.standard_normal((700, 4))
    y = X @ rng.standard_normal(4) + 0.1 * rng.standard_normal(700)
    seeds = [5, 9]
    walked, tiled = [], []
    got = kaczmarz_run(X, y, iters=2_100, seed=seeds, passes=3,
                       callback=lambda k, th: walked.append(th.copy()))
    want = kaczmarz_run(np.tile(X, (3, 1)), np.tile(y, 3), iters=2_100, seed=seeds,
                        callback=lambda k, th: tiled.append(th.copy()))
    assert got.tobytes() == want.tobytes()
    assert np.stack(walked).tobytes() == np.stack(tiled).tobytes()


def test_regret_hand_case():
    terms = [CensoredTerm(False, 1.0, np.array([1.0]), 1.0, 1.0),
             CensoredTerm(False, -2.0, np.array([2.0]), 1.0, 1.0)]
    traj = [np.array([0.0]), np.array([1.0])]
    ref = np.array([0.5])
    want = sum(loss(t, th) for t, th in zip(terms, traj)) \
        - sum(loss(t, ref) for t in terms)
    assert regret(traj, terms, ref) == pytest.approx(want, rel=1e-12)
    with pytest.raises(DomainError):
        regret(traj, terms[:1], ref)


def test_regret_nonnegative_against_batch_optimum():
    # The comparator minimizing the summed uncensored loss is the LSE;
    # any other fixed point, and so any trajectory, does worse.
    X, y, _ = _stream(63, 40, 3)
    terms = [CensoredTerm(False, float(y[n]), X[n], 1.0, 1.0) for n in range(40)]
    ref = batch_lse(X, y)
    traj = [np.zeros(3)] * 40
    assert regret(traj, terms, ref) >= 0.0


# ---------------------------------------------------------------------
# plan-driven runs
# ---------------------------------------------------------------------

def test_acrls_with_leverage_plan():
    X, y, _ = _stream(71, 300, 4)
    fit = preliminary_fit(zip(y[:50], X[:50]))
    plan = ThresholdPlan.nac_exact(fit.gram_inv, 0.4)
    est = RLS(4, sigma=1.0, plan=plan)
    for n in range(50, 300):
        est.step(y[n], X[n])
    assert 0 < est.kept_count < 250


def test_online_plan_tracks_target():
    X, y, _ = _stream(72, 4000, 10)
    est = RLS(10, sigma=1.0, plan=ThresholdPlan.ac_online(0.5))
    for n in range(4000):
        est.step(y[n], X[n])
    assert 1.0 - est.kept_count / 4000 == pytest.approx(0.5, abs=0.05)


def test_robust_clamps_warmup_schedule():
    # Early offline-schedule thresholds exceed the clip boundary; the
    # estimator must clamp rather than reject them.
    X, y, _ = _stream(73, 200, 5)
    est = RLS(5, sigma=1.0, tau_out=2.0, plan=ThresholdPlan.ac_offline(5, 0.7))
    for n in range(200):
        est.step(y[n], X[n])
    assert est.n == 200
