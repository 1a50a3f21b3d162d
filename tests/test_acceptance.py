"""Acceptance suite: one test per release criterion.

Each test below is a self-contained pass/fail gate over the assembled
toolkit, so `pytest tests/test_acceptance.py -v` reads as a checklist:
threshold calibration, estimator accuracy against reference floors,
identity reductions, analytic-derivative fidelity, baseline
comparisons, outlier robustness, a regret ceiling, and the complexity
ledger.  Everything runs on seeded synthetic data.  Where a criterion
is statistical, the replicate count was sized so the asserted margin
sits several standard errors inside the pass region; the margins were
measured once and are frozen here, not tuned to the suite.
"""

import math
import time

import numpy as np

from cendre.censor import CensorDecision, ThresholdPlan, nac_decide
from cendre.datagen import StreamSpec, materialize
from cendre.estimators import (
    LMS,
    RLS,
    FirstOrderCensoredMLE,
    SecondOrderCensoredMLE,
    StepSize,
    preliminary_fit,
    regret,
)
from cendre.harness import ExperimentConfig, monte_carlo
from cendre.likelihood import CensoredTerm, evaluate, loss
from cendre.numkit import derive, gauss_q, gauss_q_inv, substream

from oracles import central_diff_grad, central_diff_scalar

MASTER = 20260816


def _mc(method, stream, reps, *, censor=None, K=None, record=None, **kw):
    cfg = ExperimentConfig(method=method, seed=MASTER, replicates=reps,
                           stream=stream, censor=censor, K=K,
                           record_at=record, **kw)
    return monte_carlo(cfg)


def _final_rses(result):
    return np.array([t.rse[-1] for t in result.traces])


# ---------------------------------------------------------------------
# 1. threshold calibration against the averaged-leverage tail formula
# ---------------------------------------------------------------------


def test_a01_censor_frequency_matches_tail_formula():
    """With p=100 features and a K=200 warm-up, the fixed-threshold rule
    censors a fraction 1 - 2Q(tau/sqrt(1 + p/K)) of fresh data, within
    0.03 at tau in {0.5, 1.0, 1.5, 2.0} over 100 replicates.

    The preliminary estimate enters only through its error law, which
    for a Gaussian warm-up design is N(0, sigma^2 I / K) to first
    order, so the replicates draw that error directly: theta_o = 0,
    prediction x'zeta with zeta ~ N(0, I/K), observation y = v.
    """
    t0 = time.perf_counter()
    p, K, reps, per = 100, 200, 100, 200
    taus = (0.5, 1.0, 1.5, 2.0)
    rng = substream(MASTER, 1)
    censored = dict.fromkeys(taus, 0)
    for _ in range(reps):
        zeta = rng.standard_normal(p) / math.sqrt(K)
        X = rng.standard_normal((per, p))
        v = rng.standard_normal(per)
        preds = X @ zeta
        for y_i, yhat_i in zip(v, preds):
            for tau in taus:
                if not nac_decide(float(y_i), float(yhat_i), 1.0, tau).kept:
                    censored[tau] += 1
    total = reps * per
    for tau in taus:
        predicted = 1.0 - 2.0 * gauss_q(tau / math.sqrt(1.0 + p / K))
        observed = censored[tau] / total
        assert abs(observed - predicted) <= 0.03, (
            f"tau={tau}: observed {observed:.4f}, predicted {predicted:.4f}")
    assert time.perf_counter() - t0 < 60.0


# ---------------------------------------------------------------------
# 2. tau=1.5 censors about three quarters of a p=30, K=50 stream
# ---------------------------------------------------------------------


def test_a02_fixed_threshold_censors_three_quarters():
    """A preliminary estimate with the K=50 large-sample error law
    N(0, sigma^2 I / K) and threshold tau=1.5 censors 75% +- 5% of a
    p=30, D=5,000 stream (mean over 20 replicates).

    The 75% figure is a property of that error law; a literal 50-row
    fit at p=30 carries the finite-sample leverage inflation
    p/(K-p-1) instead of p/K and censors closer to 63%, which is why
    the threshold table elsewhere uses the exact factor.
    """
    t0 = time.perf_counter()
    p, K, D, tau = 30, 50, 5000, 1.5
    rng = substream(MASTER, 2)
    ratios = []
    for _ in range(20):
        zeta = rng.standard_normal(p) / math.sqrt(K)
        X = rng.standard_normal((D, p))
        v = rng.standard_normal(D)
        preds = X @ zeta
        dropped = sum(
            1 for y_i, yhat_i in zip(v, preds)
            if not nac_decide(float(y_i), float(yhat_i), 1.0, tau).kept)
        ratios.append(dropped / D)
    mean = sum(ratios) / len(ratios)
    assert 0.70 <= mean <= 0.80, f"mean realized censor ratio {mean:.4f}"
    assert time.perf_counter() - t0 < 30.0


# ---------------------------------------------------------------------
# 3. the second-order recursion beats the first-order one
# ---------------------------------------------------------------------


def test_a03_second_order_beats_first_order_and_nears_full_floor():
    """Under the p=30, K=50, tau=1.5 operating point (about 75%
    censored), the information-weighted recursion lands far below the
    plain stochastic-gradient one at n=5,000 and within 2x of the
    full-data RLS floor, averaged over 100 replicates."""
    reps = 100
    stream = StreamSpec(p=30, D=5050, sigma=1.0, seed=MASTER)
    gate = {"kind": "constant", "tau": 1.5}
    first = _mc("samle1", stream, reps, censor=gate, K=50, record=(5000,))
    second = _mc("samle2", stream, reps, censor=gate, K=50, record=(5000,))
    floor = _mc("rls", stream, reps, record=(5050,))
    assert second.mse_mean[-1] < first.mse_mean[-1], (
        f"second-order {second.mse_mean[-1]:.4e} vs first-order {first.mse_mean[-1]:.4e}")
    assert second.mse_mean[-1] <= 2.0 * floor.mse_mean[-1], (
        f"second-order {second.mse_mean[-1]:.4e} vs floor {floor.mse_mean[-1]:.4e}")


# ---------------------------------------------------------------------
# 4. error degrades monotonically with the censoring level
# ---------------------------------------------------------------------


def test_a04_error_grows_with_censoring_level():
    """Thresholds dialed to censor {25, 50, 75, 95}% produce MSEs that
    increase in that order at n=5,000 (100 replicates each), the
    realized censoring frequencies hit their labels within 0.05, and
    the 50% curve stays within 1.5x of the uncensored one.

    The threshold for a target pi uses the exact finite-sample
    leverage mean E[x'(X_K'X_K)^{-1}x] = p/(K-p-1), which at K-p small
    is materially larger than the asymptotic p/K.
    """
    reps, p, K = 100, 30, 50
    stream = StreamSpec(p=p, D=5050, sigma=1.0, seed=MASTER)
    factor = math.sqrt(1.0 + p / (K - p - 1))
    mses = []
    for target in (0.25, 0.50, 0.75, 0.95):
        tau = factor * gauss_q_inv(0.5 * (1.0 - target))
        res = _mc("samle2", stream, reps,
                  censor={"kind": "constant", "tau": tau}, K=K, record=(5000,))
        realized = res.censor_ratio_mean[-1]
        assert abs(realized - target) <= 0.05, (
            f"target {target}: realized censor ratio {realized:.4f}")
        mses.append(res.mse_mean[-1])
    assert mses[0] < mses[1] < mses[2] < mses[3], f"not monotone: {mses}"
    uncensored = _mc("samle2", stream, reps,
                     censor={"kind": "constant", "tau": 0.0}, K=K,
                     record=(5000,)).mse_mean[-1]
    assert mses[1] <= 1.5 * uncensored, (
        f"50% curve {mses[1]:.4e} vs uncensored {uncensored:.4e}")


# ---------------------------------------------------------------------
# 5. steady-state error sits inside the predicted bracket
# ---------------------------------------------------------------------


def test_a05_steady_state_error_sits_in_predicted_bracket():
    """Identity-design AC-RLS at tau=1 ends, after n=10,000 steps with
    p=10 and sigma=1, between the uncensored floor sigma^2 p/n and the
    kept-fraction-inflated ceiling sigma^2 p/(2Q(1) n), each end given
    10% slack (200 replicates)."""
    t0 = time.perf_counter()
    p, D, reps = 10, 10_000, 200
    stream = StreamSpec(p=p, D=D, sigma=1.0, seed=MASTER)
    res = _mc("ac-rls", stream, reps,
              censor={"kind": "constant", "tau": 1.0}, record=(D,))
    lo = p / D
    hi = p / D / (2.0 * gauss_q(1.0))
    mse = res.mse_mean[-1]
    assert 0.9 * lo <= mse <= 1.1 * hi, (
        f"mse {mse:.4e} outside [{0.9 * lo:.4e}, {1.1 * hi:.4e}]")
    assert time.perf_counter() - t0 < 120.0


# ---------------------------------------------------------------------
# 6. gating switched off leaves the classical filters untouched
# ---------------------------------------------------------------------


def test_a06_zero_threshold_and_huge_outlier_bound_reductions():
    """tau=0 keeps everything, so the gated filters must retrace their
    classical twins step for step (max deviation 1e-12 over 10,000
    steps); an effectively infinite outlier bound likewise reduces the
    robust RLS variant to the plain gated one."""
    steps, p = 10_000, 8
    rng = substream(MASTER, 6)
    theta_o = rng.standard_normal(p)
    X = rng.standard_normal((steps, p))
    y = X @ theta_o + rng.standard_normal(steps)

    mu = StepSize.constant(0.01)
    lms = LMS(p, mu)
    aclms = LMS(p, mu, 1.0, plan=ThresholdPlan.constant(0.0))
    rls = RLS(p)
    acrls = RLS(p, sigma=1.0, plan=ThresholdPlan.constant(0.0))
    gated = RLS(p, epsilon=1.0, sigma=1.0, plan=ThresholdPlan.constant(1.0))
    guarded = RLS(p, epsilon=1.0, sigma=1.0, tau_out=1e30,
                  plan=ThresholdPlan.constant(1.0))

    dev_lms = dev_rls = dev_rob = 0.0
    for n in range(steps):
        y_n, x_n = float(y[n]), X[n]
        lms.step(y_n, x_n)
        aclms.step(y_n, x_n)
        rls.step(y_n, x_n)
        acrls.step(y_n, x_n)
        gated.step(y_n, x_n)
        guarded.step(y_n, x_n)
        dev_lms = max(dev_lms, float(np.max(np.abs(lms.theta - aclms.theta))))
        dev_rls = max(dev_rls, float(np.max(np.abs(rls.theta - acrls.theta))))
        dev_rob = max(dev_rob, float(np.max(np.abs(gated.theta - guarded.theta))))
    assert dev_lms <= 1e-12, f"LMS twin deviation {dev_lms:.3e}"
    assert dev_rls <= 1e-12, f"RLS twin deviation {dev_rls:.3e}"
    assert dev_rob <= 1e-12, f"robust twin deviation {dev_rob:.3e}"
    assert acrls.kept_count == steps and guarded.kept_count == gated.kept_count


# ---------------------------------------------------------------------
# 7. score and curvature scalars match finite differences
# ---------------------------------------------------------------------


def test_a07_score_and_curvature_match_finite_differences():
    """Over 10,000 random terms, the analytic per-datum gradient -beta*x
    matches central differences of the loss to 1e-6 relative, and the
    curvature scalar h matches the differentiated score to 1e-5
    relative (plus a 5e-9 floor for the roundoff of the differences
    themselves).  Censored terms always carry 0 < h <= 1/sigma^2.

    Draws keep the prediction offset in (0.3, 6) sigma so neither
    scalar degenerates to zero, where relative error is meaningless.
    """
    rng = substream(MASTER, 7)
    p = 3
    n_censored = 0
    for _ in range(10_000):
        x = rng.standard_normal(p)
        while float(x @ x) < 0.5:
            x = rng.standard_normal(p)
        sigma = float(rng.uniform(0.5, 2.0))
        tau = float(rng.uniform(0.2, 3.0))
        theta = rng.standard_normal(p)
        offset = float(rng.uniform(0.3, 6.0))
        if rng.integers(0, 2):
            offset = -offset
        is_censored = bool(rng.integers(0, 2))
        if is_censored:
            term = CensoredTerm(True, float(x @ theta) - sigma * offset, x, tau, sigma)
        else:
            term = CensoredTerm(False, float(x @ theta) + sigma * offset, x, tau, sigma)
        si = evaluate(term, theta)

        grad_fd = central_diff_grad(lambda t: loss(term, t), theta)
        grad = -si.beta * x
        err = float(np.linalg.norm(grad_fd - grad))
        assert err <= 1e-6 * float(np.linalg.norm(grad)) + 5e-9, (
            f"gradient mismatch {err:.3e} at beta={si.beta:.4f}")

        # beta depends on theta through s = x'theta alone, so moving
        # along u with x'u = 1 differentiates it: d(beta)/ds = -h.
        u = x / float(x @ x)
        slope = central_diff_scalar(
            lambda t: evaluate(term, theta + t * u).beta, 0.0)
        assert abs(slope + si.info) <= 1e-5 * si.info + 5e-9, (
            f"curvature mismatch fd={slope:.6e} h={si.info:.6e}")

        if is_censored:
            n_censored += 1
            assert 0.0 < si.info <= 1.0 / (sigma * sigma) * (1.0 + 1e-12)
        else:
            assert si.info == 1.0 / (sigma * sigma)
    assert n_censored > 3000


# ---------------------------------------------------------------------
# 8. rank-one inverse updates track dense re-inversion
# ---------------------------------------------------------------------


def test_a08_rank_one_inverse_updates_track_dense_inversion():
    """Both recursive inverses (the RLS step matrix and the censored
    recursion's information inverse) stay within 1e-8 relative
    Frobenius error of a from-scratch dense inversion after every one
    of 1,000 random steps at p=20."""
    rng = substream(MASTER, 8)
    p, steps, eps = 20, 1000, 0.7
    theta_o = rng.standard_normal(p)

    est = RLS(p, epsilon=eps)
    M = eps * np.eye(p)
    worst = 0.0
    for _ in range(steps):
        x = rng.standard_normal(p)
        y = float(x @ theta_o) + float(rng.standard_normal())
        est.step(y, x)
        M += np.outer(x, x)
        dense = np.linalg.inv(M)
        rec = est.C / est.n
        worst = max(worst, float(np.linalg.norm(rec - dense) / np.linalg.norm(dense)))
    assert worst <= 1e-8, f"RLS inverse drift {worst:.3e}"

    K, sigma, tau = 40, 1.0, 1.0
    Xw = rng.standard_normal((K, p))
    yw = Xw @ theta_o + rng.standard_normal(K)
    prelim = preliminary_fit(zip(yw, Xw))
    est2 = SecondOrderCensoredMLE(prelim, sigma)
    M2 = (Xw.T @ Xw) / (sigma * sigma)
    worst2 = 0.0
    for _ in range(steps):
        x = rng.standard_normal(p)
        y = float(x @ theta_o) + sigma * float(rng.standard_normal())
        decision = nac_decide(y, float(x @ prelim.theta), sigma, tau)
        term = CensoredTerm(not decision.kept,
                            y if decision.kept else float(x @ prelim.theta),
                            x, tau, sigma)
        h = evaluate(term, est2.theta).info
        est2.step(decision, x, tau)
        M2 += h * np.outer(x, x)
        dense = np.linalg.inv(M2)
        rec = est2.C / est2.n
        worst2 = max(worst2, float(np.linalg.norm(rec - dense) / np.linalg.norm(dense)))
    assert worst2 <= 1e-8, f"information inverse drift {worst2:.3e}"


# ---------------------------------------------------------------------
# 9. adaptive censoring beats the sketching baselines
# ---------------------------------------------------------------------


def test_a09_adaptive_censoring_beats_sketched_baselines():
    """Keeping 30% of a p=50, D=5,000, sigma=3 stream: on a heavy-tailed
    (t, df=3) design the gated RLS beats transform-sketched LS, which
    is no worse than plain uniform row sampling (within two paired
    standard errors); on the Gaussian design the gated RLS beats both
    and the two sketches land within a factor [0.7, 1.4] of each other
    (50 replicates, shared streams across methods)."""
    reps = 50

    def arms(stream):
        ac = _mc("ac-rls", stream, reps,
                 censor={"kind": "ac-offline", "target_pi": 0.7}, record=(5000,))
        sr = _mc("srht", stream, reps, ratio=0.3)
        un = _mc("uniform", stream, reps, ratio=0.3)
        return _final_rses(ac), _final_rses(sr), _final_rses(un)

    heavy = StreamSpec(p=50, D=5000, sigma=3.0, seed=MASTER,
                       design="student-t", df=3.0)
    ac, sr, un = arms(heavy)
    assert ac.mean() < sr.mean(), (
        f"heavy-tailed: gated {ac.mean():.4e} vs sketched {sr.mean():.4e}")
    diff = sr - un
    se = diff.std(ddof=1) / math.sqrt(reps)
    assert diff.mean() < 2.0 * se, (
        f"heavy-tailed: sketched above uniform by {diff.mean():.3e} (se {se:.3e})")

    plain = StreamSpec(p=50, D=5000, sigma=3.0, seed=MASTER)
    ac, sr, un = arms(plain)
    assert ac.mean() < sr.mean() and ac.mean() < un.mean(), (
        f"gaussian: gated {ac.mean():.4e} vs {sr.mean():.4e}/{un.mean():.4e}")
    ratio = sr.mean() / un.mean()
    assert 0.7 <= ratio <= 1.4, f"gaussian: sketch/uniform ratio {ratio:.3f}"


# ---------------------------------------------------------------------
# 10. the outlier guard dominates the plain gated filter
# ---------------------------------------------------------------------


def test_a10_outlier_guard_beats_plain_gating_at_every_budget():
    """With 5% contamination of variance 25 sigma^2 on a p=30, D=10,000
    stream, the clipped-influence variant ends with lower mean RSE
    than the plain gated RLS at every kept fraction in {0.1, 0.3,
    0.5} (100 replicates, shared streams)."""
    reps = 100
    stream = StreamSpec(p=30, D=10_000, sigma=1.0, seed=MASTER,
                        outlier_prob=0.05, outlier_var=25.0)
    for kept in (0.1, 0.3, 0.5):
        gate = {"kind": "ac-offline", "target_pi": 1.0 - kept}
        guard = _mc("rac-rls", stream, reps, censor=gate, record=(10_000,),
                    tau_out=3.0)
        plain = _mc("ac-rls", stream, reps, censor=gate, record=(10_000,))
        assert guard.rse_mean[-1] < plain.rse_mean[-1], (
            f"kept {kept}: guarded {guard.rse_mean[-1]:.4e} "
            f"vs plain {plain.rse_mean[-1]:.4e}")


# ---------------------------------------------------------------------
# 11. constant-gain regret respects its theoretical ceiling
# ---------------------------------------------------------------------


def _batch_censored_minimizer(terms, theta0):
    """Damped Newton on the summed per-term loss (convex in theta)."""
    theta = np.array(theta0, dtype=np.float64)
    p = theta.size
    for _ in range(60):
        grad = np.zeros(p)
        hess = np.zeros((p, p))
        value = 0.0
        for term in terms:
            si = evaluate(term, theta)
            value += si.loss
            grad -= si.beta * term.x
            hess += si.info * np.outer(term.x, term.x)
        ginf = float(np.max(np.abs(grad)))
        if ginf < 1e-9:
            return theta
        step = np.linalg.solve(hess, grad)
        if ginf >= 1e-4:
            scale = 1.0
            cand = theta - step
            while scale > 1e-6:
                cand = theta - scale * step
                if sum(loss(term, cand) for term in terms) <= value:
                    break
                scale *= 0.5
            theta = cand
        else:
            # Inside the quadratic basin the full step descends, but by
            # less than the roundoff of the 500-term value sum, so a
            # backtracking comparison would stall; take it outright.
            theta = theta - step
    raise AssertionError("batch minimizer did not converge")


def test_a11_constant_gain_regret_respects_theoretical_ceiling():
    """On bounded instances (regressors clipped to norm 3, noise clipped
    at 3 sigma), the first-order recursion with the prescribed constant
    gain mu = dist / (sqrt(2D) beta_bar x_bar) accumulates regret
    against the batch optimum of at most sqrt(2D) * dist * x_bar *
    beta_bar, over 20 seeds.

    dist is the distance from the warm start to the batch optimum and
    beta_bar a verified bound on the score scalars the run actually
    encounters: if a run exceeds the working bound, the bound is
    raised and the run repeated, so the premises of the guarantee hold
    by construction before the ceiling is asserted.
    """
    p, K, D, sigma, tau, x_bar = 5, 30, 500, 1.0, 1.0, 3.0
    for s in range(20):
        rng = substream(MASTER, 11, s)
        theta_o = rng.standard_normal(p)

        def draw(count):
            X = rng.standard_normal((count, p))
            norms = np.linalg.norm(X, axis=1)
            X *= np.minimum(1.0, x_bar / norms)[:, None]
            v = np.clip(rng.standard_normal(count), -3.0, 3.0)
            return X, X @ theta_o + sigma * v

        Xw, yw = draw(K)
        prelim = preliminary_fit(zip(yw, Xw))
        Xg, yg = draw(D)
        terms = []
        for x, y in zip(Xg, yg):
            anchor = float(x @ prelim.theta)
            decision = nac_decide(float(y), anchor, sigma, tau)
            terms.append(CensoredTerm(not decision.kept,
                                      float(y) if decision.kept else anchor,
                                      x, tau, sigma))

        theta_star = _batch_censored_minimizer(terms, prelim.theta)
        dist = float(np.linalg.norm(theta_star - prelim.theta))
        beta_bar = 1.5 * max(abs(evaluate(t, prelim.theta).beta) for t in terms)

        for _ in range(4):
            mu = dist / (math.sqrt(2.0 * D) * beta_bar * x_bar)
            est = FirstOrderCensoredMLE(prelim, sigma, StepSize.constant(mu))
            traj = []
            realized = 0.0
            for term in terms:
                traj.append(est.theta.copy())
                realized = max(realized, abs(evaluate(term, est.theta).beta))
                kept = not term.censored
                est.step(CensorDecision(kept, term.y_or_anchor if kept else None),
                         term.x, tau)
            if realized <= beta_bar:
                break
            beta_bar = 1.2 * realized
        assert realized <= beta_bar, f"seed {s}: score bound never stabilized"

        measured = regret(traj, terms, theta_star)
        ceiling = math.sqrt(2.0 * D) * dist * x_bar * beta_bar
        assert measured <= ceiling + 1e-9, (
            f"seed {s}: regret {measured:.4f} over ceiling {ceiling:.4f}")


# ---------------------------------------------------------------------
# 12. the multiply ledger is exact and the wall clock shrinks with it
# ---------------------------------------------------------------------


def test_a12_multiply_ledger_exact_and_wall_clock_shrinks():
    """Gating a p=200, D=20,000 sweep down to ~10% kept makes the
    multiply counter satisfy count = d(2p^2 + 3p) + Dp exactly (d the
    kept count; censored steps pay only the p-multiply innovation) and
    cuts measured wall time at least 3x below the ungated RLS sweep."""
    p, D = 200, 20_000
    X, y = materialize(StreamSpec(p=p, D=D, sigma=1.0, seed=99))
    plan = ThresholdPlan.ac_offline(p, 0.9)

    # Warm the caches (allocator, threshold table) outside the clock.
    warm_full, warm_gated = RLS(p), RLS(p, sigma=1.0, plan=plan)
    for n in range(500):
        warm_full.step(float(y[n]), X[n])
        warm_gated.step(float(y[n]), X[n])

    def sweep(est):
        t0 = time.perf_counter()
        for n in range(D):
            est.step(float(y[n]), X[n])
        return time.perf_counter() - t0

    # Each side's time is its best of three sweeps, alternated, so that a
    # slowdown that lands on one sweep does not decide the ratio.
    wall_full = wall_gated = math.inf
    for _ in range(3):
        full, gated = RLS(p), RLS(p, sigma=1.0, plan=plan)
        wall_full = min(wall_full, sweep(full))
        wall_gated = min(wall_gated, sweep(gated))

        d = gated.kept_count
        assert 0.05 * D <= d <= 0.2 * D, f"kept count {d} far from the 10% target"
        assert gated.multiply_count == d * (2 * p * p + 3 * p) + D * p
        assert full.multiply_count == D * (2 * p * p + 4 * p)
    assert wall_full >= 3.0 * wall_gated, (
        f"wall ratio {wall_full / wall_gated:.2f} below 3 "
        f"({wall_full:.3f}s vs {wall_gated:.3f}s)")
