"""Lockstep replicates against independent oracles.

The harness advances all replicates of a streaming method as one state.
Each replicate is replayed here datum by datum through the plain-loop
oracle of its method in ``oracles``: LMS with the gate and clip written
out, RLS re-inverting its step matrix densely, and the censored-MLE
recursions with beta and h from ``evaluate``.  The lockstep traces must
match the oracle's error curve and final estimate to 1e-10 and its kept
counts and multiply ledger exactly.  The scalar estimator classes, the
one-replicate case of the same kernel, are replayed against the same
oracles.
"""

import json
import math
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import Phase, given, settings, strategies as st

from cendre import estimators, harness
from cendre.censor import ThresholdPlan, nac_decide
from cendre.datagen import StreamSpec, materialize
from cendre.errors import DomainError, SingularityError
from cendre.estimators import (LMS, RLS, FirstOrderCensoredMLE, SecondOrderCensoredMLE,
                               StepSize, kaczmarz_run, preliminary_fit)
from cendre.harness import ExperimentConfig, geometric_schedule, monte_carlo, run_trial
from cendre.ingest import load_csv, surrogate_truth
from cendre.numkit import derive, substream

from oracles import CensoredMLEOracle, LMSOracle, RLSOracle, score_info_gathered

R = 3
TOL = 1e-10


def _scalar_estimator(cfg, p, sigma, prelim):
    method, plan, mu = cfg.method, _plan_of(cfg, p), cfg.mu
    if method == "samle1":
        return FirstOrderCensoredMLE(prelim, sigma, mu or StepSize.diminishing(sigma * sigma))
    if method == "samle2":
        return SecondOrderCensoredMLE(prelim, sigma)
    if method == "lms":
        return LMS(p, mu)
    if method == "rls":
        return RLS(p, epsilon=cfg.epsilon)
    if method == "ac-lms":
        return LMS(p, mu, sigma, plan=plan)
    if method == "rac-lms":
        return LMS(p, mu, sigma, tau_out=cfg.tau_out, plan=plan)
    if method == "ac-rls":
        return RLS(p, sigma=sigma, epsilon=cfg.epsilon, plan=plan)
    return RLS(p, sigma=sigma, tau_out=cfg.tau_out, epsilon=cfg.epsilon, plan=plan)


def _nac_plan(cfg, prelim):
    censor = cfg.censor
    if censor["kind"] == "constant":
        return ThresholdPlan.constant(censor["tau"])
    if censor["kind"] == "nac-exact":
        return ThresholdPlan.nac_exact(prelim.gram_inv, censor["target_pi"])
    return ThresholdPlan.nac_clt(prelim.theta.size, prelim.K, censor["target_pi"])


def _plan_of(cfg, p):
    """The AC threshold plan of a config, or None."""
    kind = (cfg.censor or {}).get("kind")
    if kind == "ac-online":
        return ThresholdPlan.ac_online(cfg.censor["target_pi"])
    if kind == "ac-offline":
        return ThresholdPlan.ac_offline(p, cfg.censor["target_pi"])
    return None


def _oracle(cfg, p, sigma, prelim):
    method, plan = cfg.method, _plan_of(cfg, p)
    if method == "samle1":
        return CensoredMLEOracle(prelim, sigma, cfg.mu or StepSize.diminishing(sigma * sigma))
    if method == "samle2":
        return CensoredMLEOracle(prelim, sigma)
    if method == "lms":
        return LMSOracle(p, cfg.mu)
    if method == "rls":
        return RLSOracle(p, epsilon=cfg.epsilon)
    if method in ("ac-lms", "rac-lms"):
        return LMSOracle(p, cfg.mu, sigma, plan=plan, tau_out=cfg.tau_out)
    return RLSOracle(p, sigma, plan=plan, tau_out=cfg.tau_out, epsilon=cfg.epsilon)


def replay(cfg, X, y, theta_o, sigma, make):
    """Replay one replicate datum by datum through make(cfg, p, sigma,
    prelim), an estimator class or oracle; return its trace as a dict."""
    p = X.shape[1]
    prelim = None
    if cfg.method in ("samle1", "samle2"):
        prelim = preliminary_fit(zip(y[:cfg.K], X[:cfg.K]))
        X, y = X[cfg.K:], y[cfg.K:]
    est = make(cfg, p, sigma, prelim)
    nac_plan = _nac_plan(cfg, prelim) if prelim is not None else None
    fixed = cfg.censor["tau"] if cfg.censor and cfg.censor["kind"] == "constant" else None
    N = len(y)
    marks = set(cfg.record_at or geometric_schedule(N))
    out = {"n": [], "mse": [], "ratio": [], "mult": []}
    for n in range(1, N + 1):
        x, y_n = X[n - 1], float(y[n - 1])
        try:
            if nac_plan is not None:
                tau = nac_plan.threshold(n, x=x)
                est.step(nac_decide(y_n, float(x @ prelim.theta), sigma, tau), x, tau)
            elif cfg.censor is not None:
                est.step(y_n, x, fixed)
            else:
                est.step(y_n, x)
        except SingularityError as exc:
            raise SingularityError(f"{cfg.method} broke down at step {n}: {exc}") from exc
        if n in marks:
            err = est.theta - theta_o
            out["n"].append(n)
            out["mse"].append(float(err @ err))
            out["ratio"].append((n - est.kept_count) / n)
            out["mult"].append(est.multiply_count)
    out["kept"] = est.kept_count
    out["theta"] = est.theta.copy()
    return out


def scalar_trial(cfg, X, y, theta_o, sigma):
    """Replay one replicate through its method's oracle."""
    return replay(cfg, X, y, theta_o, sigma, _oracle)


def assert_matches(trace, want):
    np.testing.assert_array_equal(trace.n, want["n"])
    np.testing.assert_allclose(trace.mse, want["mse"], rtol=TOL, atol=TOL)
    np.testing.assert_array_equal(trace.censor_ratio, want["ratio"])
    np.testing.assert_array_equal(trace.multiplies, want["mult"])
    assert trace.kept_total == want["kept"]
    np.testing.assert_allclose(trace.final_theta, want["theta"], rtol=TOL, atol=TOL)


def _stream_cfg(method, censor=None, D=700, **over):
    stream = StreamSpec(p=4, D=D, sigma=1.0, seed=5, outlier_prob=0.05, outlier_var=25.0)
    if method in ("lms", "ac-lms", "rac-lms"):
        over.setdefault("mu", StepSize.diminishing(0.5))
    if method in ("rac-lms", "rac-rls"):
        over.setdefault("tau_out", 2.5)
    if method in ("samle1", "samle2"):
        over.setdefault("K", 40)
    return ExperimentConfig(method=method, seed=31, replicates=R, stream=stream,
                            censor=censor, **over)


_CONSTANT = {"kind": "constant", "tau": 1.0}
CASES = [
    ("samle1", _CONSTANT), ("samle1", {"kind": "nac-exact", "target_pi": 0.6}),
    ("samle1", {"kind": "nac-clt", "target_pi": 0.6}),
    ("samle2", _CONSTANT), ("samle2", {"kind": "nac-exact", "target_pi": 0.6}),
    ("samle2", {"kind": "nac-clt", "target_pi": 0.8}),
    ("lms", None), ("rls", None),
    ("ac-lms", _CONSTANT), ("ac-lms", {"kind": "ac-offline", "target_pi": 0.7}),
    ("rac-lms", _CONSTANT), ("rac-lms", {"kind": "ac-offline", "target_pi": 0.7}),
    ("ac-rls", _CONSTANT), ("ac-rls", {"kind": "ac-online", "target_pi": 0.6}),
    ("ac-rls", {"kind": "ac-offline", "target_pi": 0.9}),
    ("rac-rls", _CONSTANT), ("rac-rls", {"kind": "ac-online", "target_pi": 0.6}),
    ("rac-rls", {"kind": "ac-offline", "target_pi": 0.7}),
]


# Across panel ends.  rac-rls: the last replicate of a panel steps alone to
# its end (in the first panel, from datum 515 on, clipping outliers), and the
# next panel starts all three in company again.  lms, rls and samle2 step
# every replicate on every datum through two or three panels.
PANELS = [("rac-rls", {"kind": "ac-offline", "target_pi": 0.9}, 2500),
          ("lms", None, 2500), ("rls", None, 2500), ("samle2", _CONSTANT, 1500)]


def _ids(case):
    method, censor = case[:2]
    name = method if censor is None else f"{method}-{censor['kind']}"
    return name if len(case) == 2 else f"{name}-D{case[2]}"


@pytest.mark.parametrize("case", CASES + PANELS, ids=[_ids(c) for c in CASES + PANELS])
def test_lockstep_matches_scalar_classes(case):
    cfg = _stream_cfg(*case)
    res = monte_carlo(cfg)
    spec = cfg.stream.pinned()
    for r, trace in enumerate(res.traces):
        seed = derive(cfg.seed, r)
        assert trace.seed == seed
        X, y = materialize(spec.with_seed(seed))
        assert_matches(trace, scalar_trial(cfg, X, y, spec.theta, spec.sigma))
        # The replicate alone gives the same trace as in company.
        alone = run_trial(cfg, seed)
        for field in ("n", "mse", "censor_ratio", "multiplies", "final_theta"):
            np.testing.assert_array_equal(getattr(alone, field), getattr(trace, field))


@pytest.mark.parametrize("case", CASES + PANELS, ids=[_ids(c) for c in CASES + PANELS])
def test_scalar_classes_match_oracles(case):
    # The single-stream classes step one datum at a time through the
    # kernel's per-datum code, not its rounds.
    cfg = _stream_cfg(*case)
    spec = cfg.stream.pinned()
    for r in range(R):
        X, y = materialize(spec.with_seed(derive(cfg.seed, r)))
        got = replay(cfg, X, y, spec.theta, spec.sigma, _scalar_estimator)
        want = scalar_trial(cfg, X, y, spec.theta, spec.sigma)
        for key in ("n", "ratio", "mult", "kept"):
            assert got[key] == want[key]
        np.testing.assert_allclose(got["mse"], want["mse"], rtol=TOL, atol=TOL)
        np.testing.assert_allclose(got["theta"], want["theta"], rtol=TOL, atol=TOL)


@pytest.mark.parametrize("method", ["samle1", "samle2"])
def test_warm_up_filling_a_panel(method):
    # K fills the first panel exactly, so the NAC steps start on the next.
    cfg = _stream_cfg(method, _CONSTANT, D=estimators._PANEL + 76, K=estimators._PANEL)
    res = monte_carlo(cfg)
    spec = cfg.stream.pinned()
    for r, trace in enumerate(res.traces):
        X, y = materialize(spec.with_seed(derive(cfg.seed, r)))
        assert_matches(trace, scalar_trial(cfg, X, y, spec.theta, spec.sigma))


@pytest.mark.parametrize("method", ["ac-rls", "rls", "samle2", "rac-lms"])
def test_lockstep_dataset_two_passes(tmp_path, monkeypatch, method):
    # The passes are walked, not tiled: at D = 300 the second 256-row
    # panel crosses the pass boundary, at D = 1500 the sixth one does.
    for D in (300, 1500):
        rng = substream(404)
        X = rng.standard_normal((D, 3))
        y = X @ np.array([0.5, -1.0, 2.0]) + 0.3 * rng.standard_normal(D)
        path = tmp_path / f"d{D}.csv"
        path.write_text("a,b,c,y\n" + "".join(
            ",".join(repr(float(v)) for v in (*row, t)) + "\n" for row, t in zip(X, y)))
        doc = {"schema": 1, "method": method, "seed": 2, "replicates": R, "passes": 2,
               "dataset": {"path": str(path), "target_column": "y"}}
        if method == "samle2":
            doc.update(K=20, censor={"kind": "nac-exact", "target_pi": 0.5})
        elif method == "rac-lms":
            doc.update(censor={"kind": "ac-offline", "target_pi": 0.5},
                       estimator={"mu": {"policy": "constant", "value": 0.02}, "tau_out": 3.0})
        elif method == "ac-rls":
            doc.update(censor={"kind": "ac-offline", "target_pi": 0.5})
        cfg = ExperimentConfig.from_dict(doc)
        res = monte_carlo(cfg)
        ds = load_csv(path, "y")
        theta_o, sigma = surrogate_truth(ds)
        tiled = np.tile(ds.design, (2, 1)), np.tile(ds.response, 2)
        want = scalar_trial(cfg, *tiled, theta_o, sigma)
        assert res.traces[0].steps == 2 * D - (20 if method == "samle2" else 0)
        for trace in res.traces:
            assert_matches(trace, want)
        # Bitwise the run of one pass over the tiled rows.
        with monkeypatch.context() as m:
            m.setattr(harness, "_dataset_arrays", lambda *_: (*tiled, theta_o, sigma))
            one = monte_carlo(replace(cfg, passes=1)).traces[0]
        for name in ("n", "mse", "censor_ratio", "multiplies", "final_theta"):
            assert getattr(res.traces[0], name).tobytes() == getattr(one, name).tobytes()


@pytest.mark.parametrize("source", ["dataset", "stream"])
def test_kaczmarz_monte_carlo_matches_single_seed_sweeps(tmp_path, source):
    # On a dataset all replicates draw in one lockstep kaczmarz_run; a
    # synthetic stream gives each replicate its own data and sweep.
    if source == "dataset":
        rng = substream(405)
        X = rng.standard_normal((300, 3))
        y = X @ np.array([0.5, -1.0, 2.0]) + 0.3 * rng.standard_normal(300)
        path = tmp_path / "d.csv"
        path.write_text("a,b,c,y\n" + "".join(
            ",".join(repr(float(v)) for v in (*row, t)) + "\n" for row, t in zip(X, y)))
        cfg = ExperimentConfig.from_dict(
            {"schema": 1, "method": "kaczmarz", "seed": 2, "replicates": R, "passes": 2,
             "dataset": {"path": str(path), "target_column": "y"}})
        ds = load_csv(path, "y")
        theta_o, _ = surrogate_truth(ds)
        data = lambda seed: (np.tile(ds.design, (2, 1)), np.tile(ds.response, 2))
    else:
        cfg = _stream_cfg("kaczmarz")
        spec = cfg.stream.pinned()
        theta_o = spec.theta
        data = lambda seed: materialize(spec.with_seed(seed))
    res = monte_carlo(cfg)
    for r, trace in enumerate(res.traces):
        seed = derive(cfg.seed, r)
        assert trace.seed == seed
        alone = run_trial(cfg, seed)
        for field in ("n", "mse", "censor_ratio", "multiplies", "final_theta"):
            np.testing.assert_array_equal(getattr(alone, field), getattr(trace, field))
        # The error curve is the scalar sweep's, bitwise.
        marks, mse = set(trace.n.tolist()), []

        def observe(k, theta):
            if k in marks:
                err = theta - theta_o
                mse.append(float(err @ err))

        X, y = data(seed)
        final = kaczmarz_run(X, y, iters=len(y), seed=seed, callback=observe)
        np.testing.assert_array_equal(trace.mse, mse)
        np.testing.assert_array_equal(trace.final_theta, final)


def test_lockstep_breakdown_names_the_step():
    # A ridge of -1 starts P at -I.  The first regressor leaves P[0, 0]
    # at -1, so the second, e_1, makes the denominator 1 + x'Px exactly 0.
    cfg = ExperimentConfig(method="rls", seed=1, epsilon=-1.0,
                           stream=StreamSpec(p=2, D=4, sigma=1.0, seed=1))
    X = np.array([[0.0, 0.5], [1.0, 0.0], [1.0, 1.0], [2.0, 1.0]])
    y = np.ones(4)
    with pytest.raises(SingularityError) as scalar:
        scalar_trial(cfg, X, y, cfg.stream.pinned().theta, 1.0)
    with pytest.raises(SingularityError) as lockstep:
        run_trial(cfg, 7, data=(X, y))
    assert str(lockstep.value) == str(scalar.value) == \
        "rls broke down at step 2: update denominator vanished"
    # A zero threshold keeps every datum, so the gated method breaks down at
    # the same step, through the kernel that steps only the kept rows.
    cfg = replace(cfg, method="ac-rls", censor={"kind": "constant", "tau": 0.0})
    with pytest.raises(SingularityError) as scalar:
        scalar_trial(cfg, X, y, cfg.stream.pinned().theta, 1.0)
    with pytest.raises(SingularityError) as lockstep:
        run_trial(cfg, 7, data=(X, y))
    assert str(lockstep.value) == str(scalar.value) == \
        "ac-rls broke down at step 2: update denominator vanished"


def test_batched_breakdown_ignores_only_nan_rows():
    # A NaN denominator (replicate 1) is no breakdown; an exact zero
    # (replicate 0, P = -I at e_1) is one, whatever the other rows hold.
    P = np.stack([-np.eye(2), np.full((2, 2), math.nan), np.eye(2)])
    x = np.array([[1.0, 0.0], [1.0, 0.0], [1.0, 0.0]])
    run = estimators._Lockstep("rls", 3, 2, 1.0, P=P, marks=(10,), theta_o=np.zeros(2))
    with pytest.raises(SingularityError, match="rls broke down at step 7: update denominator"):
        run.update(None, x, np.ones(3), None, 7)
    run = estimators._Lockstep("rls", 2, 2, 1.0, P=P[1:], marks=(10,), theta_o=np.zeros(2))
    run.update(None, x[1:], np.ones(2), None, 7)
    assert np.isnan(run.theta[0]).all() and np.isfinite(run.theta[1]).all()


def test_nac_loop_matches_gathered_score_without_warnings(monkeypatch):
    # The NAC loop evaluates the interval formulas on kept data as well; at
    # tau = 0 their P = Q(z_l) - Q(z_u) is 0.  The loop must not warn, and
    # must step exactly as with the gather/scatter score_info.
    rng = np.random.default_rng(41)
    m, R, p = 80, 4, 3
    X = rng.normal(size=(m, R, p))
    y_hat = rng.normal(size=(m, R))
    Y = y_hat + rng.normal(size=(m, R))
    tau = np.where(rng.random((m, R)) < 0.4, 0.0, rng.uniform(0.5, 2.0, size=(m, R)))
    censored = np.abs(Y - y_hat) < tau
    assert censored.any() and (~censored & (tau > 0.0)).any() and (tau == 0.0).any()
    theta, P = rng.normal(size=(R, p)), np.stack([np.eye(p)] * R)

    def stepped():
        run = estimators._Lockstep("samle2", R, p, 1.0, theta, P)
        run.every_panel(Y, X, y_hat, tau)
        return run

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        run = stepped()
    monkeypatch.setattr(estimators, "score_info", lambda c, y, fit, _, sigma, offsets:
                        score_info_gathered(c, y, fit, offsets[1], sigma))
    want = stepped()
    assert run.theta.tobytes() == want.theta.tobytes()
    assert run.P.tobytes() == want.P.tobytes()
    np.testing.assert_array_equal(run.kept, (~censored).sum(axis=0))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("case", CASES, ids=[_ids(c) for c in CASES])
def test_lockstep_non_finite_input_behaves_as_scalar(case, bad):
    cfg = _stream_cfg(*case)
    spec = cfg.stream.pinned()
    X, y = materialize(spec.with_seed(9))
    y = y.copy()
    y[(cfg.K or 0) + 57] = bad
    try:
        want = scalar_trial(cfg, X, y, spec.theta, spec.sigma)
    except DomainError as exc:
        with pytest.raises(DomainError, match=re.escape(str(exc))):
            run_trial(cfg, 9, data=(X, y))
        return
    trace = run_trial(cfg, 9, data=(X, y))
    np.testing.assert_array_equal(trace.multiplies, want["mult"])
    np.testing.assert_array_equal(trace.censor_ratio, want["ratio"])
    np.testing.assert_allclose(trace.mse, want["mse"], rtol=TOL, atol=TOL)
    np.testing.assert_allclose(trace.final_theta, want["theta"], rtol=TOL, atol=TOL)


GATED_RLS = [c for c in CASES if c[0] in ("ac-rls", "rac-rls")]
APART = GATED_RLS + [("lms", None), ("rls", None), ("samle2", _CONSTANT)]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("where", ["x", "y"])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("case", APART, ids=[_ids(c) for c in APART])
def test_lockstep_non_finite_replicate_stays_apart(monkeypatch, case, bad, where):
    # Replicate 1 of 3 gets one non-finite datum.  The kept-row kernel
    # computes Px from every row's x, so a write to a row that does not
    # step would carry the NaN into the other replicates; the every-datum
    # loop steps all rows at once.
    cfg = _stream_cfg(*case)
    spec = cfg.stream.pinned()
    seeds = [derive(cfg.seed, r) for r in range(R)]
    at = 57

    def damage(X, y, i):
        X, y = X.copy(), y.copy()
        if where == "x":
            X[i, 2] = bad
        else:
            y[i] = bad
        return X, y

    real_generate = harness.generate

    def generate(s, panels=False):
        start = 0
        for Y, X in real_generate(s, panels=panels):
            if s.seed == seeds[1] and start <= at < start + len(Y):
                X, Y = damage(X, Y, at - start)
            start += len(Y)
            yield Y, X

    monkeypatch.setattr(harness, "generate", generate)
    X, y = damage(*materialize(spec.with_seed(seeds[1])), at)
    try:
        want = scalar_trial(cfg, X, y, spec.theta, spec.sigma)
    except DomainError as exc:
        # With tau_out the robust rule raises on the damaged innovation,
        # and NAC censoring on the damaged datum, and that ends the whole
        # run, with the replicate's own values.
        with pytest.raises(DomainError, match=re.escape(str(exc))):
            monte_carlo(cfg)
        return
    res = monte_carlo(cfg)
    damaged = res.traces[1]
    np.testing.assert_array_equal(damaged.multiplies, want["mult"])
    np.testing.assert_array_equal(damaged.censor_ratio, want["ratio"])
    np.testing.assert_allclose(damaged.mse, want["mse"], rtol=TOL, atol=TOL)
    np.testing.assert_allclose(damaged.final_theta, want["theta"], rtol=TOL, atol=TOL)
    for r in (0, 2):
        alone = run_trial(cfg, seeds[r])
        for field in ("n", "mse", "censor_ratio", "multiplies", "final_theta"):
            np.testing.assert_array_equal(getattr(alone, field), getattr(res.traces[r], field))


def _recording(runs):
    """A kernel class that appends each kernel to runs once its traces are read."""

    class Recorded(estimators._Lockstep):
        def traces(self, *args):
            runs.append(self)
            return super().traces(*args)

    return Recorded


@pytest.fixture
def recorded(monkeypatch):
    """The kernels the harness builds, each appended once its traces are read."""
    runs = []
    monkeypatch.setattr(harness, "_Lockstep", _recording(runs))
    return runs


def _kept_flags(cfg, X, y, spec):
    """Per datum, whether the scalar class keeps it."""
    est = _scalar_estimator(cfg, X.shape[1], spec.sigma, None)
    fixed = cfg.censor["tau"] if cfg.censor["kind"] == "constant" else None
    return np.array([est.step(float(y_n), x, fixed)[1].kept for x, y_n in zip(X, y)])


@pytest.mark.parametrize("case", GATED_RLS, ids=[_ids(c) for c in GATED_RLS])
def test_lockstep_rounds_follow_the_kept_count(recorded, case):
    # Each replicate jumps to its own next kept datum, so a round is not a
    # datum that some replicate keeps: there are fewer rounds than such
    # data, and no fewer than the kept count of the busiest replicate.
    cfg = _stream_cfg(*case)
    spec = cfg.stream.pinned()
    res = monte_carlo(cfg)
    (run,) = recorded
    kept = np.array([_kept_flags(cfg, *materialize(spec.with_seed(derive(cfg.seed, r))), spec)
                     for r in range(R)])
    np.testing.assert_array_equal(kept.sum(axis=1), [t.kept_total for t in res.traces])
    assert kept.sum(axis=1).max() <= run.rounds < kept.any(axis=0).sum()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("method", ["ac-rls", "rac-rls"])
def test_lockstep_failure_names_the_replicate_own_step(monkeypatch, method):
    # Only replicate 1 fails, at its datum 58, while the others stand
    # elsewhere in the panel.  ac-rls starts from P = -I and keeps nothing
    # before that datum, e_0 with a huge y, so 1 + x'Px vanishes there.
    # rac-rls meets a NaN in x, which makes that step's own online tau NaN,
    # and the robust rule names the bad tau.
    at = 57
    if method == "ac-rls":
        cfg = _stream_cfg(method, {"kind": "constant", "tau": 50.0}, epsilon=-1.0)
    else:
        cfg = _stream_cfg(method, {"kind": "ac-online", "target_pi": 0.6})
    spec = cfg.stream.pinned()
    seeds = [derive(cfg.seed, r) for r in range(R)]

    def damage(X, y, i):
        X, y = X.copy(), y.copy()
        if method == "ac-rls":
            X[i], y[i] = np.eye(X.shape[1])[0], 1e3
        else:
            X[i, 2] = math.nan
        return X, y

    real_generate = harness.generate

    def generate(s, panels=False):
        for Y, X in real_generate(s, panels=panels):
            if s.seed == seeds[1]:
                X, Y = damage(X, Y, at)
            yield Y, X

    monkeypatch.setattr(harness, "generate", generate)
    X, y = damage(*materialize(spec.with_seed(seeds[1])), at)
    error = SingularityError if method == "ac-rls" else DomainError
    with pytest.raises(error) as scalar:
        scalar_trial(cfg, X, y, spec.theta, spec.sigma)
    with pytest.raises(error) as lockstep:
        monte_carlo(cfg)
    assert str(lockstep.value) == str(scalar.value)
    assert str(scalar.value) == ("ac-rls broke down at step 58: update denominator vanished"
                                 if method == "ac-rls" else "tau must be non-negative and finite")


@pytest.mark.parametrize("method", ["ac-rls", "rac-rls"])
def test_lockstep_marks_inside_jumps(method):
    # A mark at every step: many fall inside a censored stretch that a
    # replicate jumps over, and each must read the theta before the jump.
    cfg = _stream_cfg(method, {"kind": "ac-offline", "target_pi": 0.9},
                      record_at=tuple(range(1, 301)))
    spec = cfg.stream.pinned()
    res = monte_carlo(cfg)
    for r, trace in enumerate(res.traces):
        seed = derive(cfg.seed, r)
        kept = np.rint(trace.n * (1.0 - trace.censor_ratio))
        assert (np.diff(kept) == 0).sum() > 100  # marks on censored data
        alone = run_trial(cfg, seed)
        for field in ("n", "mse", "censor_ratio", "multiplies", "final_theta"):
            np.testing.assert_array_equal(getattr(alone, field), getattr(trace, field))
        X, y = materialize(spec.with_seed(seed))
        assert_matches(trace, scalar_trial(cfg, X, y, spec.theta, spec.sigma))


@pytest.mark.xfail(reason="FOUND 12", raises=AssertionError)
def test_rac_rls_ac_online_tracks_its_target():
    # rac-rls with an ac-online plan keeps almost every datum and
    # diverges on a stream with outliers, where ac-rls converges.
    stream = StreamSpec(p=30, D=500, sigma=1.0, seed=3, outlier_prob=0.05, outlier_var=25.0)
    censor = {"kind": "ac-online", "target_pi": 0.6}
    robust, plain = (monte_carlo(ExperimentConfig(method=method, seed=3, replicates=1,
                                                  stream=stream, censor=censor, **over)).traces[0]
                     for method, over in (("rac-rls", {"tau_out": 3.0}), ("ac-rls", {})))
    assert abs(robust.censor_ratio[-1] - 0.6) <= 0.1
    assert robust.mse[-1] <= 10.0 * plain.mse[-1]


@pytest.mark.parametrize("method, R, D", [("rls", 50, 20_000), ("rls", 1, 20_000),
                                          ("rac-rls", 20, 10_000), ("samle2", 20, 5_000)])
def test_step_matrix_stays_symmetric_positive_definite(recorded, method, R, D):
    # rls with R = 50 and D = 20,000 is 10^6 replicate steps of the
    # Sherman-Morrison update; R = 1 takes the one-row update of a lone replicate.
    # rls and rac-rls start from the exactly symmetric ridge prior, and
    # every step and fold keeps the step matrix exactly symmetric.
    stream = StreamSpec(p=8, D=D, sigma=1.0, seed=17, outlier_prob=0.05, outlier_var=25.0)
    over = {"rac-rls": {"tau_out": 3.0, "censor": {"kind": "ac-offline", "target_pi": 0.7}},
            "samle2": {"K": 40, "censor": {"kind": "constant", "tau": 1.0}}}.get(method, {})
    monte_carlo(ExperimentConfig(method=method, seed=23, replicates=R, stream=stream, **over))
    (run,) = recorded
    for P in run.P:
        np.linalg.cholesky(P)
        assert np.abs(P - P.T).max() / np.abs(P).max() < 1e-8
        if method != "samle2":
            assert np.array_equal(P, P.T)


# ---------------------------------------------------------------------
# Properties of the kernel over drawn configs
# ---------------------------------------------------------------------

def _censor_kinds(method):
    if method in harness.NAC_METHODS:
        return harness._NAC_CENSOR_KINDS
    if method in harness.AC_METHODS:  # ac-online needs the RLS step matrix
        return tuple(kind for kind in harness._AC_CENSOR_KINDS
                     if kind != "ac-online" or method.endswith("rls"))
    return (None,)


# Every streaming method with every censor kind that suits it, so that a
# few derandomized examples each reach all of them.
SUITED = [(method, kind) for method in harness.STREAM_METHODS for kind in _censor_kinds(method)]


@st.composite
def stream_configs(draw, method, kind):
    """A config of method with a censor of kind: tau_out for rac-*, R in
    [1, 6] replicates of a p in [1, 8] stream of D in [3p + 20, 700] data,
    with outliers or none."""
    p = draw(st.integers(1, 8))
    outliers = draw(st.booleans())
    stream = StreamSpec(p=p, D=draw(st.integers(3 * p + 20, 700)), sigma=1.0,
                        seed=draw(st.integers(0, 2**16)), outlier_prob=0.05 * outliers,
                        outlier_var=25.0 * outliers)
    over, censor = {}, None
    if method in harness.NAC_METHODS:
        over["K"] = draw(st.integers(2 * p + 5, 3 * p + 15))
    if method.startswith("rac-"):
        over["tau_out"] = draw(st.floats(2.0, 4.0))
    if method.endswith("lms"):
        over["mu"] = StepSize.diminishing(draw(st.floats(0.1, 1.0)))
    if kind == "constant":
        censor = {"kind": kind, "tau": draw(st.floats(0.3, 1.8))}
    elif kind is not None:
        censor = {"kind": kind, "target_pi": draw(st.floats(0.2, 0.9))}
    return ExperimentConfig(method=method, seed=draw(st.integers(0, 2**16)),
                            replicates=draw(st.integers(1, 6)), stream=stream, censor=censor,
                            **over)


@pytest.mark.parametrize("method, kind", SUITED)
@settings(max_examples=4)
@given(data=st.data())
def test_every_replicate_is_its_run_alone(method, kind, data):
    cfg = data.draw(stream_configs(method, kind))
    for r, trace in enumerate(monte_carlo(cfg).traces):
        alone = run_trial(cfg, derive(cfg.seed, r))
        for field in ("n", "mse", "censor_ratio", "multiplies", "final_theta"):
            assert getattr(alone, field).tobytes() == getattr(trace, field).tobytes(), field


# rac-* is left out: its ledger also counts clipped data, which a trace does not carry.
@pytest.mark.parametrize("method, kind", [c for c in SUITED if not c[0].startswith("rac-")])
@settings(max_examples=5)
@given(data=st.data())
def test_multiplies_follow_the_ledger(method, kind, data):
    cfg = data.draw(stream_configs(method, kind))
    every, per_kept, _ = estimators._multiplies(method, cfg.stream.p, kind == "ac-online")
    for trace in monte_carlo(cfg).traces:
        kept = trace.n - np.rint(trace.n * trace.censor_ratio).astype(np.int64)
        assert kept[-1] == trace.kept_total
        np.testing.assert_array_equal(trace.multiplies, trace.n * every + kept * per_kept)


# The single-stream classes: every gated LMS and RLS method, and the open ones.
CLASSED = [c for c in SUITED if c[0] not in harness.NAC_METHODS]


@pytest.mark.parametrize("method, kind", CLASSED)
@settings(max_examples=3)
@given(data=st.data())
def test_class_matches_its_run_and_its_oracle(method, kind, data):
    cfg = data.draw(stream_configs(method, kind))
    spec = cfg.stream.pinned()
    seed = derive(cfg.seed, 0)
    X, y = materialize(spec.with_seed(seed))
    got = replay(cfg, X, y, spec.theta, spec.sigma, _scalar_estimator)
    assert_matches(run_trial(cfg, seed, data=(X, y)), got)
    want = scalar_trial(cfg, X, y, spec.theta, spec.sigma)
    for key in ("n", "ratio", "mult", "kept"):
        assert got[key] == want[key]
    np.testing.assert_allclose(got["mse"], want["mse"], rtol=TOL, atol=TOL)
    np.testing.assert_allclose(got["theta"], want["theta"], rtol=TOL, atol=TOL)


# ac-online is left out: its plan reads x'Px, which a restored estimator,
# given its taus, neither needs nor charges.
@pytest.mark.parametrize("method, kind", [c for c in CLASSED if c[1] != "ac-online"])
@settings(max_examples=3)
@given(data=st.data())
def test_restored_class_resumes_bitwise(method, kind, data):
    cfg = data.draw(stream_configs(method, kind))
    spec = cfg.stream.pinned()
    X, y = materialize(spec.with_seed(derive(cfg.seed, 0)))
    at = data.draw(st.integers(0, len(y)), label="snapshot after step")
    est = _scalar_estimator(cfg, X.shape[1], spec.sigma, None)
    fixed = cfg.censor["tau"] if kind == "constant" else None

    def tau(n, x):  # the tau the original's plan gives step n, under the clip
        if kind is None or fixed is not None:
            return fixed
        return min(est.plan.threshold(n, x=x), cfg.tau_out or math.inf)

    for n in range(at):
        est.step(float(y[n]), X[n], fixed)
    twin = estimators.from_snapshot(json.loads(json.dumps(est.snapshot())))
    for n in range(at, len(y)):
        given = tau(n + 1, X[n])
        est.step(float(y[n]), X[n], fixed)
        twin.step(float(y[n]), X[n], given)
    names = ("theta", "P_base", "pending") if method.endswith("rls") else ("theta",)
    for name in names:
        assert getattr(est, name).tobytes() == getattr(twin, name).tobytes(), name
    for name in ("n", "kept_count", "multiply_count"):
        assert getattr(est, name) == getattr(twin, name), name


@pytest.mark.parametrize("method, kind", [c for c in SUITED if c[0].endswith("rls")])
@settings(max_examples=3)
@given(data=st.data())
def test_step_matrix_is_exactly_symmetric(method, kind, data):
    cfg = data.draw(stream_configs(method, kind))
    runs = []
    with pytest.MonkeyPatch.context() as m:
        m.setattr(harness, "_Lockstep", _recording(runs))
        monte_carlo(cfg)
    (run,) = runs
    assert np.array_equal(run.P, run.P.transpose(0, 2, 1))


# A non-finite datum raises out of the whole run where a rule checks it:
# the robust rule of rac-* and the NAC censor of samle*.  Each family is one
# case that draws its pairs, for each expected failure costs its report.
_RAISING = {"rac": "CHANGES.md FOUND 9", "samle": "CHANGES.md FOUND 68"}


def _bad_datum_cases():
    for family, found in _RAISING.items():
        pairs = [c for c in SUITED if c[0].startswith(family)]
        yield pytest.param(pairs, id=family, marks=pytest.mark.xfail(
            reason=found, raises=DomainError, strict=True))
    for method, kind in SUITED:
        if not method.startswith(tuple(_RAISING)):
            yield pytest.param([(method, kind)], id=f"{method}-{kind}")


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("pairs", _bad_datum_cases())
@settings(max_examples=3, phases=(Phase.explicit, Phase.generate))
@given(data=st.data())
def test_bad_datum_stays_in_its_replicate(pairs, data):
    method, kind = data.draw(st.sampled_from(pairs), label="method, kind")
    cfg = data.draw(stream_configs(method, kind))
    cfg = replace(cfg, replicates=max(cfg.replicates, 2))
    seeds = [derive(cfg.seed, r) for r in range(cfg.replicates)]
    hurt = data.draw(st.integers(0, cfg.replicates - 1), label="replicate")
    at = data.draw(st.integers(cfg.K or 0, cfg.stream.D - 1), label="datum")
    bad = data.draw(st.sampled_from([math.nan, math.inf, -math.inf]), label="value")
    col = data.draw(st.integers(-1, cfg.stream.p - 1), label="x column, or -1 for y")
    real_generate = harness.generate

    def generate(s, panels=False):
        start = 0
        for Y, X in real_generate(s, panels=panels):
            if s.seed == seeds[hurt] and start <= at < start + len(Y):
                X, Y = X.copy(), Y.copy()
                if col < 0:
                    Y[at - start] = bad
                else:
                    X[at - start, col] = bad
            start += len(Y)
            yield Y, X

    with pytest.MonkeyPatch.context() as m:
        m.setattr(harness, "generate", generate)
        res = monte_carlo(cfg)
    for r, seed in enumerate(seeds):
        if r != hurt:
            alone = run_trial(cfg, seed)
            for field in ("n", "mse", "censor_ratio", "multiplies", "final_theta"):
                assert getattr(alone, field).tobytes() == getattr(res.traces[r], field).tobytes()
