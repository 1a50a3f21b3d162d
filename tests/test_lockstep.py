"""Lockstep replicates against the single-stream estimator classes.

The harness advances all replicates of a streaming method as one state.
The scalar classes in ``cendre.estimators`` stay the reference: each
replicate is replayed here datum by datum through the class the method
names, and the lockstep traces must match its error curve and final
estimate to 1e-10 and its kept counts and multiply ledger exactly.
"""

import math
import re
from dataclasses import replace

import numpy as np
import pytest

from cendre import harness
from cendre.censor import ThresholdPlan, nac_decide
from cendre.datagen import StreamSpec, materialize
from cendre.errors import DomainError, SingularityError
from cendre.estimators import (LMS, RLS, FirstOrderCensoredMLE, SecondOrderCensoredMLE,
                               StepSize, kaczmarz_run, preliminary_fit)
from cendre.harness import ExperimentConfig, geometric_schedule, monte_carlo, run_trial
from cendre.ingest import load_csv, surrogate_truth
from cendre.numkit import derive, substream

R = 3
TOL = 1e-10


def _scalar_estimator(cfg, p, sigma, prelim):
    method, censor = cfg.method, cfg.censor or {}
    kind = censor.get("kind")
    plan = None
    if kind == "ac-online":
        plan = ThresholdPlan.ac_online(censor["target_pi"])
    elif kind == "ac-offline":
        plan = ThresholdPlan.ac_offline(p, censor["target_pi"])
    mu = cfg.mu
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


def scalar_trial(cfg, X, y, theta_o, sigma):
    """Replay one replicate datum by datum; return its trace as a dict."""
    p = X.shape[1]
    prelim = None
    if cfg.method in ("samle1", "samle2"):
        prelim = preliminary_fit(zip(y[:cfg.K], X[:cfg.K]))
        X, y = X[cfg.K:], y[cfg.K:]
    est = _scalar_estimator(cfg, p, sigma, prelim)
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


# Three panels.  The last replicate of a panel steps alone to its end (in
# the first panel, from datum 515 on, clipping outliers), and the next panel
# starts all three in company again.
PANELS = [("rac-rls", {"kind": "ac-offline", "target_pi": 0.9}, 2500)]


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


@pytest.mark.parametrize("method", ["ac-rls", "rls", "samle2", "rac-lms"])
def test_lockstep_dataset_two_passes(tmp_path, method):
    rng = substream(404)
    X = rng.standard_normal((300, 3))
    y = X @ np.array([0.5, -1.0, 2.0]) + 0.3 * rng.standard_normal(300)
    path = tmp_path / "d.csv"
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
    want = scalar_trial(cfg, np.tile(ds.design, (2, 1)), np.tile(ds.response, 2),
                        theta_o, sigma)
    assert res.traces[0].steps == 600 - (20 if method == "samle2" else 0)
    for trace in res.traces:
        assert_matches(trace, want)


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


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("where", ["x", "y"])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("case", GATED_RLS, ids=[_ids(c) for c in GATED_RLS])
def test_lockstep_non_finite_replicate_stays_apart(monkeypatch, case, bad, where):
    # Replicate 1 of 3 gets one non-finite datum.  The kept-row kernel
    # computes Px from every row's x, so a write to a row that does not
    # step would carry the NaN into the other replicates.
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
        # and that ends the whole run, with the replicate's own tau.
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


def _kept_flags(cfg, X, y, spec):
    """Per datum, whether the scalar class keeps it."""
    est = _scalar_estimator(cfg, X.shape[1], spec.sigma, None)
    fixed = cfg.censor["tau"] if cfg.censor["kind"] == "constant" else None
    return np.array([est.step(float(y_n), x, fixed)[1].kept for x, y_n in zip(X, y)])


@pytest.mark.parametrize("case", GATED_RLS, ids=[_ids(c) for c in GATED_RLS])
def test_lockstep_rounds_follow_the_kept_count(monkeypatch, case):
    # Each replicate jumps to its own next kept datum, so a round is not a
    # datum that some replicate keeps: there are fewer rounds than such
    # data, and no fewer than the kept count of the busiest replicate.
    cfg = _stream_cfg(*case)
    spec = cfg.stream.pinned()
    runs = []

    class Recorded(harness._Lockstep):
        def traces(self, *args):
            runs.append(self)
            return super().traces(*args)

    monkeypatch.setattr(harness, "_Lockstep", Recorded)
    res = monte_carlo(cfg)
    (run,) = runs
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
