"""Monte Carlo experiment runner.

Wires a data source (synthetic stream or CSV dataset) through a
censoring rule into an estimator, records error and cost metrics on a
compact schedule, repeats over derived replicate seeds, and aggregates.
The replicates of a streaming method advance in lockstep, as one state
(see ``_Lockstep``); the single-stream estimator classes are the
reference it is tested against.

Everything is reproducible: replicate r of a config with seed s runs
on child seed derive(s, r), the true coefficients are resolved once
from the master seed and shared by all replicates, and result files
contain no timestamps, so identical (config, seed) runs emit identical
bytes.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
from dataclasses import dataclass, field, replace
from functools import lru_cache
from pathlib import Path

import numpy as np
from scipy.linalg.blas import dgemm

from .censor import ThresholdPlan, nac_decide, robust_decide
from .datagen import StreamSpec, generate, materialize, toeplitz_cov
from .errors import ConfigError, DomainError, SingularityError
from .estimators import (_PANEL, _SINGULAR_TOL, StepSize, default_ridge, kaczmarz_run,
                         preliminary_fit)
from .ingest import load_csv, surrogate_truth
from .likelihood import score_info
from .numkit.gaussian import gauss_pdf, gauss_q, gauss_q_inv
from .numkit.rng import derive
from .sketch import solve_reduced, srht_reduce, uniform_reduce

__all__ = [
    "ExperimentConfig",
    "TrialTrace",
    "MonteCarloResult",
    "run_trial",
    "monte_carlo",
    "prop_bounds",
    "geometric_schedule",
    "RESULT_COLUMNS",
    "result_rows",
    "write_results_csv",
    "write_summary_json",
    "run_experiment",
]

NAC_METHODS = ("samle1", "samle2")
AC_METHODS = ("ac-lms", "ac-rls", "rac-lms", "rac-rls")
PLAIN_METHODS = ("lms", "rls", "kaczmarz")
BATCH_METHODS = ("srht", "uniform")
ALL_METHODS = NAC_METHODS + AC_METHODS + PLAIN_METHODS + BATCH_METHODS
# Methods that consume the stream datum by datum through a recursion.
STREAM_METHODS = NAC_METHODS + AC_METHODS + ("lms", "rls")
_FIRST_ORDER = ("samle1", "lms", "ac-lms", "rac-lms")

_NAC_CENSOR_KINDS = ("constant", "nac-exact", "nac-clt")
_AC_CENSOR_KINDS = ("constant", "ac-online", "ac-offline")


def geometric_schedule(N: int) -> tuple[int, ...]:
    """Powers of two up to N, plus both endpoints."""
    if N < 1:
        raise DomainError("schedule needs N >= 1")
    marks = {1, int(N)}
    k = 1
    while k <= N:
        marks.add(k)
        k *= 2
    return tuple(sorted(marks))


@dataclass(frozen=True, eq=False)
class ExperimentConfig:
    """One experiment: data source, method, censoring, replication.

    Construct directly or from a JSON document via from_dict, which
    validates field by field.  censor is a normalized mapping such as
    {"kind": "constant", "tau": 1.5} or {"kind": "ac-offline",
    "target_pi": 0.75}.
    """

    method: str
    seed: int
    replicates: int = 1
    stream: StreamSpec | None = None
    dataset_path: str | None = None
    dataset_options: dict = field(default_factory=dict)
    K: int | None = None
    mu: StepSize | None = None
    epsilon: float | None = None
    censor: dict | None = None
    tau_out: float | None = None
    ratio: float | None = None
    record_at: tuple[int, ...] | None = None
    passes: int = 1
    raw: dict | None = None

    def __post_init__(self):
        if self.method not in ALL_METHODS:
            raise ConfigError(f"unknown method {self.method!r}; choose from {sorted(ALL_METHODS)}")
        if self.seed < 0:
            raise ConfigError("field 'seed' must be nonnegative")
        if self.replicates < 1:
            raise ConfigError("field 'replicates' must be >= 1")
        if (self.stream is None) == (self.dataset_path is None):
            raise ConfigError("exactly one of 'stream' and 'dataset' is required")
        if self.passes < 1:
            raise ConfigError("field 'passes' must be >= 1")
        if self.passes > 1 and self.dataset_path is None:
            raise ConfigError("field 'passes' > 1 only applies to dataset runs")
        self._check_censor()
        if self.method in NAC_METHODS:
            if self.K is None:
                raise ConfigError(f"field 'K' is required for method {self.method!r}")
            if self.K < 1:
                raise ConfigError("field 'K' must be >= 1")
        if self.method in BATCH_METHODS:
            if self.ratio is None:
                raise ConfigError(f"field 'ratio' is required for method {self.method!r}")
            if not 0.0 < self.ratio <= 1.0:
                raise ConfigError("field 'ratio' must lie in (0, 1]")
        if self.method in ("rac-lms", "rac-rls"):
            if self.tau_out is None:
                raise ConfigError(f"field 'tau_out' is required for method {self.method!r}")
            if self.tau_out <= 0.0:
                raise ConfigError("field 'tau_out' must be positive")
        if self.record_at is not None:
            marks = tuple(int(n) for n in self.record_at)
            if not marks or any(n < 1 for n in marks):
                raise ConfigError("field 'record_at' must list steps >= 1")
            object.__setattr__(self, "record_at", tuple(sorted(set(marks))))

    def _check_censor(self):
        c = self.censor
        if self.method in NAC_METHODS:
            kinds = _NAC_CENSOR_KINDS
        elif self.method in AC_METHODS:
            kinds = _AC_CENSOR_KINDS
        else:
            if c is not None:
                raise ConfigError(f"method {self.method!r} takes no 'censor' section")
            return
        if c is None:
            raise ConfigError(f"method {self.method!r} requires a 'censor' section")
        kind = c.get("kind")
        if kind not in kinds:
            raise ConfigError(
                f"censor kind {kind!r} is incompatible with method {self.method!r}; "
                f"allowed: {list(kinds)}")
        if kind == "ac-online" and self.method not in ("ac-rls", "rac-rls"):
            raise ConfigError("censor kind 'ac-online' needs the RLS step matrix; "
                              "use it with 'ac-rls' or 'rac-rls'")
        if kind == "constant":
            if "tau" not in c:
                raise ConfigError("censor kind 'constant' requires field 'tau'")
            if not (float(c["tau"]) >= 0.0 and math.isfinite(float(c["tau"]))):
                raise ConfigError("field 'censor.tau' must be finite and >= 0")
            if self.tau_out is not None and not float(c["tau"]) < self.tau_out:
                raise ConfigError("field 'censor.tau' must be below 'estimator.tau_out'")
        else:
            if "target_pi" not in c:
                raise ConfigError(f"censor kind {kind!r} requires field 'target_pi'")
            pi = float(c["target_pi"])
            if not 0.0 <= pi < 1.0:
                raise ConfigError("field 'censor.target_pi' must lie in [0, 1)")

    # -- JSON round trip -------------------------------------------------

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        if not isinstance(doc, dict):
            raise ConfigError("config must be a JSON object")
        schema = doc.get("schema")
        if schema is None:
            raise ConfigError("missing required field 'schema'")
        if schema != 1:
            raise ConfigError(f"unsupported config schema {schema!r}; this build reads schema 1")
        known = {"schema", "method", "seed", "replicates", "stream", "dataset",
                 "K", "estimator", "censor", "ratio", "record_at", "passes"}
        for key in doc:
            if key not in known:
                raise ConfigError(f"unknown config field {key!r}")
        for key in ("method", "seed"):
            if key not in doc:
                raise ConfigError(f"missing required field {key!r}")
        seed = int(doc["seed"])

        stream = None
        if doc.get("stream") is not None:
            stream = _stream_from_dict(doc["stream"], seed)

        dataset_path = None
        dataset_options: dict = {}
        if doc.get("dataset") is not None:
            ds = dict(doc["dataset"])
            if "path" not in ds:
                raise ConfigError("missing required field 'dataset.path'")
            if "target_column" not in ds:
                raise ConfigError("missing required field 'dataset.target_column'")
            dataset_path = str(ds.pop("path"))
            allowed = {"target_column", "header", "delimiter", "drop_non_numeric",
                       "add_intercept", "skip_bad_rows", "standardize"}
            for key in ds:
                if key not in allowed:
                    raise ConfigError(f"unknown dataset field {key!r}")
            dataset_options = ds

        est = doc.get("estimator") or {}
        mu = None
        if "mu" in est:
            mu_doc = est["mu"]
            if not isinstance(mu_doc, dict) or "policy" not in mu_doc or "value" not in mu_doc:
                raise ConfigError("field 'estimator.mu' must be {policy, value}")
            mu = StepSize(str(mu_doc["policy"]), float(mu_doc["value"]))
        epsilon = float(est["epsilon"]) if "epsilon" in est else None
        tau_out = float(est["tau_out"]) if "tau_out" in est else None

        record_at = tuple(int(n) for n in doc["record_at"]) if "record_at" in doc else None

        return cls(method=str(doc["method"]), seed=seed,
                   replicates=int(doc.get("replicates", 1)), stream=stream,
                   dataset_path=dataset_path, dataset_options=dataset_options,
                   K=int(doc["K"]) if "K" in doc else None, mu=mu,
                   epsilon=epsilon, censor=doc.get("censor"), tau_out=tau_out,
                   ratio=float(doc["ratio"]) if "ratio" in doc else None,
                   record_at=record_at, passes=int(doc.get("passes", 1)),
                   raw=_deep_copy_json(doc))

    def to_dict(self) -> dict:
        """Config echo for summaries; the original document if one exists."""
        if self.raw is not None:
            return _deep_copy_json(self.raw)
        doc: dict = {"schema": 1, "method": self.method, "seed": self.seed,
                     "replicates": self.replicates}
        if self.stream is not None:
            doc["stream"] = _stream_to_dict(self.stream)
        if self.dataset_path is not None:
            doc["dataset"] = {"path": self.dataset_path, **self.dataset_options}
        if self.K is not None:
            doc["K"] = self.K
        est: dict = {}
        if self.mu is not None:
            est["mu"] = {"policy": self.mu.policy, "value": self.mu.value}
        if self.epsilon is not None:
            est["epsilon"] = self.epsilon
        if self.tau_out is not None:
            est["tau_out"] = self.tau_out
        if est:
            doc["estimator"] = est
        if self.censor is not None:
            doc["censor"] = dict(self.censor)
        if self.ratio is not None:
            doc["ratio"] = self.ratio
        if self.record_at is not None:
            doc["record_at"] = list(self.record_at)
        if self.passes != 1:
            doc["passes"] = self.passes
        return doc


def _deep_copy_json(doc):
    return json.loads(json.dumps(doc))


def _stream_from_dict(sd: dict, default_seed: int) -> StreamSpec:
    if not isinstance(sd, dict):
        raise ConfigError("field 'stream' must be an object")
    for key in ("p", "D", "sigma"):
        if key not in sd:
            raise ConfigError(f"missing required field 'stream.{key}'")
    p = int(sd["p"])
    cov = None
    cov_doc = sd.get("cov")
    if cov_doc is not None:
        if isinstance(cov_doc, dict):
            kind = cov_doc.get("kind")
            if kind == "identity":
                cov = None
            elif kind == "toeplitz":
                for key in ("a", "r"):
                    if key not in cov_doc:
                        raise ConfigError(f"missing required field 'stream.cov.{key}'")
                cov = toeplitz_cov(p, float(cov_doc["a"]), float(cov_doc["r"]))
            elif kind == "explicit":
                cov = np.asarray(cov_doc.get("matrix"), dtype=np.float64)
            else:
                raise ConfigError(f"unknown stream.cov kind {kind!r}")
        else:
            cov = np.asarray(cov_doc, dtype=np.float64)
    outliers = sd.get("outliers") or {}
    if outliers and ("prob" not in outliers or "var" not in outliers):
        raise ConfigError("field 'stream.outliers' must carry 'prob' and 'var'")
    theta = sd.get("theta")
    try:
        return StreamSpec(
            p=p, D=int(sd["D"]), sigma=float(sd["sigma"]),
            seed=int(sd.get("seed", default_seed)),
            design=str(sd.get("design", "gaussian")),
            cov=cov, df=float(sd["df"]) if sd.get("df") is not None else None,
            theta=None if theta is None else np.asarray(theta, dtype=np.float64),
            outlier_prob=float(outliers.get("prob", 0.0)),
            outlier_var=float(outliers.get("var", 0.0)))
    except DomainError as exc:
        raise ConfigError(f"invalid 'stream' section: {exc}") from exc


def _stream_to_dict(spec: StreamSpec) -> dict:
    doc: dict = {"p": spec.p, "D": spec.D, "sigma": spec.sigma,
                 "seed": spec.seed, "design": spec.design}
    if spec.cov is not None:
        doc["cov"] = {"kind": "explicit", "matrix": spec.cov.tolist()}
    if spec.df is not None:
        doc["df"] = spec.df
    if spec.theta is not None:
        doc["theta"] = spec.theta.tolist()
    if spec.has_outliers:
        doc["outliers"] = {"prob": spec.outlier_prob, "var": spec.outlier_var}
    return doc


# ---------------------------------------------------------------------
# Trial execution
# ---------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class TrialTrace:
    """Metrics of one replicate, sampled on the recording schedule."""

    method: str
    seed: int
    n: np.ndarray
    mse: np.ndarray
    rse: np.ndarray
    censor_ratio: np.ndarray
    multiplies: np.ndarray
    kept_total: int
    final_theta: np.ndarray

    @property
    def steps(self) -> int:
        return int(self.n[-1]) if self.n.size else 0


@lru_cache(maxsize=8)
def _dataset_arrays(path: str, options_key: tuple):
    """(X, y, theta_o, sigma) of a dataset, read-only: every caller shares them."""
    options = dict(options_key)
    target = options.pop("target_column")
    ds = load_csv(path, target, **options)
    theta_o, sigma = surrogate_truth(ds)
    for a in (ds.design, ds.response, theta_o):
        a.flags.writeable = False
    return ds.design, ds.response, theta_o, sigma


def _source_arrays(cfg: ExperimentConfig, replicate_seed: int, data=None):
    """(X, y, theta_o, sigma) for one replicate; data is its (X, y) if drawn already."""
    if cfg.dataset_path is not None:
        key = tuple(sorted(cfg.dataset_options.items()))
        X, y, theta_o, sigma = _dataset_arrays(cfg.dataset_path, key)
        if cfg.passes > 1:
            X = np.tile(X, (cfg.passes, 1))
            y = np.tile(y, cfg.passes)
        return X, y, theta_o, sigma
    inst = cfg.stream.pinned().with_seed(replicate_seed)
    X, y = materialize(inst) if data is None else data
    return X, y, inst.resolved_theta(), inst.sigma


def _replicate_panels(cfg: ExperimentConfig, seeds, data=None):
    """(panels, total, theta_o, sigma) for all replicates side by side.

    panels yields (y, X) blocks of consecutive data shaped (m, R) and
    (m, R, p).  A dataset, or data already drawn, is one replicate's and
    is sliced, not copied.  Synthetic streams are drawn panel by panel
    into one buffer that every block overwrites, so one panel per
    replicate is alive at a time.
    """
    if cfg.dataset_path is not None or data is not None:
        X, y, theta_o, sigma = _source_arrays(cfg, seeds[0], data)
        panels = ((y[a:a + _PANEL, None], X[a:a + _PANEL, None]) for a in range(0, len(y), _PANEL))
        return panels, len(y), theta_o, sigma
    spec = cfg.stream.pinned()
    return _drawn_panels(spec, seeds), spec.D, spec.theta, spec.sigma


def _drawn_panels(spec: StreamSpec, seeds):
    streams = [generate(spec.with_seed(s), panels=True) for s in seeds]
    Y = X = None
    while True:
        for r, stream in enumerate(streams):
            panel = next(stream, None)
            if panel is None:
                return
            m = panel[0].size
            if Y is None:
                Y, X = np.empty((m, len(seeds))), np.empty((m, len(seeds), spec.p))
            Y[:m, r], X[:m, r] = panel
        yield Y[:m], X[:m]


def _resolve_mu(cfg: ExperimentConfig, sigma: float) -> StepSize:
    if cfg.mu is not None:
        return cfg.mu
    if cfg.method == "samle1":
        # The classic stochastic-approximation gain: mu_n = sigma^2/n
        # makes the uncensored update theta += (e/n) x.
        return StepSize.diminishing(sigma * sigma)
    if cfg.method in ("ac-lms", "rac-lms"):
        # Diminishing 2/(alpha n) when the design covariance is known.
        try:
            consts = prop_bounds(cfg)
        except ConfigError:
            raise ConfigError(f"field 'estimator.mu' is required for method "
                              f"{cfg.method!r} when the design covariance is unknown") from None
        return StepSize.diminishing(2.0 / consts["alpha"])
    raise ConfigError(f"field 'estimator.mu' is required for method {cfg.method!r}")


def _plan(cfg: ExperimentConfig, p: int, prelim=None) -> ThresholdPlan:
    """The threshold plan of a censored config; prelim is the NAC warm-up fit."""
    kind, pi = cfg.censor["kind"], cfg.censor.get("target_pi")
    if kind == "constant":
        return ThresholdPlan.constant(float(cfg.censor["tau"]))
    if kind == "nac-exact":
        return ThresholdPlan.nac_exact(prelim.gram_inv, pi)
    if kind == "nac-clt":
        return ThresholdPlan.nac_clt(p, prelim.K, pi)
    if kind == "ac-online":
        return ThresholdPlan.ac_online(pi)
    return ThresholdPlan.ac_offline(p, pi)


def run_trial(cfg: ExperimentConfig, replicate_seed: int, data=None) -> TrialTrace:
    """Execute one replicate of the config and return its trace.

    data, if given, is the replicate's stream as (X, y) arrays drawn
    beforehand, e.g. by ``materialize``, so that timing a trial can
    leave stream generation out.
    """
    if cfg.method in BATCH_METHODS:
        return _run_batch_trial(cfg, replicate_seed, data)
    if cfg.method == "kaczmarz":
        return _run_kaczmarz(cfg, [replicate_seed], data)[0]
    return _run_lockstep(cfg, [replicate_seed], data)[0]


def _trace(cfg, replicate_seed, marks, mses, ratios, mults, theta_o, kept,
           final_theta) -> TrialTrace:
    norm2 = float(theta_o @ theta_o)
    mse = np.asarray(mses, dtype=np.float64)
    rse = mse / norm2 if norm2 > 0.0 else np.full_like(mse, np.nan)
    return TrialTrace(method=cfg.method, seed=int(replicate_seed),
                      n=np.asarray(marks, dtype=np.int64), mse=mse, rse=rse,
                      censor_ratio=np.asarray(ratios, dtype=np.float64),
                      multiplies=np.asarray(mults, dtype=np.int64),
                      kept_total=int(kept),
                      final_theta=np.array(final_theta, dtype=np.float64))


def _schedule_for(cfg: ExperimentConfig, N: int) -> tuple[int, ...]:
    if N < 1:
        raise ConfigError("stream leaves no data to process after warm-up")
    if cfg.record_at is None:
        return geometric_schedule(N)
    if cfg.record_at[-1] > N:
        raise ConfigError(f"record_at step {cfg.record_at[-1]} exceeds the "
                          f"{N} available steps")
    return cfg.record_at


def _run_lockstep(cfg: ExperimentConfig, seeds, data=None) -> list[TrialTrace]:
    """Run every replicate of a streaming method as one state (see _Lockstep)."""
    panels, total, theta_o, sigma = _replicate_panels(cfg, seeds, data)
    if cfg.method in NAC_METHODS + AC_METHODS and sigma <= 0.0:
        raise ConfigError("censoring rules need a positive noise scale sigma")
    prelims = None
    if cfg.method in NAC_METHODS:
        if total < cfg.K:
            raise ConfigError(f"stream provides {total} data, fewer than K={cfg.K}")
        panels, prelims = _warm_up(panels, cfg.K, len(seeds))
    marks = _schedule_for(cfg, total - (cfg.K if prelims else 0))
    run = _Lockstep(cfg, len(seeds), theta_o, sigma, prelims, marks)
    advance = run.nac_panel if prelims else run.ac_panel
    for Y, X in panels:
        advance(Y, X)
    return run.traces(cfg, seeds)


def _warm_up(panels, K: int, R: int):
    """(remaining panels, one preliminary fit per replicate on its first K data)."""
    panels = iter(panels)
    warm_y, warm_X, have = [], [], 0
    while have < K:
        Y, X = next(panels)
        take = min(K - have, len(Y))
        warm_y.append(Y[:take].copy())
        warm_X.append(X[:take].copy())
        have += take
    warm_y, warm_X = np.concatenate(warm_y), np.concatenate(warm_X)
    prelims = []
    for r in range(R):
        try:
            prelims.append(preliminary_fit(zip(warm_y[:, r], warm_X[:, r])))
        except SingularityError as exc:
            raise SingularityError(f"preliminary fit on the first K={K} data "
                                   f"is rank deficient") from exc
    return itertools.chain([(Y[take:], X[take:])], panels), prelims


class _Lockstep:
    """The R replicates of one streaming method, advanced as one state.

    theta is (R, p) and the step matrix P (U for samle2) is (R, p, p).
    The gate (none, the NAC interval term, the AC skip, the robust clip)
    sets a score beta and a weight h per replicate; the recursion is
    theta += mu_n beta x, or P <- (P^-1 + h x x')^-1 and theta += beta P x.
    samle2 and rls update every P in one batch, gated RLS each stepping
    P[r] in place by BLAS: the method alone picks the kernel, so a
    replicate's trace does not depend on its company.

    NAC decisions against the fixed preliminary fits are taken a panel at
    a time, every replicate stepping on every datum.  On the AC path (lms
    and rls keep every datum) a censored datum moves neither theta nor
    P, so each replicate has its own position in the panel.  A round
    scans each one's innovations ahead over twice the realized mean gap
    between kept data; those that hit step together, each on its own
    first kept datum, the others skip the window, and a mark a jump
    crosses sees the theta from before the step.  All meet at the
    panel's end.  Multiply ledgers are exact, from kept and clipped.
    """

    def __init__(self, cfg: ExperimentConfig, R: int, theta_o, sigma: float, prelims, marks):
        method = cfg.method
        p = theta_o.shape[0]
        self.method, self.sigma, self.theta_o, self.marks = method, sigma, theta_o, marks
        self.theta = np.zeros((R, p))
        self.P = None
        if prelims is not None:
            self.anchors = np.array([f.theta for f in prelims])
            self.theta = self.anchors.copy()
            self.plans = [_plan(cfg, p, f) for f in prelims]
            if method == "samle2":
                self.P = np.array([(sigma * sigma) * f.gram_inv for f in prelims])
        self.mu = _resolve_mu(cfg, sigma) if method in _FIRST_ORDER else None
        self.plan = _plan(cfg, p) if method in AC_METHODS else None
        self.online = self.plan is not None and self.plan.needs_quadratic_form
        self.tau_out = cfg.tau_out if method in ("rac-lms", "rac-rls") else None
        self.gated = method not in ("lms", "rls")
        self.epsilon = cfg.epsilon
        self.kept = np.zeros(R, dtype=np.int64)
        self.clipped = np.zeros(R, dtype=np.int64)
        self.n = self.rounds = self._kept_sum = 0  # steps before the panel; kept by all
        # Marks and a step none reaches; each replicate's next; (mse, kept, clipped) at each.
        self._mark_n = np.array([*marks, np.iinfo(np.int64).max], dtype=np.int64)
        self._mark_i = np.zeros(R, dtype=np.int64)
        self._soonest = marks[0]
        self._at = np.zeros((3, len(marks), R))

    # -- the recursion ----------------------------------------------------

    def update(self, rows, x, beta, h, n) -> None:
        """One recursion step of replicates `rows` (all when None), row i on
        datum x[i] at step n[i] (or n), with weight h (1 when None; 0, a
        clipped outlier, leaves P alone).  No other replicate is written."""
        theta, P = self.theta, self.P
        every = rows is None or rows.size == theta.shape[0]
        if self.mu is not None:
            d = (self.mu.at(n) * beta)[:, None] * x
        else:
            if every:
                v = np.matmul(P, x[:, :, None])[:, :, 0]
            else:  # P x of every row, the others against x = 0, and keep ours
                xr = np.zeros_like(theta)
                xr[rows] = x
                v = np.matmul(P, xr[:, :, None])[rows, :, 0]
            s = np.einsum("rp,rp->r", x, v)
            denom = 1.0 + (s if h is None else h * s)
            bad = np.abs(denom) < _SINGULAR_TOL
            if bad.any():
                step = np.broadcast_to(n, bad.shape)[bad].min()
                raise SingularityError(f"{self.method} broke down at step {step}: "
                                       f"{'information ' * (self.method == 'samle2')}update "
                                       "denominator vanished")
            k = v * (1.0 / denom)[:, None]  # the updated P times x
            d = beta[:, None] * k
        if every:
            theta += d
        else:
            theta[rows] += d
        if self.mu is not None:
            return
        if rows is None:
            P -= np.einsum("ri,rj->rij", k if h is None else k * h[:, None], v)
            return
        for i, r in enumerate(rows.tolist()):
            if h is None or h[i]:
                # P[r] -= k v' as a gemm of inner dimension 1: OpenBLAS keeps it
                # on one thread, where dger woke two at p = 200, twice as slow.
                dgemm(-1.0, v[i, :, None], k[i, None], 1.0, self.P_fortran[r], overwrite_c=1)

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

    def nac_panel(self, Y, X) -> None:
        """Censor a panel against the preliminary fits, then step through it."""
        m, sigma = len(Y), self.sigma
        y_hat = np.einsum("mrp,rp->mr", X, self.anchors)
        tau = np.stack([plan.thresholds(self.n + 1, self.n + 1 + m, x=X[:, r])
                        for r, plan in enumerate(self.plans)], axis=1)
        bad = ~(np.isfinite(Y) & np.isfinite(y_hat) & np.isfinite(tau) & (tau >= 0.0))
        if bad.any():
            i, r = np.argwhere(bad)[0]
            nac_decide(float(Y[i, r]), float(y_hat[i, r]), sigma, float(tau[i, r]))
        keep = np.abs(Y - y_hat) >= tau * sigma
        censored, value = ~keep, np.where(keep, Y, y_hat)
        for i in range(m):
            x = X[i]
            beta, h = score_info(censored[i], value[i], np.einsum("rp,rp->r", x, self.theta),
                                 tau[i], sigma)
            self.n += 1
            self.update(None, x, beta, h, self.n)
            self.kept += keep[i]
            if self.n >= self._soonest:
                self._record(np.arange(len(x)), self.n)

    def ac_panel(self, Y, X) -> None:
        """Step each replicate through a panel to its own kept data, in rounds."""
        m, R = Y.shape
        if self.P is None and self.mu is None:
            eps = self.epsilon
            eps = default_ridge(X[0], self.plan, self.tau_out) if eps is None else eps
            self.P = np.eye(X.shape[2]) / np.broadcast_to(eps, (R,))[:, None, None]
            # P[r].T is a Fortran-order view, which BLAS updates in place.
            self.P_fortran = list(self.P.transpose(0, 2, 1))
        fixed = self.plan is not None and not self.online  # tau depends on n alone
        panel_tau = self.plan.thresholds(self.n + 1, self.n + 1 + m) if fixed else None
        ahead = np.arange(m)[:, None]
        act, a, front = np.arange(R), np.zeros(R, dtype=np.int64), 0  # active, positions, lead
        while act.size:
            # Twice the mean gap (the lead's steps over the mean kept count).  In
            # sync, all share one position: a slice, and Python scalars.
            B = max(1, (2 * (self.n + front) + 1) * R // (self._kept_sum + R)) if self.gated else 1
            sync = act.size == 1 or not self.gated
            if sync:
                n, rs = self.n + front, slice(None) if act.size == R else slice(act[0], act[0] + 1)
                B = lim = min(B, m - front)
                at = ahead[front:front + B]
                Xw, Yw = X[front:front + B, rs], Y[front:front + B, rs]
            else:
                n, rs = self.n + a, act if act.size < R else slice(None)
                lim = B if front + B <= m else np.minimum(m - a, B)
                at = np.minimum(a + ahead[:B], m - 1)
                Xw, Yw = X[at, act], Y[at, act]
            E = Yw - np.einsum("brp,rp->br", Xw, self.theta[rs])
            watch = self._soonest <= self.n + front + B  # a mark may fall in this round
            j, got, rows, bad = 0, True, None, False
            if self.gated:
                if self.online:
                    steps = n + 1 + ahead[:B]
                    q = np.einsum("bri,rij,brj->br", Xw, self.P[rs], Xw) * (steps - 1) / steps
                    tau = self.plan.thresholds(1, B + 1, quadratic_form=q)
                else:
                    tau = panel_tau[at]
                if self.tau_out is not None:
                    tau = np.minimum(tau, self.tau_out)  # the clip wins during warm-up
                hit = np.abs(E) >= tau * self.sigma
                bad = self.tau_out is not None and not np.isfinite(E.sum())
                if bad:
                    hit |= ~np.isfinite(E)  # the robust rule raises on these
                if lim is not B:
                    hit &= ahead[:B] < lim
                if sync:
                    j = int(hit.argmax())
                    j, got, rows = (j, True, act) if hit[j, 0] else (B, False, act[:0])
                else:
                    got = hit.any(axis=0)
                    j = np.where(got, hit.argmax(axis=0), lim)
                if watch:  # marks inside a jump see the theta before its step
                    self._record(act, n + j)
            if sync:
                k, step = j, n + j + 1  # the kept data in E
                front += j + got
            else:
                cols = got.nonzero()[0]
                k, rows = (j[cols], cols), act[cols]
                a += j + got
                step, front = self.n + a[cols], int(a.max())
            if rows is None or rows.size:
                beta, x, h = E[k], Xw[k], None
                if self.tau_out is not None:
                    beta, h = self._clip(rows, beta, tau[k], bad)
                self.kept[rs if rows is None else rows] += 1
                self._kept_sum += beta.size
                self.rounds += 1
                self.update(rows, x, beta, h, step)
                if watch:
                    self._record(act if rows is None else rows, step)
            if front >= m:  # drop the replicates at the panel's end
                act, a = (act[:0], a) if sync else (act[a < m], a[a < m])
                front = int(a.max()) if act.size else 0
        self.n += m

    def _clip(self, rows, e, tau, check):
        """Robust rule on the kept innovations e of replicates rows (checked
        for non-finite values if `check`): (score, weight), outliers clipped
        to tau_out sigma sign(e) with weight 0; weight None if none is."""
        if check and not np.isfinite(e).all():
            r = int(np.isfinite(e).argmin())
            robust_decide(float(e[r]), self.sigma, float(tau[r]), self.tau_out)
        bound = self.tau_out * self.sigma
        out = np.abs(e) >= bound
        if not out.any():
            return e, None
        self.clipped[rows] += out
        return np.where(out, bound * np.copysign(1.0, e), e), np.where(out, 0.0, 1.0)

    # -- results ------------------------------------------------------------

    def traces(self, cfg: ExperimentConfig, seeds) -> list[TrialTrace]:
        mse, (kept, clipped) = self._at[0], self._at[1:].astype(np.int64)
        at = np.array(self.marks)[:, None]
        ratios = (at - kept) / at
        mults = np.broadcast_to(_multiplies(self.method, self.theta.shape[1], at, kept, clipped,
                                            self.online), kept.shape)
        return [_trace(cfg, seed, self.marks, mse[:, r], ratios[:, r], mults[:, r],
                       self.theta_o, self.kept[r], self.theta[r])
                for r, seed in enumerate(seeds)]


def _multiplies(method: str, p: int, n, kept, clipped, online: bool):
    """Exact multiply count of n steps that kept `kept` data, `clipped` of
    them as outliers; the per-step costs are in the docstrings of LMS,
    RLS and the two censored-MLE classes in ``cendre.estimators``."""
    if method == "samle1":
        return n * (3 * p + 1) - kept * p
    if method == "samle2":
        return n * (2 * p * p + 4 * p + 2) - kept * p
    if method == "lms":
        return n * (2 * p + 1)
    if method == "rls":
        return n * (2 * p * p + 4 * p)
    if method in ("ac-lms", "rac-lms"):
        return n * p + kept * (p + 1)
    # ac-rls, rac-rls: an online plan reads x'Px every step, and a kept
    # step then reuses P x.
    every = p + online * p * (p + 1)
    nominal = 2 * p * p + 3 * p - online * p * (p + 1)
    outlier = p + (not online) * p * p
    return n * every + (kept - clipped) * nominal + clipped * outlier


def _run_kaczmarz(cfg: ExperimentConfig, seeds, data=None) -> list[TrialTrace]:
    """Kaczmarz traces of seeds.  On a dataset every seed sweeps the same
    rows, so all of them draw in lockstep in one kaczmarz_run; a synthetic
    stream is drawn per seed, so each seed sweeps its own."""
    if cfg.dataset_path is None and len(seeds) > 1:
        return [_run_kaczmarz(cfg, [s])[0] for s in seeds]
    X, y, theta_o, _ = _source_arrays(cfg, seeds[0], data)
    D, p = X.shape
    mark_set = set(_schedule_for(cfg, D))
    marks, mses = [], []

    def observe(k, theta):
        if k in mark_set:
            err = theta - theta_o
            marks.append(k)
            mses.append(np.matmul(err[:, None, :], err[:, :, None])[:, 0, 0])

    final = kaczmarz_run(X, y, iters=D, seed=seeds, callback=observe)
    mults = [D * p + k * (2 * p + 1) for k in marks]  # row-energy table, then 2p+1 a draw
    ratios = [0.0] * len(marks)
    return [_trace(cfg, s, marks, [m[r] for m in mses], ratios, mults, theta_o, D, final[r])
            for r, s in enumerate(seeds)]


def _run_batch_trial(cfg: ExperimentConfig, replicate_seed: int, data=None) -> TrialTrace:
    X, y, theta_o, _ = _source_arrays(cfg, replicate_seed, data)
    D, p = X.shape
    d = max(p, int(round(cfg.ratio * D)))
    if cfg.method == "srht":
        rp = srht_reduce(X, y, d, replicate_seed)
        D_pad = 1 << (D - 1).bit_length()
        mult = D_pad * (p + 1) + d * p * p + p ** 3 // 3
    else:
        rp = uniform_reduce(X, y, d, replicate_seed)
        mult = d * p * p + p ** 3 // 3
    theta = solve_reduced(rp)
    err = theta - theta_o
    return _trace(cfg, replicate_seed, [d], [float(err @ err)],
                  [(D - d) / D], [mult], theta_o, d, theta)


# ---------------------------------------------------------------------
# Replication and aggregation
# ---------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class MonteCarloResult:
    """Aggregated metrics across replicates of one config."""

    config: dict
    method: str
    n: np.ndarray
    mse_mean: np.ndarray
    mse_std: np.ndarray
    rse_mean: np.ndarray
    rse_std: np.ndarray
    censor_ratio_mean: np.ndarray
    multiplies_mean: np.ndarray
    traces: list
    bounds: dict | None

    def summary_doc(self) -> dict:
        doc = {
            "config": self.config,
            "replicates": len(self.traces),
            "aggregate": {
                "n": [int(v) for v in self.n],
                "mse_mean": [float(v) for v in self.mse_mean],
                "mse_std": [float(v) for v in self.mse_std],
                "rse_mean": [float(v) for v in self.rse_mean],
                "rse_std": [float(v) for v in self.rse_std],
                "censor_ratio_mean": [float(v) for v in self.censor_ratio_mean],
                "multiplies_mean": [float(v) for v in self.multiplies_mean],
            },
        }
        if self.bounds is not None:
            grid = [int(v) for v in self.n]
            doc["bounds"] = {
                "tau": self.bounds["tau"],
                "alpha": self.bounds["alpha"],
                "Delta": self.bounds["Delta"],
                "L2": self.bounds["L2"],
                "prop2_at": {str(n): self.bounds["prop2_bound"](n) for n in grid},
                "prop3_bracket_at": {str(n): list(self.bounds["prop3_bracket"](n))
                                     for n in grid},
            }
        return doc


def monte_carlo(cfg: ExperimentConfig) -> MonteCarloResult:
    """Run all replicates of cfg and aggregate their traces.

    Replicate r runs on derive(cfg.seed, r).  Streaming methods run all
    replicates as one state (see _Lockstep), and each trace is the one
    run_trial gives the replicate alone; on a dataset, which draws no
    randomness, replicate 0 runs once for every seed.  Kaczmarz
    replicates on a dataset draw in lockstep, one (R, p) projection per
    draw.  The rest run replicate by replicate.  Aggregation is by
    replicate index.
    """
    seeds = [derive(cfg.seed, r) for r in range(cfg.replicates)]
    if cfg.method in STREAM_METHODS:
        traces = _run_lockstep(cfg, seeds[:1] if cfg.dataset_path is not None else seeds)
        traces += [replace(traces[0], seed=s) for s in seeds[len(traces):]]
    elif cfg.method == "kaczmarz":
        traces = _run_kaczmarz(cfg, seeds)
    else:
        traces = [run_trial(cfg, s) for s in seeds]

    grid = traces[0].n
    for t in traces[1:]:
        if not np.array_equal(t.n, grid):
            raise ConfigError("replicates disagree on the recording grid")
    mse = np.stack([t.mse for t in traces])
    rse = np.stack([t.rse for t in traces])
    ratio = np.stack([t.censor_ratio for t in traces])
    mult = np.stack([t.multiplies for t in traces]).astype(np.float64)

    try:
        bounds = prop_bounds(cfg)
    except ConfigError:
        bounds = None

    return MonteCarloResult(
        config=cfg.to_dict(), method=cfg.method, n=grid.copy(),
        mse_mean=mse.mean(axis=0), mse_std=mse.std(axis=0),
        rse_mean=rse.mean(axis=0), rse_std=rse.std(axis=0),
        censor_ratio_mean=ratio.mean(axis=0),
        multiplies_mean=mult.mean(axis=0), traces=traces, bounds=bounds)


# ---------------------------------------------------------------------
# Theory bounds as oracles
# ---------------------------------------------------------------------


def _design_covariance(spec: StreamSpec) -> np.ndarray:
    if spec.design == "gaussian":
        return spec.design_cov()
    if spec.df is not None and spec.df > 2.0:
        return spec.design_cov() * (spec.df / (spec.df - 2.0))
    raise ConfigError("design covariance undefined for student-t with df <= 2")


def _bound_tau(cfg: ExperimentConfig) -> float:
    if cfg.censor is None:
        raise ConfigError("prop_bounds needs a censored config (a 'censor' section)")
    if cfg.censor["kind"] == "constant":
        return float(cfg.censor["tau"])
    # Threshold plans converge to the fixed-tau rule with this value.
    pi = float(cfg.censor["target_pi"])
    return gauss_q_inv((1.0 - pi) / 2.0) if pi > 0.0 else 0.0


def prop_bounds(cfg: ExperimentConfig) -> dict:
    """Closed-form performance bounds for a synthetic censored config.

    Returns the strong-convexity and gradient-noise constants together
    with three callables: prop1_bound(D, dist, xbar, betabar) for the
    anytime regret, prop2_bound(n) for the diminishing-step MSE, and
    prop3_bracket(n) (lower, upper) for the best achievable MSE under
    fixed-tau censoring.
    """
    if cfg.stream is None:
        raise ConfigError("prop_bounds needs a synthetic stream config")
    spec = cfg.stream
    R_x = _design_covariance(spec)
    tau = _bound_tau(cfg)
    sigma = spec.sigma
    eigs = np.linalg.eigvalsh(R_x)
    lam_min, lam_max = float(eigs[0]), float(eigs[-1])
    if lam_min <= 0.0:
        raise ConfigError("design covariance must be positive definite")
    q_tau = float(gauss_q(tau))
    alpha = 2.0 * q_tau * lam_min
    L2 = lam_max * lam_max
    Delta = 2.0 * float(np.trace(R_x)) * sigma * sigma \
        * (1.0 - q_tau + tau * float(gauss_pdf(tau)))
    tr_inv = float(np.trace(np.linalg.inv(R_x)))
    theta_o = spec.pinned().resolved_theta()
    dist2_from_zero = float(theta_o @ theta_o)

    def prop1_bound(D: int, dist: float, xbar: float, betabar: float) -> float:
        return math.sqrt(2.0 * D) * dist * xbar * betabar

    def prop2_bound(n: int) -> float:
        if n < 1:
            raise DomainError("prop2_bound needs n >= 1")
        arg = 4.0 * L2 / (alpha * alpha)
        lead = math.inf if arg > 700.0 else math.exp(arg)
        return (lead / (n * n)) * (dist2_from_zero + Delta / L2) \
            + 8.0 * Delta * math.log(n) / (alpha * alpha * n)

    def prop3_bracket(n: int) -> tuple[float, float]:
        if n < 1:
            raise DomainError("prop3_bracket needs n >= 1")
        lo = tr_inv * sigma * sigma / n
        return lo, lo / (2.0 * q_tau)

    return {"tau": tau, "alpha": alpha, "Delta": Delta, "L2": L2,
            "trace_inv": tr_inv, "prop1_bound": prop1_bound,
            "prop2_bound": prop2_bound, "prop3_bracket": prop3_bracket}


# ---------------------------------------------------------------------
# Result files
# ---------------------------------------------------------------------


RESULT_COLUMNS = ("method", "seed", "n", "mse", "rse", "censor_ratio", "multiplies")


def result_rows(traces) -> list[list]:
    """One row of RESULT_COLUMNS per replicate and mark, sorted by
    (method, seed, n), with floats as repr so the files are byte-stable."""
    rows = [(t.method, int(t.seed), int(t.n[i]), float(t.mse[i]), float(t.rse[i]),
             float(t.censor_ratio[i]), int(t.multiplies[i]))
            for t in traces for i in range(t.n.size)]
    rows.sort(key=lambda row: row[:3])
    return [[method, seed, n, repr(mse), repr(rse), repr(ratio), mult]
            for method, seed, n, mse, rse, ratio, mult in rows]


def write_results_csv(traces, path) -> Path:
    """Per-replicate rows (see result_rows); byte-stable."""
    path = Path(path)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(RESULT_COLUMNS)
        writer.writerows(result_rows(traces))
    return path


def write_summary_json(result: MonteCarloResult, path) -> Path:
    path = Path(path)
    with open(path, "w") as fh:
        json.dump(result.summary_doc(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def run_experiment(cfg: ExperimentConfig, out_dir, stem: str = "results") -> dict:
    """monte_carlo plus the standard pair of output files."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    result = monte_carlo(cfg)
    csv_path = write_results_csv(result.traces, out_dir / f"{stem}.csv")
    json_path = write_summary_json(result, out_dir / f"{stem}.json")
    return {"result": result, "csv": csv_path, "json": json_path}
