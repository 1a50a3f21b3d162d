"""Monte Carlo experiment runner.

Wires a data source (synthetic stream or CSV dataset) through a
censoring rule into an estimator, records error and cost metrics on a
compact schedule, repeats over derived replicate seeds, and aggregates.
The replicates of a streaming method advance in lockstep, as one state
of the kernel ``cendre.estimators._Lockstep``, whose one-replicate case
the single-stream estimator classes run.  This module resolves a config
into the kernel's step size, threshold plan and warm-up fits, takes the
NAC decisions against those fits, and feeds the stream a panel at a time
to the kernel's AC rounds or, for the other methods, its every-datum loop.

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
import os
from dataclasses import asdict, dataclass, field, replace
from functools import lru_cache, partial
from pathlib import Path

import numpy as np

from .censor import ThresholdPlan, _half_tail_quantile, nac_decide
from .datagen import StreamSpec, generate, materialize
from .errors import (ConfigError, DomainError, SingularityError, config_section, flag, integer,
                     read_field)
from .estimators import _PANEL, StepSize, _Lockstep, kaczmarz_run, preliminary_fit
from .ingest import _write_json, load_csv, surrogate_truth
from .numkit.gaussian import gauss_pdf, gauss_q
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

    Construct directly or from a JSON document via from_dict; to_dict
    writes one back.  Every section of the document (top level, stream,
    dataset, estimator, censor and their nested objects) is read in one
    place and rejects unknown keys.  censor is a mapping such as
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
        _check_seed(self.seed)
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
        kind = c.get("kind") if isinstance(c, dict) else None
        config_section(c, "censor", ("kind", "tau" if kind == "constant" else "target_pi"))
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
            tau = read_field(float, c["tau"], "censor.tau")
            if not (tau >= 0.0 and math.isfinite(tau)):
                raise ConfigError("field 'censor.tau' must be finite and >= 0")
            if self.tau_out is not None and not tau < self.tau_out:
                raise ConfigError("field 'censor.tau' must be below 'estimator.tau_out'")
        else:
            if "target_pi" not in c:
                raise ConfigError(f"censor kind {kind!r} requires field 'target_pi'")
            pi = read_field(float, c["target_pi"], "censor.target_pi")
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
        config_section(doc, "config", ("schema", "stream", "dataset", "estimator", "censor",
                                       *_TOP_FIELDS))
        for key in ("method", "seed"):
            if key not in doc:
                raise ConfigError(f"missing required field {key!r}")
        fields = {key: read_field(read, doc[key], key)
                  for key, read in _TOP_FIELDS.items() if key in doc}
        _check_seed(fields["seed"])  # before the stream, which takes it as its default
        if doc.get("stream") is not None:
            fields["stream"] = StreamSpec.from_doc(doc["stream"], fields["seed"])
        if doc.get("dataset") is not None:
            ds = config_section(doc["dataset"], "dataset", _DATASET_FIELDS,
                                required=("path", "target_column"))
            ds = {key: read_field(_DATASET_FIELDS[key], value, f"dataset.{key}")
                  for key, value in ds.items()}
            fields["dataset_path"] = ds.pop("path")
            fields["dataset_options"] = ds
        est = config_section(doc.get("estimator") or {}, "estimator", _ESTIMATOR_FIELDS)
        fields.update((key, read_field(read, est[key], f"estimator.{key}"))
                      for key, read in _ESTIMATOR_FIELDS.items() if key in est)
        return cls(censor=doc.get("censor"), raw=_deep_copy_json(doc), **fields)

    def to_dict(self) -> dict:
        """Config echo for summaries; the original document if one exists."""
        if self.raw is not None:
            return _deep_copy_json(self.raw)
        doc = {key: getattr(self, key) for key in _TOP_FIELDS if getattr(self, key) is not None}
        doc["schema"] = 1
        if self.passes == 1:
            del doc["passes"]
        if self.stream is not None:
            doc["stream"] = self.stream.to_doc()
        if self.dataset_path is not None:
            doc["dataset"] = {"path": self.dataset_path, **self.dataset_options}
        est = {key: getattr(self, key) for key in _ESTIMATOR_FIELDS
               if getattr(self, key) is not None}
        if est:
            doc["estimator"] = est
        if self.censor is not None:
            doc["censor"] = self.censor
        return _deep_copy_json(doc)


def _deep_copy_json(doc):
    """A JSON copy of doc, with a dataclass value (a StepSize) as its fields."""
    return json.loads(json.dumps(doc, default=asdict))


def _read_mu(doc) -> StepSize:
    if not isinstance(doc, dict) or "policy" not in doc or "value" not in doc:
        raise ConfigError("field 'estimator.mu' must be {policy, value}")
    config_section(doc, "estimator.mu", ("policy", "value"))
    return StepSize(str(doc["policy"]), read_field(float, doc["value"], "estimator.mu.value"))


def _read_marks(marks) -> tuple[int, ...]:
    if not isinstance(marks, (list, tuple)):
        raise TypeError(f"not a list: {marks!r}")
    return tuple(integer(n) for n in marks)


def _read_target(column):
    """A target column: a name, or a position that is an int and no bool."""
    if isinstance(column, bool) or not isinstance(column, (str, int)):
        raise TypeError(f"not a column name or index: {column!r}")
    return column


def _read_delimiter(text) -> str:
    if not (isinstance(text, str) and len(text) == 1):
        raise TypeError(f"not one character: {text!r}")
    return text


def _check_seed(seed: int) -> None:
    if seed < 0:
        raise ConfigError("field 'seed' must be nonnegative")


# A config's top-level, estimator and dataset fields: JSON key, also the
# attribute or load_csv option name, -> reader.  from_dict reads each key
# a document has; to_dict writes each attribute that is set.
_TOP_FIELDS = {"method": str, "seed": integer, "replicates": integer, "K": integer,
               "ratio": float, "passes": integer, "record_at": _read_marks}
_ESTIMATOR_FIELDS = {"mu": _read_mu, "epsilon": float, "tau_out": float}
_DATASET_FIELDS = {"path": str, "target_column": _read_target, "header": flag,
                   "delimiter": _read_delimiter, "drop_non_numeric": flag,
                   "add_intercept": flag, "skip_bad_rows": flag, "standardize": flag}


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


def _dataset_arrays(path: str, options_key: tuple):
    """(X, y, theta_o, sigma) of a dataset, read-only: every caller shares them.

    One copy per file is kept in the process, keyed by path, options and
    the file's identity from one stat (device, inode, size and mtime in
    ns), as Python's bytecode cache is: a file replaced or rewritten since
    is read again.  A same-size rewrite in place within one tick of the
    file system's mtime is not seen.
    """
    try:
        st = os.stat(path)
        identity = (st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns)
    except OSError:
        identity = None  # load_csv reports it
    return _parsed_dataset(path, options_key, identity)


@lru_cache(maxsize=8)
def _parsed_dataset(path: str, options_key: tuple, identity):
    options = dict(options_key)
    target = options.pop("target_column")
    ds = load_csv(path, target, **options)
    theta_o, sigma = surrogate_truth(ds)
    for a in (ds.design, ds.response, theta_o):
        a.flags.writeable = False
    return ds.design, ds.response, theta_o, sigma


def _dataset(cfg: ExperimentConfig):
    return _dataset_arrays(cfg.dataset_path, tuple(sorted(cfg.dataset_options.items())))


def _source_arrays(cfg: ExperimentConfig, replicate_seed: int, data=None):
    """(X, y, theta_o, sigma) for one replicate; data is its (X, y) if drawn
    already.  A dataset's rows are read ``passes`` times by the caller."""
    if cfg.dataset_path is not None:
        return _dataset(cfg)
    inst = cfg.stream.pinned().with_seed(replicate_seed)
    X, y = materialize(inst) if data is None else data
    return X, y, inst.resolved_theta(), inst.sigma


def _replicate_panels(cfg: ExperimentConfig, seeds, data=None):
    """(panels, total, theta_o, sigma) for all replicates side by side.

    panels yields (y, X) blocks of consecutive data shaped (m, R) and
    (m, R, p).  A dataset, or data already drawn, is one replicate's: it
    is walked ``passes`` times, not tiled (see _walked_panels).  A single
    synthetic stream hands on its source's panels as views.  More streams
    are drawn panel by panel into one buffer that every block overwrites,
    so one panel per replicate is alive at a time.
    """
    if cfg.dataset_path is not None:
        X, y, theta_o, sigma = _dataset(cfg)
        return _walked_panels(y, X, cfg.passes), cfg.passes * len(y), theta_o, sigma
    if data is not None:
        X, y, theta_o, sigma = _source_arrays(cfg, seeds[0], data)
        return _walked_panels(y, X, 1), len(y), theta_o, sigma
    spec = cfg.stream.pinned()
    return _drawn_panels(spec, seeds), spec.D, spec.theta, spec.sigma


def _walked_panels(y, X, passes: int):
    """The (y, X) panels of ``passes`` walks over the rows, each gathered
    into new (m, 1) and (m, 1, p) arrays cut every _PANEL tiled rows."""
    D = len(y)
    for a in range(0, passes * D, _PANEL):
        rows = np.arange(a, min(a + _PANEL, passes * D)) % D
        yield y[rows, None], X[rows, None]


def _drawn_panels(spec: StreamSpec, seeds):
    if len(seeds) == 1:  # the generator's own panels; none held while the next is drawn
        for y, X in generate(spec.with_seed(seeds[0]), panels=True):
            yield y[:, None], X[:, None]
            del y, X
        return
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
    method, p = cfg.method, theta_o.shape[0]
    theta = P = None
    if prelims:
        theta = np.array([f.theta for f in prelims])
        if method == "samle2":
            P = np.array([(sigma * sigma) * f.gram_inv for f in prelims])
    run = _Lockstep(method, len(seeds), p, sigma, theta, P,
                    mu=_resolve_mu(cfg, sigma) if method in _FIRST_ORDER else None,
                    plan=_plan(cfg, p) if method in AC_METHODS else None,
                    tau_out=cfg.tau_out if method in ("rac-lms", "rac-rls") else None,
                    epsilon=cfg.epsilon, marks=marks, theta_o=theta_o)
    step = run.ac_panel if method in AC_METHODS else run.every_panel
    if prelims:
        step = partial(_nac_panel, run, theta, [_plan(cfg, p, f) for f in prelims])
    for Y, X in panels:
        step(Y, X)
        del Y, X  # not alive while the next panel is drawn
    mse, ratios, mults = run.traces()
    return [_trace(cfg, seed, marks, mse[:, r], ratios[:, r], mults[:, r], theta_o,
                   run.kept[r], run.theta[r])
            for r, seed in enumerate(seeds)]


def _nac_panel(run: _Lockstep, anchors, plans, Y, X) -> None:
    """Censor a panel against the preliminary fits, then step through it."""
    m, sigma = len(Y), run.sigma
    y_hat = np.einsum("mrp,rp->mr", X, anchors)
    tau = np.stack([plan.thresholds(run.n + 1, run.n + 1 + m, x=X[:, r])
                    for r, plan in enumerate(plans)], axis=1)
    bad = ~(np.isfinite(Y) & np.isfinite(y_hat) & np.isfinite(tau) & (tau >= 0.0))
    if bad.any():
        i, r = np.argwhere(bad)[0]
        nac_decide(float(Y[i, r]), float(y_hat[i, r]), sigma, float(tau[i, r]))
    run.every_panel(Y, X, y_hat, tau)


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
    rest = [(Y[take:], X[take:])] if take < len(Y) else []  # the loops read a first row
    return itertools.chain(rest, panels), prelims


def _run_kaczmarz(cfg: ExperimentConfig, seeds, data=None) -> list[TrialTrace]:
    """Kaczmarz traces of seeds.  On a dataset every seed sweeps the same
    rows, so all of them draw in lockstep in one kaczmarz_run; a synthetic
    stream is drawn per seed, so each seed sweeps its own."""
    if cfg.dataset_path is None and len(seeds) > 1:
        return [_run_kaczmarz(cfg, [s])[0] for s in seeds]
    X, y, theta_o, _ = _source_arrays(cfg, seeds[0], data)
    D, p = cfg.passes * X.shape[0], X.shape[1]  # the stacked rows of every pass
    mark_set = set(_schedule_for(cfg, D))
    marks, mses = [], []

    def observe(k, theta):
        if k in mark_set:
            err = theta - theta_o
            marks.append(k)
            mses.append(np.matmul(err[:, None, :], err[:, :, None])[:, 0, 0])

    final = kaczmarz_run(X, y, iters=D, seed=seeds, callback=observe, passes=cfg.passes)
    mults = [D * p + k * (2 * p + 1) for k in marks]  # row-energy table, then 2p+1 a draw
    ratios = [0.0] * len(marks)
    return [_trace(cfg, s, marks, [m[r] for m in mses], ratios, mults, theta_o, D, final[r])
            for r, s in enumerate(seeds)]


def _run_batch_trial(cfg: ExperimentConfig, replicate_seed: int, data=None) -> TrialTrace:
    X, y, theta_o, _ = _source_arrays(cfg, replicate_seed, data)
    if cfg.passes > 1:  # a sketch is defined on the rows of every pass, stacked
        X, y = np.tile(X, (cfg.passes, 1)), np.tile(y, cfg.passes)
    D, p = X.shape
    d = max(p, int(round(cfg.ratio * D)))
    if cfg.method == "srht":
        rp = srht_reduce(X, y, d, replicate_seed)
        D_pad = 1 << (D - 1).bit_length()
        # The flip on all D' rows, as the SRHT defines it, though srht_reduce
        # flips the D data rows and the transform skips the +0.0 padding.
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
    return _half_tail_quantile(float(cfg.censor["target_pi"]))


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
    return _write_json(result.summary_doc(), path)

