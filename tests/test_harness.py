"""Experiment runner: config validation, reproducibility, bounds, files."""

import json
import math
import os
import re
import shutil
import tracemalloc

import numpy as np
import pytest

from cendre import harness
from cendre.datagen import StreamSpec
from cendre.errors import ConfigError, DomainError, SingularityError
from cendre.estimators import _PANEL, StepSize
from cendre.harness import (
    ExperimentConfig,
    geometric_schedule,
    monte_carlo,
    prop_bounds,
    run_trial,
    write_results_csv,
    write_summary_json,
)
from cendre.numkit import derive, substream

from oracles import pdf, quad_q


def _stream(**over):
    base = dict(p=4, D=400, sigma=1.0, seed=7)
    base.update(over)
    return StreamSpec(**base)


def _cfg(**over):
    base = dict(method="ac-rls", seed=7, stream=_stream(),
                censor={"kind": "constant", "tau": 1.0})
    base.update(over)
    return ExperimentConfig(**base)


# ---------------------------------------------------------------------
# schedules and config validation
# ---------------------------------------------------------------------

def test_geometric_schedule():
    assert geometric_schedule(1) == (1,)
    assert geometric_schedule(10) == (1, 2, 4, 8, 10)
    assert geometric_schedule(16) == (1, 2, 4, 8, 16)
    with pytest.raises(DomainError):
        geometric_schedule(0)


def test_config_field_validation():
    _cfg()  # baseline constructs
    cases = [
        dict(method="sgd"),
        dict(seed=-1),
        dict(replicates=0),
        dict(stream=None),                                    # no source at all
        dict(dataset_path="x.csv"),                           # two sources
        dict(passes=0),
        dict(passes=2),                                       # passes need a dataset
        dict(censor=None),                                    # AC method, censor required
        dict(censor={"kind": "nac-exact", "target_pi": 0.5}),
        dict(censor={"kind": "constant"}),
        dict(censor={"kind": "constant", "tau": -1.0}),
        dict(censor={"kind": "constant", "tau": math.inf}),
        dict(censor={"kind": "ac-offline"}),
        dict(censor={"kind": "ac-offline", "target_pi": 1.0}),
        dict(method="ac-lms", censor={"kind": "ac-online", "target_pi": 0.5}),
        dict(method="samle1"),                                # K missing
        dict(method="samle1", K=0),
        dict(method="samle2", K=50,
             censor={"kind": "ac-offline", "target_pi": 0.5}),
        dict(method="srht", censor=None),                     # ratio missing
        dict(method="srht", censor=None, ratio=0.0),
        dict(method="srht", censor=None, ratio=1.2),
        dict(method="rls", censor=None, record_at=()),
        dict(method="rls", censor=None, record_at=(0, 5)),
        dict(method="rac-rls"),                               # tau_out missing
        dict(method="rac-rls", tau_out=-2.0),
        dict(method="rac-rls", tau_out=3.0,
             censor={"kind": "constant", "tau": 3.0}),        # tau at the clip
        dict(method="rls"),                                   # censor on plain method
    ]
    for over in cases:
        with pytest.raises(ConfigError):
            _cfg(**over)
    # Replicates run in lockstep; there is no thread pool to size.
    with pytest.raises(ConfigError, match="unknown config field 'threads'"):
        ExperimentConfig.from_dict(_doc(threads=1))


def test_config_record_at_normalized():
    cfg = _cfg(record_at=(8, 2, 2, 5))
    assert cfg.record_at == (2, 5, 8)


def test_config_accepts_valid_variants():
    _cfg(method="samle1", K=30, censor={"kind": "nac-clt", "target_pi": 0.4},
         mu=StepSize.diminishing(1.0))
    _cfg(method="samle2", K=30, censor={"kind": "nac-exact", "target_pi": 0.4})
    _cfg(method="rac-rls", tau_out=4.0,
         censor={"kind": "ac-online", "target_pi": 0.6})
    _cfg(method="rls", censor=None)
    _cfg(method="kaczmarz", censor=None)
    _cfg(method="uniform", censor=None, ratio=0.25)


# ---------------------------------------------------------------------
# JSON round trip
# ---------------------------------------------------------------------

def _doc(**over):
    base = {
        "schema": 1,
        "method": "ac-rls",
        "seed": 11,
        "replicates": 2,
        "stream": {"p": 3, "D": 200, "sigma": 1.0},
        "censor": {"kind": "constant", "tau": 0.8},
    }
    base.update(over)
    return base


def test_from_dict_basic():
    cfg = ExperimentConfig.from_dict(_doc())
    assert cfg.method == "ac-rls"
    assert cfg.stream.p == 3 and cfg.stream.D == 200
    assert cfg.stream.seed == 11  # master seed flows into the stream
    assert cfg.to_dict() == _doc()  # raw echo


def test_from_dict_validation():
    bad_docs = [
        {},                                             # schema missing
        _doc(schema=2),
        _doc(extra_field=1),
        {k: v for k, v in _doc().items() if k != "method"},
        {k: v for k, v in _doc().items() if k != "seed"},
        _doc(stream={"p": 3, "D": 200}),                # sigma missing
        _doc(stream={"p": 3, "D": 200, "sigma": -1.0}),
        _doc(stream={"p": 3, "D": 200, "sigma": 1.0,
                     "cov": {"kind": "spiral"}}),
        _doc(stream={"p": 3, "D": 200, "sigma": 1.0,
                     "cov": {"kind": "toeplitz", "a": 1.0}}),
        _doc(stream={"p": 3, "D": 200, "sigma": 1.0,
                     "outliers": {"prob": 0.1}}),
        _doc(estimator={"mu": {"policy": "constant"}}),
        _doc(dataset={"path": "x.csv"}, stream=None),   # target_column missing
        _doc(dataset={"path": "x.csv", "target_column": "y",
                      "passes": 2}, stream=None),       # passes is a top-level field
    ]
    for doc in bad_docs:
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(doc)
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(["not", "an", "object"])


def test_from_dict_cov_kinds():
    doc = _doc(stream={"p": 3, "D": 200, "sigma": 1.0,
                       "cov": {"kind": "toeplitz", "a": 2.0, "r": 0.5}})
    cfg = ExperimentConfig.from_dict(doc)
    assert cfg.stream.cov[0, 1] == pytest.approx(1.0)
    doc = _doc(stream={"p": 2, "D": 200, "sigma": 1.0,
                       "cov": {"kind": "explicit", "matrix": [[2.0, 0.0], [0.0, 2.0]]}})
    assert ExperimentConfig.from_dict(doc).stream.cov[0, 0] == 2.0
    doc = _doc(stream={"p": 2, "D": 200, "sigma": 1.0, "cov": {"kind": "identity"}})
    assert ExperimentConfig.from_dict(doc).stream.cov is None


def test_from_dict_estimator_block():
    doc = _doc(method="rac-rls",
               estimator={"mu": {"policy": "constant", "value": 0.1},
                          "epsilon": 0.5, "tau_out": 4.0})
    cfg = ExperimentConfig.from_dict(doc)
    assert cfg.mu == StepSize.constant(0.1)
    assert cfg.epsilon == 0.5 and cfg.tau_out == 4.0


@pytest.mark.parametrize("over, message", [
    (dict(stream={"p": 3, "D": 200, "sigma": 1.0, "tau_out": 3.0}),
     "unknown stream field 'tau_out'"),
    (dict(stream={"p": 3, "D": 200, "sigma": 1.0,
                  "cov": {"kind": "toeplitz", "a": 1.0, "r": 0.5, "matrix": [[1.0]]}}),
     "unknown stream.cov field 'matrix'"),
    (dict(stream={"p": 3, "D": 200, "sigma": 1.0, "cov": {"kind": "identity", "a": 1.0}}),
     "unknown stream.cov field 'a'"),
    (dict(stream={"p": 3, "D": 200, "sigma": 1.0,
                  "outliers": {"prob": 0.1, "var": 4.0, "scale": 2.0}}),
     "unknown stream.outliers field 'scale'"),
    (dict(estimator={"epsilonn": 0.5}), "unknown estimator field 'epsilonn'"),
    (dict(estimator={"mu": {"policy": "constant", "value": 0.1, "decay": 0.5}}),
     "unknown estimator.mu field 'decay'"),
    (dict(censor={"kind": "constant", "tau": 0.8, "target_pi": 0.5}),
     "unknown censor field 'target_pi'"),
    (dict(censor={"kind": "ac-offline", "target_pi": 0.5, "tau": 0.8}),
     "unknown censor field 'tau'"),
    (dict(censor={"kind": "constant", "tau": 0.8, "tau_out": 3.0}),
     "unknown censor field 'tau_out'"),
], ids=["stream", "stream.cov-toeplitz", "stream.cov-identity", "stream.outliers",
        "estimator", "estimator.mu", "censor-constant", "censor-target", "censor-other"])
def test_every_section_rejects_unknown_keys(over, message):
    with pytest.raises(ConfigError, match=re.escape(message)):
        ExperimentConfig.from_dict(_doc(**over))


def test_to_dict_without_raw():
    cfg = _cfg(record_at=(4, 2))
    doc = cfg.to_dict()
    assert doc["schema"] == 1
    assert doc["censor"] == {"kind": "constant", "tau": 1.0}
    assert doc["record_at"] == [2, 4]
    rebuilt = ExperimentConfig.from_dict(doc)
    assert rebuilt.method == cfg.method
    assert rebuilt.stream.D == cfg.stream.D


def test_to_dict_dataset_section(tmp_path):
    rng = substream(79)
    X = rng.standard_normal((60, 2))
    y = X @ np.array([1.0, -0.5]) + 0.1 * rng.standard_normal(60)
    f = tmp_path / "d.csv"
    rows = zip(X.tolist(), y.tolist())
    f.write_text("a;y;b\n" + "".join(f"{a};{t};{b}\n" for (a, b), t in rows))
    options = {"target_column": "y", "delimiter": ";", "add_intercept": True,
               "standardize": True}
    cfg = ExperimentConfig(method="rls", seed=4, replicates=2, dataset_path=str(f),
                           dataset_options=options, passes=2)
    doc = cfg.to_dict()
    assert doc["dataset"] == {"path": str(f), **options}
    assert doc["passes"] == 2 and "stream" not in doc
    rebuilt = ExperimentConfig.from_dict(doc)
    assert (rebuilt.dataset_path, rebuilt.dataset_options, rebuilt.passes) == \
        (cfg.dataset_path, options, 2)
    assert rebuilt.to_dict() == doc
    summary = monte_carlo(cfg).summary_doc()
    assert summary["config"] == doc
    assert summary["aggregate"]["n"][-1] == 120


# ---------------------------------------------------------------------
# trial execution
# ---------------------------------------------------------------------

def test_run_trial_deterministic():
    cfg = _cfg()
    a = run_trial(cfg, 123)
    b = run_trial(cfg, 123)
    c = run_trial(cfg, 124)
    np.testing.assert_array_equal(a.final_theta, b.final_theta)
    np.testing.assert_array_equal(a.mse, b.mse)
    np.testing.assert_array_equal(a.multiplies, b.multiplies)
    assert not np.array_equal(a.final_theta, c.final_theta)


def test_trace_shape_and_schedule():
    cfg = _cfg(record_at=(10, 100, 400))
    t = run_trial(cfg, 5)
    np.testing.assert_array_equal(t.n, [10, 100, 400])
    assert t.mse.shape == t.rse.shape == t.censor_ratio.shape == (3,)
    assert t.steps == 400
    assert 0 < t.kept_total < 400
    # censor ratio at each mark is (n - kept_so_far) / n
    assert np.all((0 <= t.censor_ratio) & (t.censor_ratio < 1))
    assert t.rse[-1] == pytest.approx(t.mse[-1] / float(
        cfg.stream.pinned().resolved_theta() @ cfg.stream.pinned().resolved_theta()))


def test_default_schedule_is_geometric():
    t = run_trial(_cfg(), 5)
    np.testing.assert_array_equal(t.n, geometric_schedule(400))


def test_record_at_beyond_stream():
    with pytest.raises(ConfigError):
        run_trial(_cfg(record_at=(401,)), 5)


def test_nac_trial_consumes_warmup():
    cfg = _cfg(method="samle2", K=50,
               censor={"kind": "nac-clt", "target_pi": 0.3})
    t = run_trial(cfg, 9)
    # 400 data minus K = 50 warm-up leaves 350 recursion steps.
    assert t.steps == 350
    assert 0 < t.kept_total < 350


def test_nac_trial_needs_enough_data():
    cfg = _cfg(method="samle2", K=500,
               censor={"kind": "nac-clt", "target_pi": 0.3})
    with pytest.raises(ConfigError):
        run_trial(cfg, 9)
    # A warm-up of the whole stream leaves the recursion no step.
    with pytest.raises(ConfigError, match="stream leaves no data to process after warm-up"):
        run_trial(_cfg(method="samle2", K=400, censor={"kind": "constant", "tau": 1.0}), 9)


def test_lms_requires_mu():
    cfg = _cfg(method="lms", censor=None)
    with pytest.raises(ConfigError):
        run_trial(cfg, 1)


def test_samle1_default_gain():
    cfg = _cfg(method="samle1", K=50,
               censor={"kind": "constant", "tau": 0.5},
               stream=_stream(sigma=2.0))
    t = run_trial(cfg, 3)  # runs: default mu = diminishing sigma^2
    assert np.isfinite(t.mse).all()


def test_aclms_default_gain_needs_known_covariance():
    cfg = _cfg(method="ac-lms", censor={"kind": "constant", "tau": 0.5},
               stream=_stream(design="student-t", df=2.0))
    with pytest.raises(ConfigError):
        run_trial(cfg, 1)


def test_aclms_default_gain_is_two_over_alpha(tmp_path):
    # With the design covariance known, ac-lms without mu steps with the
    # diminishing gain 2/(alpha n), alpha from the paper's constants.
    default = _doc(method="ac-lms")
    alpha = prop_bounds(ExperimentConfig.from_dict(default))["alpha"]
    given = _doc(method="ac-lms",
                 estimator={"mu": {"policy": "diminishing", "value": 2.0 / alpha}})
    runs = []
    for name, doc in (("default", default), ("given", given)):
        res = monte_carlo(ExperimentConfig.from_dict(doc))
        runs.append((write_results_csv(res.traces, tmp_path / f"{name}.csv").read_bytes(),
                     [t.final_theta.tobytes() for t in res.traces]))
    assert runs[0] == runs[1]


def test_rank_deficient_warm_up_names_K(tmp_path):
    # Column a is 0 in the first 40 rows, so no fit on the first K = 20
    # exists, although the file as a whole has full rank.
    rng = substream(79)
    X = rng.standard_normal((120, 3))
    X[:40, 0] = 0.0
    assert np.linalg.matrix_rank(X) == 3
    y = X @ np.array([0.5, -1.0, 2.0]) + 0.2 * rng.standard_normal(120)
    f = tmp_path / "d.csv"
    f.write_text("a,b,c,y\n" + "".join(
        ",".join(repr(float(v)) for v in (*r, t)) + "\n" for r, t in zip(X, y)))
    cfg = ExperimentConfig.from_dict({
        "schema": 1, "method": "samle2", "seed": 3, "K": 20,
        "dataset": {"path": str(f), "target_column": "y"},
        "censor": {"kind": "constant", "tau": 1.0},
    })
    with pytest.raises(SingularityError, match="first K=20 data is rank deficient"):
        monte_carlo(cfg)


def test_batch_trial_trace():
    cfg = _cfg(method="srht", censor=None, ratio=0.25,
               stream=_stream(D=512))
    t = run_trial(cfg, 21)
    d = 128
    np.testing.assert_array_equal(t.n, [d])
    assert t.kept_total == d
    assert t.censor_ratio[0] == pytest.approx((512 - d) / 512)
    p = 4
    assert t.multiplies[0] == 512 * (p + 1) + d * p * p + p**3 // 3


def test_kaczmarz_trial_trace():
    cfg = _cfg(method="kaczmarz", censor=None, stream=_stream(D=64))
    t = run_trial(cfg, 2)
    np.testing.assert_array_equal(t.n, geometric_schedule(64))
    p = 4
    np.testing.assert_array_equal(t.multiplies, [64 * p + k * (2 * p + 1) for k in t.n])
    assert np.all(t.censor_ratio == 0.0)
    np.testing.assert_array_equal(run_trial(cfg, 2).final_theta, t.final_theta)


def test_dataset_trial(tmp_path):
    rng = substream(77)
    X = rng.standard_normal((120, 3))
    theta = np.array([0.5, -1.0, 2.0])
    y = X @ theta + 0.2 * rng.standard_normal(120)
    lines = ["a,b,c,y"] + [
        ",".join(repr(float(v)) for v in (*r, t)) for r, t in zip(X, y)
    ]
    f = tmp_path / "d.csv"
    f.write_text("\n".join(lines) + "\n")
    cfg = ExperimentConfig.from_dict({
        "schema": 1, "method": "ac-rls", "seed": 3,
        "dataset": {"path": str(f), "target_column": "y"},
        "censor": {"kind": "constant", "tau": 0.5},
    })
    t = run_trial(cfg, 3)
    assert t.steps == 120
    # The surrogate truth is the full-data LSE, so the final fit of a
    # mild censor lands close to it.
    assert t.mse[-1] < 0.1


def test_multipass_dataset(tmp_path):
    rng = substream(78)
    X = rng.standard_normal((40, 2))
    y = X @ np.array([1.0, -1.0]) + 0.1 * rng.standard_normal(40)
    lines = ["a,b,y"] + [
        ",".join(repr(float(v)) for v in (*r, t)) for r, t in zip(X, y)
    ]
    f = tmp_path / "d.csv"
    f.write_text("\n".join(lines) + "\n")
    doc = {"schema": 1, "method": "ac-rls", "seed": 3, "passes": 3,
           "dataset": {"path": str(f), "target_column": "y"},
           "censor": {"kind": "constant", "tau": 0.5}}
    t = run_trial(ExperimentConfig.from_dict(doc), 3)
    assert t.steps == 120


@pytest.mark.parametrize("method, multiplies", [("srht", 10_685), ("uniform", 4_541)])
def test_batch_passes_sketch_the_stacked_rows(tmp_path, method, multiplies):
    # Two passes over a file sketch what one pass over the file written
    # twice does.  Only the surrogate truth, refit on the stacked rows,
    # may differ in its last bits, and with it the error.
    rng = substream(80)
    X = rng.standard_normal((300, 5))
    y = X @ np.arange(1.0, 6.0) + 0.3 * rng.standard_normal(300)
    body = "".join(",".join(repr(float(v)) for v in (*row, t)) + "\n" for row, t in zip(X, y))
    once, twice = tmp_path / "once.csv", tmp_path / "twice.csv"
    once.write_text("a,b,c,d,e,y\n" + body)
    twice.write_text("a,b,c,d,e,y\n" + body + body)
    traces = []
    for path, passes in ((once, 2), (twice, 1)):
        doc = {"schema": 1, "method": method, "seed": 6, "ratio": 0.3, "passes": passes,
               "dataset": {"path": str(path), "target_column": "y"}}
        traces.append(run_trial(ExperimentConfig.from_dict(doc), 6))
    tiled, stacked = traces
    assert tiled.final_theta.tobytes() == stacked.final_theta.tobytes()
    for name in ("n", "multiplies", "censor_ratio"):
        np.testing.assert_array_equal(getattr(tiled, name), getattr(stacked, name))
    assert tiled.kept_total == 180 and tiled.multiplies[0] == multiplies
    np.testing.assert_allclose(tiled.mse, stacked.mse, rtol=1e-9)


def _traced_peak(cfg) -> int:
    tracemalloc.start()
    try:
        monte_carlo(cfg)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_dataset_passes_are_walked_not_tiled(tmp_path):
    # Once the dataset is loaded, more passes hold at most the one panel
    # that crosses a pass boundary: _PANEL rows of 20 x columns and y, and
    # its two array objects.  Tiling held all passes at once.
    f = tmp_path / "d.csv"
    f.write_text(",".join(f"x{j}" for j in range(20)) + ",y\n" + "".join(
        ",".join(repr(float(v)) for v in row) + "\n"
        for row in substream(81).standard_normal((3_000, 21))))
    doc = {"schema": 1, "method": "ac-rls", "seed": 3,
           "dataset": {"path": str(f), "target_column": "y"},
           "censor": {"kind": "ac-offline", "target_pi": 0.9}}
    monte_carlo(ExperimentConfig.from_dict(doc))  # load the dataset
    one = _traced_peak(ExperimentConfig.from_dict(doc))
    many = _traced_peak(ExperimentConfig.from_dict({**doc, "passes": 16}))
    assert many - one <= _PANEL * 21 * 8 + 1_024


def test_kaczmarz_dataset_passes_are_not_tiled(tmp_path):
    # Kaczmarz draws over the rows of every pass but reads data row i mod D.
    # What grows with the pass count is a few vectors of one number per
    # stacked row: the tiled energies, numpy's cumulative distribution and
    # uniforms inside choice, and the draws.  Tiling X and y added 21 such
    # vectors here (9.99 MB at 16 passes against 0.44 MB at one).
    f = tmp_path / "d.csv"
    f.write_text(",".join(f"x{j}" for j in range(20)) + ",y\n" + "".join(
        ",".join(repr(float(v)) for v in row) + "\n"
        for row in substream(81).standard_normal((3_000, 21))))
    doc = {"schema": 1, "method": "kaczmarz", "seed": 3,
           "dataset": {"path": str(f), "target_column": "y"}}
    monte_carlo(ExperimentConfig.from_dict(doc))  # load the dataset
    one = _traced_peak(ExperimentConfig.from_dict(doc))
    many = _traced_peak(ExperimentConfig.from_dict({**doc, "passes": 16}))
    assert many - one <= 4 * 16 * 3_000 * 8


def test_single_stream_panels_are_not_copied():
    # The lockstep reads the generator's panels in place and lets go of
    # each before the next is drawn: the panel being drawn is the only one
    # alive, beside the step matrix.  A second buffer made it three.
    p = 50
    cfg = _cfg(stream=_stream(p=p, D=4 * _PANEL + 100),
               censor={"kind": "ac-offline", "target_pi": 0.9})
    monte_carlo(cfg)
    assert _traced_peak(cfg) < 2 * _PANEL * p * 8


def test_replicate_streams_share_one_panel_buffer():
    # R > 1 streams are drawn into one (m, R, p) buffer, m at most _PANEL,
    # that each panel overwrites.  Beside it at the peak: the panel being
    # drawn, the step matrices with their pending vectors and fold output,
    # and NAC's per-panel offsets (2.0 buffers in all at R = 25, p = 30).
    R, p = 25, 30
    cfg = ExperimentConfig.from_dict({
        "schema": 1, "method": "samle2", "seed": 5, "replicates": R, "K": 50,
        "stream": {"p": p, "D": 4 * _PANEL + 100, "sigma": 1.0},
        "censor": {"kind": "constant", "tau": 1.5}})
    monte_carlo(cfg)
    assert _traced_peak(cfg) < 2.5 * _PANEL * R * p * 8


def _write_fixed_width(path, seed, rows):
    path.write_text("a,b,y\n" + "".join(",".join(f"{v:+.6e}" for v in row) + "\n"
                                        for row in substream(seed).standard_normal((rows, 3))))


@pytest.mark.parametrize("rewrite", ["other-size", "same-size"])
def test_dataset_rewritten_between_runs_is_read_again(tmp_path, rewrite):
    # The process keeps one loaded copy per file; a rewrite of the file
    # changes its size or mtime, and the next run reads it again.
    f = tmp_path / "d.csv"
    doc = {"schema": 1, "method": "rls", "seed": 3,
           "dataset": {"path": str(f), "target_column": "y"}}
    _write_fixed_width(f, 1, 200)
    first = monte_carlo(ExperimentConfig.from_dict(doc)).traces[0].final_theta
    before = f.stat()
    _write_fixed_width(f, 2, 300 if rewrite == "other-size" else 200)
    if rewrite == "same-size":  # as if a tick of the file system's clock had passed
        assert f.stat().st_size == before.st_size
        os.utime(f, ns=(before.st_atime_ns, before.st_mtime_ns + 1_000_000_000))
    got = monte_carlo(ExperimentConfig.from_dict(doc)).traces[0].final_theta
    fresh = tmp_path / "fresh.csv"
    shutil.copyfile(f, fresh)
    want = monte_carlo(ExperimentConfig.from_dict(
        {**doc, "dataset": {"path": str(fresh), "target_column": "y"}})).traces[0].final_theta
    assert got.tobytes() == want.tobytes()
    assert got.tobytes() != first.tobytes()


def test_dataset_arrays_are_read_only(tmp_path):
    # One cached copy serves every sweep point and replicate.
    rng = substream(80)
    f = tmp_path / "d.csv"
    f.write_text("a,b,y\n" + "".join(
        ",".join(repr(float(v)) for v in row) + "\n" for row in rng.standard_normal((20, 3))))
    X, y, theta_o, _ = harness._dataset_arrays(str(f), (("target_column", "y"),))
    for a in (X, y, theta_o):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 1.0


def test_dataset_replicates_run_once(tmp_path, monkeypatch):
    # Every replicate streams the same file through a recursion that draws
    # no randomness, so replicate 0 runs alone and stands for all seeds.
    rng = substream(79)
    X = rng.standard_normal((90, 3))
    y = X @ np.array([1.0, 0.5, -2.0]) + 0.3 * rng.standard_normal(90)
    f = tmp_path / "d.csv"
    f.write_text("a,b,c,y\n" + "".join(
        ",".join(repr(float(v)) for v in (*r, t)) + "\n" for r, t in zip(X, y)))
    doc = {"schema": 1, "method": "ac-rls", "seed": 4, "replicates": 3,
           "dataset": {"path": str(f), "target_column": "y"},
           "censor": {"kind": "ac-offline", "target_pi": 0.5}}
    one = monte_carlo(ExperimentConfig.from_dict({**doc, "replicates": 1})).traces[0]
    lockstep_widths = []
    run_lockstep = harness._run_lockstep
    monkeypatch.setattr(harness, "_run_lockstep", lambda cfg, seeds, data=None:
                        lockstep_widths.append(len(seeds)) or run_lockstep(cfg, seeds, data))
    res = monte_carlo(ExperimentConfig.from_dict(doc))
    assert lockstep_widths == [1]
    assert [t.seed for t in res.traces] == [derive(4, r) for r in range(3)]
    for t in res.traces:
        for name in ("method", "n", "mse", "rse", "censor_ratio", "multiplies",
                     "kept_total", "final_theta"):
            np.testing.assert_array_equal(getattr(t, name), getattr(one, name))


# ---------------------------------------------------------------------
# Monte Carlo aggregation
# ---------------------------------------------------------------------

def test_monte_carlo_replicates():
    cfg = _cfg(replicates=6)
    res = monte_carlo(cfg)
    assert len(res.traces) == 6
    # replicate r runs on the derived child seed
    assert [t.seed for t in res.traces] == [derive(cfg.seed, r) for r in range(6)]
    # the aggregates are the replicate means of the traces
    np.testing.assert_array_equal(res.mse_mean, np.mean([t.mse for t in res.traces], axis=0))
    np.testing.assert_array_equal(res.multiplies_mean,
                                  np.mean([t.multiplies for t in res.traces], axis=0))


def test_monte_carlo_shares_truth_across_replicates():
    cfg = _cfg(replicates=3)
    res = monte_carlo(cfg)
    theta_o = cfg.stream.pinned().resolved_theta()
    # All replicates see the same truth: their final fits all converge
    # to its neighborhood rather than to per-replicate truths.
    for t in res.traces:
        assert float(np.sum((t.final_theta - theta_o) ** 2)) < 0.5


def test_summary_doc_contents():
    res = monte_carlo(_cfg(replicates=2))
    doc = res.summary_doc()
    assert doc["replicates"] == 2
    agg = doc["aggregate"]
    assert len(agg["n"]) == len(agg["mse_mean"]) == len(agg["rse_mean"])
    assert "bounds" in doc  # synthetic censored config carries bounds
    json.dumps(doc)


# ---------------------------------------------------------------------
# closed-form bounds
# ---------------------------------------------------------------------

def test_prop_bounds_constants():
    cfg = _cfg(stream=_stream(p=3), censor={"kind": "constant", "tau": 1.0})
    b = prop_bounds(cfg)
    q1 = quad_q(1.0)
    assert b["tau"] == 1.0
    assert b["alpha"] == pytest.approx(2.0 * q1, rel=1e-9)
    assert b["L2"] == pytest.approx(1.0)
    assert b["Delta"] == pytest.approx(
        2.0 * 3 * (1.0 - q1 + 1.0 * pdf(1.0)), rel=1e-9)
    assert b["trace_inv"] == pytest.approx(3.0)


def test_prop_bounds_plan_tau():
    cfg = _cfg(censor={"kind": "ac-offline", "target_pi": 0.5})
    assert prop_bounds(cfg)["tau"] == pytest.approx(0.6744897501960817, rel=1e-10)
    cfg = _cfg(censor={"kind": "ac-offline", "target_pi": 0.0})
    assert prop_bounds(cfg)["tau"] == 0.0


def test_prop_bounds_bracket_and_curve():
    cfg = _cfg(stream=_stream(p=3, sigma=2.0))
    b = prop_bounds(cfg)
    lo, hi = b["prop3_bracket"](100)
    assert lo == pytest.approx(3 * 4.0 / 100)
    assert hi == pytest.approx(lo / (2.0 * quad_q(1.0)), rel=1e-9)
    assert b["prop2_bound"](200) < b["prop2_bound"](50)
    assert b["prop1_bound"](100, 2.0, 3.0, 4.0) == pytest.approx(
        math.sqrt(200.0) * 24.0)


def test_prop_bounds_student_t_scaling():
    plain = prop_bounds(_cfg(stream=_stream(p=3)))
    heavy = prop_bounds(_cfg(stream=_stream(p=3, design="student-t", df=6.0)))
    assert heavy["L2"] == pytest.approx(plain["L2"] * (6.0 / 4.0) ** 2)
    with pytest.raises(ConfigError):
        prop_bounds(_cfg(stream=_stream(p=3, design="student-t", df=2.0)))


def test_prop_bounds_requires_censored_synthetic():
    with pytest.raises(ConfigError):
        prop_bounds(_cfg(method="rls", censor=None))


# ---------------------------------------------------------------------
# result files
# ---------------------------------------------------------------------

def test_results_csv_stable_and_sorted(tmp_path):
    res = monte_carlo(_cfg(replicates=3))
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_results_csv(res.traces, a)
    write_results_csv(list(reversed(res.traces)), b)
    assert a.read_bytes() == b.read_bytes()
    lines = a.read_text().splitlines()
    assert lines[0] == "method,seed,n,mse,rse,censor_ratio,multiplies"
    assert len(lines) == 1 + 3 * len(res.traces[0].n)


def test_summary_json_stable(tmp_path):
    res = monte_carlo(_cfg(replicates=2))
    a = write_summary_json(res, tmp_path / "a.json")
    b = write_summary_json(res, tmp_path / "b.json")
    assert a.read_bytes() == b.read_bytes()
    doc = json.loads(a.read_text())
    assert doc["config"]["method"] == "ac-rls"

