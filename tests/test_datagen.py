"""Synthetic stream generation: reproducibility and moment checks."""

import json

import numpy as np
import pytest

from cendre.datagen import StreamSpec, full_lse_mse, generate, materialize, toeplitz_cov
from cendre.errors import ConfigError, DomainError


def test_toeplitz_cov_values():
    got = toeplitz_cov(4, a=2.0, r=0.5)
    idx = np.arange(4)
    want = 2.0 * 0.5 ** np.abs(idx[:, None] - idx[None, :])
    np.testing.assert_allclose(got, want, rtol=1e-14)
    np.linalg.cholesky(got)  # SPD by construction
    np.linalg.cholesky(toeplitz_cov(6, a=1.0, r=-0.9))


def test_toeplitz_cov_domain():
    with pytest.raises(DomainError):
        toeplitz_cov(3, a=0.0, r=0.5)
    with pytest.raises(DomainError):
        toeplitz_cov(3, a=1.0, r=1.0)


def test_stream_doc_round_trip():
    spec = StreamSpec.from_doc({"p": 3, "D": 40, "sigma": 0.5, "design": "student-t", "df": 4,
                                "cov": {"kind": "toeplitz", "a": 2.0, "r": 0.5},
                                "theta": [1.0, -2.0, 0.25],
                                "outliers": {"prob": 0.1, "var": 9.0}}, default_seed=17)
    assert spec.seed == 17  # no seed key: the default fills it
    doc = spec.to_doc()
    assert doc["cov"] == {"kind": "explicit", "matrix": toeplitz_cov(3, 2.0, 0.5).tolist()}
    assert json.loads(json.dumps(doc)) == doc
    back = StreamSpec.from_doc(doc, default_seed=99)
    assert back.to_doc() == doc
    assert back.seed == 17 and back.df == 4.0
    np.testing.assert_array_equal(back.theta, spec.theta)
    for a, b in zip(materialize(back), materialize(spec)):
        np.testing.assert_array_equal(a, b)
    # Defaults are left out and read back as defaults.
    plain = StreamSpec.from_doc({"p": 2, "D": 5, "sigma": 1.0}, default_seed=3)
    assert plain.to_doc() == {"p": 2, "D": 5, "sigma": 1.0, "seed": 3, "design": "gaussian"}


def test_stream_doc_domain_error_is_a_config_error():
    with pytest.raises(ConfigError, match="invalid 'stream' section: student-t design"):
        StreamSpec.from_doc({"p": 2, "D": 5, "sigma": 1.0, "design": "student-t"}, 1)


def test_spec_validation():
    ok = dict(p=3, D=10, sigma=1.0, seed=1)
    StreamSpec(**ok)
    for bad in (dict(ok, p=0), dict(ok, D=0), dict(ok, sigma=-0.1),
                dict(ok, design="laplace"), dict(ok, design="student-t"),
                dict(ok, design="student-t", df=0.5),
                dict(ok, cov=np.eye(2)), dict(ok, theta=np.ones(4)),
                dict(ok, outlier_prob=1.5), dict(ok, outlier_var=-1.0),
                dict(ok, seed=-1)):
        with pytest.raises(DomainError):
            StreamSpec(**bad)


def test_spec_helpers():
    spec = StreamSpec(p=3, D=10, sigma=1.0, seed=7)
    assert not spec.has_outliers
    assert StreamSpec(p=3, D=10, sigma=1.0, seed=7,
                      outlier_prob=0.1, outlier_var=2.0).has_outliers
    np.testing.assert_array_equal(spec.design_cov(), np.eye(3))


def test_theta_resolution():
    spec = StreamSpec(p=4, D=5, sigma=1.0, seed=3)
    a, b = spec.resolved_theta(), spec.resolved_theta()
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, spec.with_seed(4).resolved_theta())
    explicit = StreamSpec(p=4, D=5, sigma=1.0, seed=3, theta=[1, 2, 3, 4])
    np.testing.assert_array_equal(explicit.resolved_theta(), [1.0, 2.0, 3.0, 4.0])


def test_pinned_survives_reseeding():
    spec = StreamSpec(p=4, D=5, sigma=1.0, seed=3).pinned()
    np.testing.assert_array_equal(spec.theta, spec.with_seed(99).resolved_theta())
    assert spec.pinned() is spec


def test_lazy_walk_is_bitwise_materialize():
    # The heaviest spec: correlated t regressors plus outliers.  The
    # lazy walk must be bitwise identical to the arrays, and a partial
    # walk must be the exact prefix.
    from itertools import islice

    spec = StreamSpec(p=3, D=2000, sigma=0.5, seed=17, design="student-t",
                      df=4.0, cov=toeplitz_cov(3, 1.0, 0.4),
                      outlier_prob=0.2, outlier_var=9.0)
    X, y = materialize(spec)
    run = list(generate(spec))
    assert len(run) == 2000
    for n, (yn, xn) in enumerate(run):
        assert yn == y[n]
        np.testing.assert_array_equal(xn, X[n])
    prefix = list(islice(generate(spec), 13))
    assert [v for v, _ in prefix] == [v for v, _ in run[:13]]


def test_regressors_unaffected_by_outlier_switch():
    base = dict(p=3, D=200, sigma=1.0, seed=23)
    X0, y0 = materialize(StreamSpec(**base))
    X1, y1 = materialize(StreamSpec(**base, outlier_prob=0.15, outlier_var=4.0))
    np.testing.assert_array_equal(X0, X1)
    hit = y0 != y1
    assert np.mean(hit) == pytest.approx(0.15, abs=0.08)


def test_design_covariance_realized():
    cov = toeplitz_cov(4, a=1.5, r=0.6)
    spec = StreamSpec(p=4, D=20_000, sigma=0.0, seed=31, cov=cov)
    X, _ = materialize(spec)
    emp = X.T @ X / X.shape[0]
    rel = np.linalg.norm(emp - cov) / np.linalg.norm(cov)
    assert rel < 0.05


def test_student_t_coordinate_variance():
    # For shape I and df nu, each coordinate has variance nu/(nu - 2).
    df = 8.0
    spec = StreamSpec(p=5, D=20_000, sigma=0.0, seed=37, design="student-t", df=df)
    X, _ = materialize(spec)
    assert float(np.mean(X**2)) == pytest.approx(df / (df - 2.0), rel=0.05)


def test_student_t_tails_heavier_than_gaussian():
    base = dict(p=2, D=50_000, sigma=0.0, seed=41)
    Xg, _ = materialize(StreamSpec(**base))
    Xt, _ = materialize(StreamSpec(**base, design="student-t", df=3.0))
    assert np.mean(np.abs(Xt) > 3.0) > 2.0 * np.mean(np.abs(Xg) > 3.0)


def test_noise_scale():
    spec = StreamSpec(p=3, D=30_000, sigma=2.0, seed=43, theta=np.zeros(3))
    _, y = materialize(spec)
    assert float(np.std(y)) == pytest.approx(2.0, rel=0.03)


def test_bad_cov_rejected_at_generation():
    bad = np.array([[1.0, 2.0], [2.0, 1.0]])  # indefinite
    spec = StreamSpec(p=2, D=5, sigma=1.0, seed=1, cov=bad)
    with pytest.raises(DomainError):
        materialize(spec)


def test_full_lse_mse_matches_theory():
    # E||theta_hat - theta||^2 = sigma^2 E tr (X'X)^{-1}
    #                          = sigma^2 p / (D - p - 1) for Gaussian X.
    p, D, sigma = 5, 40, 1.0
    spec = StreamSpec(p=p, D=D, sigma=sigma, seed=47)
    got = full_lse_mse(spec, runs=400)
    want = sigma**2 * p / (D - p - 1)
    assert got == pytest.approx(want, rel=0.15)


def test_full_lse_mse_deterministic():
    spec = StreamSpec(p=3, D=20, sigma=1.0, seed=53)
    assert full_lse_mse(spec, runs=5) == full_lse_mse(spec, runs=5)
    with pytest.raises(DomainError):
        full_lse_mse(spec, runs=0)
