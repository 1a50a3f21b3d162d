"""Numerical primitives: Gaussian functions, interval probabilities,
the Sherman-Morrison step of RLS, the Walsh-Hadamard transform, and RNG
substreams.  Expected values pinned here were computed from quadrature,
bisection, and explicit-matrix oracles (see oracles.py); a few
high-precision constants were frozen from a 40-digit evaluation.
"""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from cendre.errors import DomainError, SingularityError
from cendre.numkit import (
    cholesky_solve,
    derive,
    fwht_in_place,
    gauss_pdf,
    gauss_q,
    gauss_q_inv,
    interval_log_prob,
    substream,
)
from cendre.estimators import RLS

import oracles


# ---------------------------------------------------------------------
# gauss_pdf
# ---------------------------------------------------------------------

def test_pdf_at_zero():
    assert gauss_pdf(0.0) == pytest.approx(0.3989422804014327, abs=1e-15)


def test_pdf_at_three_halves():
    # 40-digit evaluation: 0.12951759566589172761...
    assert gauss_pdf(1.5) == pytest.approx(0.1295175956658917, abs=1e-15)


def test_pdf_symmetry_grid():
    t = np.linspace(0.0, 8.0, 97)
    np.testing.assert_allclose(gauss_pdf(t), gauss_pdf(-t), rtol=0, atol=0)


def test_pdf_derivative_identity():
    # phi'(t) = -t phi(t), checked by central differences on a grid.
    for t in np.linspace(-4.0, 4.0, 33):
        fd = oracles.central_diff_scalar(gauss_pdf, t)
        exact = -t * gauss_pdf(t)
        assert fd == pytest.approx(exact, abs=1e-9 + 1e-6 * abs(exact))


def test_pdf_array_shape():
    out = gauss_pdf(np.zeros((2, 3)))
    assert out.shape == (2, 3)
    assert isinstance(gauss_pdf(0.5), float)


# ---------------------------------------------------------------------
# gauss_q
# ---------------------------------------------------------------------

def test_q_at_zero():
    assert gauss_q(0.0) == pytest.approx(0.5, abs=1e-15)


def test_q_at_196_quadrature():
    # quadrature oracle: 0.024997895148220434
    assert gauss_q(1.96) == pytest.approx(0.024997895148220434, rel=1e-12)
    assert gauss_q(1.96) == pytest.approx(oracles.quad_q(1.96), rel=1e-9)


def test_q_deep_tail_bounds():
    # phi(8)*8/(1+64) <= Q(8) <= phi(8)/8, and the value is tiny.
    q8 = gauss_q(8.0)
    assert 0.0 < q8 < 1e-14
    assert gauss_pdf(8.0) * 8.0 / 65.0 <= q8 <= gauss_pdf(8.0) / 8.0


def test_q_reflection_grid():
    t = np.linspace(-8.0, 8.0, 161)
    np.testing.assert_allclose(gauss_q(t) + gauss_q(-t), 1.0, rtol=0, atol=1e-12)


def test_q_strictly_decreasing():
    # Inside [-8, 8]; further left Q saturates at 1.0 in double precision.
    t = np.linspace(-8.0, 8.0, 161)
    q = gauss_q(t)
    assert np.all(np.diff(q) < 0)


@given(st.floats(-6.0, 6.0), st.floats(1e-3, 5.0))
def test_q_monotone_property(t, gap):
    assert gauss_q(t + gap) < gauss_q(t)


# ---------------------------------------------------------------------
# gauss_q_inv
# ---------------------------------------------------------------------

def test_q_inv_at_half():
    assert gauss_q_inv(0.5) == pytest.approx(0.0, abs=1e-15)


def test_q_inv_at_025():
    # bisection oracle on the quadrature Q: 1.9599639845400542
    assert gauss_q_inv(0.025) == pytest.approx(1.9599639845400542, abs=1e-10)
    assert gauss_q_inv(0.025) == pytest.approx(oracles.bisect_q_inv(0.025), abs=1e-8)


def test_q_inv_round_trip_pinned():
    assert gauss_q_inv(gauss_q(1.2345)) == pytest.approx(1.2345, abs=1e-9)


def test_q_inv_round_trip_grid():
    for u in np.geomspace(1e-12, 0.5, 40):
        t = gauss_q_inv(u)
        assert abs(gauss_q(t) - u) <= 1e-12 + 1e-12 * u


def test_q_inv_domain():
    for bad in (0.0, 1.0, -0.3, 1.7):
        with pytest.raises(DomainError):
            gauss_q_inv(bad)


@given(st.floats(1e-10, 1.0 - 1e-10))
def test_q_inv_round_trip_property(u):
    t = gauss_q_inv(u)
    assert abs(gauss_q(t) - u) <= 1e-11


# ---------------------------------------------------------------------
# interval_log_prob
# ---------------------------------------------------------------------

def test_interval_symmetric_unit():
    # quadrature oracle: P(-1 < Z < 1) = 0.6826894921370859
    want = math.log(0.6826894921370859)
    assert interval_log_prob(-1.0, 1.0) == pytest.approx(want, abs=1e-9)


def test_interval_reflection():
    for zl, zu in [(-2.0, 0.5), (0.3, 1.7), (-4.0, -1.0)]:
        assert interval_log_prob(zl, zu) == pytest.approx(
            interval_log_prob(-zu, -zl), rel=1e-14)


def test_interval_far_tail_pinned():
    # 40-digit oracle: log(Q(10) - Q(11)) = -53.23131022558312486
    got = interval_log_prob(10.0, 11.0)
    assert got == pytest.approx(-53.23131022558312, rel=1e-6)


def test_interval_extreme_tail_finite():
    # 40-digit oracle: log(Q(30) - Q(31)) = -454.32124395634325
    got = interval_log_prob(30.0, 31.0)
    assert math.isfinite(got)
    assert got == pytest.approx(-454.32124395634325, rel=1e-10)


def test_interval_matches_quadrature_moderate():
    rng = np.random.default_rng(7)
    for _ in range(50):
        zl = rng.uniform(-5.0, 4.9)
        zu = zl + rng.uniform(1e-3, 5.0)
        want = oracles.quad_interval_prob(zl, zu)
        assert math.exp(interval_log_prob(zl, zu)) == pytest.approx(want, rel=1e-9)


def test_interval_partition_of_unity():
    rng = np.random.default_rng(11)
    for _ in range(50):
        zl = rng.uniform(-5.0, 5.0)
        zu = rng.uniform(-5.0, 5.0)
        zl, zu = min(zl, zu), max(zl, zu)
        if zu - zl < 1e-9:
            continue
        total = (math.exp(interval_log_prob(zl, zu))
                 + math.exp(interval_log_prob(zu, 35.0))
                 + math.exp(interval_log_prob(-35.0, zl)))
        assert total == pytest.approx(1.0, abs=1e-9)


def test_interval_domain_errors():
    with pytest.raises(DomainError):
        interval_log_prob(1.0, 1.0)
    with pytest.raises(DomainError):
        interval_log_prob(2.0, -2.0)
    with pytest.raises(DomainError):
        interval_log_prob(np.inf, 3.0)


@given(st.floats(-34.0, 33.0), st.floats(1e-3, 8.0))
def test_interval_negative_and_ordered(zl, width):
    out = interval_log_prob(zl, zl + width)
    assert out < 0.0
    wider = interval_log_prob(zl - 0.5, zl + width + 0.5)
    assert wider > out


# ---------------------------------------------------------------------
# the Sherman-Morrison step of RLS: P <- (P^-1 + w x x')^-1
# ---------------------------------------------------------------------

def test_rank_one_canonical():
    est = RLS(4, inv_gram0=np.eye(4))
    est.step(1.0, np.eye(4)[0])
    np.testing.assert_allclose(est.P, np.diag([0.5, 1.0, 1.0, 1.0]), atol=1e-15)


def test_rank_one_zero_weight():
    # A clipped outlier enters with weight 0: theta moves, P does not.
    C = np.array([[2.0, 0.5], [0.5, 1.0]])
    est = RLS(2, inv_gram0=C, sigma=1.0, tau_out=2.0)
    _, decision = est.step(10.0, [1.0, 2.0], tau=0.5)
    assert decision.outlier and np.any(est.theta != 0.0)
    np.testing.assert_array_equal(est.P, C)


def test_rank_one_matches_dense_oracle():
    rng = np.random.default_rng(3)
    for p in (2, 5, 20, 50):
        A = rng.standard_normal((p, p))
        C = A @ A.T + p * np.eye(p)
        x = rng.standard_normal(p)
        est = RLS(p, inv_gram0=C)
        est.step(1.0, x)
        np.testing.assert_allclose(est.P, oracles.dense_inverse_update(C, x, 1.0), rtol=1e-8)
        np.testing.assert_allclose(est.P, est.P.T, atol=1e-12 * np.abs(est.P).max())


def test_rank_one_singular_denominator():
    # x' P x = -1 makes the update blow up.
    est = RLS(3, inv_gram0=-np.eye(3))
    with pytest.raises(SingularityError):
        est.step(1.0, np.array([1.0, 0.0, 0.0]))


# ---------------------------------------------------------------------
# fwht_in_place
# ---------------------------------------------------------------------

def test_fwht_h2_column():
    np.testing.assert_allclose(fwht_in_place(np.array([1.0, 0.0])), [1.0, 1.0])


def test_fwht_involution():
    rng = np.random.default_rng(5)
    v = rng.standard_normal(32)
    out = fwht_in_place(fwht_in_place(v.copy()))
    np.testing.assert_allclose(out, 32.0 * v, rtol=1e-12)


def test_fwht_matches_naive_16():
    rng = np.random.default_rng(9)
    v = rng.standard_normal(16)
    want = oracles.hadamard_matrix(16) @ v
    np.testing.assert_allclose(fwht_in_place(v.copy()), want, atol=1e-12)


def test_fwht_columnwise_2d():
    rng = np.random.default_rng(13)
    M = rng.standard_normal((8, 3))
    want = oracles.hadamard_matrix(8) @ M
    np.testing.assert_allclose(fwht_in_place(M.copy()), want, atol=1e-12)


def test_fwht_in_place_aliasing():
    v = np.arange(4, dtype=np.float64)
    out = fwht_in_place(v)
    assert out is v


def test_fwht_rejects_non_power_of_two():
    for n in (0, 3, 6, 12):
        with pytest.raises(DomainError):
            fwht_in_place(np.zeros(n))


def _signed_zeros(shape, seed=17):
    """Normal draws with about 20% zeros, every entry's sign random, so
    -0.0 appears as often as +0.0."""
    rng = np.random.default_rng(seed)
    x = np.where(rng.random(shape) < 0.2, 0.0, rng.standard_normal(shape))
    return x * rng.choice([-1.0, 1.0], size=shape)


def _assert_bitwise(got, want):
    assert got.dtype == want.dtype == np.float64
    np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(np.signbit(got), np.signbit(want))


# Rows per cache block (1 MiB of rows): 131072 at width 1, 2048 at 51
# (11 stages inside a block), 512 at 201 (9), 16 at 5000 (4), and a
# single row at 70000, where every stage runs over the whole array.
_FWHT_CASES = (
    [((n,), "c") for n in (1, 2, 8, 1 << 17, 1 << 18, 1 << 19)]
    + [((n, 1), "c") for n in (4, 1 << 18)]
    + [((n, 51), "c") for n in (2048, 4096, 16384)]
    + [((n, 201), "c") for n in (512, 1024, 4096)]
    + [((n, 5000), "c") for n in (16, 64, 128)]
    + [((n, 70000), "c") for n in (1, 2, 8)]
    + [((4096, 51), layout) for layout in ("fortran", "strided", "int")]
    + [((64, 3, 5), "c"), ((64, 3, 5), "strided"), ((8, 0), "c"), ((8, 0, 3), "c"),
       ((1 << 18,), "strided")]
    + [((8192, 51), "srht-padding"), ((4096, 201), "one-live-row"), ((4096, 51), "all-zero"),
       ((1 << 18,), "tail-off-block"), ((4096, 51), "negative-zero-tail"),
       ((4096, 51), "all-negative-zero")]
)

# Layouts whose rows from a start on are set to one zero, which the transform
# skips when it is +0.0: the srht's 5,000 data rows padded to 8,192 (2048-row
# blocks), one live row, no live row, a tail that starts inside the second of
# two 131072-row blocks, and -0.0 rows, which are live: a tail behind one data
# row, whose zero entries leave whole columns of signed zeros, and a whole
# array, which a transform that skipped it would leave all -0.0.
_ZERO_TAILS = {"srht-padding": (5000, 0.0), "one-live-row": (1, 0.0), "all-zero": (0, 0.0),
               "tail-off-block": (200_003, 0.0), "negative-zero-tail": (1, -0.0),
               "all-negative-zero": (0, -0.0)}


@pytest.mark.parametrize("shape, layout", _FWHT_CASES)
def test_fwht_matches_stagewise_oracle(shape, layout):
    x = _signed_zeros(shape)
    if layout in _ZERO_TAILS:
        start, zero = _ZERO_TAILS[layout]
        x[start:] = zero
    if layout == "int":
        x = np.rint(100.0 * x).astype(np.int64)
    want = oracles.fwht_stagewise(x)
    if layout == "strided":
        base = np.zeros((2 * shape[0],) + shape[1:])
        base[::2] = x
        arg = base[::2]
    else:
        arg = np.asfortranarray(x) if layout == "fortran" else x.copy()
    out = fwht_in_place(arg)
    if layout == "int":
        np.testing.assert_array_equal(arg, x)
    else:
        assert out is arg
    if layout == "strided":
        np.testing.assert_array_equal(base[1::2], 0.0)
        np.testing.assert_array_equal(np.signbit(base[1::2]), False)
    _assert_bitwise(out, want)


# ---------------------------------------------------------------------
# cholesky_solve
# ---------------------------------------------------------------------

def test_cholesky_identity():
    b = np.array([3.0, -1.0, 2.0])
    np.testing.assert_allclose(cholesky_solve(np.eye(3), b), b)


def test_cholesky_scalar():
    np.testing.assert_allclose(cholesky_solve(np.array([[4.0]]), [2.0]), [0.5])


def test_cholesky_residual():
    rng = np.random.default_rng(17)
    A = rng.standard_normal((8, 8))
    A = A @ A.T + 8 * np.eye(8)
    b = rng.standard_normal(8)
    x = cholesky_solve(A, b)
    assert np.linalg.norm(A @ x - b) <= 1e-8 * np.linalg.norm(b)


def test_cholesky_rejects_indefinite():
    with pytest.raises(SingularityError):
        cholesky_solve(np.array([[1.0, 2.0], [2.0, 1.0]]), [1.0, 1.0])


# ---------------------------------------------------------------------
# RNG substreams
# ---------------------------------------------------------------------

def test_substream_deterministic():
    a = substream(123, 4, 5).standard_normal(6)
    b = substream(123, 4, 5).standard_normal(6)
    np.testing.assert_array_equal(a, b)


def test_substream_paths_differ():
    a = substream(123, 0).standard_normal(8)
    b = substream(123, 1).standard_normal(8)
    c = substream(124, 0).standard_normal(8)
    assert not np.allclose(a, b)
    assert not np.allclose(a, c)


def test_derive_deterministic_and_bounded():
    x = derive(99, 2, 7)
    assert x == derive(99, 2, 7)
    assert x != derive(99, 2, 8)
    assert 0 <= x < 2**63


def test_derive_feeds_substream():
    # Deriving a child seed and opening a stream on it is reproducible.
    child = derive(1000, 3)
    a = substream(child).random(4)
    b = substream(derive(1000, 3)).random(4)
    np.testing.assert_array_equal(a, b)
