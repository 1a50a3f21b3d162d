"""Censored-Gaussian per-datum quantities.

The pinned constants were computed at 40-digit precision from the
defining integrals; derivative identities are checked against central
finite differences, and the information scalar against the truncated
normal variance identity h sigma^2 = 1 - Var(Z | z_l < Z < z_u).
"""

import math
import warnings
import zlib

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import integrate

from cendre.errors import DomainError
from cendre.likelihood import (CensoredTerm, ScoreInfo, evaluate, interval_offsets, loss,
                               score_info)
from cendre.numkit import interval_log_prob

import oracles


def censored_term(z_l, z_u, sigma=1.0):
    """Build a one-feature censored term whose bounds at theta are (z_l, z_u)."""
    tau = 0.5 * (z_u - z_l)
    shift = -0.5 * (z_l + z_u)  # (x'theta - anchor)/sigma
    term = CensoredTerm(True, 0.0, np.array([1.0]), tau, sigma)
    theta = np.array([shift * sigma])
    return term, theta


# ---------------------------------------------------------------------
# construction and interval endpoints
# ---------------------------------------------------------------------

def test_term_validation():
    with pytest.raises(DomainError):
        CensoredTerm(False, 1.0, np.ones(2), 1.0, 0.0)
    with pytest.raises(DomainError):
        CensoredTerm(True, 1.0, np.ones(2), -0.5, 1.0)
    with pytest.raises(DomainError):
        CensoredTerm(True, 1.0, np.ones(2), 0.0, 1.0)
    CensoredTerm(False, 1.0, np.ones(2), 0.0, 1.0)


# The censored loss is -log P(z_l < Z < z_u) over the standardized
# interval (z_l, z_u) = (-tau - shift, tau - shift), shift = (x'theta - anchor)/sigma.

def test_bounds_centered():
    term = CensoredTerm(True, 0.0, np.array([1.0, -1.0]), 2.0, 1.0)
    assert loss(term, np.zeros(2)) == -interval_log_prob(-2.0, 2.0)


def test_bounds_shifted():
    term = CensoredTerm(True, 0.0, np.array([1.0]), 1.0, 1.0)
    assert loss(term, np.array([0.5])) == pytest.approx(-interval_log_prob(-1.5, 0.5),
                                                        abs=1e-15)


def test_bounds_width_is_two_tau():
    rng = np.random.default_rng(21)
    for _ in range(100):
        p = rng.integers(1, 6)
        term = CensoredTerm(True, rng.normal(), rng.standard_normal(p),
                            float(rng.uniform(0, 3)), float(rng.uniform(0.1, 4)))
        theta = rng.standard_normal(p)
        z_l = -term.tau - (term.x @ theta - term.y_or_anchor) / term.sigma
        want = -interval_log_prob(z_l, z_l + 2 * term.tau)
        assert loss(term, theta) == pytest.approx(want, rel=1e-12)


# ---------------------------------------------------------------------
# loss
# ---------------------------------------------------------------------

def test_loss_zero_residual():
    term = CensoredTerm(False, 1.5, np.array([3.0]), 1.0, 2.0)
    assert loss(term, np.array([0.5])) == 0.0


def test_loss_quadratic():
    term = CensoredTerm(False, 2.0, np.array([1.0]), 1.0, 2.0)
    # (2 - 0.5)^2 / (2 * 4)
    assert loss(term, np.array([0.5])) == pytest.approx(1.5**2 / 8.0, rel=1e-15)


def test_loss_censored_centered():
    # -log P(|Z| < 1) = 0.38171514630212607 (quadrature oracle)
    term, theta = censored_term(-1.0, 1.0)
    assert loss(term, theta) == pytest.approx(0.3817151463021261, rel=1e-12)


def test_loss_censored_nonnegative():
    rng = np.random.default_rng(31)
    for _ in range(200):
        z_l = rng.uniform(-6, 5.5)
        term, theta = censored_term(z_l, z_l + rng.uniform(1e-3, 4))
        assert loss(term, theta) >= 0.0


def test_loss_censored_matches_quadrature():
    rng = np.random.default_rng(41)
    for _ in range(50):
        z_l = rng.uniform(-5, 4)
        z_u = z_l + rng.uniform(0.01, 3)
        term, theta = censored_term(z_l, z_u, sigma=float(rng.uniform(0.2, 3)))
        want = -math.log(oracles.quad_interval_prob(z_l, z_u))
        assert loss(term, theta) == pytest.approx(want, rel=1e-9)


# ---------------------------------------------------------------------
# score scalar
# ---------------------------------------------------------------------

def test_score_uncensored():
    term = CensoredTerm(False, 2.0, np.array([1.0]), 1.0, 1.0)
    assert evaluate(term, np.array([0.5])).beta == pytest.approx(1.5, rel=1e-15)


def test_score_centered_zero():
    term, theta = censored_term(-1.7, 1.7)
    assert evaluate(term, theta).beta == pytest.approx(0.0, abs=1e-15)


def test_score_pinned():
    # (phi(-1.5) - phi(0.5)) / (Q(-1.5) - Q(0.5)) = -0.35627288417705976
    term, theta = censored_term(-1.5, 0.5)
    assert evaluate(term, theta).beta == pytest.approx(-0.3562728841770598, rel=1e-12)


def test_score_pulls_toward_interval():
    # The prediction sits above the anchor (interval pushed left), so the
    # descent direction must push x'theta back down: beta < 0 for x > 0.
    term, theta = censored_term(-2.5, -0.5)
    assert evaluate(term, theta).beta < 0.0
    term, theta = censored_term(0.5, 2.5)
    assert evaluate(term, theta).beta > 0.0


def test_score_odd_under_reflection():
    rng = np.random.default_rng(51)
    for _ in range(50):
        z_l = rng.uniform(-6, 5)
        z_u = z_l + rng.uniform(0.01, 3)
        t1, th1 = censored_term(z_l, z_u)
        t2, th2 = censored_term(-z_u, -z_l)
        assert evaluate(t1, th1).beta == pytest.approx(-evaluate(t2, th2).beta,
                                                      rel=1e-12, abs=1e-15)


# ---------------------------------------------------------------------
# information scalar
# ---------------------------------------------------------------------

def test_info_uncensored():
    term = CensoredTerm(False, 0.0, np.ones(1), 1.0, 2.0)
    assert evaluate(term, np.zeros(1)).info == 0.25


def test_info_pinned():
    # ratio^2 + curvature = 0.12693037 + 0.59282148 = 0.7197518498487749
    term, theta = censored_term(-1.5, 0.5)
    assert evaluate(term, theta).info == pytest.approx(0.7197518498487749, rel=1e-12)


def test_info_range_sweep():
    # 10,000 random censored intervals: h in (0, 1/sigma^2], strictly
    # below the uncensored information except in the wide-interval limit.
    rng = np.random.default_rng(61)
    for _ in range(10_000):
        z_l = rng.uniform(-8, 7.9)
        z_u = z_l + rng.uniform(1e-3, 6)
        sigma = float(rng.uniform(0.2, 3))
        term, theta = censored_term(z_l, z_u, sigma)
        h = evaluate(term, theta).info
        assert 0.0 < h <= 1.0 / sigma**2 + 1e-12


def test_info_truncated_variance_identity():
    # h sigma^2 = 1 - Var(Z | z_l < Z < z_u), evaluated by quadrature.
    rng = np.random.default_rng(71)
    for _ in range(40):
        z_l = rng.uniform(-4, 3)
        z_u = z_l + rng.uniform(0.05, 3)
        sigma = float(rng.uniform(0.3, 2.5))
        term, theta = censored_term(z_l, z_u, sigma)
        P = oracles.quad_interval_prob(z_l, z_u)
        mean, _ = integrate.quad(lambda t: t * oracles.pdf(t) / P, z_l, z_u)
        second, _ = integrate.quad(lambda t: t * t * oracles.pdf(t) / P, z_l, z_u)
        var_trunc = second - mean**2
        want = (1.0 - var_trunc) / sigma**2
        assert evaluate(term, theta).info == pytest.approx(want, rel=1e-7)


def test_info_even_under_reflection():
    rng = np.random.default_rng(81)
    for _ in range(50):
        z_l = rng.uniform(-6, 5)
        z_u = z_l + rng.uniform(0.01, 3)
        t1, th1 = censored_term(z_l, z_u)
        t2, th2 = censored_term(-z_u, -z_l)
        assert evaluate(t1, th1).info == pytest.approx(evaluate(t2, th2).info, rel=1e-12)


# ---------------------------------------------------------------------
# derivative identities
# ---------------------------------------------------------------------

def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(91)
    for _ in range(100):
        p = int(rng.integers(1, 5))
        x = rng.standard_normal(p)
        theta = rng.standard_normal(p) * 0.7
        sigma = float(rng.uniform(0.3, 2.0))
        censored = bool(rng.integers(0, 2))
        tau = float(rng.uniform(0.1, 2.0)) if censored else float(rng.uniform(0, 2))
        term = CensoredTerm(censored, float(rng.normal()), x, tau, sigma)
        grad = oracles.central_diff_grad(lambda th: loss(term, th), theta)
        want = -evaluate(term, theta).beta * x
        np.testing.assert_allclose(grad, want, rtol=1e-6, atol=1e-8)


def test_hessian_matches_finite_differences():
    # d(beta)/d(theta) = -h x, so a central difference of beta along e_i
    # must equal -h x_i.
    rng = np.random.default_rng(101)
    for _ in range(100):
        p = int(rng.integers(1, 5))
        x = rng.standard_normal(p)
        theta = rng.standard_normal(p) * 0.7
        sigma = float(rng.uniform(0.3, 2.0))
        censored = bool(rng.integers(0, 2))
        tau = float(rng.uniform(0.1, 2.0)) if censored else 0.5
        term = CensoredTerm(censored, float(rng.normal()), x, tau, sigma)
        h_info = evaluate(term, theta).info
        for i in range(p):
            e = np.zeros(p)
            e[i] = 1e-5
            fd = (evaluate(term, theta + e).beta - evaluate(term, theta - e).beta) / 2e-5
            assert fd == pytest.approx(-h_info * x[i], rel=1e-5, abs=1e-7)


def test_evaluate_consistent_with_parts():
    rng = np.random.default_rng(111)
    for _ in range(100):
        p = int(rng.integers(1, 4))
        x = rng.standard_normal(p)
        theta = rng.standard_normal(p)
        censored = bool(rng.integers(0, 2))
        term = CensoredTerm(censored, float(rng.normal()), x,
                            float(rng.uniform(0.1, 2)), float(rng.uniform(0.3, 2)))
        si = evaluate(term, theta)
        assert isinstance(si, ScoreInfo)
        beta, info = score_info(np.array([censored]), np.array([term.y_or_anchor]),
                                x @ theta, term.tau, term.sigma)
        assert si.loss == pytest.approx(loss(term, theta), rel=1e-14)
        assert si.beta == pytest.approx(beta[0], rel=1e-14)
        assert si.info == pytest.approx(info[0], rel=1e-14)


def test_evaluate_is_loss_and_one_element_score_info():
    # One formula each: evaluate's loss is loss() and its beta and h are a
    # one-element score_info, bit for bit, for uncensored, central
    # censored and tail censored (|shift| - tau > 6) terms.
    rng = np.random.default_rng(113)
    for kind in ("uncensored", "censored", "tail"):
        for _ in range(300):
            p = int(rng.integers(1, 5))
            x = rng.standard_normal(p)
            theta = rng.standard_normal(p)
            sigma = float(rng.uniform(0.3, 2.0))
            tau = float(rng.uniform(0.05, 2.0))
            anchor = float(rng.normal())
            if kind == "tail":
                # Place the prediction 6-30 sigma beyond the interval edge.
                shift = (tau + rng.uniform(6.0, 30.0)) * rng.choice((-1.0, 1.0))
                anchor = float(x @ theta) - shift * sigma
            term = CensoredTerm(kind != "uncensored", anchor, x, tau, sigma)
            si = evaluate(term, theta)
            beta, info = score_info([term.censored], [anchor], [float(x @ theta)], tau, sigma)
            assert si.loss == loss(term, theta)
            assert si.beta == beta[0] and si.info == info[0]


def _terms(rng, shape, kind):
    """Censored flags, anchors and predictions of one shape: central
    censored terms, tail ones (|shift| - tau > 6, up to 40) or a mix of
    both with uncensored terms, some of them far out; a tenth of the
    residuals are +0 or -0."""
    pred = rng.normal(size=shape) * 3.0
    shift = rng.uniform(-3.0, 3.0, size=shape)
    far = rng.uniform(6.0, 40.0, size=shape) * rng.choice((-1.0, 1.0), size=shape)
    if kind == "tail":
        shift = far + np.copysign(3.0, far)
    elif kind == "mixed":
        shift = np.where(rng.random(shape) < 0.3, far + np.copysign(3.0, far), shift)
    censored = np.ones(shape, dtype=bool) if kind != "mixed" else rng.random(shape) < 0.6
    anchor = pred - shift
    zero = rng.random(shape) < 0.1
    anchor = np.where(zero, pred, anchor)  # resid = +0
    neg = zero & (rng.random(shape) < 0.5)
    anchor, pred = np.where(neg, -0.0, anchor), np.where(neg, 0.0, pred)  # -0 - 0 = -0
    return censored, anchor, pred


@pytest.mark.parametrize("shape", [(1,), (25,), (4, 25)], ids=["1", "25", "4x25"])
@pytest.mark.parametrize("tau_kind", ["scalar", "per-entry", "zero", "some-zero"])
@pytest.mark.parametrize("kind", ["central", "tail", "mixed"])
def test_score_info_matches_gathered_oracle(shape, tau_kind, kind):
    # The single pass over the stacked bounds gives every entry the bits
    # of the gather/scatter routine, signed zeros included.
    rng = np.random.default_rng(zlib.crc32(f"{shape}-{tau_kind}-{kind}".encode()))
    for _ in range(40):
        censored, anchor, pred = _terms(rng, shape, kind)
        sigma = float(rng.uniform(0.3, 3.0))
        tau = {"scalar": float(rng.uniform(0.05, 3.0)),
               "per-entry": rng.uniform(0.0, 3.0, size=shape),
               "zero": 0.0,
               "some-zero": np.where(rng.random(shape) < 0.5, 0.0,
                                     rng.uniform(0.0, 3.0, size=shape))}[tau_kind]
        want = oracles.score_info_gathered(censored, anchor, pred, tau, sigma)
        got = score_info(censored, anchor, pred, tau, sigma)
        stacked = score_info(censored, anchor, pred, None, sigma,
                             interval_offsets(np.broadcast_to(tau, shape)))
        for w, g, o in zip(want, got, stacked):
            assert g.shape == o.shape == shape
            assert g.tobytes() == w.tobytes()
            assert o.tobytes() == w.tobytes()


def test_score_info_no_warning_outside_the_censored_set():
    # Uncensored entries run through the interval formulas too: at tau = 0
    # their P = Q(z_l) - Q(z_u) is 0, and far out both Q vanish, so 0/0.
    # np.where drops them, and they must not warn.
    rng = np.random.default_rng(117)
    resid = np.concatenate([rng.normal(size=20), [0.0, -0.0, 50.0, -900.0, 1e200]])
    censored = np.arange(resid.size) % 3 == 0
    censored[-5:] = False
    pred = rng.normal(size=resid.size)
    per_entry = np.where(censored, rng.uniform(0.5, 2.0, size=resid.size), 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for tau in (0.0, 1.5, per_entry):
            beta, info = score_info(censored, pred + resid, pred, tau, 1.3)
            want = oracles.score_info_gathered(censored, pred + resid, pred, tau, 1.3)
            assert beta.tobytes() == want[0].tobytes()
            assert info.tobytes() == want[1].tobytes()
            assert np.all(info[~censored] == 1.0 / 1.3**2)


# ---------------------------------------------------------------------
# tail stability
# ---------------------------------------------------------------------

def test_tail_pinned_values():
    # 40-digit oracle at (20, 21): beta = 20.049753067339751,
    # h = 0.99753673956998917.
    term, theta = censored_term(20.0, 21.0)
    assert evaluate(term, theta).beta == pytest.approx(20.049753067339751, rel=1e-10)
    assert evaluate(term, theta).info == pytest.approx(0.9975367395699892, rel=1e-10)


def test_tail_finite_out_to_35_sigma():
    for z in (8.0, 15.0, 25.0, 35.0, -35.0):
        z_l, z_u = (z, z + 1.0) if z > 0 else (z - 1.0, z)
        term, theta = censored_term(z_l, z_u)
        beta = evaluate(term, theta).beta
        h = evaluate(term, theta).info
        assert math.isfinite(beta) and math.isfinite(h)
        assert 0.0 < h <= 1.0


def test_tail_approaches_clipping_limit():
    # For a far interval the score approaches the inverse Mills ratio of
    # the near edge, which itself approaches z_near.
    for z in (10.0, 20.0, 30.0):
        term, theta = censored_term(z, z + 0.5)
        beta = evaluate(term, theta).beta
        assert z < beta < z + 0.6


@given(st.floats(-30.0, 29.0), st.floats(0.05, 4.0), st.floats(0.3, 3.0))
def test_score_info_finite_property(z_l, width, sigma):
    term, theta = censored_term(z_l, z_l + width, sigma)
    si = evaluate(term, theta)
    assert math.isfinite(si.beta)
    assert 0.0 < si.info <= 1.0 / sigma**2 + 1e-9
