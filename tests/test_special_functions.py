"""Accuracy of the special functions in ``cendre.numkit.gaussian``, which are
written on numpy and ``math`` alone, against scipy.special as the oracle.

scipy's erfc drifts from a 50-digit reference by up to 6e-14 relative past
x = 20, while its erfcx (the Faddeeva package) stays within 2e-15, so the
upper tail is checked through erfcx: Q(t) = erfcx(x) exp(-x^2) / 2 with
x = t / sqrt(2), the rounding error of x^2 put back as in the code under
test.  Narrow intervals right of zero are checked against mpmath.
"""

import math

import numpy as np
import pytest
from scipy import special

from cendre.numkit.gaussian import erfc, erfcx, gauss_q, gauss_q_inv, interval_log_prob, ndtri

EPS = np.finfo(np.float64).eps
SQRT_2 = 1.4142135623730951


def _q_oracle(t):
    x = t / SQRT_2
    sq = x * x
    hi = 134217729.0 * x
    hi = hi - (hi - x)
    lo = x - hi
    err = ((hi * hi - sq) + 2.0 * hi * lo) + lo * lo  # x^2 = sq + err exactly
    return 0.5 * special.erfcx(x) * np.exp(-sq) * (1.0 - err)


def test_erfc_matches_scipy_where_scipy_is_exact():
    x = np.linspace(-6.0, 10.0, 16_001)
    np.testing.assert_allclose(erfc(x), special.erfc(x), rtol=2e-14, atol=0)
    assert erfc(np.zeros((2, 3))).shape == (2, 3)


def test_gauss_q_relative_accuracy_down_to_1e_300():
    t = np.concatenate([np.linspace(-8.0, 37.5, 40_001),
                        np.random.default_rng(3).uniform(-8.0, 37.5, 20_000)])
    want = _q_oracle(t)
    live = want > 1e-300
    assert t[live].max() > 37.0
    np.testing.assert_allclose(gauss_q(t[live]), want[live], rtol=2e-14, atol=0)


def test_mills_ratio_far_tail():
    # Q(z)/phi(z) = sqrt(pi/2) erfcx(z/sqrt 2), which the censored score
    # takes once both interval bounds sit beyond z = 6.
    x = np.geomspace(6.0, 1e6, 5_001) / SQRT_2
    np.testing.assert_allclose(erfcx(x), special.erfcx(x), rtol=4e-15, atol=0)
    assert erfcx(np.inf) == 0.0 and erfcx(-30.0) == np.inf


def test_erfcx_below_the_continued_fraction():
    x = np.linspace(-26.0, 8.0, 6_801)
    np.testing.assert_allclose(erfcx(x), special.erfcx(x), rtol=1e-13, atol=0)


def test_ndtri_matches_scipy():
    p = np.concatenate([np.geomspace(1e-300, 0.5, 6_001), 1.0 - np.geomspace(1e-16, 0.5, 3_001)])
    want = special.ndtri(p)
    assert np.all(np.abs(ndtri(p) - want) <= 4e-15 * np.maximum(np.abs(want), 1.0))


def test_gauss_q_inv_round_trip_over_the_whole_range():
    # t carries a relative rounding error of about eps, which moves Q(t) by
    # about t^2 eps relative in the tail.
    u = np.concatenate([np.geomspace(1e-300, 0.5, 6_001),
                        1.0 - np.geomspace(1e-16, 0.5, 3_001)[::-1]])
    t = gauss_q_inv(u)
    assert np.all(np.abs(gauss_q(t) / u - 1.0) <= 2.0 * (1.0 + t * t) * EPS)
    np.testing.assert_allclose(t, -special.ndtri(u), rtol=1e-14, atol=1e-14)


def test_interval_log_prob_finite_and_matching_to_35():
    rng = np.random.default_rng(5)
    z_l = rng.uniform(-35.0, 35.0, 100_000)
    z_u = np.minimum(z_l + np.exp(rng.uniform(math.log(1e-3), math.log(70.0), z_l.size)), 35.0)
    z_l, z_u = z_l[z_u > z_l], z_u[z_u > z_l]
    flip = (z_l + z_u) < 0.0
    lo, hi = np.where(flip, -z_u, z_l), np.where(flip, -z_l, z_u)
    log_lo, log_hi = special.log_ndtr(-lo), special.log_ndtr(-hi)
    a = log_hi - log_lo  # log(1 - e^a), through log1p where e^a is small
    with np.errstate(divide="ignore"):
        want = log_lo + np.where(a < -math.log(2.0), np.log1p(-np.exp(a)), np.log(-np.expm1(a)))
    got = interval_log_prob(z_l, z_u)
    assert np.isfinite(got).all()
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


def test_interval_log_prob_narrow_across_zero():
    # Inside |z| < 1e-8 the mass is (z_u - z_l) phi(0) to double precision,
    # down to widths whose mass is near the smallest normal double.
    w = np.geomspace(1e-300, 1e-8, 2_001)
    u = np.random.default_rng(6).uniform(0.01, 0.99, w.size)
    z_l, z_u = -u * w, (1.0 - u) * w
    want = np.log((z_u - z_l) / math.sqrt(2.0 * math.pi))
    np.testing.assert_allclose(interval_log_prob(z_l, z_u), want, rtol=1e-15, atol=0)


def test_interval_log_prob_narrow_right_of_zero():
    # Right of zero the Mills difference cancels as the width w shrinks; the
    # midpoint series keeps every width to a few ulp of the log.  Reference:
    # mpmath's erfc difference, at 50 digits beyond the ones it cancels.
    mp = pytest.importorskip("mpmath")

    def exact(lo, hi):
        with mp.workdps(50 + max(0, int(-math.log10(hi - lo)))):
            a, b = mp.mpf(lo) / mp.sqrt(2), mp.mpf(hi) / mp.sqrt(2)
            return float(mp.log((mp.erfc(a) - mp.erfc(b)) / 2))

    assert interval_log_prob(0.5, 0.5 + 1e-13) == pytest.approx(-30.97723384527346, rel=4 * EPS)
    assert interval_log_prob(0.0, 1e-300) == pytest.approx(-691.6944664314184, rel=4 * EPS)
    z_l, z_u = [], []
    for lo in (0.0, 0.3, 0.5, 1.0, 2.5, 6.0, 12.0, 30.0, 37.0):
        for w in np.geomspace(1e-300, 2.0, 61):
            if lo + w > lo:
                z_l.append(lo)
                z_u.append(lo + w)
    want = [exact(lo, hi) for lo, hi in zip(z_l, z_u)]
    np.testing.assert_allclose(interval_log_prob(z_l, z_u), want, rtol=4 * EPS, atol=0)
