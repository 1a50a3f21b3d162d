"""Independent reference implementations used to pin expected values.

Everything here deliberately avoids the code paths under test: interval
probabilities come from adaptive quadrature of the density, quantiles
from bisection, Hadamard products from the explicit matrix or a
stage-by-stage butterfly, inverse updates from dense re-inversion, and
derivatives from central differences.  Slow and obvious beats fast and
clever in an oracle.
"""

import numpy as np
from scipy import integrate

SQRT_2PI = float(np.sqrt(2.0 * np.pi))


def pdf(t):
    return np.exp(-0.5 * t * t) / SQRT_2PI


def quad_q(t):
    """Upper-tail probability by adaptive quadrature."""
    val, _ = integrate.quad(pdf, t, np.inf)
    return val


def quad_interval_prob(z_l, z_u):
    """P(z_l < Z < z_u) by adaptive quadrature of the density."""
    val, _ = integrate.quad(pdf, z_l, z_u)
    return val


def bisect_q_inv(u, lo=-40.0, hi=40.0, iters=200):
    """Invert the upper-tail probability by bisection on quad_q."""
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if quad_q(mid) > u:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def hadamard_matrix(n):
    """Explicit Sylvester-ordered Hadamard matrix (entries +-1)."""
    if n < 1 or (n & (n - 1)) != 0:
        raise ValueError("n must be a power of two")
    H = np.array([[1.0]])
    while H.shape[0] < n:
        H = np.block([[H, H], [H, -H]])
    return H


def fwht_stagewise(v):
    """Walsh-Hadamard transform of v along axis 0, returned as a new
    float64 array: one butterfly stage at a time over the whole array,
    three numpy passes a stage, half-widths 1, 2, 4, ... in order."""
    v = np.array(v, dtype=np.float64, order="C")
    n = v.shape[0]
    work = v.reshape(n, -1)
    h = 1
    while h < n:
        blocks = work.reshape(n // (2 * h), 2, h, -1)
        top, bottom = blocks[:, 0], blocks[:, 1]
        diff = top - bottom
        top += bottom
        bottom[...] = diff
        h *= 2
    return v


def dense_inverse_update(C, x, w):
    """(C^-1 + w x x^T)^-1 the expensive way: invert, add, invert."""
    C = np.asarray(C, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    return np.linalg.inv(np.linalg.inv(C) + w * np.outer(x, x))


def central_diff_grad(f, x, h=1e-6):
    """Central-difference gradient of a scalar function of a vector."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (f(x + e) - f(x - e)) / (2.0 * h)
    return g


def central_diff_scalar(f, t, h=1e-6):
    """Central-difference derivative of a scalar function of a scalar."""
    return (f(t + h) - f(t - h)) / (2.0 * h)


def ridge_solution(X, y, epsilon):
    """argmin ||y - X theta||^2 + epsilon ||theta||^2, solved densely."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    p = X.shape[1]
    return np.linalg.solve(X.T @ X + epsilon * np.eye(p), X.T @ y)
