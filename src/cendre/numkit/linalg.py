"""Dense linear algebra helpers: the fast Walsh-Hadamard transform and
symmetric positive definite solves."""

from __future__ import annotations

import numpy as np
import scipy.linalg

from ..errors import DomainError, SingularityError

__all__ = ["fwht_in_place", "cholesky_solve"]


_BLOCK_BYTES = 1 << 20  # bytes of rows per cache block; with its half-size scratch it fits L2


def fwht_in_place(v):
    """Unnormalized fast Walsh-Hadamard transform, in place.

    Computes H_n v for the Sylvester-ordered Hadamard matrix H_n
    (entries +-1, H_n H_n = n I) in O(n log n) additions.  Accepts a
    vector, or an array of any rank transformed along axis 0.  A float64
    input is transformed in place and returned; any other input (an int
    array, a list) is transformed in a float64 copy, which is returned.

    A stage of half-width h mixes rows only within aligned runs of 2h.
    So with R the largest power of two whose R rows fit _BLOCK_BYTES
    (capped at n), the stages with 2h <= R run one aligned block of R
    rows at a time while it sits in cache, and the rest run over the
    whole array; both take two stages per pass where two remain.  Every
    entry sees the same additions and subtractions in the same order as
    in a stage-by-stage pass, so the output is bitwise that of the plain
    transform, signed zeros included.

    Raises
    ------
    DomainError
        If the leading dimension is not a power of two.
    """
    v = np.asarray(v, dtype=np.float64)
    n = v.shape[0]
    if n < 1 or (n & (n - 1)) != 0:
        raise DomainError(f"length {n} is not a power of two")
    work = np.ascontiguousarray(v).reshape(n, -1)
    width = work.shape[1]
    rows = max(_BLOCK_BYTES // (8 * max(width, 1)), 1)
    block = min(1 << (rows.bit_length() - 1), n)
    scratch = np.empty((n // 2) * width)
    for start in range(0, n, block):
        _stages(work[start:start + block], 1, block, scratch)
    _stages(work, block, n, scratch)
    if not np.shares_memory(work, v):
        v[...] = work.reshape(v.shape)
    return v


def _stages(x, h, stop, scratch):
    """Butterfly stages of half-width h, 2h, ... below stop on the rows of
    x, two at a time (radix 4) while two remain, using scratch for the
    differences."""
    m, width = x.shape
    half = (m // 2) * width
    quarter = half // 2
    while 4 * h <= stop:
        a, b, c, d = np.moveaxis(x.reshape(m // (4 * h), 4, h, width), 1, 0)
        t1 = scratch[:quarter].reshape(a.shape)
        t2 = scratch[quarter:2 * quarter].reshape(a.shape)
        np.subtract(a, b, out=t1)
        a += b
        np.subtract(c, d, out=t2)
        c += d
        np.add(t1, t2, out=b)
        np.subtract(t1, t2, out=d)
        np.subtract(a, c, out=t1)
        a += c
        c[...] = t1
        h *= 4
    if h < stop:
        top, bottom = np.moveaxis(x.reshape(m // (2 * h), 2, h, width), 1, 0)
        diff = scratch[:half].reshape(top.shape)
        np.subtract(top, bottom, out=diff)
        top += bottom
        bottom[...] = diff


def cholesky_solve(A, b):
    """Solve A x = b for symmetric positive definite A.

    Raises
    ------
    SingularityError
        If the Cholesky factorization hits a non-positive pivot.
    """
    A = np.asarray(A, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    try:
        factor = scipy.linalg.cho_factor(A, lower=True, check_finite=False)
    except scipy.linalg.LinAlgError as exc:
        raise SingularityError(f"matrix is not positive definite: {exc}") from exc
    return scipy.linalg.cho_solve(factor, b, check_finite=False)
