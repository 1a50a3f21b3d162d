"""Dense linear algebra helpers: the fast Walsh-Hadamard transform and
symmetric positive definite solves."""

from __future__ import annotations

import numpy as np
import scipy.linalg

from ..errors import DomainError, SingularityError

__all__ = ["fwht_in_place", "cholesky_solve"]


def fwht_in_place(v):
    """Unnormalized fast Walsh-Hadamard transform, in place.

    Computes H_n v for the Sylvester-ordered Hadamard matrix H_n
    (entries +-1, H_n H_n = n I) in O(n log n) additions.  Accepts a
    vector, or a 2-D array transformed column-wise (axis 0).

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
    h = 1
    while h < n:
        blocks = work.reshape(n // (2 * h), 2, h, -1)
        top, bottom = blocks[:, 0], blocks[:, 1]
        diff = top - bottom
        top += bottom
        bottom[...] = diff
        h *= 2
    if not np.shares_memory(work, v):
        v[...] = work.reshape(v.shape)
    return v


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
