"""Dense linear algebra helpers: the fast Walsh-Hadamard transform and
symmetric positive definite solves."""

from __future__ import annotations

import numpy as np

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

    Trailing rows whose bits are all zero (+0.0, as in a zero-padded
    input) are found by reading back from the end, a few times as many
    rows as the tail holds and no more.  Each pass, inside a block or
    over the whole array, then runs only on its aligned runs that hold a
    live row: a run of +0.0 stays +0.0 under a + b and a - b, so leaving
    it as it is changes no bit of the output.  A -0.0 or NaN row is live.

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
    live = _live_rows(work)
    for start in range(0, live, block):
        _stages(work[start:start + block], 1, block, scratch, live - start)
    _stages(work, block, n, scratch, live)
    if not np.shares_memory(work, v):
        v[...] = work.reshape(v.shape)
    return v


def _live_rows(work):
    """The number of rows of work (n, width) up to its last one that is not
    all +0.0 bits: runs back from the end that double in length, then a
    bisection of the run that holds that row."""
    n, width = work.shape
    bits = work.reshape(-1).view(np.uint64)
    end, run = n, 1
    while end and not np.count_nonzero(bits[max(end - run, 0) * width:end * width]):
        end, run = max(end - run, 0), 2 * run
    start = max(end - run, 0)  # rows [start, end) hold a live row, the rest none
    while end - start > 1:
        mid = (start + end) // 2
        if np.count_nonzero(bits[mid * width:end * width]):
            start = mid
        else:
            end = mid
    return end


def _stages(x, h, stop, scratch, live):
    """Butterfly stages of half-width h, 2h, ... below stop on the rows of
    x, two at a time (radix 4) while two remain, using scratch for the
    differences; each pass skips the aligned runs past the first `live`
    rows, which are all +0.0."""
    width = x.shape[1]
    while 4 * h <= stop:
        m = min(-(-live // (4 * h)) * 4 * h, x.shape[0])
        live, quarter = m, (m // 4) * width
        a, b, c, d = np.moveaxis(x[:m].reshape(m // (4 * h), 4, h, width), 1, 0)
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
        m = min(-(-live // (2 * h)) * 2 * h, x.shape[0])
        top, bottom = np.moveaxis(x[:m].reshape(m // (2 * h), 2, h, width), 1, 0)
        diff = scratch[:(m // 2) * width].reshape(top.shape)
        np.subtract(top, bottom, out=diff)
        top += bottom
        bottom[...] = diff


def cholesky_solve(A, b):
    """Solve A x = b for symmetric positive definite A: A = L L' by
    Cholesky, then the two triangular systems L z = b and L' x = z.

    Raises
    ------
    SingularityError
        If the Cholesky factorization hits a non-positive pivot.
    """
    A = np.asarray(A, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    try:
        L = np.linalg.cholesky(A)
    except np.linalg.LinAlgError as exc:
        raise SingularityError(f"matrix is not positive definite: {exc}") from exc
    return np.linalg.solve(L.T, np.linalg.solve(L, b))
