"""Batch row-reduction baselines: randomized-Hadamard and uniform row
sampling, plus the reduced-problem solver.

These compress a D x p regression to d rows up front, in contrast to
the streaming censors that choose rows on the fly.  The Hadamard
transform spreads each datum's energy across all rows before sampling,
so a uniform row draw of the mixed system behaves like a well
conditioned sketch; plain uniform sampling of the raw rows is the
no-preconditioning control.

Cost model (scalar multiplies, documented rather than counted): the
sign flip is D'(p+1) and the transform D' log2(D') (p+1) additions
only, so the sketch itself is multiply-light; solving the reduced
system is the usual O(d p^2) + O(p^3).  These counts, and the ledger's
D'(p+1), cover all D' rows, as the SRHT is defined; the code flips only
the D data rows and leaves the D' - D rows of +0.0 padding, which the
transform skips until a butterfly mixes them with data (see
``fwht_in_place``).  A nonzero output is the same bits either way; only
an exact zero could take the other sign.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .numkit.linalg import cholesky_solve, fwht_in_place
from .numkit.rng import substream

__all__ = ["ReducedProblem", "srht_reduce", "uniform_reduce", "solve_reduced"]


@dataclass(frozen=True)
class ReducedProblem:
    """A d-row surrogate for the full least-squares problem."""

    rows: np.ndarray
    rhs: np.ndarray
    selected_indices: np.ndarray
    scale: float


def _check_reduce_args(X: np.ndarray, y: np.ndarray, d: int) -> None:
    if X.ndim != 2:
        raise DomainError("X must be a 2-D array")
    if y.shape != (X.shape[0],):
        raise DomainError("y length must match the number of rows")
    if not (X.shape[1] <= d <= X.shape[0]):
        raise DomainError(f"need p <= d <= D, got d={d}, D={X.shape[0]}, p={X.shape[1]}")


def srht_reduce(X, y, d: int, seed: int) -> ReducedProblem:
    """Subsampled randomized Hadamard transform of (X, y).

    Pads to the next power of two D', flips signs by a Rademacher
    diagonal scaled 1/sqrt(D'), runs the fast Walsh-Hadamard transform
    down the columns, then keeps d rows uniformly without replacement,
    rescaled by sqrt(D'/d) so the sketched Gram matrix is unbiased.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    _check_reduce_args(X, y, d)
    D, p = X.shape
    D_pad = 1 << (D - 1).bit_length()
    rng = substream(seed)
    signs = rng.choice(np.array([-1.0, 1.0]), size=D_pad) / np.sqrt(D_pad)
    work = np.zeros((D_pad, p + 1), dtype=np.float64)
    work[:D, :p] = X
    work[:D, p] = y
    work[:D] *= signs[:D, None]  # the padding stays +0.0, which the transform skips
    fwht_in_place(work)
    selected = rng.choice(D_pad, size=int(d), replace=False)
    scale = np.sqrt(D_pad / d)
    kept = work[selected] * scale
    return ReducedProblem(rows=np.ascontiguousarray(kept[:, :p]),
                          rhs=np.ascontiguousarray(kept[:, p]),
                          selected_indices=selected, scale=float(scale))


def uniform_reduce(X, y, d: int, seed: int) -> ReducedProblem:
    """Keep d raw rows uniformly without replacement, scaled sqrt(D/d)."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    _check_reduce_args(X, y, d)
    D = X.shape[0]
    rng = substream(seed)
    selected = rng.choice(D, size=int(d), replace=False)
    scale = np.sqrt(D / d)
    return ReducedProblem(rows=X[selected] * scale, rhs=y[selected] * scale,
                          selected_indices=selected, scale=float(scale))


def solve_reduced(problem: ReducedProblem) -> np.ndarray:
    """Least-squares solution of the reduced system via normal equations."""
    A = problem.rows
    return cholesky_solve(A.T @ A, A.T @ problem.rhs)
