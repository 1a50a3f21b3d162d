"""Deterministic numerical primitives: Gaussian tails, stable interval
probabilities, Cholesky solves, the fast Walsh-Hadamard transform, and
seeded substream derivation."""

from .gaussian import gauss_pdf, gauss_q, gauss_q_inv, interval_log_prob
from .linalg import cholesky_solve, fwht_in_place
from .rng import derive, substream

__all__ = [
    "gauss_pdf",
    "gauss_q",
    "gauss_q_inv",
    "interval_log_prob",
    "fwht_in_place",
    "cholesky_solve",
    "substream",
    "derive",
]
