"""Row-reduction baselines: transform identities and solver checks."""

import numpy as np
import pytest

from cendre import sketch
from cendre.errors import DomainError
from cendre.numkit import substream
from cendre.sketch import ReducedProblem, solve_reduced, srht_reduce, uniform_reduce

from oracles import fwht_stagewise, hadamard_matrix


def _problem(seed, D, p, sigma=0.5):
    rng = substream(seed)
    X = rng.standard_normal((D, p))
    theta = rng.standard_normal(p)
    y = X @ theta + sigma * rng.standard_normal(D)
    return X, y


def test_full_sketch_reproduces_lse():
    # d = D' keeps every mixed row: an orthogonal transform of the
    # problem, whose least-squares solution is unchanged.
    X, y = _problem(1, 64, 5)
    red = srht_reduce(X, y, d=64, seed=9)
    want = np.linalg.lstsq(X, y, rcond=None)[0]
    np.testing.assert_allclose(solve_reduced(red), want, rtol=1e-8)


def test_transform_matches_dense_hadamard():
    X, y = _problem(2, 32, 3)
    red = srht_reduce(X, y, d=32, seed=4)
    H = hadamard_matrix(32)
    rng = substream(4)
    signs = rng.choice(np.array([-1.0, 1.0]), size=32) / np.sqrt(32)
    selected = rng.choice(32, size=32, replace=False)
    mixed = H @ (signs[:, None] * np.column_stack([X, y]))
    np.testing.assert_allclose(red.rows, mixed[selected][:, :3], rtol=1e-10)
    np.testing.assert_allclose(red.rhs, mixed[selected][:, 3], rtol=1e-10)


def test_srht_matches_stagewise_transform(monkeypatch):
    # D' = 8192 rows of width 51 span several cache blocks of the
    # transform; the reduction must not depend on how its stages run.
    X, y = _problem(6, 5000, 50)
    got = srht_reduce(X, y, d=400, seed=12)

    def stagewise(work):
        work[...] = fwht_stagewise(work)
        return work

    monkeypatch.setattr(sketch, "fwht_in_place", stagewise)
    want = srht_reduce(X, y, d=400, seed=12)
    for field in ("rows", "rhs"):
        a, b = getattr(got, field), getattr(want, field)
        np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(np.signbit(a), np.signbit(b))
    np.testing.assert_array_equal(got.selected_indices, want.selected_indices)
    assert got.scale == want.scale


def test_energy_preserved_before_subsampling():
    # Scaled Hadamard times Rademacher diagonal is orthogonal, so
    # keeping every mixed row carries exactly the original Frobenius
    # energy through.
    X, y = _problem(3, 32, 4)
    red = srht_reduce(X, y, d=32, seed=11)
    got = np.sum(red.rows**2) + np.sum(red.rhs**2)
    want = np.sum(X**2) + np.sum(y**2)
    assert got == pytest.approx(want, rel=1e-10)


def test_padded_problem_solves_cleanly():
    X, y = _problem(3, 48, 4)  # pads 48 -> 64 internally
    red = srht_reduce(X, y, d=40, seed=11)
    assert red.rows.shape == (40, 4)
    assert np.all(np.isfinite(solve_reduced(red)))


def test_gram_unbiased_over_seeds():
    X, y = _problem(4, 256, 3)
    grams = []
    for seed in range(300):
        red = srht_reduce(X, y, d=32, seed=seed)
        grams.append(red.rows.T @ red.rows)
    avg = np.mean(grams, axis=0)
    gram = X.T @ X
    rel = np.linalg.norm(avg - gram) / np.linalg.norm(gram)
    assert rel < 0.05


def test_uniform_keeps_raw_rows():
    X, y = _problem(5, 40, 4)
    red = uniform_reduce(X, y, d=10, seed=2)
    assert red.selected_indices.shape == (10,)
    assert len(set(red.selected_indices.tolist())) == 10
    np.testing.assert_allclose(red.rows, X[red.selected_indices] * red.scale)
    np.testing.assert_allclose(red.rhs, y[red.selected_indices] * red.scale)
    assert red.scale == pytest.approx(2.0)


def test_uniform_full_sample_is_lse():
    X, y = _problem(6, 30, 4)
    red = uniform_reduce(X, y, d=30, seed=3)
    want = np.linalg.lstsq(X, y, rcond=None)[0]
    np.testing.assert_allclose(solve_reduced(red), want, rtol=1e-8)


def test_solve_reduced_matches_lstsq():
    rng = substream(7)
    rows = rng.standard_normal((20, 5))
    rhs = rng.standard_normal(20)
    prob = ReducedProblem(rows=rows, rhs=rhs, selected_indices=np.arange(20), scale=1.0)
    want = np.linalg.lstsq(rows, rhs, rcond=None)[0]
    np.testing.assert_allclose(solve_reduced(prob), want, rtol=1e-9)


def test_reductions_deterministic_in_seed():
    X, y = _problem(8, 64, 4)
    for reduce in (srht_reduce, uniform_reduce):
        a = reduce(X, y, d=16, seed=5)
        b = reduce(X, y, d=16, seed=5)
        c = reduce(X, y, d=16, seed=6)
        np.testing.assert_array_equal(a.rows, b.rows)
        assert not np.array_equal(a.rows, c.rows)


def test_argument_validation():
    X, y = _problem(9, 20, 6)
    for reduce in (srht_reduce, uniform_reduce):
        with pytest.raises(DomainError):
            reduce(X, y, d=5, seed=1)   # d < p
        with pytest.raises(DomainError):
            reduce(X, y, d=21, seed=1)  # d > D
        with pytest.raises(DomainError):
            reduce(X, y[:-1], d=10, seed=1)
        with pytest.raises(DomainError):
            reduce(X.ravel(), y, d=10, seed=1)


def test_sketch_error_shrinks_with_d():
    # More sketched rows, closer to the full solution (averaged over
    # seeds to wash out draw noise).
    X, y = _problem(10, 512, 6)
    full = np.linalg.lstsq(X, y, rcond=None)[0]
    errs = []
    for d in (12, 64, 256):
        e = np.mean([
            np.sum((solve_reduced(srht_reduce(X, y, d, seed)) - full) ** 2)
            for seed in range(40)
        ])
        errs.append(e)
    assert errs[0] > errs[1] > errs[2]
